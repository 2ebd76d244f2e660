"""Point evaluation of a Scalar over Fraction, kept as the oracle of
Scalar.eval (one integer accumulation over the surviving Taylor terms).

evaluate is the Taylor sum that Scalar.eval ran before: every grade of
every derivative f^(j) up to the last j with vp^j nonzero, each read as a
Fraction from the Q-views RatFn.num and RatFn.den, each term an HSeries
product normalized by a gcd.
"""

from fractions import Fraction
from math import factorial

from qkzkit.errors import PoleError
from qkzkit.hseries import HSeries


def _at(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def ratfn_at(g, x: Fraction) -> Fraction:
    """g(x) from g's canonical form over Q."""
    dv = _at(g.den, x)
    if dv == 0:
        raise PoleError(f"pole at w = {x}")
    return _at(g.num, x) / dv


def evaluate(s, p) -> HSeries:
    """s at the point p, truncated at s's D."""
    D = s.truncation
    v0 = p.value.constant_part
    vp = p.value.positive_part()
    acc = HSeries.zero(D)
    power = HSeries.constant(1, D)
    for j in range(D + 1):
        term = HSeries([ratfn_at(g, v0) for g in s.deriv(j).grades]) * power
        acc = acc + term.scale(Fraction(1, factorial(j)))
        power = power * vp
        if power.is_zero:
            break
    return acc
