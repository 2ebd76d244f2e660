"""A Fraction polynomial oracle for the tests.

Euclidean division, the monic form and the Euclidean gcd over Q[w], with
no shortcut, and the primitive int form that the RatFn kernel computes in.
Polynomials are ascending coefficient tuples with no trailing zeros.
"""

from fractions import Fraction
from math import gcd, lcm

from qkzkit.ratfn import pmul, ptrim


def pdivmod(a, b):
    """(quotient, remainder) of a by b over Q[w]."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = [Fraction(c) for c in a]
    db, lb = len(b) - 1, b[-1]
    while r and len(r) - 1 >= db:
        k = len(r) - 1 - db
        c = r[-1] / lb
        q[k] = c
        for i, cb in enumerate(b):
            r[k + i] -= c * cb
        while r and r[-1] == 0:
            r.pop()
    return ptrim(q), ptrim(r)


def pmonic(a):
    """a divided by its leading coefficient, as Fractions."""
    return tuple(Fraction(c) / a[-1] for c in a) if a else a


def euclid_gcd(a, b):
    """Monic gcd by the plain Euclidean algorithm."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def euclid_lcm(a, b):
    """Monic lcm of two nonzero polynomials."""
    return pmonic(pmul(pmonic(a), pdivmod(pmonic(b), euclid_gcd(a, b))[0]))


def primitive(a):
    """The int polynomial with coprime coefficients and a positive leading
    coefficient that is a rational multiple of a; () for zero."""
    if not a:
        return a
    den = lcm(*(Fraction(c).denominator for c in a))
    ints = [int(c * den) for c in a]
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return tuple(c // g for c in ints)
