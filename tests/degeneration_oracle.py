"""The scaling limit of a trigonometric R-matrix by truncated s-series.

Each grade-m coefficient g(w) is expanded at w = exp(c*s*u) as a Laurent
series in s over RatFn(u) with L terms, and the s^0 part of g*(s*h)^m is
kept.  The tests compare families.degeneration_limit, which reads the same
limit off one Laurent coefficient per grade, against this expansion.  A
denominator whose s-valuation reaches L reads as zero here, so L must
exceed every valuation of the inputs.
"""

from fractions import Fraction
from math import factorial

from qkzkit.errors import KernelError
from qkzkit.hseries import series_inv, series_mul
from qkzkit.ratfn import RF_ZERO, RatFn, ptrim
from qkzkit.scalar import ADDITIVE, Scalar
from qkzkit.tensor import LegMatrix, LegShape


def _poly_at_series(p, e, L):
    """Evaluate a Fraction-coefficient polynomial at an RatFn series."""
    acc = [RF_ZERO] * L
    for c in reversed(p if p else (Fraction(0),)):
        acc = series_mul(acc, e, RF_ZERO)
        acc[0] = acc[0] + RatFn.from_fraction(c)
    return acc


def _laurent_quotient(num, den, L):
    """(valuation, coeffs) of num/den as a Laurent series in s."""
    vn = next((i for i, c in enumerate(num) if c), None)
    vd = next((i for i, c in enumerate(den) if c), None)
    if vd is None:
        raise ZeroDivisionError("zero denominator series")
    if vn is None:
        return 0, [RF_ZERO] * L
    den_unit = den[vd:] + [RF_ZERO] * vd
    q = series_mul(
        num[vn:] + [RF_ZERO] * vn,
        series_inv(den_unit, den_unit[0].inv(), RF_ZERO),
        RF_ZERO,
    )
    return vn - vd, q


def series_limit(F, L=None) -> LegMatrix:
    """The scaling limit of F.base from L-term s-series (default 2D + 8)."""
    D = F.D
    if L is None:
        L = 2 * D + 8
    c = F.hshift_scale
    e = [
        RatFn(ptrim([Fraction(0)] * j + [Fraction(c**j, factorial(j))]))
        for j in range(L)
    ]
    entries: dict = {}
    for (rc, cc), v in F.base.entries.items():
        grades_out = [RF_ZERO] * (D + 1)
        for m, g in enumerate(v.grades):
            if g.is_zero:
                continue
            num = _poly_at_series(g.num, e, L)
            den = _poly_at_series(g.den, e, L)
            val, q = _laurent_quotient(num, den, L)
            # total s-exponent of q[j] h^m is m + val + j
            for j, a in enumerate(q):
                tot = m + val + j
                if tot > 0 or a.is_zero:
                    continue
                if tot < 0:
                    raise KernelError(
                        f"degeneration has a pole in s at entry {(rc, cc)}"
                    )
                grades_out[m] = grades_out[m] + a
        sc = Scalar(grades_out, ADDITIVE)
        if not sc.is_zero:
            entries[(rc, cc)] = sc
    return LegMatrix(LegShape([F.N, F.N]), entries, D, ADDITIVE)
