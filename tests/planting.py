"""Planted faults for the tests: an R-matrix plus h^grade E, E constant.

R̄₀ = Id, so a planted E first meets the classical r (the h^1 grade) at
grade + 1; the tests derive each row's failing grade from that.
"""

from fractions import Fraction

from qkzkit.hseries import HSeries
from qkzkit.scalar import Scalar
from qkzkit.tensor import LegMatrix

#: the constant matrix E planted by the fault tests, as {(row, col): value}
E = {(0, 1): 1, (2, 3): Fraction(-2, 3), (1, 1): 5}


def fault_matrix(m: LegMatrix, grade: int, entries=E) -> LegMatrix:
    """h^grade E on the legs of m, E the constant matrix of entries."""
    one = Scalar.from_hseries(HSeries.h(m.D, grade), m.mode)
    scaled = {rc: one.scale(Fraction(c)) for rc, c in entries.items()}
    return LegMatrix(m.shape, scaled, m.D, m.mode)


def planted(F, grade, entries=E):
    """F, raw or normalized, with its base matrix R replaced by
    R + h^grade E, in place; values memoized before are dropped."""
    F._base = F.base + fault_matrix(F.base, grade, entries)
    F._values.clear()
    return F
