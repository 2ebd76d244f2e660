"""Truncated power series in the quantization parameter h.

series_mul and series_inv are the one truncated Cauchy product and inverse
of the kernel; they work over any coefficient ring whose zero is falsy
(Fraction, RatFn).  HSeries applies them over Q: shift amounts, central
charges, evaluation points.  All operands of a binary operation must share D.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import NonUnitError, TruncationMismatch
from .ratfn import frac_to_str, str_to_frac


def series_mul(a, b, zero) -> list:
    """Coefficients of a*b truncated to len(a) terms; b is at least as long."""
    n = len(a)
    out = [zero] * n
    # zero tests cost a call per coefficient, so test each b[j] once
    terms = [(j, y) for j, y in enumerate(b[:n]) if y]
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in terms:
            if i + j >= n:
                break
            out[i + j] = out[i + j] + x * y
    return out


def series_inv(a, inv0, zero) -> list:
    """Coefficients of 1/a truncated to len(a) terms; inv0 is 1/a[0]."""
    n = len(a)
    out = [zero] * n
    out[0] = inv0
    for m in range(1, n):
        acc = zero
        for k in range(1, m + 1):
            if a[k] and out[m - k]:
                acc = acc + a[k] * out[m - k]
        out[m] = -(inv0 * acc)
    return out


class HSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("HSeries needs at least the h^0 coefficient")
        self.coeffs = coeffs

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(c, D: int) -> "HSeries":
        return HSeries((Fraction(c),) + (Fraction(0),) * D)

    @staticmethod
    def h(D: int, power: int = 1) -> "HSeries":
        """The monomial h^power."""
        return HSeries(
            tuple(Fraction(1 if m == power else 0) for m in range(D + 1))
        )

    @staticmethod
    def zero(D: int) -> "HSeries":
        return HSeries.constant(0, D)

    def _check(self, other: "HSeries"):
        if self.truncation != other.truncation:
            raise TruncationMismatch(
                f"D={self.truncation} vs D={other.truncation}"
            )

    def __add__(self, other: "HSeries") -> "HSeries":
        self._check(other)
        return HSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HSeries") -> "HSeries":
        self._check(other)
        return HSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "HSeries":
        return HSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other: "HSeries") -> "HSeries":
        self._check(other)
        return HSeries(series_mul(self.coeffs, other.coeffs, Fraction(0)))

    def scale(self, c) -> "HSeries":
        c = Fraction(c)
        return HSeries(tuple(a * c for a in self.coeffs))

    def inv(self) -> "HSeries":
        if self.coeffs[0] == 0:
            raise NonUnitError("h^0 coefficient is zero")
        return HSeries(series_inv(self.coeffs, 1 / self.coeffs[0], Fraction(0)))

    def exp(self) -> "HSeries":
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise NonUnitError("exp needs zero h^0 part")
        n = len(self.coeffs)
        acc = HSeries.constant(1, n - 1)
        power = HSeries.constant(1, n - 1)
        for j in range(1, n):
            power = power * self
            if power.is_zero:
                break
            acc = acc + power.scale(Fraction(1, factorial(j)))
        return acc

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def constant_part(self) -> Fraction:
        return self.coeffs[0]

    def positive_part(self) -> "HSeries":
        """The h^1-and-up tail."""
        return HSeries((Fraction(0),) + self.coeffs[1:])

    def __eq__(self, other) -> bool:
        return isinstance(other, HSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"HSeries({hseries_to_str(self)!r})"


def hseries_to_str(s: HSeries) -> str:
    return ",".join(frac_to_str(c) for c in s.coeffs)


def str_to_hseries(text: str, D: int | None = None) -> HSeries:
    """Parse "c0,c1,..." (or a single "p/q" meaning a constant)."""
    parts = [str_to_frac(p) for p in text.split(",")]
    if D is not None:
        if len(parts) == 1:
            parts = parts + [Fraction(0)] * D
        elif len(parts) != D + 1:
            raise ValueError(f"expected {D + 1} coefficients, got {len(parts)}")
    return HSeries(parts)
