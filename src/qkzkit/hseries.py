"""Truncated power series in the quantization parameter h.

series_mul and series_inv are the one truncated Cauchy product and inverse
of the kernel; they work over any coefficient ring whose zero is falsy
(int, Fraction, RatFn).  HSeries is a series over Q stored with integer
content, n/d: one common denominator d > 0 over a tuple of ints n, with
gcd(d, *n) == 1, so a product is one integer convolution through series_mul
and one gcd, and no Fraction is built.  It carries shift amounts, central
charges, evaluation points, and the entries of operators evaluated at a
point.  Both operands of a binary operation are HSeries of one D; mixing
with a Scalar raises TypeError (Scalar.from_hseries is the explicit lift).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

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
    """n/d: a common denominator d > 0 over a tuple n of ints, one per
    grade, with gcd(d, *n) == 1.  The form is unique, so == and hash are
    structural; coeffs is the Fraction view."""

    __slots__ = ("n", "d")

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if not coeffs:
            raise ValueError("HSeries needs at least the h^0 coefficient")
        # over the lcm of reduced denominators the form is already canonical
        d = lcm(*(c.denominator for c in coeffs))
        self.n = tuple(c.numerator * (d // c.denominator) for c in coeffs)
        self.d = d

    @staticmethod
    def _of(n, d: int) -> "HSeries":
        """n/d in canonical form; d > 0."""
        g = gcd(d, *n)
        if g != 1:
            n, d = [x // g for x in n], d // g
        s = object.__new__(HSeries)
        s.n, s.d = tuple(n), d
        return s

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(x, self.d) for x in self.n)

    @property
    def truncation(self) -> int:
        return len(self.n) - 1

    @staticmethod
    def constant(c, D: int) -> "HSeries":
        c = Fraction(c)
        return HSeries._of((c.numerator,) + (0,) * D, c.denominator)

    @staticmethod
    def h(D: int, power: int = 1) -> "HSeries":
        """The monomial h^power."""
        return HSeries._of(tuple(int(m == power) for m in range(D + 1)), 1)

    @staticmethod
    def zero(D: int) -> "HSeries":
        return HSeries.constant(0, D)

    def _check(self, other: "HSeries"):
        if len(self.n) != len(other.n):
            raise TruncationMismatch(
                f"D={self.truncation} vs D={other.truncation}"
            )

    def _aligned(self, other: "HSeries"):
        """Both numerators over the common denominator lcm(d1, d2)."""
        d1, d2 = self.d, other.d
        if d1 == d2:
            return self.n, other.n, d1
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        return [x * f1 for x in self.n], [y * f2 for y in other.n], d1 * f1

    def __add__(self, other: "HSeries") -> "HSeries":
        if not isinstance(other, HSeries):
            return NotImplemented
        self._check(other)
        a, b, d = self._aligned(other)
        return HSeries._of([x + y for x, y in zip(a, b)], d)

    def __sub__(self, other: "HSeries") -> "HSeries":
        if not isinstance(other, HSeries):
            return NotImplemented
        self._check(other)
        a, b, d = self._aligned(other)
        return HSeries._of([x - y for x, y in zip(a, b)], d)

    def __neg__(self) -> "HSeries":
        return HSeries._of([-x for x in self.n], self.d)

    def __mul__(self, other: "HSeries") -> "HSeries":
        if not isinstance(other, HSeries):
            return NotImplemented
        self._check(other)
        return HSeries._of(series_mul(self.n, other.n, 0), self.d * other.d)

    def scale(self, c) -> "HSeries":
        c = Fraction(c)
        return HSeries._of(
            [x * c.numerator for x in self.n], self.d * c.denominator
        )

    def inv(self) -> "HSeries":
        if not self.is_unit:
            raise NonUnitError("h^0 coefficient is zero")
        # with h = u*s, n(h)/u = 1 + sum n_k u^(k-1) s^k is an integer series
        # with unit constant term, so 1/n(h) = sum c_m h^m / u^(m+1)
        n, u = self.n, self.n[0]
        D = len(n) - 1
        c = series_inv([1] + [n[k] * u ** (k - 1) for k in range(1, D + 1)],
                       1, 0)
        den = u ** (D + 1)
        num = [self.d * cm * u ** (D - m) for m, cm in enumerate(c)]
        if den < 0:
            num, den = [-x for x in num], -den
        return HSeries._of(num, den)

    def exp(self) -> "HSeries":
        """exp of a series with zero constant term."""
        if self.n[0]:
            raise NonUnitError("exp needs zero h^0 part")
        n = len(self.n)
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
        return not any(self.n)

    def __bool__(self) -> bool:
        return any(self.n)

    @property
    def is_unit(self) -> bool:
        return self.n[0] != 0

    def first_nonzero_grade(self) -> int | None:
        return next((m for m, c in enumerate(self.n) if c), None)

    @property
    def constant_part(self) -> Fraction:
        return Fraction(self.n[0], self.d)

    def positive_part(self) -> "HSeries":
        """The h^1-and-up tail."""
        return HSeries._of((0,) + self.n[1:], self.d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HSeries)
            and self.d == other.d
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.n, self.d))

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
