"""The scalar ground ring k(w)[[h]]/(h^(D+1)).

A Scalar is an array of D+1 rational functions of the curve coordinate w,
graded by h-power, tagged with the coordinate mode: additive (w is the
canonical parameter itself) or multiplicative (w is the group coordinate;
translations act by w -> c*w and w -> w*exp(t)).  The ring operations
take Scalar operands only: a series over Q[[h]] enters k(w)[[h]] through
one explicit Scalar.from_hseries.  A Scalar is immutable, so its hash is
computed once.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from .errors import ModeMismatch, NonUnitError, TruncationMismatch
from .hseries import HSeries, series_inv, series_mul
from .ratfn import RF_W, RF_ZERO, RatFn, ratfn_to_str

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


class Scalar:
    __slots__ = ("grades", "mode", "_chain", "_hash")

    def __init__(self, grades, mode: str = ADDITIVE):
        self.grades = tuple(grades)
        if mode not in (ADDITIVE, MULTIPLICATIVE):
            raise ModeMismatch(f"unknown mode {mode!r}")
        self.mode = mode

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c, D: int, mode: str = ADDITIVE) -> "Scalar":
        g = [RF_ZERO] * (D + 1)
        g[0] = RatFn.from_fraction(c)
        return Scalar(g, mode)

    @staticmethod
    def zero(D: int, mode: str = ADDITIVE) -> "Scalar":
        return Scalar([RF_ZERO] * (D + 1), mode)

    @staticmethod
    def one(D: int, mode: str = ADDITIVE) -> "Scalar":
        return Scalar.const(1, D, mode)

    @staticmethod
    def coordinate(D: int, mode: str = ADDITIVE) -> "Scalar":
        g = [RF_ZERO] * (D + 1)
        g[0] = RF_W
        return Scalar(g, mode)

    @staticmethod
    def from_hseries(s: HSeries, mode: str = ADDITIVE) -> "Scalar":
        return Scalar([RatFn.from_fraction(c) for c in s.coeffs], mode)

    # -- structure ----------------------------------------------------
    @property
    def truncation(self) -> int:
        return len(self.grades) - 1

    def _check(self, other: "Scalar"):
        if other.__class__ is not Scalar:
            raise TypeError(f"Scalar operand expected, got {type(other).__name__}")
        if self.truncation != other.truncation:
            raise TruncationMismatch(
                f"D={self.truncation} vs D={other.truncation}"
            )
        if self.mode != other.mode:
            raise ModeMismatch(f"{self.mode} vs {other.mode}")

    @property
    def is_zero(self) -> bool:
        return all(g.is_zero for g in self.grades)

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def is_unit(self) -> bool:
        return not self.grades[0].is_zero

    def first_nonzero_grade(self) -> int | None:
        for m, g in enumerate(self.grades):
            if not g.is_zero:
                return m
        return None

    # -- ring ops -----------------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(
            [a + b for a, b in zip(self.grades, other.grades)], self.mode
        )

    def __neg__(self) -> "Scalar":
        return Scalar([-g for g in self.grades], self.mode)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(
            [a - b for a, b in zip(self.grades, other.grades)], self.mode
        )

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(series_mul(self.grades, other.grades, RF_ZERO), self.mode)

    def mul_ratfn(self, r: RatFn) -> "Scalar":
        return Scalar([g * r for g in self.grades], self.mode)

    def scale(self, c) -> "Scalar":
        c = Fraction(c)
        return Scalar([g.scale(c) for g in self.grades], self.mode)

    def inv(self) -> "Scalar":
        if not self.is_unit:
            raise NonUnitError("h^0 grade is the zero rational function")
        inv0 = self.grades[0].inv()
        return Scalar(series_inv(self.grades, inv0, RF_ZERO), self.mode)

    # -- calculus -----------------------------------------------------
    def diff(self) -> "Scalar":
        return Scalar([g.diff() for g in self.grades], self.mode)

    def deriv(self, j: int) -> "Scalar":
        """The j-th derivative in w, from the chain self, self', ... that
        each Scalar builds once, as far as it is asked for; Taylor shifts
        and point evaluation share it."""
        if not hasattr(self, "_chain"):
            self._chain = [self]
        chain = self._chain
        while len(chain) <= j:
            chain.append(chain[-1].diff())
        return chain[j]

    # -- substitutions ------------------------------------------------
    def shift(self, t: HSeries) -> "Scalar":
        """Additive translation of the coordinate: returns a(w + t).

        The h-part is expanded around w on self's derivative chain, then
        w -> w + t0 translates the sum; the two substitutions commute.
        """
        if self.mode != ADDITIVE:
            raise ModeMismatch("shift() is for the additive coordinate")
        if t.truncation != self.truncation:
            raise TruncationMismatch("shift amount has wrong truncation")
        out = _taylor(self, Scalar.from_hseries(t.positive_part(), self.mode))
        c = t.constant_part
        if c == 0:
            return out
        return Scalar([g.shift_arg(c) for g in out.grades], self.mode)

    def shift_mul(self, t: HSeries) -> "Scalar":
        """Multiplicative translation by exp(t): returns a(w * exp(t)).

        t must have zero h^0 part (a formal-neighborhood translation).
        """
        if self.mode != MULTIPLICATIVE:
            raise ModeMismatch("shift_mul() is for the multiplicative coordinate")
        if t.constant_part != 0:
            raise ModeMismatch("multiplicative shift needs zero h^0 exponent")
        if t.truncation != self.truncation:
            raise TruncationMismatch("shift amount has wrong truncation")
        e = t.exp() - HSeries.constant(1, t.truncation)
        delta = Scalar.coordinate(self.truncation, self.mode) * Scalar.from_hseries(
            e, self.mode
        )
        return _taylor(self, delta)

    def scale_arg(self, c) -> "Scalar":
        """Coordinate substitution w -> c*w (a group translation when
        multiplicative, a rescaling when additive)."""
        return Scalar([g.scale_arg(c) for g in self.grades], self.mode)

    def negate_arg(self) -> "Scalar":
        """Group inverse of the coordinate: w -> -w (additive) or 1/w."""
        if self.mode == ADDITIVE:
            return self.scale_arg(-1)
        return Scalar([g.recip_arg() for g in self.grades], self.mode)

    def eval(self, p: "Point") -> HSeries:
        """Exact substitution w -> p.value, truncated at D.

        With p.value = a/b + vp, the Taylor sum of f^(j)(a/b) vp^j / j!
        runs over the j with vp^j nonzero (each derivative is built only
        then) and, for each, over the grades of f^(j) that vp^j leaves
        below h^(D+1).  Every term adds into one int numerator per grade
        over one running denominator; j = 0 reads every grade, so every
        pole is found.
        """
        if p.mode != self.mode:
            raise ModeMismatch(f"{self.mode} scalar at {p.mode} point")
        v = p.value
        if v.truncation != self.truncation:
            raise TruncationMismatch("point has wrong truncation")
        D = self.truncation
        a, b = v.constant_part.as_integer_ratio()
        vp = (0,) + v.n[1:]  # over v.d
        val = next((m for m, x in enumerate(vp) if x), D + 1)
        acc, den = [0] * (D + 1), 1
        power, pden = [1] + [0] * D, 1  # vp^j / j! = power / pden
        for j in range(D // val + 1):
            if j:
                power = series_mul(power, vp, 0)
                pden *= v.d * j
            terms = [(i, c) for i, c in enumerate(power) if c]
            for m, g in enumerate(self.deriv(j).grades[: D + 1 - j * val]):
                if not g.p:
                    continue
                x, y = g._value(a, b)
                y *= pden
                if y < 0:
                    x, y = -x, -y
                if den % y:
                    f = y // gcd(den, y)
                    acc = [c * f for c in acc]
                    den *= f
                x *= den // y
                for i, c in terms:
                    if m + i > D:
                        break
                    acc[m + i] += x * c
        return HSeries._of(acc, den)

    # -- comparisons --------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.mode == other.mode
            and self.grades == other.grades
        )

    def __hash__(self):
        """Computed once: a Scalar is immutable, and operators memoize
        their entries by value."""
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.grades, self.mode))
            return self._hash

    def __repr__(self):
        text = " ; ".join(ratfn_to_str(g) for g in self.grades)
        return f"Scalar({text!r}, {self.mode})"


def _taylor(base: Scalar, delta: Scalar) -> Scalar:
    """Sum base^(j)(w) * delta^j / j! while delta^j survives truncation,
    on base's derivative chain.

    delta must have positive h-valuation, so the sum is finite.
    """
    if delta.is_zero:
        return base
    v = delta.first_nonzero_grade()
    if v == 0:
        raise NonUnitError("Taylor increment must have positive h-valuation")
    acc = base
    power = Scalar.one(base.truncation, base.mode)
    for j in range(1, base.truncation // v + 1):
        power = power * delta
        if power.is_zero:
            break
        acc = acc + (base.deriv(j) * power).scale(Fraction(1, factorial(j)))
    return acc


class Point:
    """A point of the curve over k[[h]], in the active coordinate."""

    __slots__ = ("value", "mode")

    def __init__(self, value: HSeries, mode: str = ADDITIVE):
        if mode == MULTIPLICATIVE and value.constant_part == 0:
            raise ModeMismatch("multiplicative point needs nonzero h^0 part")
        self.value = value
        self.mode = mode

    @staticmethod
    def of(c, D: int, mode: str = ADDITIVE) -> "Point":
        return Point(HSeries.constant(c, D), mode)

    def __repr__(self):
        return f"Point({self.value!r}, {self.mode})"
