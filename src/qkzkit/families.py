"""Spectral R-matrix families on k^N (x) k^N and their axiom checks.

The rational family lives in the additive coordinate, the six-vertex
trigonometric family (N = 2) in the multiplicative one.  One spectral
variable stays symbolic in every identity check; the others are substituted
by deterministic rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import KernelError, PoleError
from .hseries import HSeries, series_inv, series_mul
from .ratfn import RF_ONE, RF_ZERO, RatFn, pmul, ptrim
from .scalar import ADDITIVE, MULTIPLICATIVE, Point, Scalar
from .tensor import LegMatrix, LegShape, least_grade

RATIONAL = "rational"
TRIGONOMETRIC = "trigonometric"

#: deterministic substitution pool for non-symbolic spectral variables
SAMPLE_POOL = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(-1, 3),
    Fraction(7, 5),
    Fraction(-2),
    Fraction(3),
    Fraction(-5, 7),
    Fraction(9, 4),
    Fraction(11, 3),
    Fraction(-13, 6),
]


@dataclass(frozen=True)
class ArgShift:
    """Spectral-argument displacement of the symbolic coordinate.

    Additive mode: w -> w + const + hpart.
    Multiplicative mode: w -> const * w * exp(hpart); const is a group
    element, hpart a formal-neighborhood exponent with zero h^0 part.
    """

    const: Fraction
    hpart: HSeries

    @staticmethod
    def none(D: int, mode: str) -> "ArgShift":
        """The neutral element of the mode's group: const 0 (additive) or
        1 (multiplicative), no h-part."""
        return ArgShift.of(0 if mode == ADDITIVE else 1, D)

    @staticmethod
    def of(c, D: int) -> "ArgShift":
        return ArgShift(Fraction(c), HSeries.zero(D))

    @staticmethod
    def of_h(t: HSeries, mode: str) -> "ArgShift":
        if t.constant_part != 0:
            raise ValueError("use const for the h^0 part")
        return ArgShift(ArgShift.none(t.truncation, mode).const, t)


def shift_add(a: ArgShift, b: ArgShift, mode: str) -> ArgShift:
    if mode == ADDITIVE:
        return ArgShift(a.const + b.const, a.hpart + b.hpart)
    return ArgShift(a.const * b.const, a.hpart + b.hpart)


def shift_sub(a: ArgShift, b: ArgShift, mode: str) -> ArgShift:
    if mode == ADDITIVE:
        return ArgShift(a.const - b.const, a.hpart - b.hpart)
    return ArgShift(a.const / b.const, a.hpart - b.hpart)


def shift_scalar(s: Scalar, off: ArgShift, hscale=Fraction(1)) -> Scalar:
    """Displace the coordinate by off; off.hpart is always an additive
    displacement, which the multiplicative coordinate absorbs as a factor
    exp(hscale * hpart) (hscale relates the coordinate to the additive one).

    The h-part is expanded around w first, on s's own derivative chain, and
    the constant translation applied after it (the two commute), so every
    displacement of s with the same h-part shares one chain.
    """
    if s.mode == ADDITIVE:
        t = HSeries.constant(off.const, s.truncation) + off.hpart
        return s.shift(t)
    out = s
    if not off.hpart.is_zero:
        out = out.shift_mul(off.hpart.scale(hscale))
    if off.const != 1:
        out = out.scale_arg(off.const)
    return out


def displaced(m: LegMatrix, off: ArgShift | None, hscale) -> LegMatrix:
    """m with its symbolic argument displaced by off (None: no displacement)."""
    if off is None or off == ArgShift.none(m.D, m.mode):
        return m
    return m.map_entries(lambda s: shift_scalar(s, off, hscale))


def valued(m: LegMatrix, off: ArgShift, hscale) -> LegMatrix:
    """m at the fully substituted argument off (no symbolic coordinate
    left), with HSeries entries."""
    if m.mode == ADDITIVE:
        val = HSeries.constant(off.const, m.D) + off.hpart
    else:
        val = off.hpart.scale(hscale).exp().scale(off.const)
    p = Point(val, m.mode)
    return m.map_entries(lambda s: s.eval(p))


class RMatrixFamily:
    """Constructor and cache for R(w) on legs [N, N]."""

    def __init__(self, family: str, N: int, D: int):
        if family == RATIONAL:
            if N < 2:
                raise ValueError("rational family needs N >= 2")
            self.mode = ADDITIVE
        elif family == TRIGONOMETRIC:
            if N != 2:
                raise ValueError("trigonometric family is built for N = 2")
            self.mode = MULTIPLICATIVE
        else:
            raise ValueError(f"family {family!r} not supported")
        self.family = family
        self.N = N
        self.D = D
        self.shape = LegShape([N, N])
        self.crossing_hshift = HSeries.h(D).scale(N)  # the shift N*h
        # additive displacement t acts on the multiplicative coordinate as
        # the factor exp(hshift_scale * t); the half accounts for the
        # coordinate being the square root of the group-like one
        self.hshift_scale = Fraction(1, 2) if family == TRIGONOMETRIC else Fraction(1)
        self._base: LegMatrix | None = None

    # -- construction -------------------------------------------------
    @property
    def base(self) -> LegMatrix:
        if self._base is None:
            if self.family == RATIONAL:
                self._base = _build_rational_matrix(self.N, self.D)
            else:
                self._base = _build_trigonometric_matrix(self.D)
        return self._base

    def r(self, off: ArgShift | None = None) -> LegMatrix:
        """R with the symbolic argument displaced by off."""
        return displaced(self.base, off, self.hshift_scale)

    def r_value(self, off: ArgShift) -> LegMatrix:
        """R at a fully substituted argument (no symbolic coordinate left)."""
        return valued(self.base, off, self.hshift_scale)

    def identity(self, legs: int = 2) -> LegMatrix:
        return LegMatrix.identity(
            LegShape([self.N] * legs), self.D, self.mode
        )

    def sigma(self) -> LegMatrix:
        return LegMatrix.from_leg_permutation(self.shape, (1, 0), self.D, self.mode)

    def descriptor(self) -> dict:
        return {"family": self.family, "N": self.N, "D": self.D}


def build_rational(N: int, D: int) -> RMatrixFamily:
    return RMatrixFamily(RATIONAL, N, D)


def build_trigonometric(N: int = 2, D: int = 4) -> RMatrixFamily:
    return RMatrixFamily(TRIGONOMETRIC, N, D)


def family_from_descriptor(desc: dict) -> RMatrixFamily:
    family = desc.get("family")
    if family == "elliptic":
        raise KernelError("elliptic family out of scope")
    return RMatrixFamily(family, desc.get("N", 2), desc.get("D", 4))


def _build_rational_matrix(N: int, D: int) -> LegMatrix:
    """1 - h (sigma - 1/N) / (w - h/N) on legs [N, N]."""
    w = Scalar.coordinate(D, ADDITIVE)
    denom = w - Scalar.from_hseries(HSeries.h(D).scale(Fraction(1, N)), ADDITIVE)
    s = denom.inv() * Scalar.from_hseries(HSeries.h(D), ADDITIVE)  # h/(w - h/N)
    s_over_n = s.scale(Fraction(1, N))
    one = Scalar.one(D, ADDITIVE)
    shape = LegShape([N, N])
    entries: dict = {}
    for i in range(N):
        for j in range(N):
            row = shape.ravel((i, j))
            diag = one + s_over_n
            swap = -s
            col_same = shape.ravel((i, j))
            entries[(row, col_same)] = diag
            col_swap = shape.ravel((j, i))
            if col_swap == col_same:
                entries[(row, col_same)] = diag + swap
            else:
                entries[(row, col_swap)] = swap
    return LegMatrix(shape, entries, D, ADDITIVE)


def _build_trigonometric_matrix(D: int) -> LegMatrix:
    """Six-vertex matrix in the symmetric gauge, q = exp(-h/2).

    The coordinate w is the half-exponential of the additive one, so the
    diagonal entries depend on w^2 and the two hopping entries coincide.
    The gauge is pinned by the scaling degeneration onto the rational
    family and by the plain (conjugation-free) crossing identity.
    """
    q = HSeries.h(D).scale(Fraction(-1, 2)).exp()
    qs = Scalar.from_hseries(q, MULTIPLICATIVE)
    q2 = qs * qs
    w = Scalar.coordinate(D, MULTIPLICATIVE)
    w2 = w * w
    one = Scalar.one(D, MULTIPLICATIVE)
    dinv = (qs * w2 - one).inv()
    a = (q2 * w2 - one) * dinv           # same-index diagonal
    b = qs * (w2 - one) * dinv           # mixed-index diagonal
    c = w * (q2 - one) * dinv            # both hopping entries
    shape = LegShape([2, 2])
    idx = shape.ravel
    entries = {
        (idx((0, 0)), idx((0, 0))): a,
        (idx((1, 1)), idx((1, 1))): a,
        (idx((0, 1)), idx((0, 1))): b,
        (idx((1, 0)), idx((1, 0))): b,
        (idx((0, 1)), idx((1, 0))): c,
        (idx((1, 0)), idx((0, 1))): c,
    }
    return LegMatrix(shape, entries, D, MULTIPLICATIVE)


# -- the ladder of R-factors on an auxiliary leg ------------------------

def ladder_factors(F, offs) -> list:
    """R^{1,2}(off_1), R^{1,3}(off_2), ... on legs [N]^(1+len(offs)), leg 1
    auxiliary, for a raw or a normalized family F."""
    big = LegShape([F.N] * (1 + len(offs)))
    return [F.r(off).embed(big, (1, k)) for k, off in enumerate(offs, start=2)]


def ladder(F, offs) -> LegMatrix:
    """The product R^{1,2}(off_1) R^{1,3}(off_2) ... of the ladder factors,
    started from its first factor; an empty offs gives Id on [N]."""
    big = LegShape([F.N] * (1 + len(offs)))
    return LegMatrix.product(ladder_factors(F, offs), big, F.D, F.mode)


# -- sample handling ---------------------------------------------------

def default_samples(F: RMatrixFamily, count: int = 5):
    """Deterministic pole-free sample pairs (u2, u3); screened-out pairs
    are replaced from the pool, never silently dropped."""
    out = []
    pool = SAMPLE_POOL
    i = 0
    while len(out) < count and i < len(pool) * len(pool):
        a = pool[i % len(pool)]
        b = pool[(i // len(pool) + i + 1) % len(pool)]
        i += 1
        if a == b:
            continue
        if F.mode == MULTIPLICATIVE and (a == 0 or b == 0):
            continue
        try:
            F.r_value(shift_sub(ArgShift.of(a, F.D), ArgShift.of(b, F.D), F.mode))
        except PoleError:
            continue
        if (a, b) not in out:
            out.append((a, b))
    if len(out) < count:
        raise KernelError("could not assemble pole-free sample pairs")
    return out


# -- identity checks ---------------------------------------------------

def _three_leg_factors(F: RMatrixFamily, u2: Fraction, u3: Fraction):
    """R^{12}(u1 - u2) and R^{13}(u1 - u3), u1 symbolic, and R^{23}(u2 - u3)
    on legs [N]^3."""
    big = LegShape([F.N] * 3)
    sym = ArgShift.none(F.D, F.mode)
    a2, a3 = ArgShift.of(u2, F.D), ArgShift.of(u3, F.D)
    return (
        F.r(shift_sub(sym, a2, F.mode)).embed(big, (1, 2)),
        F.r(shift_sub(sym, a3, F.mode)).embed(big, (1, 3)),
        F.r_value(shift_sub(a2, a3, F.mode)).embed(big, (2, 3)),
    )


def check_qybe(F: RMatrixFamily, samples=None):
    """Three-leg consistency R12 R13 R23 = R23 R13 R12 at each sample pair
    (u2, u3), u1 symbolic; returns the least first nonzero grade of the
    residuals, or None when each is exact zero to order D."""
    if samples is None:
        samples = default_samples(F)
    grades = []
    for (u2, u3) in samples:
        r12, r13, r23 = _three_leg_factors(F, u2, u3)
        diff = r12 * r13 * r23 - r23 * r13 * r12
        grades.append(diff.first_nonzero_grade())
    return least_grade(grades)


def check_crossing(F: RMatrixFamily):
    """Crossing symmetry: both transpose-invert forms x, y of R agree, and
    x = g R(w + N h) with g a unit of h^0 grade 1, read off the first unit
    entry of the displaced R.  Returns the least of the first nonzero grades
    of x - y and of x - g R(w + N h), and 0 when g's h^0 grade is not 1;
    None when all three hold."""
    r_inv = F.base.inv()
    x = r_inv.partial_transpose(1).inv().partial_transpose(1)
    y = r_inv.partial_transpose(2).inv().partial_transpose(2)
    shifted = F.r(ArgShift.of_h(F.crossing_hshift, F.mode))
    # R's h^0 grade is invertible (R.inv() succeeded), so a unit entry exists
    key = min(k for k, v in shifted.entries.items() if v.is_unit)
    g = x.get(*key) * shifted.entries[key].inv()
    return least_grade([
        (x - y).first_nonzero_grade(),
        (x - shifted.mul_scalar(g)).first_nonzero_grade(),
        None if g.grades[0] == RF_ONE else 0,
    ])


def extract_scalar(m: LegMatrix) -> Scalar:
    """The scalar s with m = s * Id; raises if m is not scalar."""
    s = m.get(0, 0)
    if any(r != c for (r, c) in m.entries):
        raise KernelError("operator is not diagonal")
    if any(m.get(i, i) != s for i in range(m.shape.total)):
        raise KernelError("operator is not a scalar multiple of Id")
    return s


def unitarity_product(F) -> LegMatrix:
    """R(w) R^{21}(-w) for the matrix F.r() of a raw or a normalized family."""
    r = F.r()
    sigma = F.sigma()
    return r * (sigma * r.map_entries(lambda s: s.negate_arg()) * sigma)


def unitarity_scalar(F) -> Scalar:
    """The scalar phi with R(w) R^{21}(-w) = phi * Id; raises if the product
    is not scalar."""
    return extract_scalar(unitarity_product(F))


def check_unitarity(F):
    """R(w) R^{21}(-w) = phi * Id with phi a unit, phi the product's (0, 0)
    entry: returns the least of the first nonzero grade of the product
    minus phi * Id and 0 when phi is not a unit; None when both hold."""
    p = unitarity_product(F)
    phi = p.get(0, 0)
    return least_grade([
        (p - F.identity().mul_scalar(phi)).first_nonzero_grade(),
        None if phi.is_unit else 0,
    ])


def check_classical_ybe(F: RMatrixFamily, samples=None):
    """Classical YBE for the h^1 matrix r: the sum of pairwise commutators
    vanishes at each sample pair, one variable symbolic; returns the least
    first nonzero grade of the sums, or None."""
    if samples is None:
        samples = default_samples(F, 3)
    grades = []
    for (u2, u3) in samples:
        r12, r13, r23 = (
            -m.grade_matrix(1) for m in _three_leg_factors(F, u2, u3)
        )
        acc = (
            (r12 * r13 - r13 * r12)
            + (r12 * r23 - r23 * r12)
            + (r13 * r23 - r23 * r13)
        )
        grades.append(acc.first_nonzero_grade())
    return least_grade(grades)


# -- trigonometric -> rational degeneration ----------------------------

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


def degeneration_limit(F: RMatrixFamily) -> LegMatrix:
    """Leading s-grade of R under (u, h) -> (s*u, s*h), as an additive-mode
    matrix in u; raises if any negative s-power survives."""
    if F.family != TRIGONOMETRIC:
        raise KernelError("degeneration check applies to the trigonometric family")
    D = F.D
    L = 2 * D + 8
    # the coordinate at (s*u, s*h) is exp(hshift_scale * s * u): an s-series
    # with RatFn(u) coefficients
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
            for j, c in enumerate(q):
                tot = m + val + j
                if tot > 0 or c.is_zero:
                    continue
                if tot < 0:
                    raise KernelError(
                        f"degeneration has a pole in s at entry {(rc, cc)}"
                    )
                grades_out[m] = grades_out[m] + c
        sc = Scalar(grades_out, ADDITIVE)
        if not sc.is_zero:
            entries[(rc, cc)] = sc
    return LegMatrix(LegShape([F.N, F.N]), entries, D, ADDITIVE)


def check_degeneration(F_trig: RMatrixFamily):
    """Entrywise comparison of the scaling limit with the rational family."""
    limit = degeneration_limit(F_trig)
    rat = build_rational(F_trig.N, F_trig.D).base
    return (limit - rat).first_nonzero_grade()
