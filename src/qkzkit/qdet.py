"""Quantum determinant data and the normalizing scalar for an R-matrix family.

The pipeline: find the deformed antisymmetrizer (a rank-one eigenvector of
the N-fold ladder of R-factors), read off its coefficient vector C and the
ladder shifts, evaluate the determinant element in the vector representation
to get the scalar rho, solve the product functional equation for the
normalizing unit f0, and rescale R so that the determinant acts as 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import KernelError, LiftFailure, NonUnitError
from .families import (
    ArgShift,
    RMatrixFamily,
    displaced,
    extract_scalar,
    shift_scalar,
    shift_sub,
    unitarity_scalar,
    valued,
)
from .hseries import HSeries
from .ratfn import RF_ONE, RF_ZERO, RatFn
from .scalar import Scalar
from .tensor import LegMatrix, LegShape, solve_linear


def ladder_shifts(N: int, D: int) -> list[HSeries]:
    """The symmetric ladder (2k - 1 - N) h / 2 for k = 1..N."""
    return [
        HSeries.h(D).scale(Fraction(2 * k - 1 - N, 2)) for k in range(1, N + 1)
    ]


@dataclass(frozen=True)
class QDetData:
    """Coefficient data of the determinant element.

    coeffs maps an N-multi-index (0-based) to its scalar coefficient; the
    vector is normalized so the coefficient at (0, 1, ..., N-1) is exactly 1.
    """

    N: int
    D: int
    mode: str
    shifts: tuple
    coeffs: dict
    eigenvalue: Scalar

    def vector(self) -> list[Scalar]:
        """The eigenvector as a flat coordinate list on [N]*N."""
        shape = LegShape([self.N] * self.N)
        out = [Scalar.zero(self.D, self.mode) for _ in range(shape.total)]
        for idx, c in self.coeffs.items():
            out[shape.ravel(idx)] = c
        return out


def _perm_sign(p) -> int:
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _dot(row, vec) -> RatFn:
    acc = RF_ZERO
    for a, b in zip(row, vec):
        if not a.is_zero and not b.is_zero:
            acc = acc + a * b
    return acc


def _matvec(rows, vec):
    return [_dot(r, vec) for r in rows]


def aux_block(m: LegMatrix, a: int, b: int) -> LegMatrix:
    """The (a, b) block of m in its first leg, as an operator on the rest."""
    big = m.shape
    sub = LegShape(big.dims[1:])
    out = {}
    for (r, c), v in m.entries.items():
        rm = big.unravel(r)
        cm = big.unravel(c)
        if rm[0] == a and cm[0] == b:
            out[(sub.ravel(rm[1:]), sub.ravel(cm[1:]))] = v
    return LegMatrix(sub, out, m.D, m.mode)


def find_qdet_vector(F: RMatrixFamily) -> QDetData:
    """Deformed antisymmetrizer for the N-fold ladder of R-factors.

    Builds M = R^{0,1}(w + s_1) ... R^{0,N}(w + s_N) on legs [N]^(N+1)
    (leg 1 auxiliary) and solves M (xi (x) v) = lam (xi (x) v) grade by
    grade in h, starting from the classical antisymmetrizer at h^0.
    """
    N, D = F.N, F.D
    shifts = ladder_shifts(N, D)
    big = LegShape([N] * (N + 1))
    m = LegMatrix.identity(big, D, F.mode)
    for k, s in enumerate(shifts, start=1):
        m = m * F.r(ArgShift.of_h(s)).embed(big, (1, k + 1))

    vshape = LegShape([N] * N)
    T = vshape.total
    blocks = {
        (a, b): aux_block(m, a, b) for a in range(N) for b in range(N)
    }
    bg = {k: [blk.grade(p) for p in range(D + 1)] for k, blk in blocks.items()}

    # h^0: the classical antisymmetrizer, lead coefficient pinned to 1
    v0 = [RF_ZERO] * T
    for p in permutations(range(N)):
        v0[vshape.ravel(p)] = RatFn.from_fraction(_perm_sign(p))
    pivot = vshape.ravel(tuple(range(N)))

    lam = [RF_ONE]
    levels = [v0]
    if D >= 1:
        # h^1 pins the eigenvalue and must hold with no v-correction:
        # off-diagonal blocks kill v0, diagonal blocks scale it
        lam1 = _matvec(bg[(0, 0)][1], v0)[pivot]
        for (a, b) in sorted(blocks):
            got = _matvec(bg[(a, b)][1], v0)
            want = [x * lam1 for x in v0] if a == b else [RF_ZERO] * T
            if any((x - y != RF_ZERO) for x, y in zip(got, want)):
                raise LiftFailure(
                    "h^1 ladder action does not fix the antisymmetrizer"
                )
        lam.append(lam1)

    for g in range(2, D + 1):
        # unknowns: the T coordinates of v^{g-1}, then lam^g
        rows = []
        rhs = []
        for (a, b) in sorted(blocks):
            b1 = bg[(a, b)][1]
            for r in range(T):
                row = list(b1[r])
                if a == b:
                    row[r] = row[r] - lam[1]
                row.append(-v0[r] if a == b else RF_ZERO)
                acc = RF_ZERO
                for p in range(2, g + 1):
                    acc = acc - _dot(bg[(a, b)][p][r], levels[g - p])
                if a == b:
                    for p in range(2, g):
                        acc = acc + lam[p] * levels[g - p][r]
                rows.append(row)
                rhs.append(acc)
        norm_row = [RF_ZERO] * (T + 1)
        norm_row[pivot] = RF_ONE
        rows.append(norm_row)
        rhs.append(RF_ZERO)
        sol = solve_linear(rows, rhs)
        if sol is None:
            raise LiftFailure(f"no eigenvector correction at h-grade {g}")
        levels.append(sol[:T])
        lam.append(sol[T])

    # the top v-grade is invisible to the truncated equations; pin it to 0
    while len(levels) < D + 1:
        levels.append([RF_ZERO] * T)
    while len(lam) < D + 1:
        lam.append(RF_ZERO)

    coeffs = {}
    for flat in range(T):
        col = [levels[p][flat] for p in range(D + 1)]
        if any(not x.is_zero for x in col):
            coeffs[vshape.unravel(flat)] = Scalar(col, F.mode)
    eig = Scalar(lam, F.mode)

    # full residual check of the eigen-equation, exactly to order D
    vec = [Scalar.zero(D, F.mode) for _ in range(T)]
    for idx, c in coeffs.items():
        vec[vshape.ravel(idx)] = c
    for (a, b), blk in blocks.items():
        got = blk.apply(vec)
        if a == b:
            want = [eig * x for x in vec]
        else:
            want = [Scalar.zero(D, F.mode)] * T
        if any(not (x - y).is_zero for x, y in zip(got, want)):
            raise LiftFailure("eigen-equation residual is nonzero")
    return QDetData(N, D, F.mode, tuple(shifts), coeffs, eig)


def qdet_apply(qd: QDetData, x_at) -> LegMatrix:
    """Image of the determinant element under blocks of x.

    x_at(s) must return an operator whose leg 1 is the auxiliary [N] leg;
    the result acts on the remaining legs:
    sum_i C_i x_{1 i_1}(s_1) ... x_{N i_N}(s_N).
    """
    mats = [x_at(s) for s in qd.shifts]
    sub = LegShape(mats[0].shape.dims[1:])
    blocks = [
        {
            (a, b): aux_block(mk, a, b)
            for a in range(qd.N)
            for b in range(qd.N)
        }
        for mk in mats
    ]
    out = LegMatrix.zero(sub, qd.D, qd.mode)
    for idx in sorted(qd.coeffs):
        c = qd.coeffs[idx]
        prod = None
        for k, ik in enumerate(idx):
            factor = blocks[k][(k, ik)]
            prod = factor if prod is None else prod * factor
        out = out + prod.mul_scalar(c)
    return out


def compute_rho(F: RMatrixFamily, qd: QDetData, r_at=None) -> Scalar:
    """The scalar by which the determinant element acts in the vector
    representation (x -> R with auxiliary first leg)."""
    if r_at is None:
        r_at = lambda s: F.r(ArgShift.of_h(s))
    return extract_scalar(qdet_apply(qd, r_at))


def solve_f0(F: RMatrixFamily, target: Scalar) -> Scalar:
    """The unit f0 = 1 + O(h) with prod_k f0(w + s_k) = target.

    target must be 1 + O(h); the product equation is triangular in the
    h-grade, each new grade entering N times.
    """
    N, D = F.N, F.D
    if target.grades[0] != RF_ONE:
        raise NonUnitError("target must have h^0 grade 1")
    shifts = ladder_shifts(N, D)
    grades = [RF_ONE] + [RF_ZERO] * D

    def product(g):
        f = Scalar(g, F.mode)
        prod = Scalar.one(D, F.mode)
        for s in shifts:
            prod = prod * shift_scalar(f, ArgShift.of_h(s), F.hshift_scale)
        return prod

    for m in range(1, D + 1):
        deficit = target.grades[m] - product(grades).grades[m]
        grades[m] = deficit.scale(Fraction(1, N))
    f0 = Scalar(grades, F.mode)
    if product(grades) != target:
        raise LiftFailure("normalizing scalar does not satisfy its equation")
    return f0


class NormalizedFamily:
    """An R-matrix family rescaled so its determinant element acts as 1."""

    def __init__(self, F: RMatrixFamily, qd: QDetData, rho: Scalar, f0: Scalar):
        self.family = F
        self.qdet = qd
        self.rho = rho
        self.f0 = f0
        self.rbar = F.base.mul_scalar(f0)

    @property
    def N(self) -> int:
        return self.family.N

    @property
    def D(self) -> int:
        return self.family.D

    @property
    def mode(self) -> str:
        return self.family.mode

    def r(self, off: ArgShift | None = None) -> LegMatrix:
        """Rbar with the symbolic argument displaced by off."""
        return displaced(self.rbar, off, self.family.hshift_scale)

    def r_value(self, off: ArgShift) -> LegMatrix:
        """Rbar at a fully substituted argument."""
        return valued(self.rbar, off, self.family.hshift_scale)

    def identity(self, legs: int = 2) -> LegMatrix:
        return self.family.identity(legs)

    def sigma(self) -> LegMatrix:
        return self.family.sigma()

    # -- the identities the rescaling is supposed to buy ----------------
    def normalized_rho(self) -> Scalar:
        """rho of the rescaled matrix; 1 when the normalization worked."""
        return compute_rho(
            self.family, self.qdet, lambda s: self.r(ArgShift.of_h(s))
        )

    def unitarity_scalar(self) -> Scalar:
        return unitarity_scalar(self)

    def crossing_defect(self):
        """First nonzero grade of theta^2(Rbar) - Rbar(arg shifted by N h),
        or None when the crossing identity holds on the nose."""
        theta2 = self.rbar.theta().theta()
        shifted = self.r(ArgShift.of_h(self.family.crossing_hshift))
        return (theta2 - shifted).first_nonzero_grade()


def normalize(F: RMatrixFamily) -> NormalizedFamily:
    """Run the full determinant-normalization pipeline and verify it."""
    qd = find_qdet_vector(F)
    rho = compute_rho(F, qd)
    f0 = solve_f0(F, rho.inv())
    nf = NormalizedFamily(F, qd, rho, f0)
    if nf.normalized_rho() != Scalar.one(F.D, F.mode):
        raise KernelError("rescaled determinant scalar is not 1")
    return nf


def check_pairing_qdet(nf: NormalizedFamily, points, y=Fraction(0), raw=False):
    """Defect of the determinant element acting through an n-fold ladder of
    R-factors at the given evaluation points (shifted by y).

    Returns the first nonzero grade of (result - Id), or None when the
    action is exactly the identity.  With raw=True the un-rescaled family
    is used instead, which is the control that the normalization matters.
    """
    n = len(points)
    N, D = nf.N, nf.D
    big = LegShape([N] * (n + 1))
    src = (lambda off: nf.family.r(off)) if raw else nf.r

    def x_at(s):
        out = LegMatrix.identity(big, D, nf.mode)
        for j, a in enumerate(points, start=1):
            # the argument w + s + y - a
            off = shift_sub(ArgShift(Fraction(y), s), ArgShift.of(a, D), nf.mode)
            out = out * src(off).embed(big, (1, j + 1))
        return out

    result = qdet_apply(nf.qdet, x_at)
    ident = LegMatrix.identity(LegShape([N] * n), D, nf.mode)
    return (result - ident).first_nonzero_grade()
