"""Quantum determinant data and the normalizing scalar for an R-matrix family.

The pipeline: find the deformed antisymmetrizer (a rank-one eigenvector of
the N-fold ladder of R-factors), read off its coefficient vector C and the
ladder shifts, evaluate the determinant element in the vector representation
to get the scalar rho, solve the product functional equation for the
normalizing unit f0, and rescale R so that the determinant acts as 1.

The eigenvector is lifted grade by grade in h over sparse tables: each
grade v_q is a {coordinate: RatFn}, and each product of an aux block of the
ladder's grade p with v_q is computed once, when v_q is known, into the
table of grade p + q.  The h^1 test, the right-hand side of every grade
equation and the final residual check (every block, every grade 0..D) read
those tables; no step goes through Scalar arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import KernelError, LiftFailure, NonUnitError, ShapeMismatch
from .families import (
    ArgShift,
    RMatrixFamily,
    displaced,
    extract_scalar,
    ladder,
    ladder_factors,
    shift_scalar,
    shift_sub,
    unitarity_product,
    unitarity_scalar,
    valued,
)
from .hseries import HSeries
from .ratfn import RF_ONE, RF_ZERO, RatFn
from .scalar import Scalar
from .tensor import Elimination, LegMatrix, LegShape, certified_grade


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

    shifts: tuple
    coeffs: dict
    eigenvalue: Scalar


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


def aux_blocks(m: LegMatrix) -> dict:
    """Every (a, b) block of m in its first leg, as operators on the rest,
    split off in one pass over the entries."""
    n = m.shape.dims[0]
    sub = LegShape(m.shape.dims[1:])
    parts = {(a, b): {} for a in range(n) for b in range(n)}
    for (r, c), v in m.entries.items():
        a, rs = divmod(r, sub.total)
        b, cs = divmod(c, sub.total)
        parts[(a, b)][(rs, cs)] = v
    return {k: LegMatrix._nonzero(sub, e, m.D, m.mode) for k, e in parts.items()}


def find_qdet_vector(F: RMatrixFamily) -> QDetData:
    """Deformed antisymmetrizer for the N-fold ladder of R-factors.

    Builds M = R^{0,1}(w + s_1) ... R^{0,N}(w + s_N) on legs [N]^(N+1)
    (leg 1 auxiliary) and solves M (xi (x) v) = lam (xi (x) v) grade by
    grade in h, starting from the classical antisymmetrizer at h^0: with
    M^{ab} the (a, b) aux block of M and M_p its h^p grade,
    sum_{p+q=g} M^{ab}_p v_q = delta_ab sum_p lam_p v_{g-p} for every g.

    Each level v_q is a sparse {coordinate: RatFn}.  The ladder's entries
    are split by aux block and column once.  As soon as v_q is known, one
    pass over the entries at its nonzero coordinates adds M^{ab}_p v_q, for
    every block and every p <= D - q, to the sparse table of grade p + q,
    so each product is computed once.  The h^1 test reads the grade-1
    table after v_0.  When grade g is solved (for v_{g-1} and lam_g), its
    table holds exactly the products with p >= 2: that is the right-hand
    side, replayed through the one elimination of the left-hand side (the
    grade-1 ladder, lam_1 and v_0), which is the same at every grade.
    Once every level is in, the final check compares every table with
    delta_ab sum_p lam_p v_{g-p}, for every block and every grade 0..D,
    the grade-0 ladder included: the lift is verified exactly to order D.
    """
    N, D = F.N, F.D
    shifts = ladder_shifts(N, D)
    m = ladder(F, [ArgShift.of_h(s, F.mode) for s in shifts])

    vshape = LegShape([N] * N)
    T = vshape.total
    # the unknowns' equations: block (a, b) owns rows (a N + b) T + r, in
    # the sorted block order; by_col[c] lists (row, grades) of the ladder
    # entries in column c of their block
    diag = [(a * N + a) * T for a in range(N)]
    by_col = [[] for _ in range(T)]
    for (r, c), s in m.entries.items():
        a, r = divmod(r, T)
        b, c = divmod(c, T)
        by_col[c].append(((a * N + b) * T + r, s.grades))

    # table[g]: sum of M_p v_q over the levels absorbed so far, p + q = g
    table = [{} for _ in range(D + 1)]

    def absorb(q, v):
        """Add M_p v for every p <= D - q to the tables, v the level q."""
        for c, y in v.items():
            for row, grades in by_col[c]:
                for p in range(D - q + 1):
                    x = grades[p]
                    if x:
                        t = table[q + p]
                        z = t.get(row)
                        z = x * y if z is None else z + x * y
                        if z:
                            t[row] = z
                        else:
                            del t[row]

    def on_diagonal(terms):
        """sum of lam_p v_q over the (p, q) terms, on every diagonal block."""
        s = {}
        for p, q in terms:
            for r, y in levels[q].items():
                s[r] = s[r] + lam[p] * y if r in s else lam[p] * y
        return {d + r: y for d in diag for r, y in s.items() if y}

    # h^0: the classical antisymmetrizer, lead coefficient pinned to 1
    v0 = {
        vshape.ravel(p): RatFn.from_fraction(_perm_sign(p))
        for p in permutations(range(N))
    }
    pivot = vshape.ravel(tuple(range(N)))
    lam = [RF_ONE]
    levels = [v0]
    absorb(0, v0)
    if D >= 1:
        # h^1 pins the eigenvalue and must hold with no v-correction:
        # off-diagonal blocks kill v0, diagonal blocks scale it
        lam.append(table[1].get(pivot, RF_ZERO))
        if table[1] != on_diagonal([(1, 0)]):
            raise LiftFailure("h^1 ladder action does not fix the antisymmetrizer")

    if D >= 2:
        # unknowns: the T coordinates of v_{g-1}, then lam_g
        rows = [{} for _ in range(N * N * T)]
        for c, entries in enumerate(by_col):
            for row, grades in entries:
                if grades[1]:
                    rows[row][c] = grades[1]
        for d in diag:
            for r in range(T):
                row = rows[d + r]
                x = row.pop(r, RF_ZERO) - lam[1]
                if x:
                    row[r] = x
                if r in v0:
                    row[T] = -v0[r]
        rows.append({pivot: RF_ONE})
        lift = Elimination(rows, T + 1)

        for g in range(2, D + 1):
            rhs = [RF_ZERO] * len(rows)
            for row, x in table[g].items():
                rhs[row] = -x
            for row, y in on_diagonal([(p, g - p) for p in range(2, g)]).items():
                rhs[row] = rhs[row] + y
            sol = lift.solve(rhs)
            if sol is None:
                raise LiftFailure(f"no eigenvector correction at h-grade {g}")
            levels.append({c: x for c, x in enumerate(sol[:T]) if x})
            lam.append(sol[T])
            absorb(g - 1, levels[-1])

    # the top v-grade is invisible to the truncated equations; pin it to 0
    while len(levels) < D + 1:
        levels.append({})
    while len(lam) < D + 1:
        lam.append(RF_ZERO)

    # full residual check of the eigen-equation, exactly to order D
    for g in range(D + 1):
        if table[g] != on_diagonal([(p, g - p) for p in range(g + 1)]):
            raise LiftFailure("eigen-equation residual is nonzero")

    coeffs = {
        vshape.unravel(flat): Scalar([v.get(flat, RF_ZERO) for v in levels], F.mode)
        for flat in sorted(set().union(*levels))
    }
    return QDetData(tuple(shifts), coeffs, Scalar(lam, F.mode))


def contract(coeffs: dict, mats) -> LegMatrix:
    """sum_i C_i x_{1 i_1} ... x_{N i_N} for the determinant coefficients C
    and the blocks of the N operators x = mats, whose leg 1 is the
    auxiliary [N] leg; the result acts on the remaining legs."""
    sub = LegShape(mats[0].shape.dims[1:])
    D, mode = mats[0].D, mats[0].mode
    blocks = [aux_blocks(mk) for mk in mats]
    out = LegMatrix.zero(sub, D, mode)
    for idx in sorted(coeffs):
        prod = LegMatrix.product(
            (blocks[k][(k, ik)] for k, ik in enumerate(idx)), sub, D, mode
        )
        out = out + prod.mul_scalar(coeffs[idx])
    return out


def qdet_apply(qd: QDetData, x_at) -> LegMatrix:
    """Image of the determinant element under blocks of x.

    x_at(s) must return an operator whose leg 1 is the auxiliary [N] leg;
    the result acts on the remaining legs:
    sum_i C_i x_{1 i_1}(s_1) ... x_{N i_N}(s_N).
    """
    return contract(qd.coeffs, [x_at(s) for s in qd.shifts])


def compute_rho(F, qd: QDetData) -> Scalar:
    """The scalar by which the determinant element acts in the vector
    representation (x -> R with auxiliary first leg), for a raw or a
    normalized family F."""
    return extract_scalar(qdet_apply(qd, lambda s: F.r(ArgShift.of_h(s, F.mode))))


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
            prod = prod * shift_scalar(f, ArgShift.of_h(s, F.mode), F.hshift_scale)
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
        self._values: dict = {}  # r_value memo, by argument

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
        """Rbar at a fully substituted argument, computed once per argument."""
        m = self._values.get(off)
        if m is None:
            m = self._values[off] = valued(self.rbar, off, self.family.hshift_scale)
        return m

    def identity(self, legs: int = 2) -> LegMatrix:
        return self.family.identity(legs)

    def sigma(self) -> LegMatrix:
        return self.family.sigma()

    # -- the identities the rescaling is supposed to buy ----------------
    def normalized_rho(self) -> Scalar:
        """rho of the rescaled matrix; 1 when the normalization worked."""
        return compute_rho(self, self.qdet)

    def unitarity_scalar(self) -> Scalar:
        return unitarity_scalar(self)

    def qdet_defect(self):
        """First nonzero grade of the determinant element's image minus Id,
        or None when it acts as 1."""
        image = qdet_apply(self.qdet, lambda s: self.r(ArgShift.of_h(s, self.mode)))
        return (image - self.identity(1)).first_nonzero_grade()

    def unitarity_defect(self):
        """First nonzero grade of Rbar(w) Rbar^{21}(-w) minus Id, or None."""
        return (unitarity_product(self) - self.identity()).first_nonzero_grade()

    def crossing_defect(self):
        """First nonzero grade of theta^2(Rbar) - Rbar(arg shifted by N h),
        or None when the crossing identity holds on the nose."""
        theta2 = self.rbar.theta().theta()
        shifted = self.r(ArgShift.of_h(self.family.crossing_hshift, self.mode))
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


def pairing_contraction(nf: NormalizedFamily, points, raw=False):
    """The determinant contraction through an n-fold ladder of R-factors at
    the given evaluation points, minus Id, as (factors, residual).

    factors are the N ladders' displaced Rbar-factors (R-factors when raw)
    in order, then the determinant coefficients; residual(factors) is the
    contraction minus Id over the ring of the factors' entries, so it also
    takes the factors evaluated at a point.
    """
    D, mode, n = nf.D, nf.mode, len(points)
    if not n:
        raise ShapeMismatch("the pairing ladder needs at least one point")
    src = nf.family if raw else nf
    factors = []
    for s in nf.qdet.shifts:
        # the arguments w + s - a
        here = ArgShift.of_h(s, mode)
        factors += ladder_factors(
            src, [shift_sub(here, ArgShift.of(a, D), mode) for a in points]
        )
    factors.append(nf.qdet.coeffs)
    big = factors[0].shape

    def residual(fs):
        *rs, coeffs = fs
        ladders = [
            LegMatrix.product(rs[i:i + n], big, D, mode)
            for i in range(0, len(rs), n)
        ]
        image = contract(coeffs, ladders)
        return image - LegMatrix.identity(image.shape, D, mode, image.constant(1))

    return factors, residual


def check_pairing_qdet(nf: NormalizedFamily, points, raw=False):
    """Defect of the determinant element acting through an n-fold ladder of
    R-factors at the given evaluation points.

    Returns the first nonzero grade of (result - Id), or None when the
    action is exactly the identity, decided by certified evaluation of
    pairing_contraction.  With raw=True the un-rescaled family is used
    instead, which is the control that the normalization matters.
    """
    factors, residual = pairing_contraction(nf, points, raw)
    return certified_grade(factors, residual, nf.D, nf.mode)


def check_pairing_control(nf: NormalizedFamily, points):
    """The control of check_pairing_qdet: without the rescaling the
    contraction must differ from Id at some grade up to D.  Returns None
    when it does, and D when it equals Id at every grade up to D: the
    control is refuted only once its last grade is seen."""
    return None if check_pairing_qdet(nf, points, raw=True) is not None else nf.D
