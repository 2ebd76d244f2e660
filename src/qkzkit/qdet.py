"""The quantum determinant and the normalizing scalar of an R-matrix family.

The pipeline: check that the classical antisymmetrizer is an eigenvector of
the N-fold ladder of R-factors at the ladder shifts, at every h-grade;
evaluate the determinant element in the vector representation to get the
scalar rho; solve the product functional equation for the normalizing unit
f0; and rescale R so that the determinant acts as 1.  f0 is the whole
output: the determinant vector is the fixed antisymmetrizer, whose signs
contract builds in, and the shifts are ladder_shifts(N, D).

The ladder is never formed.  The antisymmetrizer is checked on a thin
operator whose N columns are e_b (x) v0: the N ladder factors applied to it,
last factor first, give every aux block's product with v0, read grade by
grade as sparse tables.  The signed sum over permutations that contracts
the determinant against N operators is a determinant in their aux blocks,
expanded by minors over column subsets, each minor computed once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from .errors import KernelError, LiftFailure, NonUnitError, ShapeMismatch
from .families import (
    ArgShift,
    RMatrixFamily,
    extract_scalar,
    ladder_factors,
    shift_scalar,
    shift_sub,
    unitarity_product,
    unitarity_scalar,
)
from .hseries import HSeries
from .ratfn import RF_ONE, RF_ZERO
from .scalar import Scalar
from .tensor import LegMatrix, LegShape, certified_grade


def ladder_shifts(N: int, D: int) -> list[HSeries]:
    """The symmetric ladder (2k - 1 - N) h / 2 for k = 1..N."""
    return [
        HSeries.h(D).scale(Fraction(2 * k - 1 - N, 2)) for k in range(1, N + 1)
    ]


def _perm_sign(p) -> int:
    """The sign of the permutation p, by the parity of its inversions."""
    inversions = sum(a > b for i, a in enumerate(p) for b in p[i + 1:])
    return -1 if inversions % 2 else 1


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
    return {
        k: LegMatrix._nonzero(sub, e, m.D, m.mode, m.den) for k, e in parts.items()
    }


def antisymmetrizer(N: int, D: int, mode: str) -> dict:
    """The determinant coefficients of the classical antisymmetrizer: each
    permutation of range(N) to its sign, a constant Scalar (1 at the pivot
    (0, 1, ..., N-1))."""
    sign = {1: Scalar.one(D, mode), -1: Scalar.const(-1, D, mode)}
    return {p: sign[_perm_sign(p)] for p in permutations(range(N))}


def find_qdet_vector(F: RMatrixFamily) -> Scalar:
    """The classical antisymmetrizer, checked as the determinant vector;
    returns its eigenvalue lam.

    With M = R^{0,1}(w + s_1) ... R^{0,N}(w + s_N) on legs [N]^(N+1) (leg 1
    auxiliary): at the ladder shifts the fused product maps aux (x)
    Lambda^N to itself by a scalar (Kulish, Reshetikhin and Sklyanin 1981),
    so the antisymmetrizer v0 (permutation signs, pivot coefficient 1)
    needs no h-correction: with M^{ab}_p the h^p grade of the (a, b) aux
    block, M^{ab}_p v0 = delta_ab lam_p v0 for every p <= D.

    M is never formed.  A thin operator whose column b is e_b (x) v0 is
    multiplied on the left by the N ladder factors, last factor first, so
    no product has more than N nonzero columns; column b of the result is
    M (e_b (x) v0), whose rows a T + r hold M^{ab} v0, read grade by grade
    into sparse tables.  lam_0 is pinned to 1, lam_p is read at the pivot
    of block (0, 0), and every table is compared exactly with
    delta_ab lam_p v0: the equation is verified to order D, and the first
    grade where it fails is named.
    """
    N, D = F.N, F.D
    shifts = ladder_shifts(N, D)
    vshape = LegShape([N] * N)
    T = vshape.total
    v0 = {vshape.ravel(p): c for p, c in antisymmetrizer(N, D, F.mode).items()}
    pivot = vshape.ravel(tuple(range(N)))

    factors = ladder_factors(F, [ArgShift.of_h(s, F.mode) for s in shifts])
    thin = {(b * T + r, b): y for b in range(N) for r, y in v0.items()}
    w = LegMatrix(factors[0].shape, thin, D, F.mode)
    for f in reversed(factors):
        w = f * w

    # table[p]: M^{ab}_p v0 at (a T + r, b)
    table = [{} for _ in range(D + 1)]
    for key, s in w.entries.items():
        for p, x in enumerate(s.grades):
            if x:
                table[p][key] = x

    lam = [RF_ONE] + [table[p].get((pivot, 0), RF_ZERO) for p in range(1, D + 1)]
    for p, lp in enumerate(lam):
        want = {
            (a * T + r, a): lp * y.grades[0] for a in range(N) for r, y in v0.items()
        }
        if table[p] != (want if lp else {}):
            raise LiftFailure(
                f"the antisymmetrizer is not an eigenvector at h-grade {p}"
            )
    return Scalar(lam, F.mode)


def contract(mats) -> LegMatrix:
    """sum over permutations s of sgn(s) x_{1 s_1} ... x_{N s_N}, for the
    blocks of the N operators x = mats, whose leg 1 is the auxiliary [N]
    leg; the result acts on the remaining legs.

    The sum is a determinant of blocks with the row order kept, expanded
    along its last row by minors over column subsets:
    L(S) = sum_{c in S} (-1)^{#{s in S : s > c}} L(S - {c}) x_{|S|, c},
    with L({c}) = x_{1 c}.  Each minor is computed once, so the sum takes
    N 2^(N-1) - N block products instead of N! (N - 1).
    """
    N = len(mats)
    blocks = [aux_blocks(mk) for mk in mats]
    minors = {(c,): blocks[0][(0, c)] for c in range(N)}
    for k in range(1, N):
        nxt = {}
        for cols in combinations(range(N), k + 1):
            out = None
            for i, c in enumerate(cols):
                term = minors[cols[:i] + cols[i + 1:]] * blocks[k][(k, c)]
                if (k - i) % 2:  # k - i columns of cols lie right of c
                    term = -term
                out = term if out is None else out + term
            nxt[cols] = out
        minors = nxt
    return minors[tuple(range(N))]


def qdet_apply(F: RMatrixFamily, x_at) -> LegMatrix:
    """Image of the determinant element of F under blocks of x.

    x_at(s) must return an operator whose leg 1 is the auxiliary [N] leg;
    the result acts on the remaining legs:
    sum_i C_i x_{1 i_1}(s_1) ... x_{N i_N}(s_N), C the antisymmetrizer and
    s the ladder shifts.
    """
    return contract([x_at(s) for s in ladder_shifts(F.N, F.D)])


def compute_rho(F: RMatrixFamily) -> Scalar:
    """The scalar by which the determinant element of F acts in the vector
    representation (x -> R with auxiliary first leg)."""
    return extract_scalar(qdet_apply(F, lambda s: F.r(ArgShift.of_h(s, F.mode))))


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


class NormalizedFamily(RMatrixFamily):
    """The family of raw's name, N and D whose base is f0 R, with f0 the unit
    that makes its determinant element act as 1."""

    def __init__(self, raw: RMatrixFamily, f0: Scalar):
        super().__init__(raw.family, raw.N, raw.D)
        self.raw = raw
        self.f0 = f0
        self._base = raw.base.mul_scalar(f0)

    # in the class's own dict, where bench/layers.py wraps them (ROADMAP item 12)
    r = RMatrixFamily.r
    r_value = RMatrixFamily.r_value

    # -- the identities the rescaling is supposed to buy ----------------
    def normalized_rho(self) -> Scalar:
        """rho of the rescaled matrix; 1 when the normalization worked."""
        return compute_rho(self)

    def unitarity_scalar(self) -> Scalar:
        return unitarity_scalar(self)

    def qdet_defect(self):
        """First nonzero grade of the determinant element's image minus Id,
        or None when it acts as 1."""
        image = qdet_apply(self, lambda s: self.r(ArgShift.of_h(s, self.mode)))
        return (image - self.identity(1)).first_nonzero_grade()

    def unitarity_defect(self):
        """First nonzero grade of Rbar(w) Rbar^{21}(-w) minus Id, or None."""
        return (unitarity_product(self) - self.identity()).first_nonzero_grade()

    def crossing_defect(self):
        """First nonzero grade of theta^2(Rbar) - Rbar(arg shifted by N h),
        or None when the crossing identity holds on the nose."""
        theta2 = self.base.theta().theta()
        shifted = self.r(ArgShift.of_h(self.crossing_hshift, self.mode))
        return (theta2 - shifted).first_nonzero_grade()


def normalize(F: RMatrixFamily) -> NormalizedFamily:
    """Run the full determinant-normalization pipeline and verify it."""
    find_qdet_vector(F)  # LiftFailure unless the antisymmetrizer is the vector
    nf = NormalizedFamily(F, solve_f0(F, compute_rho(F).inv()))
    if nf.normalized_rho() != Scalar.one(F.D, F.mode):
        raise KernelError("rescaled determinant scalar is not 1")
    return nf


def pairing_contraction(F: RMatrixFamily, points):
    """The determinant contraction through an n-fold ladder of R-factors at
    the given evaluation points, minus Id, as (factors, residual).

    factors are the N ladders' displaced R-factors of F in order;
    residual(factors) is the contraction minus Id over the ring of the
    factors' entries, so it also takes the factors evaluated at a point.
    """
    D, mode, n = F.D, F.mode, len(points)
    if not n:
        raise ShapeMismatch("the pairing ladder needs at least one point")
    factors = []
    for s in ladder_shifts(F.N, D):
        # the arguments w + s - a
        here = ArgShift.of_h(s, mode)
        factors += ladder_factors(
            F, [shift_sub(here, ArgShift.of(a, D), mode) for a in points]
        )
    big = factors[0].shape

    def residual(fs):
        ladders = [
            LegMatrix.product(fs[i:i + n], big, D, mode)
            for i in range(0, len(fs), n)
        ]
        image = contract(ladders)
        return image - LegMatrix.identity(image.shape, D, mode, image.den is not None)

    return factors, residual


def check_pairing_qdet(F: RMatrixFamily, points):
    """Defect of the determinant element of F acting through an n-fold
    ladder of R-factors at the given evaluation points.

    Returns the first nonzero grade of (result - Id), or None when the
    action is exactly the identity, decided by certified evaluation of
    pairing_contraction.
    """
    factors, residual = pairing_contraction(F, points)
    return certified_grade(factors, residual, F.D, F.mode)


def check_pairing_control(nf: NormalizedFamily, points):
    """The control of check_pairing_qdet: without the rescaling (on nf.raw)
    the contraction must differ from Id at some grade up to D.  Returns None
    when it does, and D when it equals Id at every grade up to D: the
    control is refuted only once its last grade is seen."""
    return None if check_pairing_qdet(nf.raw, points) is not None else nf.D
