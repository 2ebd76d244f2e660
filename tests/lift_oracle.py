"""The general determinant lift over dense RatFn vectors, kept as the
oracle of qdet.find_qdet_vector, and the eigen-equation residual over
Scalars.

dense_lift(F) solves the grade equations of the ladder's eigenvector from
the classical antisymmetrizer upward, one dense length-T RatFn vector per
block and grade, with one elimination for grades 2..D, and returns a Lift;
find_qdet_vector checks that every correction it would find is zero.
scalar_residual(F, lift) applies the ladder's aux blocks (LegMatrix.apply
over Scalars) to the coefficient vector of lift against its eigenvalue:
None when every block equation holds to order D, else the first failing
block.
permutation_contract(coeffs, mats) is qdet.contract written as the sum over
all N! coefficients, N - 1 block products each.
"""

from dataclasses import dataclass
from itertools import permutations

from product_oracle import ladder
from qkzkit.errors import LiftFailure
from qkzkit.families import ArgShift
from qkzkit.qdet import _perm_sign, aux_blocks, ladder_shifts
from qkzkit.ratfn import RF_ONE, RF_ZERO, RatFn
from qkzkit.scalar import Scalar
from qkzkit.tensor import Elimination, LegMatrix, LegShape


@dataclass(frozen=True)
class Lift:
    """A determinant vector: coeffs maps an N-multi-index (0-based) to its
    Scalar coefficient, and eigenvalue is the ladder's scalar on it."""

    coeffs: dict
    eigenvalue: Scalar


def apply_grade(blk, m, vec):
    """The m-th h-grade of blk applied to a dense vector of RatFns."""
    out = [RF_ZERO] * blk.shape.total
    for (r, c), v in blk.entries.items():
        x, y = v.grades[m], vec[c]
        if x and y:
            out[r] = out[r] + x * y
    return out


def scalar_residual(F, lift: Lift):
    """The first aux block (a, b) where the ladder of F moves the
    coefficient vector of lift other than by its eigenvalue (a == b) or to
    zero (a != b), or None."""
    N, D = F.N, F.D
    m = ladder(F, [ArgShift.of_h(s, F.mode) for s in ladder_shifts(N, D)])
    vshape = LegShape([N] * N)
    vec = [Scalar.zero(D, F.mode) for _ in range(vshape.total)]
    for idx, c in lift.coeffs.items():
        vec[vshape.ravel(idx)] = c
    for (a, b), blk in sorted(aux_blocks(m).items()):
        got = blk.apply(vec)
        if a == b:
            want = [lift.eigenvalue * x for x in vec]
        else:
            want = [Scalar.zero(D, F.mode)] * vshape.total
        if any(not (x - y).is_zero for x, y in zip(got, want)):
            return (a, b)
    return None


def dense_lift(F) -> Lift:
    """The eigenvector lift over dense RatFn vectors, without a final
    residual check (scalar_residual is that check)."""
    N, D = F.N, F.D
    m = ladder(F, [ArgShift.of_h(s, F.mode) for s in ladder_shifts(N, D)])

    vshape = LegShape([N] * N)
    T = vshape.total
    blocks = aux_blocks(m)
    keys = sorted(blocks)

    v0 = [RF_ZERO] * T
    for p in permutations(range(N)):
        v0[vshape.ravel(p)] = RatFn.from_fraction(_perm_sign(p))
    pivot = vshape.ravel(tuple(range(N)))

    lam = [RF_ONE]
    levels = [v0]
    if D >= 1:
        lam1 = apply_grade(blocks[(0, 0)], 1, v0)[pivot]
        for (a, b) in keys:
            want = [x * lam1 for x in v0] if a == b else [RF_ZERO] * T
            if apply_grade(blocks[(a, b)], 1, v0) != want:
                raise LiftFailure(
                    "h^1 ladder action does not fix the antisymmetrizer"
                )
        lam.append(lam1)

    if D >= 2:
        rows = []
        for (a, b) in keys:
            brows = [{} for _ in range(T)]
            for (r, c), v in blocks[(a, b)].entries.items():
                if v.grades[1]:
                    brows[r][c] = v.grades[1]
            if a == b:
                for r, row in enumerate(brows):
                    x = row.pop(r, RF_ZERO) - lam[1]
                    if x:
                        row[r] = x
                    if v0[r]:
                        row[T] = -v0[r]
            rows += brows
        rows.append({pivot: RF_ONE})
        lift = Elimination(rows, T + 1)

        for g in range(2, D + 1):
            rhs = []
            for (a, b) in keys:
                acc = [RF_ZERO] * T
                for p in range(2, g + 1):
                    part = apply_grade(blocks[(a, b)], p, levels[g - p])
                    acc = [x - y for x, y in zip(acc, part)]
                if a == b:
                    for p in range(2, g):
                        acc = [x + lam[p] * y for x, y in zip(acc, levels[g - p])]
                rhs += acc
            rhs.append(RF_ZERO)
            sol = lift.solve(rhs)
            if sol is None:
                raise LiftFailure(f"no eigenvector correction at h-grade {g}")
            levels.append(sol[:T])
            lam.append(sol[T])

    while len(levels) < D + 1:
        levels.append([RF_ZERO] * T)
    while len(lam) < D + 1:
        lam.append(RF_ZERO)

    coeffs = {}
    for flat in range(T):
        col = [levels[p][flat] for p in range(D + 1)]
        if any(not x.is_zero for x in col):
            coeffs[vshape.unravel(flat)] = Scalar(col, F.mode)
    return Lift(coeffs, Scalar(lam, F.mode))


def permutation_contract(coeffs: dict, mats) -> LegMatrix:
    """sum_i C_i x_{1 i_1} ... x_{N i_N} for the determinant coefficients C
    and the blocks of the N operators x = mats, whose leg 1 is the
    auxiliary [N] leg; the result acts on the remaining legs."""
    sub = LegShape(mats[0].shape.dims[1:])
    D, mode = mats[0].D, mats[0].mode
    blocks = [aux_blocks(mk) for mk in mats]
    out = LegMatrix(sub, {}, D, mode)
    for idx in sorted(coeffs):
        prod = LegMatrix.product(
            (blocks[k][(k, ik)] for k, ik in enumerate(idx)), sub, D, mode
        )
        out = out + prod.mul_scalar(coeffs[idx])
    return out
