"""Symbolic oracles for the product-identity rows: each multiplies the
identity out over k(w)[[h]] and reads the first nonzero grade of the
residual.  The library decides the same rows by certified evaluation
(tensor.certified_grade); the tests compare the two verdicts.
"""

from qkzkit.families import ArgShift, default_samples, shift_add, shift_sub
from qkzkit.reps import ComoduleWord, block_swap, build_braiding, build_L, build_rvw
from qkzkit.tensor import LegMatrix, LegShape, least_grade


def three_leg_factors(F, u2, u3):
    """R^{12}(u1 - u2) and R^{13}(u1 - u3), u1 symbolic, and R^{23}(u2 - u3),
    evaluated and lifted into k(w)[[h]] once, on legs [N]^3."""
    big = LegShape([F.N] * 3)
    sym = ArgShift.none(F.D, F.mode)
    a2, a3 = ArgShift.of(u2, F.D), ArgShift.of(u3, F.D)
    return (
        F.r(shift_sub(sym, a2, F.mode)).embed(big, (1, 2)),
        F.r(shift_sub(sym, a3, F.mode)).embed(big, (1, 3)),
        F.r_value(shift_sub(a2, a3, F.mode)).symbolic().embed(big, (2, 3)),
    )


def qybe(F, samples=None):
    """R12 R13 R23 = R23 R13 R12 at each sample pair (u2, u3)."""
    if samples is None:
        samples = default_samples(F)
    grades = []
    for u2, u3 in samples:
        r12, r13, r23 = three_leg_factors(F, u2, u3)
        grades.append((r12 * r13 * r23 - r23 * r13 * r12).first_nonzero_grade())
    return least_grade(grades)


def classical_ybe(F, samples=None):
    """The sum of pairwise commutators of the h^1 matrices, concentrated in
    grade 0: 0 where it fails."""
    if samples is None:
        samples = default_samples(F, 3)
    grades = []
    for u2, u3 in samples:
        r12, r13, r23 = (-m.grade_matrix(1) for m in three_leg_factors(F, u2, u3))
        acc = (
            (r12 * r13 - r13 * r12)
            + (r12 * r23 - r23 * r12)
            + (r13 * r23 - r23 * r13)
        )
        grades.append(acc.first_nonzero_grade())
    return least_grade(grades)


def braid_relation(nf, words, offs):
    """R_UV R_UW R_VW = R_VW R_UW R_UV on U (x) V (x) W."""
    u, v, w = words
    off_uv, off_uw, off_vw = offs
    nu, nv, nw = len(u), len(v), len(w)
    big = LegShape([nf.N] * (nu + nv + nw))
    legs_u = tuple(range(1, nu + 1))
    legs_v = tuple(range(nu + 1, nu + nv + 1))
    legs_w = tuple(range(nu + nv + 1, nu + nv + nw + 1))
    r_uv = build_rvw(nf, u, v, off_uv).embed(big, legs_u + legs_v)
    r_uw = build_rvw(nf, u, w, off_uw).embed(big, legs_u + legs_w)
    r_vw = build_rvw(nf, v, w, off_vw, value=True).symbolic().embed(
        big, legs_v + legs_w
    )
    return (r_uv * r_uw * r_vw - r_vw * r_uw * r_uv).first_nonzero_grade()


def rvw_unitarity(nf, vword, wword, off=None):
    """sigma R_VW(w) sigma R_WV(-w) = 1."""
    p, q = len(vword), len(wword)
    if off is None:
        off = ArgShift.none(nf.D, nf.mode)
    neg = shift_sub(ArgShift.none(nf.D, nf.mode), off, nf.mode)
    rvw = build_rvw(nf, vword, wword, off)
    rwv_neg = build_rvw(nf, wword, vword, neg).map_entries(lambda s: s.negate_arg())
    prod = block_swap(nf, p, q) * rvw * block_swap(nf, q, p) * rwv_neg
    ident = LegMatrix.identity(LegShape([nf.N] * (p + q)), nf.D, nf.mode)
    return (prod - ident).first_nonzero_grade()


def intertwiner(nf, vword, wword, off):
    """(1_aux (x) beta) L_{V (x) W} = L_{W (x) V} (1_aux (x) beta)."""
    p, q = len(vword), len(wword)
    big = LegShape([nf.N] * (1 + p + q))
    shifted_v = tuple(shift_add(a, off, nf.mode) for a in vword.letters)
    beta = build_braiding(nf, vword, wword, off, value=True).symbolic().embed(
        big, tuple(range(2, p + q + 2))
    )
    l_vw = build_L(nf, ComoduleWord(shifted_v + wword.letters))
    l_wv = build_L(nf, ComoduleWord(wword.letters + shifted_v))
    return (beta * l_vw - l_wv * beta).first_nonzero_grade()
