"""Tensor-word comodules and their pairwise R-matrices.

A word is a list of argument displacements, one per tensor factor; R_VW on
V (x) W is the product of its letter matrices, the normalized two-leg matrix
on each pair of letters, in the hexagon recursion's order.  The braiding is
the leg swap composed with the inverse of R_VW.
"""

from __future__ import annotations

from .errors import KernelError, ShapeMismatch
from .families import ArgShift, RMatrixFamily, ladder_factors, shift_add, shift_sub
from .tensor import LegMatrix, LegShape, certified_grade, least_grade


class ComoduleWord:
    """An ordered tuple of argument displacements, one per tensor factor."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple):
        self.letters = letters

    def __eq__(self, other):
        if other.__class__ is not ComoduleWord:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"ComoduleWord(letters={self.letters!r})"

    @staticmethod
    def of(values, D: int) -> "ComoduleWord":
        """Build from plain rationals (constant displacements) or ArgShifts."""
        return ComoduleWord(tuple(
            v if isinstance(v, ArgShift) else ArgShift.of(v, D) for v in values
        ))

    def __len__(self) -> int:
        return len(self.letters)


def word_leg_shape(nf: RMatrixFamily, *words) -> LegShape:
    return LegShape([nf.N] * sum(len(w) for w in words))


def rvw_factors(
    nf: RMatrixFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift | None = None,
    value: bool = False,
) -> list:
    """The letter matrices of R_VW on legs [N]^(p+q), V on legs 1..p and W
    on legs p+1..p+q: the two-leg matrix at each letter pair's combined
    displacement, evaluated when value is set, in product order.  The
    hexagon recursion, R_{V1 (x) V2, W} = R_{V2, W} R_{V1, W} and
    R_{V, W1 (x) W2} = R_{V, W1} R_{V, W2}, flattens to the last V letter
    first, each paired with the W letters in order."""
    p = len(vword)
    if p == 0 or len(wword) == 0:
        raise ShapeMismatch("both words must be nonempty")
    big = word_leg_shape(nf, vword, wword)
    if off is None:
        off = ArgShift.none(nf.D, nf.mode)
    r = nf.r_value if value else nf.r
    return [
        r(shift_add(off, shift_sub(a, b, nf.mode), nf.mode)).embed(big, (i, p + j))
        for i, a in reversed(list(enumerate(vword.letters, 1)))
        for j, b in enumerate(wword.letters, 1)
    ]


def build_rvw(
    nf: RMatrixFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift | None = None,
    value: bool = False,
) -> LegMatrix:
    """R_VW on legs [N]^(p+q), the product of rvw_factors."""
    fs = rvw_factors(nf, vword, wword, off, value)
    return LegMatrix.product(fs, fs[0].shape, nf.D, nf.mode)


def block_swap(nf: RMatrixFamily, p: int, q: int, evaluated=False) -> LegMatrix:
    """The permutation sending V-legs 1..p past W-legs p+1..p+q, symbolic or
    evaluated."""
    shape = LegShape([nf.N] * (p + q))
    perm = tuple(range(p, p + q)) + tuple(range(p))
    return LegMatrix.from_leg_permutation(shape, perm, nf.D, nf.mode, evaluated)


def build_braiding(
    nf: RMatrixFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift | None = None,
    value: bool = False,
) -> LegMatrix:
    """The braiding V (x) W -> W (x) V: block swap after inverting R_VW,
    both evaluated when value is set."""
    inv = build_rvw(nf, vword, wword, off, value).inv()
    return block_swap(nf, len(vword), len(wword), value) * inv


def check_hexagon(
    nf: RMatrixFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift | None = None,
):
    """Consistency of the two hexagon groupings.

    Splitting the left word at every position and splitting the right word
    at every position must reproduce the recursively built R_VW; returns
    the least first nonzero grade of the differences over all splits, or
    None.
    """
    full = build_rvw(nf, vword, wword, off)
    v, w = vword.letters, wword.letters
    vlegs = tuple(range(1, len(v) + 1))
    wlegs = tuple(range(len(v) + 1, len(v) + len(w) + 1))

    def part(vl, wl, legs):
        m = build_rvw(nf, ComoduleWord(vl), ComoduleWord(wl), off)
        return m.embed(full.shape, legs)

    pairs = [
        (part(v[c:], w, vlegs[c:] + wlegs), part(v[:c], w, vlegs[:c] + wlegs))
        for c in range(1, len(v))
    ] + [
        (part(v, w[:c], vlegs + wlegs[:c]), part(v, w[c:], vlegs + wlegs[c:]))
        for c in range(1, len(w))
    ]
    return least_grade((a * b - full).first_nonzero_grade() for a, b in pairs)


def ybe_factors(F: RMatrixFamily, words, offs) -> list:
    """The factor words of Yang-Baxter on U (x) V (x) W: the letters of R_UV
    and of R_UW, the U-variable symbolic, and R_VW, evaluated and lifted
    once.  words = (U, V, W); offs = (off_uv, off_uw, off_vw), difference-
    consistent: off_uw = off_uv + off_vw, or KernelError."""
    u, v, w = words
    off_uv, off_uw, off_vw = offs
    if shift_add(off_uv, off_vw, F.mode) != off_uw:
        raise KernelError("the YBE offsets need off_uw = off_uv + off_vw")
    big = word_leg_shape(F, *words)
    ends = [0, len(u), len(u) + len(v), len(big.dims)]
    lu, lv, lw = (tuple(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:]))
    return [
        [f.embed(big, lu + lv) for f in rvw_factors(F, u, v, off_uv)],
        [f.embed(big, lu + lw) for f in rvw_factors(F, u, w, off_uw)],
        [build_rvw(F, v, w, off_vw, value=True).symbolic().embed(big, lv + lw)],
    ]


def ybe_residual(rs) -> LegMatrix:
    """R_UV R_UW R_VW - R_VW R_UW R_UV over the ring of the entries, for the
    products of the words of ybe_factors, symbolic or evaluated."""
    r_uv, r_uw, r_vw = rs
    return r_uv * r_uw * r_vw - r_vw * r_uw * r_uv


def check_braid_relation(nf: RMatrixFamily, words, offs):
    """Yang-Baxter for three words, R_UV R_UW R_VW = R_VW R_UW R_UV,
    decided by certified evaluation of ybe_factors; returns the first
    nonzero grade of the difference, or None."""
    return certified_grade(ybe_factors(nf, words, offs), ybe_residual)


def word_ladder(nf: RMatrixFamily, word: ComoduleWord) -> list:
    """The factors Rbar(w - a_k) of the evaluation operator of a word, on
    legs [N]^(1+len), leg 1 auxiliary, in word order."""
    neutral = ArgShift.none(nf.D, nf.mode)
    return ladder_factors(nf, [shift_sub(neutral, a, nf.mode) for a in word.letters])


def build_L(nf: RMatrixFamily, word: ComoduleWord) -> LegMatrix:
    """The evaluation operator of a word, the product of word_ladder; Id on
    [N] for the empty word."""
    big = LegShape([nf.N] * (1 + len(word)))
    return LegMatrix.product(word_ladder(nf, word), big, nf.D, nf.mode)


def check_rvw_unitarity(
    nf: RMatrixFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift | None = None,
):
    """sigma R_VW(w) sigma R_WV(-w) = 1, decided by certified evaluation
    with the letters of R_VW(w) and of R_WV(-w); returns the first nonzero
    grade of the difference from the identity, or None."""
    p, q = len(vword), len(wword)
    mode = nf.mode
    if off is None:
        off = ArgShift.none(nf.D, mode)
    neg = shift_sub(ArgShift.none(nf.D, mode), off, mode)
    rwv_neg = [f.map_entries(lambda s: s.negate_arg())
               for f in rvw_factors(nf, wword, vword, neg)]

    def residual(rs):
        ev = rs[0].den is not None
        prod = block_swap(nf, p, q, ev) * rs[0] * block_swap(nf, q, p, ev) * rs[1]
        return prod - LegMatrix.identity(prod.shape, nf.D, mode, ev)

    return certified_grade([rvw_factors(nf, vword, wword, off), rwv_neg], residual)


def check_intertwiner(
    nf: RMatrixFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift,
):
    """The braiding intertwines the evaluation operators:
    (1_aux (x) beta) L_{V (x) W} = L_{W (x) V} (1_aux (x) beta), decided by
    certified evaluation with the ladders of the two evaluation operators;
    returns the first nonzero grade of the difference, or None."""
    p, q = len(vword), len(wword)
    big = LegShape([nf.N] * (1 + p + q))
    # the word displaced by off: its evaluation operator is L_V(w - off)
    shifted_v = tuple(shift_add(a, off, nf.mode) for a in vword.letters)
    # beta carries h-grades, so it is a factor: evaluated, then lifted once
    beta = build_braiding(nf, vword, wword, off, value=True).symbolic().embed(
        big, tuple(range(2, p + q + 2))
    )
    l_vw = word_ladder(nf, ComoduleWord(shifted_v + wword.letters))
    l_wv = word_ladder(nf, ComoduleWord(wword.letters + shifted_v))
    return certified_grade([[beta], l_vw, l_wv], lambda rs: rs[0] * rs[1] - rs[2] * rs[0])
