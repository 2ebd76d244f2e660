"""Tensor-word comodules and their pairwise R-matrices.

A word is a list of argument displacements, one per tensor factor; the
operator R_VW on V (x) W is assembled from the normalized two-leg matrix by
the hexagon recursion, one factor per pair of letters.  The braiding is the
leg swap composed with the inverse of R_VW.
"""

from __future__ import annotations

from .errors import KernelError, ShapeMismatch
from .families import ArgShift, RMatrixFamily, ladder, shift_add, shift_sub
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


def build_rvw(
    nf: RMatrixFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift | None = None,
    value: bool = False,
) -> LegMatrix:
    """R_VW on legs [N]^(p+q); V occupies legs 1..p, W legs p+1..p+q.

    The hexagon recursion splits the left word first:
    R_{V1 (x) V2, W} = R_{V2, W} R_{V1, W} (V2 factor applied first), and
    symmetrically R_{V, W1 (x) W2} = R_{V, W1} R_{V, W2}; the base case is
    the two-leg matrix at the combined displacement.
    """
    p = len(vword)
    if p == 0 or len(wword) == 0:
        raise ShapeMismatch("both words must be nonempty")
    big = word_leg_shape(nf, vword, wword)
    mode = nf.mode
    if off is None:
        off = ArgShift.none(nf.D, nf.mode)

    def rec(vlegs, wlegs):
        if len(vlegs) > 1:
            return rec(vlegs[1:], wlegs) * rec(vlegs[:1], wlegs)
        if len(wlegs) > 1:
            return rec(vlegs, wlegs[:1]) * rec(vlegs, wlegs[1:])
        (lv, av), (lw, bw) = vlegs[0], wlegs[0]
        arg = shift_add(off, shift_sub(av, bw, mode), mode)
        base = nf.r_value(arg) if value else nf.r(arg)
        return base.embed(big, (lv, lw))

    return rec(
        [(i + 1, a) for i, a in enumerate(vword.letters)],
        [(p + j + 1, b) for j, b in enumerate(wword.letters)],
    )


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
    """The factors of Yang-Baxter for three words on U (x) V (x) W: R_UV
    and R_UW, the U-variable symbolic, and R_VW, evaluated and lifted once.
    words = (U, V, W); offs = (off_uv, off_uw, off_vw), difference-
    consistent: off_uw = off_uv + off_vw, or KernelError."""
    u, v, w = words
    off_uv, off_uw, off_vw = offs
    if shift_add(off_uv, off_vw, F.mode) != off_uw:
        raise KernelError("the YBE offsets need off_uw = off_uv + off_vw")
    big = word_leg_shape(F, *words)
    ends = [0, len(u), len(u) + len(v), len(big.dims)]
    lu, lv, lw = (tuple(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:]))
    return [
        build_rvw(F, u, v, off_uv).embed(big, lu + lv),
        build_rvw(F, u, w, off_uw).embed(big, lu + lw),
        build_rvw(F, v, w, off_vw, value=True).symbolic().embed(big, lv + lw),
    ]


def ybe_residual(fs) -> LegMatrix:
    """R_UV R_UW R_VW - R_VW R_UW R_UV over the ring of the factors'
    entries, for the factors of ybe_factors or the same evaluated."""
    r_uv, r_uw, r_vw = fs
    return r_uv * r_uw * r_vw - r_vw * r_uw * r_uv


def check_braid_relation(nf: RMatrixFamily, words, offs):
    """Yang-Baxter for three words, R_UV R_UW R_VW = R_VW R_UW R_UV,
    decided by certified evaluation of ybe_factors; returns the first
    nonzero grade of the difference, or None."""
    return certified_grade(ybe_factors(nf, words, offs), ybe_residual)


def build_L(nf: RMatrixFamily, word: ComoduleWord) -> LegMatrix:
    """The evaluation operator of a word on legs [N]^(1+len); leg 1 is the
    auxiliary leg, and the factors Rbar(w - a_k) multiply left-to-right in
    word order."""
    neutral = ArgShift.none(nf.D, nf.mode)
    return ladder(nf, [shift_sub(neutral, a, nf.mode) for a in word.letters])


def check_rvw_unitarity(
    nf: RMatrixFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift | None = None,
):
    """sigma R_VW(w) sigma R_WV(-w) = 1, decided by certified evaluation
    with the factors R_VW(w) and R_WV(-w); returns the first nonzero grade
    of the difference from the identity, or None."""
    p, q = len(vword), len(wword)
    mode = nf.mode
    if off is None:
        off = ArgShift.none(nf.D, mode)
    neg = shift_sub(ArgShift.none(nf.D, mode), off, mode)
    rvw = build_rvw(nf, vword, wword, off)
    rwv_neg = build_rvw(nf, wword, vword, neg).map_entries(lambda s: s.negate_arg())

    def residual(fs):
        ev = fs[0].den is not None
        prod = block_swap(nf, p, q, ev) * fs[0] * block_swap(nf, q, p, ev) * fs[1]
        return prod - LegMatrix.identity(prod.shape, nf.D, mode, ev)

    return certified_grade([rvw, rwv_neg], residual)


def check_intertwiner(
    nf: RMatrixFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift,
):
    """The braiding intertwines the evaluation operators:
    (1_aux (x) beta) L_{V (x) W} = L_{W (x) V} (1_aux (x) beta), decided by
    certified evaluation; returns the first nonzero grade of the
    difference, or None."""
    p, q = len(vword), len(wword)
    big = LegShape([nf.N] * (1 + p + q))
    # the word displaced by off: its evaluation operator is L_V(w - off)
    shifted_v = tuple(shift_add(a, off, nf.mode) for a in vword.letters)
    # beta carries h-grades, so it is a factor: evaluated, then lifted once
    beta = build_braiding(nf, vword, wword, off, value=True).symbolic().embed(
        big, tuple(range(2, p + q + 2))
    )
    l_vw = build_L(nf, ComoduleWord(shifted_v + wword.letters))
    l_wv = build_L(nf, ComoduleWord(wword.letters + shifted_v))
    return certified_grade([beta, l_vw, l_wv], lambda fs: fs[0] * fs[1] - fs[2] * fs[0])
