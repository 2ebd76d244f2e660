"""Tensor-word comodules and their pairwise R-matrices.

A word is a list of argument displacements, one per tensor factor; the
operator R_VW on V (x) W is assembled from the normalized two-leg matrix by
the hexagon recursion, one factor per pair of letters.  The braiding is the
leg swap composed with the inverse of R_VW.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeMismatch
from .families import ArgShift, ladder, shift_add, shift_sub
from .hseries import HSeries
from .qdet import NormalizedFamily
from .tensor import LegMatrix, LegShape, least_grade


@dataclass(frozen=True)
class ComoduleWord:
    """An ordered tuple of argument displacements, one per tensor factor."""

    letters: tuple

    @staticmethod
    def of(values, D: int) -> "ComoduleWord":
        """Build from plain rationals (constant displacements) or ArgShifts."""
        out = []
        for v in values:
            if isinstance(v, ArgShift):
                out.append(v)
            elif isinstance(v, HSeries):
                out.append(ArgShift(v.constant_part, v.positive_part()))
            else:
                out.append(ArgShift.of(v, D))
        return ComoduleWord(tuple(out))

    def __len__(self) -> int:
        return len(self.letters)


def word_leg_shape(nf: NormalizedFamily, *words) -> LegShape:
    return LegShape([nf.N] * sum(len(w) for w in words))


def build_rvw(
    nf: NormalizedFamily,
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


def block_swap(nf: NormalizedFamily, p: int, q: int, one=None) -> LegMatrix:
    """The permutation sending V-legs 1..p past W-legs p+1..p+q; one is the
    unit of the entry ring (Scalar by default)."""
    shape = LegShape([nf.N] * (p + q))
    perm = tuple(range(p, p + q)) + tuple(range(p))
    return LegMatrix.from_leg_permutation(shape, perm, nf.D, nf.mode, one)


def build_braiding(
    nf: NormalizedFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift | None = None,
    value: bool = False,
) -> LegMatrix:
    """The braiding V (x) W -> W (x) V: block swap after inverting R_VW,
    both over the entry ring of R_VW."""
    inv = build_rvw(nf, vword, wword, off, value).inv()
    return block_swap(nf, len(vword), len(wword), inv.constant(1)) * inv


def check_hexagon(
    nf: NormalizedFamily,
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


def check_braid_relation(
    nf: NormalizedFamily,
    words,
    offs,
):
    """Yang-Baxter for three words.

    words = (U, V, W); offs = pairwise displacements (off_uv, off_uw, off_vw),
    which must be difference-consistent: off_uw = off_uv + off_vw.  The
    U-variable stays symbolic, so the UV and UW factors are built
    symbolically and the VW factor is evaluated.  Checks
    R_UV R_UW R_VW = R_VW R_UW R_UV on U (x) V (x) W; returns the first
    nonzero grade of the difference.
    """
    u, v, w = words
    off_uv, off_uw, off_vw = offs
    nu, nv, nw = len(u), len(v), len(w)
    big = LegShape([nf.N] * (nu + nv + nw))
    legs_u = tuple(range(1, nu + 1))
    legs_v = tuple(range(nu + 1, nu + nv + 1))
    legs_w = tuple(range(nu + nv + 1, nu + nv + nw + 1))
    r_uv = build_rvw(nf, u, v, off_uv).embed(big, legs_u + legs_v)
    r_uw = build_rvw(nf, u, w, off_uw).embed(big, legs_u + legs_w)
    r_vw = build_rvw(nf, v, w, off_vw, value=True).embed(big, legs_v + legs_w)
    diff = r_uv * r_uw * r_vw - r_vw * r_uw * r_uv
    return diff.first_nonzero_grade()


def build_L(nf: NormalizedFamily, word: ComoduleWord) -> LegMatrix:
    """The evaluation operator of a word on legs [N]^(1+len); leg 1 is the
    auxiliary leg, and the factors Rbar(w - a_k) multiply left-to-right in
    word order."""
    neutral = ArgShift.none(nf.D, nf.mode)
    return ladder(nf, [shift_sub(neutral, a, nf.mode) for a in word.letters])


def check_rvw_unitarity(
    nf: NormalizedFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift | None = None,
):
    """sigma R_VW(w) sigma R_WV(-w) = 1; returns the first nonzero grade of
    the difference from the identity, or None."""
    p, q = len(vword), len(wword)
    mode = nf.mode
    if off is None:
        off = ArgShift.none(nf.D, nf.mode)
    neg = shift_sub(ArgShift.none(nf.D, nf.mode), off, mode)
    rvw = build_rvw(nf, vword, wword, off)
    rwv_neg = build_rvw(nf, wword, vword, neg).map_entries(
        lambda s: s.negate_arg()
    )
    swap_vw = block_swap(nf, p, q)
    swap_wv = block_swap(nf, q, p)
    prod = swap_vw * rvw * swap_wv * rwv_neg
    ident = LegMatrix.identity(LegShape([nf.N] * (p + q)), nf.D, nf.mode)
    return (prod - ident).first_nonzero_grade()


def check_intertwiner(
    nf: NormalizedFamily,
    vword: ComoduleWord,
    wword: ComoduleWord,
    off: ArgShift,
):
    """The braiding intertwines the evaluation operators:
    (1_aux (x) beta) L_{V (x) W} = L_{W (x) V} (1_aux (x) beta); returns the
    first nonzero grade of the difference, or None."""
    p, q = len(vword), len(wword)
    big = LegShape([nf.N] * (1 + p + q))
    # the word displaced by off: its evaluation operator is L_V(w - off)
    shifted_v = ComoduleWord(
        tuple(shift_add(a, off, nf.mode) for a in vword.letters)
    )
    beta = build_braiding(nf, vword, wword, off, value=True).embed(
        big, tuple(range(2, p + q + 2))
    )
    l_vw = build_L(nf, ComoduleWord(shifted_v.letters + wword.letters))
    l_wv = build_L(nf, ComoduleWord(wword.letters + shifted_v.letters))
    return (beta * l_vw - l_wv * beta).first_nonzero_grade()
