from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import product_oracle as oracle
from planting import planted
from qkzkit import reps
from qkzkit.errors import KernelError
from qkzkit.families import ArgShift
from qkzkit.hseries import HSeries
from qkzkit.qdet import NormalizedFamily
from qkzkit.reps import (
    ComoduleWord,
    block_swap,
    build_braiding,
    build_L,
    build_rvw,
    check_braid_relation,
    check_hexagon,
    check_intertwiner,
    check_rvw_unitarity,
    shift_add,
    shift_sub,
)
from qkzkit.scalar import Scalar
from qkzkit.suites import _rep_words, run_checks, suite_reps
from qkzkit.tensor import LegMatrix, LegShape


def words_for(nf):
    D = nf.D
    if nf.mode == "additive":
        v = ComoduleWord.of([Fraction(0), Fraction(1, 2)], D)
        w = ComoduleWord.of([Fraction(1, 3)], D)
        off = ArgShift.of(Fraction(5), D)
    else:
        v = ComoduleWord.of([Fraction(2), Fraction(3)], D)
        w = ComoduleWord.of([Fraction(5)], D)
        off = ArgShift.of(Fraction(7), D)
    return v, w, off


class TestShiftAlgebra:
    def test_add_sub_inverse(self, nf_rat2, nf_trig):
        for nf in (nf_rat2, nf_trig):
            a = ArgShift.of(Fraction(3), nf.D)
            b = ArgShift.of(Fraction(2), nf.D)
            assert shift_sub(shift_add(a, b, nf.mode), b, nf.mode) == a


class TestBuildRvw:
    def test_single_letters_reduce_to_rbar(self, nf_rat2, nf_trig):
        for nf in (nf_rat2, nf_trig):
            neutral = Fraction(0) if nf.mode == "additive" else Fraction(1)
            e = ComoduleWord.of([neutral], nf.D)
            assert build_rvw(nf, e, e) == nf.r()

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_hexagon(self, name, request):
        nf = request.getfixturevalue(name)
        v, w, off = words_for(nf)
        assert check_hexagon(nf, v, w, off) is None
        assert check_hexagon(nf, w, v, off) is None

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_hexagon_reports_the_failing_grade(self, name, request,
                                               monkeypatch):
        # one-letter V words get + h^3 Id, so every left split of the
        # two-letter V is off by 2 h^3 Id + O(h^4) from the unchanged R_VW
        nf = request.getfixturevalue(name)
        v, w, off = words_for(nf)
        plain = reps.build_rvw

        def bumped(nf, vword, wword, off=None, value=False):
            m = plain(nf, vword, wword, off, value)
            if len(vword) != 1:
                return m
            ident = LegMatrix.identity(m.shape, m.D, m.mode)
            return m + ident.mul_scalar(Scalar.from_hseries(HSeries.h(m.D, 3), m.mode))

        monkeypatch.setattr(reps, "build_rvw", bumped)
        assert check_hexagon(nf, v, w, off) == 3
        specs = [s for s in suite_reps(nf) if s[0] == "hexagon"]
        [result] = run_checks(specs)
        assert result.status == "fails-at-grade-3"

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_unitarity(self, name, request):
        nf = request.getfixturevalue(name)
        v, w, off = words_for(nf)
        assert check_rvw_unitarity(nf, v, w, off) is None


class TestBraiding:
    def test_block_swap_round_trip(self, nf_rat2):
        nf = nf_rat2
        ident = LegMatrix.identity(LegShape([nf.N] * 3), nf.D, nf.mode)
        assert block_swap(nf, 2, 1) * block_swap(nf, 1, 2) == ident

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_braidings_compose_to_identity(self, name, request):
        nf = request.getfixturevalue(name)
        v, w, off = words_for(nf)
        neg = shift_sub(ArgShift.none(nf.D, nf.mode), off, nf.mode)
        b_vw = build_braiding(nf, v, w, off)
        b_wv = build_braiding(nf, w, v, neg).map_entries(
            lambda s: s.negate_arg()
        )
        ident = LegMatrix.identity(
            LegShape([nf.N] * (len(v) + len(w))), nf.D, nf.mode
        )
        assert b_wv * b_vw == ident

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_braid_relation(self, name, request):
        nf = request.getfixturevalue(name)
        D = nf.D
        e = ComoduleWord.of(
            [Fraction(0) if nf.mode == "additive" else Fraction(1)], D
        )
        if nf.mode == "additive":
            offs = (
                ArgShift.of(Fraction(5), D),
                ArgShift.of(Fraction(7), D),
                ArgShift.of(Fraction(2), D),
            )
        else:
            offs = (
                ArgShift.of(Fraction(5), D),
                ArgShift.of(Fraction(10), D),
                ArgShift.of(Fraction(2), D),
            )
        assert check_braid_relation(nf, (e, e, e), offs) is None

    @pytest.mark.parametrize("name, uw", [("nf_rat2", 8), ("nf_trig", 7)])
    def test_inconsistent_offsets_are_rejected(self, name, uw, request):
        # off_uw must be off_uv + off_vw (5 + 2, or 5 * 2 multiplicative);
        # a wrong one is the caller's error, not a failing grade of Rbar
        nf = request.getfixturevalue(name)
        v, w, _, (uv, _, vw) = _rep_words(nf)
        e = ComoduleWord(w.letters[:1])
        offs = (uv, ArgShift.of(Fraction(uw), nf.D), vw)
        with pytest.raises(KernelError, match="off_uv"):
            check_braid_relation(nf, (v, e, w), offs)

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_intertwiner(self, name, request):
        nf = request.getfixturevalue(name)
        _, w, off = words_for(nf)
        e = ComoduleWord(w.letters[:1])
        assert check_intertwiner(nf, e, w, off) is None


#: letters and an offset whose combined displacements avoid the poles of
#: each coordinate's two-leg matrix at h^0 (w = 0 additive, w = +-1
#: multiplicative), so the evaluated R_VW exists
LETTERS = {
    "additive": ([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1)], 5),
    "multiplicative": ([Fraction(1), Fraction(2), Fraction(3), Fraction(5)], 7),
}


@pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
@pytest.mark.parametrize("value", [False, True], ids=["symbolic", "evaluated"])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_build_rvw_is_the_hexagon_recursion(name, value, data, request):
    # the product of the flat letter list, in its order, is the recursion's
    nf = request.getfixturevalue(name)
    pool, off = LETTERS[nf.mode]
    letters = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    v, w = (ComoduleWord.of(data.draw(letters), nf.D) for _ in range(2))
    off = ArgShift.of(off, nf.D)
    assert build_rvw(nf, v, w, off, value) == oracle.build_rvw(nf, v, w, off, value)


class TestEvaluationOperator:
    def test_empty_word_is_the_identity_on_the_auxiliary_leg(self, nf_rat2, nf_trig):
        for nf in (nf_rat2, nf_trig):
            assert build_L(nf, ComoduleWord(())) == nf.identity(1)

    def test_neutral_word_is_rbar(self, nf_rat2, nf_trig):
        for nf in (nf_rat2, nf_trig):
            neutral = Fraction(0) if nf.mode == "additive" else Fraction(1)
            word = ComoduleWord.of([neutral], nf.D)
            assert build_L(nf, word) == nf.r()

    def test_factor_order(self, nf_rat2):
        nf = nf_rat2
        word = ComoduleWord.of([Fraction(1), Fraction(2)], nf.D)
        big = LegShape([nf.N] * 3)
        a = nf.r(ArgShift.of(Fraction(-1), nf.D)).embed(big, (1, 2))
        b = nf.r(ArgShift.of(Fraction(-2), nf.D)).embed(big, (1, 3))
        assert build_L(nf, word) == a * b

    def test_two_letters_take_one_product(self, nf_rat2, monkeypatch):
        calls = []
        mul = LegMatrix.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(LegMatrix, "__mul__", counting)
        build_L(nf_rat2, ComoduleWord.of([Fraction(1), Fraction(2)], nf_rat2.D))
        assert len(calls) == 1


class TestPlantedFaults:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_product_rows_report_their_grade(self, name, g, request):
        # Rbar + h^g E with Rbar_0 = Id.  Two-word unitarity gains
        # E + E21(-w) at grade g, which is not zero.  In the mixed braid
        # relation and the intertwiner the grade-g terms are the same sum
        # of E's on both sides and cancel; the first grade that differs is
        # g + 1, where E meets the classical r in a different order (past
        # D = 4 when g = 4)
        nf = request.getfixturevalue(name)
        nf = planted(NormalizedFamily(nf.raw, nf.f0), g)
        late = f"fails-at-grade-{g + 1}" if g < nf.D else "exact-zero"
        specs = [s for s in suite_reps(nf) if s[0] != "hexagon"]
        assert {r.name: r.status for r in run_checks(specs)} == {
            "rvw-unitarity": f"fails-at-grade-{g}",
            "mixed-ybe": late,
            "intertwiner": late,
        }
