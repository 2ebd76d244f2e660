from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from degeneration_oracle import series_limit
from planting import planted

from qkzkit.errors import KernelError, PoleError
from qkzkit.families import (
    ArgShift,
    build_rational,
    build_trigonometric,
    check_classical_ybe,
    check_crossing,
    check_degeneration,
    check_qybe,
    check_unitarity,
    default_samples,
    degeneration_limit,
    displaced,
    family_from_descriptor,
    shift_add,
    shift_sub,
    unitarity_scalar,
)
from qkzkit.hseries import HSeries
from qkzkit.ratfn import RF_ZERO, RatFn
from qkzkit.scalar import ADDITIVE, MULTIPLICATIVE, Scalar
from qkzkit.suites import run_checks, suite_crossing
from qkzkit.tensor import LegMatrix


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def argshifts(draw, D=3):
    """A nonzero constant (a group element in both modes) and an h-part."""
    c = draw(small.filter(bool))
    hpart = draw(st.lists(small, min_size=D, max_size=D))
    return ArgShift(c, HSeries([0] + hpart))


class TestArgShiftGroup:
    """Sigma's group law: additive, or multiplicative in const; the neutral
    element is stored as its mode's identity."""

    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    @given(a=argshifts(), b=argshifts())
    @settings(max_examples=40, deadline=None)
    def test_group_law(self, mode, a, b):
        e = ArgShift.none(3, mode)
        assert shift_add(e, a, mode) == a == shift_add(a, e, mode)
        assert shift_sub(a, e, mode) == a
        assert shift_sub(shift_add(a, b, mode), b, mode) == a

    def test_neutral_is_stored_per_mode(self):
        t = HSeries.h(3)
        assert ArgShift.none(3, ADDITIVE).const == 0
        assert ArgShift.none(3, MULTIPLICATIVE).const == 1
        assert ArgShift.of_h(t, ADDITIVE) == ArgShift(Fraction(0), t)
        assert ArgShift.of_h(t, MULTIPLICATIVE) == ArgShift(Fraction(1), t)

    def test_displacing_by_the_neutral_element_is_no_op(self, rat2, trig):
        for F in (rat2, trig):
            x = F.base
            assert displaced(x, ArgShift.none(F.D, F.mode), F.hshift_scale) is x


class TestConstruction:
    def test_rational_leading_identity(self, rat2):
        # R = 1 + O(h)
        assert rat2.base.grade_matrix(0) == rat2.identity()

    def test_trig_leading_identity(self, trig):
        assert trig.base.grade_matrix(0) == trig.identity()

    def test_classical_term_is_swap_like(self, rat2):
        # r = (sigma - 1/N)/w at h^0 of -dR/dh
        r = -rat2.base.grade_matrix(1)
        w_inv = Scalar.coordinate(rat2.D).inv()
        expected = (
            rat2.sigma() - rat2.identity().mul_scalar(
                Scalar.const(Fraction(1, 2), rat2.D)
            )
        ).mul_scalar(w_inv).grade_matrix(0)
        assert r == expected

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            build_rational(1, 3)
        with pytest.raises(ValueError):
            build_trigonometric(3, 3)

    def test_elliptic_out_of_scope(self):
        with pytest.raises(KernelError, match="elliptic family out of scope"):
            family_from_descriptor({"family": "elliptic", "N": 2, "D": 3})

    def test_pole_value_raises(self, rat2, trig):
        with pytest.raises(PoleError):
            rat2.r_value(ArgShift.of(0, rat2.D))
        with pytest.raises(PoleError):
            trig.r_value(ArgShift.of(1, trig.D))


class TestSamples:
    def test_deterministic_and_enough(self, rat2, trig):
        for F in (rat2, trig):
            s1 = default_samples(F)
            s2 = default_samples(F)
            assert s1 == s2
            assert len(s1) >= 5

    def test_samples_are_regular(self, trig):
        for a, b in default_samples(trig):
            u2, u3 = ArgShift.of(a, trig.D), ArgShift.of(b, trig.D)
            trig.r_value(shift_sub(u2, u3, trig.mode))  # must not raise


class TestQYBE:
    def test_rational_n2(self, rat2):
        assert check_qybe(rat2) is None

    def test_rational_n3(self, rat3):
        assert check_qybe(rat3) is None

    def test_trigonometric(self, trig):
        assert check_qybe(trig) is None

    def test_classical_limit(self, rat2, trig):
        for F in (rat2, trig):
            assert check_classical_ybe(F) is None

    @pytest.mark.parametrize("build", [build_rational, build_trigonometric])
    def test_classical_ybe_needs_an_h1_grade(self, build):
        # at D = 0 the family has no h^1 matrix to cut R mod h^2 from
        with pytest.raises(KernelError, match=r"classical YBE needs D >= 1"):
            check_classical_ybe(build(2, 0))

    @pytest.mark.parametrize("build", [build_rational, build_trigonometric])
    @pytest.mark.parametrize("g, grade", [(2, 3), (3, 4), (4, None)])
    def test_planted_fault_reports_its_grade(self, build, g, grade):
        # R + h^g E with R_0 = Id: at grade g both sides of the braid
        # relation gain the same sum E12 + E13 + E23, which cancels; the
        # first grade that differs is g + 1, where E meets the classical r
        # in a different order on each side (past D = 4 when g = 4)
        assert check_qybe(planted(build(2, 4), g)) == grade


class TestCrossingAndUnitarity:
    @pytest.mark.parametrize("name", ["rat2", "rat3", "trig"])
    def test_crossing(self, name, request):
        F = request.getfixturevalue(name)
        assert check_crossing(F) is None

    @pytest.mark.parametrize("build", [build_rational, build_trigonometric])
    def test_planted_fault_reports_its_grade(self, build):
        # R + h^3 E with E constant: both transpose-invert forms and the
        # displaced R all gain h^3 E, so crossing still holds through h^3
        # (D = 3 is exact) and first fails at h^4; R R21(-w) gains
        # h^3 (E + E21), which is not scalar
        assert check_crossing(planted(build(2, 3), 3)) is None
        F = planted(build(2, 4), 3)
        assert check_crossing(F) == 4
        assert check_unitarity(F) == 3
        results = {r.name: r for r in run_checks(suite_crossing(F))}
        assert results["crossing"].status == "fails-at-grade-4"
        assert results["crossing"].grade == 4
        assert results["unitarity-scalar"].status == "fails-at-grade-3"
        assert all(r.status != "error" for r in results.values())

    @pytest.mark.parametrize("D", [0, 4])
    def test_broken_leading_form_fails_at_grade_0(self, D):
        # R + E, E = e_01 + e_13 with E^2 = e_03: the transpose-invert form
        # of Id + E is not proportional to Id + E
        F = planted(build_rational(2, D), 0, {(0, 1): 1, (1, 3): 1})
        assert check_crossing(F) == 0
        [result] = [r for r in run_checks(suite_crossing(F)) if r.name == "crossing"]
        assert result.status == "fails-at-grade-0"

    @pytest.mark.parametrize("name", ["rat2", "rat3", "trig"])
    def test_unitarity_scalar_is_unit(self, name, request):
        F = request.getfixturevalue(name)
        phi = unitarity_scalar(F)
        assert phi.is_unit
        assert phi.grades[0] == RatFn.from_fraction(1)


W_MINUS_1 = RatFn((-1, 1))
#: RatFns that are units at w = 1: 2 + w, 1/(3 + w^2), 1/w, and 7/2
UNITS = [RatFn((2, 1)), RatFn((1,), (3, 0, 1)), RatFn((1,), (0, 1)),
         RatFn.from_fraction(Fraction(7, 2))]


def w_minus_1_power(e: int) -> RatFn:
    """(w - 1)^e for an integer e."""
    out = RatFn.from_fraction(1)
    for _ in range(abs(e)):
        out = out * W_MINUS_1
    return out if e >= 0 else out.inv()


def entry_matrix(F, entry: dict) -> LegMatrix:
    """The matrix on F's legs with {(row, col): {grade: RatFn}} entries."""
    def scalar(by_grade):
        return Scalar([by_grade.get(m, RF_ZERO) for m in range(F.D + 1)], F.mode)
    return LegMatrix(F.shape, {k: scalar(v) for k, v in entry.items()}, F.D, F.mode)


def limit_or_error(limit, F):
    try:
        return limit(F)
    except KernelError as e:
        return str(e)


class TestDegeneration:
    def test_trig_degenerates_to_rational(self, trig):
        assert check_degeneration(trig) is None

    def test_rational_family_rejected(self, rat2):
        with pytest.raises(KernelError):
            check_degeneration(rat2)

    @pytest.mark.parametrize("D", range(9))
    def test_matches_the_series_expansion_on_the_base(self, D):
        F = build_trigonometric(2, D)
        assert degeneration_limit(F) == series_limit(F)

    @pytest.mark.parametrize("m", range(5))
    def test_matches_the_series_expansion_on_planted_entries(self, m):
        # k (w - 1)^e u(w) at grade m, u a unit at w = 1: s^(m + e) in front
        # of h^m, a pole for e < -m, the limit's grade m for e = -m and
        # nothing for e > -m; the oracle raises the same pole message
        F = build_trigonometric(2, 4)
        for e in range(-m - 2, 3):
            for k, u in enumerate(UNITS, start=1):
                g = w_minus_1_power(e) * u.scale(Fraction(k, 3))
                F._base = entry_matrix(F, {(1, 2): {m: g}, (3, 3): {0: u}})
                got = limit_or_error(degeneration_limit, F)
                assert got == limit_or_error(series_limit, F)
                if e < -m:
                    assert got == "degeneration has a pole in s at entry (1, 2)"
                else:
                    assert (got.get(1, 2).grades[m] == RF_ZERO) == (e > -m)

    def test_first_pole_in_entry_order_is_reported(self):
        F = build_trigonometric(2, 3)
        F._base = entry_matrix(F, {
            (0, 0): {1: w_minus_1_power(-1)},
            (0, 3): {2: w_minus_1_power(-3), 0: UNITS[0]},
            (2, 1): {0: w_minus_1_power(-1)},
        })
        want = "degeneration has a pole in s at entry (0, 3)"
        assert limit_or_error(degeneration_limit, F) == want
        assert limit_or_error(series_limit, F) == want

    @pytest.mark.parametrize("g", range(5))
    @pytest.mark.parametrize("k", [1, Fraction(-5, 3)])
    def test_planted_pole_of_order_g_fails_at_grade_g(self, g, k):
        # k/(w - 1)^g h^g scales to k 2^g/u^g h^g, which the rational
        # family lacks
        F = build_trigonometric(2, 4)
        fault = entry_matrix(F, {(0, 1): {g: w_minus_1_power(-g).scale(k)}})
        F._base = F.base + fault
        assert check_degeneration(F) == g

    @pytest.mark.parametrize("g", range(1, 5))
    def test_planted_constant_fault_is_invisible(self, g):
        # h^g E with E constant becomes s^g h^g E under the scaling, which
        # vanishes in the limit: this row cannot see a constant fault
        assert check_degeneration(planted(build_trigonometric(2, 4), g)) is None

    @pytest.mark.parametrize("g", range(5))
    def test_planted_pole_of_order_g_plus_1_raises(self, g):
        F = build_trigonometric(2, 4)
        F._base = F.base + entry_matrix(F, {(2, 1): {g: w_minus_1_power(-g - 1)}})
        with pytest.raises(KernelError, match=r"pole in s at entry \(2, 1\)"):
            check_degeneration(F)

    def test_deep_pole_at_d0_raises_the_pole_error(self):
        # the 8-term series of the expansion reads (w - 1)^8 as zero at
        # D = 0; the closed form has no cutoff
        F = build_trigonometric(2, 0)
        F._base = F.base + entry_matrix(F, {(0, 0): {0: w_minus_1_power(-8)}})
        with pytest.raises(ZeroDivisionError):
            series_limit(F)
        want = "degeneration has a pole in s at entry (0, 0)"
        assert limit_or_error(partial(series_limit, L=16), F) == want
        with pytest.raises(KernelError, match=r"pole in s at entry \(0, 0\)"):
            check_degeneration(F)


class TestSharedTaylorChain:
    """Displacing one base matrix by several constants with the same h-part
    expands the h-part on each base entry's own derivative chain, built
    once, and translates by the constant after it."""

    BUILDS = {
        "rat2": lambda: build_rational(2, 4),
        "rat3": lambda: build_rational(3, 4),
        "trig": lambda: build_trigonometric(2, 4),
    }

    @staticmethod
    def constant_first(s, off, hscale):
        """The displacement in the other order: the constant translation,
        then the h-part expanded on the translated copy's own chain."""
        if s.mode == ADDITIVE:
            return Scalar([g.shift_arg(off.const) for g in s.grades], s.mode).shift(
                off.hpart
            )
        return s.scale_arg(off.const).shift_mul(off.hpart.scale(hscale))

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_one_chain_per_base_entry(self, name, monkeypatch):
        F = self.BUILDS[name]()  # a fresh base: no chain built yet
        h = HSeries.h(F.D)
        hpart = h.scale(Fraction(1, 3)) + (h * h).scale(-2)
        if F.mode == ADDITIVE:
            consts = [Fraction(1, 2), Fraction(-2), Fraction(3)]
        else:
            consts = [Fraction(2), Fraction(-1, 3), Fraction(5, 7)]
        diffs = []
        diff = Scalar.diff
        monkeypatch.setattr(
            Scalar, "diff", lambda s: diffs.append(s) or diff(s)
        )
        shifted = [displaced(F.base, ArgShift(consts[0], hpart), F.hshift_scale)]
        built = len(diffs)
        assert built > 0
        shifted += [
            displaced(F.base, ArgShift(c, hpart), F.hshift_scale)
            for c in consts[1:]
        ]
        assert len(diffs) == built  # the later constants reuse the chains
        monkeypatch.undo()
        for c, m in zip(consts, shifted):
            off = ArgShift(c, hpart)
            assert m.entries == {
                rc: self.constant_first(s, off, F.hshift_scale)
                for rc, s in F.base.entries.items()
            }
