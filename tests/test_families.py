from fractions import Fraction

import pytest

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
    displaced,
    family_from_descriptor,
    unitarity_scalar,
)
from qkzkit.hseries import HSeries
from qkzkit.ratfn import RatFn
from qkzkit.scalar import ADDITIVE, Scalar
from qkzkit.suites import run_checks, suite_crossing
from qkzkit.tensor import LegMatrix


def planted(F, grade, entries):
    """F with its R replaced by R + h^grade E, E the constant matrix with
    the given {(row, col): rational} entries."""
    one = Scalar.one(F.D, F.mode).times_h(grade)
    E = {rc: one.scale(Fraction(c)) for rc, c in entries.items()}
    F._base = F.base + LegMatrix(F.base.shape, E, F.D, F.mode)
    return F


class TestConstruction:
    def test_rational_leading_identity(self, rat2):
        # R = 1 + O(h)
        assert rat2.base.grade_matrix(0) == rat2.identity()

    def test_trig_leading_identity(self, trig):
        assert trig.base.grade_matrix(0) == trig.identity()

    def test_classical_term_is_swap_like(self, rat2):
        # r = (sigma - 1/N)/w at h^0 of -dR/dh
        r = rat2.classical_r()
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
        from qkzkit.families import _delta

        for a, b in default_samples(trig):
            trig.r_value(_delta(trig, a, b))  # must not raise


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
        E = {(0, 1): 1, (2, 3): Fraction(-2, 3), (1, 1): 5}
        assert check_crossing(planted(build(2, 3), 3, E)) is None
        F = planted(build(2, 4), 3, E)
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


class TestDegeneration:
    def test_trig_degenerates_to_rational(self, trig):
        assert check_degeneration(trig) is None

    def test_rational_family_rejected(self, rat2):
        with pytest.raises(KernelError):
            check_degeneration(rat2)


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
