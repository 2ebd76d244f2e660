from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzkit.errors import ModeMismatch, NonUnitError, PoleError
from qkzkit.hseries import HSeries
from qkzkit.ratfn import RatFn
from qkzkit.scalar import ADDITIVE, MULTIPLICATIVE, Point, Scalar

D = 2  # small truncation keeps the property tests fast

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
polys = st.lists(fracs, min_size=0, max_size=3).map(tuple)


@st.composite
def ratfns(draw):
    num = draw(polys)
    den = draw(polys.filter(lambda p: any(c != 0 for c in p)))
    return RatFn(num, den)


@st.composite
def scalars(draw, mode=ADDITIVE):
    grades = [draw(ratfns()) for _ in range(D + 1)]
    return Scalar(grades, mode)


hserieses = st.lists(fracs, min_size=D + 1, max_size=D + 1).map(HSeries)


class TestRingAxioms:
    @given(scalars(), scalars(), scalars())
    @settings(max_examples=100, deadline=None)
    def test_axioms(self, a, b, c):
        zero = Scalar.zero(D)
        one = Scalar.one(D)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero

    @given(scalars().filter(lambda s: s.is_unit))
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, a):
        assert a * a.inv() == Scalar.one(D)

    @given(scalars())
    @settings(max_examples=60, deadline=None)
    def test_truth_value_is_nonzero(self, a):
        assert bool(a) == (not a.is_zero)
        assert not Scalar.zero(D)
        assert Scalar.from_hseries(HSeries.h(D, D))

    def test_non_unit_inverse_raises(self):
        s = Scalar.from_hseries(HSeries.h(D))
        with pytest.raises(NonUnitError):
            s.inv()

    def test_mode_mixing_rejected(self):
        with pytest.raises(ModeMismatch):
            Scalar.one(D, ADDITIVE) + Scalar.one(D, MULTIPLICATIVE)


class TestDerivative:
    @given(scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, a, b):
        assert (a * b).diff() == a.diff() * b + a * b.diff()

    def test_h_grading(self):
        w = Scalar.coordinate(D)
        s = w * w + HSeries.h(D)
        assert s.diff() == w.scale(2)


class TestShift:
    @given(scalars(), hserieses, hserieses)
    @settings(max_examples=40, deadline=None)
    def test_composition(self, s, t1, t2):
        assert s.shift(t1).shift(t2) == s.shift(t1 + t2)

    @given(hserieses)
    @settings(max_examples=40, deadline=None)
    def test_coordinate_shift(self, t):
        w = Scalar.coordinate(D)
        assert w.shift(t) == w + Scalar.from_hseries(t)

    @given(scalars(), hserieses, hserieses)
    @settings(max_examples=60, deadline=None)
    def test_eval_oracle(self, s, t, x):
        # shifting the argument then evaluating equals evaluating at the
        # shifted point
        try:
            lhs = s.shift(t).eval(Point(x))
            rhs = s.eval(Point(x + t))
        except PoleError:
            return
        assert lhs == rhs


class TestEvalDerivatives:
    """Scalar.eval builds derivative j only when the point's h-part power
    survives to j."""

    def count_diffs(self, monkeypatch):
        calls = []
        diff = Scalar.diff

        def counting(s):
            calls.append(1)
            return diff(s)

        monkeypatch.setattr(Scalar, "diff", counting)
        return calls

    def test_constant_point_adds_no_derivative(self, monkeypatch):
        calls = self.count_diffs(monkeypatch)
        s = Scalar([RatFn((Fraction(1),), (Fraction(-1), Fraction(1)))] * (D + 1))
        s.eval(Point.of(Fraction(3), D))
        assert calls == []

    @pytest.mark.parametrize("power, diffs", [(1, D), (2, 1)])
    def test_h_part_builds_the_surviving_derivatives(self, monkeypatch, power, diffs):
        calls = self.count_diffs(monkeypatch)
        s = Scalar([RatFn((Fraction(1),), (Fraction(-1), Fraction(1)))] * (D + 1))
        s.eval(Point(HSeries.constant(3, D) + HSeries.h(D, power)))
        assert len(calls) == diffs
        # the chain is kept: evaluating again builds nothing
        s.eval(Point(HSeries.constant(5, D) + HSeries.h(D, power)))
        assert len(calls) == diffs


class TestMultiplicativeCoordinate:
    @given(hserieses)
    @settings(max_examples=40, deadline=None)
    def test_shift_mul_on_coordinate(self, t):
        u = t.positive_part()
        w = Scalar.coordinate(D, MULTIPLICATIVE)
        assert w.shift_mul(u) == w * Scalar.from_hseries(u.exp(), MULTIPLICATIVE)

    @given(
        scalars(MULTIPLICATIVE),
        hserieses,
        hserieses.filter(lambda v: v.coeffs[0] != 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_mul_eval_oracle(self, s, t, v):
        u = t.positive_part()
        try:
            lhs = s.shift_mul(u).eval(Point(v, MULTIPLICATIVE))
            rhs = s.eval(Point(v * u.exp(), MULTIPLICATIVE))
        except PoleError:
            return
        assert lhs == rhs

    @given(scalars(MULTIPLICATIVE), fracs.filter(lambda c: c != 0))
    @settings(max_examples=40, deadline=None)
    def test_scale_arg_group_action(self, s, c):
        assert s.scale_arg(c).scale_arg(1 / Fraction(c)) == s

    @given(scalars(MULTIPLICATIVE))
    @settings(max_examples=40, deadline=None)
    def test_negate_arg_involution(self, s):
        assert s.negate_arg().negate_arg() == s


class TestHGrading:
    def test_first_nonzero_grade(self):
        assert Scalar.zero(D).first_nonzero_grade() is None
        assert Scalar.one(D).first_nonzero_grade() == 0
        assert Scalar.from_hseries(HSeries.h(D)).first_nonzero_grade() == 1


class TestMixedRing:
    """An HSeries operand is lifted into k(w)[[h]] by Scalar.from_hseries."""

    @given(
        st.sampled_from([ADDITIVE, MULTIPLICATIVE]).flatmap(scalars),
        hserieses,
    )
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_matches_the_lift(self, s, a):
        lift = Scalar.from_hseries(a, s.mode)
        assert s + a == s + lift
        assert a + s == lift + s
        assert s - a == s - lift
        assert a - s == lift - s
        assert s * a == s * lift
        assert a * s == lift * s

    @given(hserieses)
    @settings(max_examples=60, deadline=None)
    def test_predicates_match_the_lift(self, a):
        lift = Scalar.from_hseries(a)
        assert a.is_unit == lift.is_unit
        assert bool(a) == bool(lift)
        assert a.first_nonzero_grade() == lift.first_nonzero_grade()
