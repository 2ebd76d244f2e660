from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzkit import hseries
from qkzkit.errors import TruncationMismatch
from qkzkit.hseries import (
    HSeries,
    hseries_to_str,
    series_inv,
    series_mul,
    str_to_hseries,
)

D = 4
fracs = st.fractions(min_value=-6, max_value=6, max_denominator=5)
series = st.lists(fracs, min_size=D + 1, max_size=D + 1).map(HSeries)
# wider coefficients, so the common denominators and their gcds vary
wide = st.lists(
    st.fractions(min_value=-100, max_value=100, max_denominator=60),
    min_size=D + 1, max_size=D + 1,
)


class TestRing:
    @given(series, series, series)
    @settings(max_examples=100, deadline=None)
    def test_axioms(self, a, b, c):
        zero = HSeries.zero(D)
        one = HSeries.constant(1, D)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero

    def test_truncation(self):
        h = HSeries.h(D)
        acc = HSeries.constant(1, D)
        for _ in range(D + 1):
            acc = acc * h
        assert acc.is_zero  # h^(D+1) == 0

    def test_mixed_truncation_rejected(self):
        with pytest.raises(TruncationMismatch):
            HSeries.h(3) + HSeries.h(4)


class TestInverseAndExp:
    @given(series.filter(lambda s: s.coeffs[0] != 0))
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, a):
        assert a * a.inv() == HSeries.constant(1, D)

    def test_non_unit_inverse_raises(self):
        with pytest.raises(Exception):
            HSeries.h(D).inv()

    @given(series, series)
    @settings(max_examples=60, deadline=None)
    def test_exp_homomorphism(self, a, b):
        # exp only of h-positive parts
        x, y = a.positive_part(), b.positive_part()
        assert (x + y).exp() == x.exp() * y.exp()

    def test_exp_series(self):
        e = HSeries.h(D).exp()
        assert e.coeffs == (
            Fraction(1), Fraction(1), Fraction(1, 2),
            Fraction(1, 6), Fraction(1, 24),
        )


class TestParts:
    @given(series)
    @settings(max_examples=60, deadline=None)
    def test_decomposition(self, a):
        assert HSeries.constant(a.constant_part, D) + a.positive_part() == a

    @given(series, fracs)
    @settings(max_examples=60, deadline=None)
    def test_scale(self, a, c):
        assert a.scale(c) == a * HSeries.constant(c, D)


class TestSerialization:
    @given(series)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, a):
        assert str_to_hseries(hseries_to_str(a), D) == a

    def test_short_input_padded(self):
        assert str_to_hseries("1", D) == HSeries.constant(1, D)


def canonical(s: HSeries) -> bool:
    return (
        type(s.d) is int and s.d > 0
        and all(type(x) is int for x in s.n)
        and gcd(s.d, *s.n) == 1
    )


ZERO = Fraction(0)


def oracle_exp(a):
    """exp of a Fraction tuple with zero h^0 part, by its Taylor sum."""
    acc = [Fraction(1)] + [ZERO] * D
    power = list(acc)
    for j in range(1, D + 1):
        power = series_mul(power, a, ZERO)
        acc = [x + y / factorial(j) for x, y in zip(acc, power)]
    return tuple(acc)


class TestIntegerForm:
    """Every result is n/d with d > 0 and gcd(d, *n) == 1, and equals the
    same operation on Fraction tuples through series_mul/series_inv."""

    @given(wide, wide, st.fractions(max_denominator=60), st.integers(0, D))
    @settings(max_examples=150, deadline=None)
    def test_results_match_the_fraction_oracle(self, a, b, c, m):
        x, y = HSeries(a), HSeries(b)
        got = {
            "+": x + y,
            "-": x - y,
            "*": x * y,
            "neg": -x,
            "scale": x.scale(c),
            "positive_part": x.positive_part(),
            "exp": x.positive_part().exp(),
        }
        want = {
            "+": tuple(p + q for p, q in zip(a, b)),
            "-": tuple(p - q for p, q in zip(a, b)),
            "*": tuple(series_mul(a, b, ZERO)),
            "neg": tuple(-p for p in a),
            "scale": tuple(p * c for p in a),
            "positive_part": (ZERO,) + tuple(a[1:]),
            "exp": oracle_exp([ZERO] + a[1:]),
        }
        if a[0]:
            got["inv"] = x.inv()
            want["inv"] = tuple(series_inv(a, 1 / a[0], ZERO))
        for op, s in got.items():
            assert canonical(s), op
            assert s.coeffs == want[op], op

    @given(wide, wide)
    @settings(max_examples=100, deadline=None)
    def test_equal_values_hash_equal(self, a, b):
        x, y = HSeries(a), HSeries(b)
        for u, v in [
            ((x + y) - y, x),
            (x * y, y * x),
            (x.scale(6).scale(Fraction(1, 6)), x),
            (HSeries(x.coeffs), x),
        ]:
            assert u == v
            assert (u.n, u.d) == (v.n, v.d)
            assert hash(u) == hash(v)
        assert (x == y) == (x.coeffs == y.coeffs)

    @given(wide)
    @settings(max_examples=100, deadline=None)
    def test_text_round_trip_is_byte_identical(self, a):
        x = HSeries(a)
        text = hseries_to_str(x)
        assert text == ",".join(f"{p.numerator}/{p.denominator}" for p in a)
        assert str_to_hseries(text, D) == x
        assert hseries_to_str(str_to_hseries(text, D)) == text

    def test_mul_and_add_construct_no_fraction(self, monkeypatch):
        # distinct and shared denominators, non-constant
        a = HSeries([Fraction(1, 3), Fraction(-2, 5), 0, Fraction(7, 2), 1])
        b = HSeries([Fraction(3, 4), 0, Fraction(5, 6), 1, Fraction(-1, 7)])
        c = HSeries([Fraction(2, 3), 1, Fraction(-1, 3), 0, Fraction(5, 3)])
        made = []
        new = hseries.Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        # patching __new__ counts every Fraction built, also those that
        # Fraction arithmetic builds for its results
        monkeypatch.setattr(hseries.Fraction, "__new__", counting_new)
        for x, y in [(a, b), (b, a), (a, c), (a, a)]:
            x * y
            x + y
        assert made == []
        hseries.Fraction(1, 2)
        assert made == [(1, 2)]  # the wrapper is live
