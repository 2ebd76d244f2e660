from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_poly import euclid_gcd, euclid_lcm, pdivmod, pmonic, primitive
from qkzkit.errors import PoleError
from qkzkit.ratfn import (
    P_ONE,
    RF_ONE,
    RF_W,
    RF_ZERO,
    RatFn,
    pgcd,
    plcm,
    pmul,
    ptrim,
    ratfn_to_str,
    str_to_ratfn,
)

fracs = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
polys = st.lists(fracs, min_size=0, max_size=4).map(tuple)


@st.composite
def ratfns(draw):
    num = draw(polys)
    den = draw(polys.filter(lambda p: any(c != 0 for c in p)))
    return RatFn(num, den)


def _eval_or_none(r, x):
    try:
        return r.eval(x)
    except PoleError:
        return None


class TestCanonicalForm:
    def test_reduction(self):
        # (w^2 - 1) / (w - 1) == w + 1
        r = RatFn((Fraction(-1), Fraction(0), Fraction(1)),
                  (Fraction(-1), Fraction(1)))
        assert r == RatFn((Fraction(1), Fraction(1)))

    def test_monic_denominator(self):
        r = RatFn((Fraction(1),), (Fraction(2), Fraction(2)))
        assert r.den[-1] == 1

    def test_zero_normal_form(self):
        assert RatFn((Fraction(0),), (Fraction(3),)) == RF_ZERO
        assert RF_ZERO.is_zero

    @given(ratfns(), polys.filter(lambda p: any(c != 0 for c in p)))
    @settings(max_examples=60, deadline=None)
    def test_equality_invariant_under_common_factor(self, r, g):
        from qkzkit.ratfn import pmul

        scaled = RatFn(pmul(r.num, g), pmul(r.den, g))
        assert scaled == r


def euclid_canonical(num, den):
    """(num, den) reduced by euclid_gcd, denominator made monic."""
    g = euclid_gcd(num, den)
    num, den = pdivmod(num, g)[0], pdivmod(den, g)[0]
    return tuple(c / den[-1] for c in num), pmonic(den)


constants = fracs.filter(lambda c: c != 0).map(lambda c: (c,))
nonzero_polys = polys.map(ptrim).filter(bool)


class TestConstantGcd:
    """pgcd of the primitive int parts against the Fraction Euclid oracle."""

    @given(constants, polys.map(ptrim))
    @settings(max_examples=60, deadline=None)
    def test_pgcd_with_a_constant_is_euclidean(self, c, p):
        cz, pz = primitive(c), primitive(p)
        assert pgcd(cz, pz) == euclid_gcd(c, p) == P_ONE
        assert pgcd(pz, cz) == euclid_gcd(p, c) == P_ONE

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_pgcd_with_a_common_factor_is_euclidean(self, a, b, g):
        # the shortcut must not fire once a side has positive degree
        a, b = pmul(a, g), pmul(b, g)
        assert pgcd(primitive(a), primitive(b)) == primitive(euclid_gcd(a, b))

    @given(constants, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_with_a_constant_side(self, c, p):
        for num, den in ((c, p), (p, c)):
            r = RatFn(num, den)
            assert (r.num, r.den) == euclid_canonical(num, den)


class TestLcm:
    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_lcm_is_the_least_common_multiple(self, a, b, g):
        # of primitive int inputs: both divide it, it times the gcd is
        # a * b, and it is the primitive form of the monic lcm
        a, b = primitive(pmul(a, g)), primitive(pmul(b, g))
        m = plcm(a, b)
        assert all(type(c) is int for c in m)
        assert pdivmod(m, a)[1] == () and pdivmod(m, b)[1] == ()
        assert pmul(m, pgcd(a, b)) == pmul(a, b)
        assert m == primitive(euclid_lcm(a, b))


class TestFieldAxioms:
    @given(ratfns(), ratfns(), ratfns())
    @settings(max_examples=100, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + RF_ZERO == a
        assert a * RF_ONE == a
        assert a - a == RF_ZERO

    @given(ratfns().filter(lambda r: not r.is_zero))
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, a):
        assert a * a.inv() == RF_ONE

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            RF_ZERO.inv()

    @given(ratfns())
    @settings(max_examples=60, deadline=None)
    def test_units_are_the_nonzero_elements(self, a):
        # the elimination pivots on is_unit; in the field that is a != 0
        assert a.is_unit == bool(a) == (not a.is_zero)
        assert not RF_ZERO.is_unit


class TestEvaluationOracle:
    # arithmetic on canonical forms agrees with Fraction arithmetic at points
    @given(ratfns(), ratfns(), fracs)
    @settings(max_examples=100, deadline=None)
    def test_add_mul_pointwise(self, a, b, x):
        va, vb = _eval_or_none(a, x), _eval_or_none(b, x)
        if va is None or vb is None:
            return
        s = _eval_or_none(a + b, x)
        p = _eval_or_none(a * b, x)
        if s is not None:
            assert s == va + vb
        if p is not None:
            assert p == va * vb

    @given(ratfns(), fracs, fracs)
    @settings(max_examples=100, deadline=None)
    def test_shift_arg(self, a, c, x):
        v = _eval_or_none(a, x + c)
        if v is None:
            return
        assert _eval_or_none(a.shift_arg(c), x) == v

    @given(ratfns(), fracs.filter(lambda c: c != 0), fracs)
    @settings(max_examples=100, deadline=None)
    def test_scale_arg(self, a, c, x):
        v = _eval_or_none(a, c * x)
        if v is None:
            return
        assert _eval_or_none(a.scale_arg(c), x) == v

    @given(ratfns(), fracs.filter(lambda x: x != 0))
    @settings(max_examples=100, deadline=None)
    def test_recip_arg(self, a, x):
        v = _eval_or_none(a, 1 / x)
        if v is None:
            return
        assert _eval_or_none(a.recip_arg(), x) == v

    def test_recip_arg_basics(self):
        assert RF_W.recip_arg() == RF_W.inv()
        assert RF_ZERO.recip_arg() == RF_ZERO
        assert RF_ONE.recip_arg() == RF_ONE


class TestDerivative:
    @given(ratfns(), ratfns())
    @settings(max_examples=80, deadline=None)
    def test_leibniz(self, a, b):
        assert (a * b).diff() == a.diff() * b + a * b.diff()

    def test_quotient(self):
        r = RF_ONE / RF_W  # 1/w -> -1/w^2
        assert r.diff() == -(RF_W * RF_W).inv()


class TestSerialization:
    @given(ratfns())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, a):
        assert str_to_ratfn(ratfn_to_str(a)) == a

    def test_examples(self):
        r = str_to_ratfn("-1/2*w^2 + 3/1*w^0 / 1/1*w^1")
        assert r == (RF_W * RF_W).scale(Fraction(-1, 2)).__add__(
            RatFn.from_fraction(3)
        ) * RF_W.inv()

    def test_bad_input_raises(self):
        with pytest.raises(ValueError):
            str_to_ratfn("nonsense")
        with pytest.raises(ValueError):
            str_to_ratfn("1*q^2 / 1/1*w^0")
        # a ZeroDivisionError here ended a run on such a cache entry
        with pytest.raises(ValueError, match="zero denominator"):
            str_to_ratfn("1/1*w^0 / 0/1*w^0")

    @pytest.mark.parametrize("text", [
        "1/1*w^-1 / 1/1*w^0", "1/1*w^0 / 2/1*w^-3", "1/1*w^2 + 1/1*w^-1 / 1/1*w^0",
    ])
    def test_negative_exponent_raises(self, text):
        # the term was dropped: w^-1 / 1 read as the zero function
        with pytest.raises(ValueError, match="bad polynomial term"):
            str_to_ratfn(text)
