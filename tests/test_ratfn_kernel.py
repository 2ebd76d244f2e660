"""The integer kernel of RatFn: content p/q times primitive int parts.

Every result of the ring operations, derivative and substitutions must be
in the canonical form (int parts, never float; positive leading
coefficients; reduced content; coprime parts), the form must not depend on
how the value was written down, and the substitutions, which skip the
polynomial gcd, must agree with the reducing constructor.  A sympy oracle
checks the gcd and the cancellation independently.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzkit.errors import PoleError
from qkzkit.ratfn import (
    RF_ZERO,
    RatFn,
    padd,
    pdivmod,
    pgcd,
    pmonic,
    pmul,
    pscale,
    ptrim,
    ratfn_to_str,
    str_to_ratfn,
)

fracs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
nonzero_fracs = fracs.filter(lambda c: c != 0)
polys = st.lists(fracs, min_size=0, max_size=4).map(ptrim)
nonzero_polys = polys.filter(bool)


@st.composite
def ratfns(draw):
    return RatFn(draw(polys), draw(nonzero_polys))


def shifted(a, c):
    """a(w + c), by Horner in (w + c) over Fractions."""
    acc = ()
    for coeff in reversed(a):
        acc = padd(pmul(acc, (c, Fraction(1))), (coeff,))
    return acc


def scaled(a, c):
    """a(c*w) over Fractions."""
    return ptrim(coeff * c**k for k, coeff in enumerate(a))


def euclid_coprime(a, b) -> bool:
    """gcd(a, b) is a constant, by the Euclidean algorithm over Fractions."""
    a = tuple(Fraction(c) for c in a)
    b = tuple(Fraction(c) for c in b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return len(a) == 1


def assert_canonical(r):
    p, q, n, d = r.p, r.q, r.n, r.d
    assert all(type(c) is int for c in (p, q) + n + d)
    assert q > 0 and gcd(p, q) == 1
    if p == 0:
        assert (q, n, d) == (1, (), (1,))
        return
    for part in (n, d):
        assert part and part[-1] > 0 and gcd(*part) == 1
    assert euclid_coprime(n, d)


def parts(r):
    return r.p, r.q, r.n, r.d


class TestInvariants:
    @given(ratfns(), ratfns())
    @settings(max_examples=100, deadline=None)
    def test_ring_ops_stay_canonical(self, a, b):
        c = Fraction(-3, 4)
        for r in (a, b, a + b, a - b, a * b, -a, a.diff(), a.scale(c)):
            assert_canonical(r)
        if b:
            assert_canonical(a / b)
            assert_canonical(b.inv())

    @given(ratfns(), fracs, nonzero_fracs)
    @settings(max_examples=100, deadline=None)
    def test_substitutions_stay_canonical(self, a, c, s):
        for r in (a.shift_arg(c), a.scale_arg(s), a.recip_arg()):
            assert_canonical(r)

    @given(ratfns(), fracs)
    @settings(max_examples=100, deadline=None)
    def test_eval_is_an_exact_fraction(self, a, x):
        try:
            v = a.eval(x)
        except PoleError:
            return
        assert type(v) is Fraction

    @given(ratfns(), ratfns())
    @settings(max_examples=100, deadline=None)
    def test_equal_values_have_equal_hashes(self, a, b):
        for x, y in ((a * b, b * a), (a + b, b + a), ((a + b) - b, a)):
            assert x == y and hash(x) == hash(y)

    @given(polys, nonzero_polys, nonzero_fracs)
    @settings(max_examples=100, deadline=None)
    def test_parts_do_not_depend_on_the_written_form(self, num, den, c):
        r = RatFn(num, den)
        assert parts(RatFn(pscale(num, c), pscale(den, c))) == parts(r)
        if all(x.denominator == 1 for x in num + den):
            ints = RatFn(tuple(int(x) for x in num), tuple(int(x) for x in den))
            assert parts(ints) == parts(r)

    @given(ratfns())
    @settings(max_examples=100, deadline=None)
    def test_text_round_trip_is_byte_identical(self, a):
        s = ratfn_to_str(a)
        assert ratfn_to_str(str_to_ratfn(s)) == s
        assert parts(str_to_ratfn(s)) == parts(a)

    @given(ratfns())
    @settings(max_examples=60, deadline=None)
    def test_views_are_the_monic_denominator_form(self, a):
        num, den = a.num, a.den
        assert all(type(c) is Fraction for c in num + den)
        assert den[-1] == 1
        assert RatFn(num, den) == a


class TestSubstitutionsSkipTheGcd:
    # w -> w + c, w -> c*w and w -> 1/w are automorphisms of Q(w), so the
    # result of the gcd-free path must be what reducing the substituted
    # numerator and denominator gives
    @given(ratfns(), fracs)
    @settings(max_examples=100, deadline=None)
    def test_shift_arg(self, a, c):
        assert a.shift_arg(c) == RatFn(shifted(a.num, c), shifted(a.den, c))

    @given(ratfns(), nonzero_fracs)
    @settings(max_examples=100, deadline=None)
    def test_scale_arg(self, a, c):
        assert a.scale_arg(c) == RatFn(scaled(a.num, c), scaled(a.den, c))

    @given(ratfns())
    @settings(max_examples=100, deadline=None)
    def test_recip_arg(self, a):
        if a.is_zero:
            assert a.recip_arg() == RF_ZERO
            return
        m = max(len(a.num), len(a.den))
        num = (Fraction(0),) * (m - len(a.num)) + a.num[::-1]
        den = (Fraction(0),) * (m - len(a.den)) + a.den[::-1]
        assert a.recip_arg() == RatFn(num, den)


class TestSympyOracle:
    @pytest.fixture(autouse=True)
    def _sympy(self):
        self.sp = pytest.importorskip("sympy")
        self.w = self.sp.Symbol("w")

    def expr(self, poly):
        sp = self.sp
        return sum(
            (sp.Rational(c.numerator, c.denominator) * self.w**k
             for k, c in enumerate(poly)),
            sp.Integer(0),
        )

    def coeffs(self, expr):
        """Ascending Fraction coefficients of a polynomial expression."""
        sp = self.sp
        if expr == 0:
            return ()
        out = sp.Poly(expr, self.w).all_coeffs()[::-1]
        return tuple(Fraction(int(c.p), int(c.q)) for c in out)

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_pgcd_is_the_monic_sympy_gcd(self, a, b, g):
        a, b = pmul(a, g), pmul(b, g)
        want = self.coeffs(self.sp.gcd(self.expr(a), self.expr(b)))
        assert pgcd(a, b) == pmonic(want)

    @given(polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_constructor_is_sympy_cancel(self, num, den, g):
        num, den = pmul(num, g), pmul(den, g)
        sp = self.sp
        p, q = sp.fraction(sp.cancel(self.expr(num) / self.expr(den)))
        p, q = self.coeffs(sp.expand(p)), self.coeffs(sp.expand(q))
        lead = q[-1]
        r = RatFn(num, den)
        assert r.num == tuple(c / lead for c in p)
        assert r.den == tuple(c / lead for c in q)
