from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_poly import euclid_lcm, pdivmod, primitive
from qkzkit.errors import NonUnitError, ShapeMismatch
from qkzkit.families import ArgShift, build_rational, shift_scalar
from qkzkit.hseries import HSeries
from qkzkit.qdet import (
    NormalizedFamily,
    _perm_sign,
    check_pairing_control,
    check_pairing_qdet,
    compute_rho,
    find_qdet_vector,
    ladder_shifts,
    normalize,
    pairing_contraction,
    solve_f0,
)
from qkzkit.ratfn import RF_ONE, RF_ZERO, RatFn, pdeg, pmul
from qkzkit.scalar import Point, Scalar
from qkzkit.suites import run_checks, suite_normalize
from qkzkit.tensor import Elimination, LegMatrix, certified_grade, degree_bounds


class TestLadderShifts:
    def test_symmetric_around_zero(self):
        for N in (2, 3, 4):
            shifts = ladder_shifts(N, 3)
            total = shifts[0]
            for s in shifts[1:]:
                total = total + s
            assert total.is_zero

    def test_spacing(self):
        shifts = ladder_shifts(3, 3)
        h = HSeries.h(3)
        assert shifts[1] - shifts[0] == h
        assert shifts[2] - shifts[1] == h


class TestEigenvector:
    @pytest.mark.parametrize("name", ["rat2", "rat3"])
    def test_rational_coeffs_are_permutation_signs(self, name, request):
        F = request.getfixturevalue(name)
        qd = find_qdet_vector(F)
        assert set(qd.coeffs) == {
            idx for idx in qd.coeffs if sorted(idx) == list(range(F.N))
        }
        for idx, c in qd.coeffs.items():
            want = Scalar.const(Fraction(_perm_sign(list(idx))), F.D, F.mode)
            assert c == want

    def test_pivot_coefficient_is_one(self, trig):
        qd = find_qdet_vector(trig)
        assert qd.coeffs[(0, 1)] == Scalar.one(trig.D, trig.mode)

    def test_eigenvalue_is_unit(self, rat2, trig):
        for F in (rat2, trig):
            qd = find_qdet_vector(F)
            assert qd.eigenvalue.is_unit

    def test_grade_lift_eliminates_once(self, rat3, monkeypatch):
        # the left-hand side of the lift is the same at every grade, so one
        # elimination must serve grades 2..D (D=4 here)
        calls = []
        init = Elimination.__init__

        def counting(self, rows, ncols):
            calls.append(ncols)
            init(self, rows, ncols)

        monkeypatch.setattr(Elimination, "__init__", counting)
        find_qdet_vector(rat3)
        assert calls == [3 ** 3 + 1]


class TestRho:
    @pytest.mark.parametrize("name", ["rat2", "rat3", "trig"])
    def test_rho_is_one_plus_higher_order(self, name, request):
        F = request.getfixturevalue(name)
        qd = find_qdet_vector(F)
        rho = compute_rho(F, qd)
        assert rho.grades[0] == RatFn.from_fraction(1)
        assert rho.is_unit


class TestNormalizingScalar:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_ladder_product_equation(self, name, request):
        nf = request.getfixturevalue(name)
        F = nf.family
        prod = Scalar.one(F.D, F.mode)
        for s in ladder_shifts(F.N, F.D):
            prod = prod * shift_scalar(nf.f0, ArgShift.of_h(s, F.mode), F.hshift_scale)
        assert prod == nf.rho.inv()

    def test_target_must_be_unit_normalized(self, rat2):
        with pytest.raises(NonUnitError):
            solve_f0(rat2, Scalar.const(Fraction(2), rat2.D, rat2.mode))

    def test_f0_leading_one(self, nf_rat2, nf_trig):
        for nf in (nf_rat2, nf_trig):
            assert nf.f0.grades[0] == RatFn.from_fraction(1)


class TestNormalizedFamily:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_rat3", "nf_trig"])
    def test_rescaled_determinant_acts_as_one(self, name, request):
        nf = request.getfixturevalue(name)
        assert nf.normalized_rho() == Scalar.one(nf.D, nf.mode)

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_unitarity_exact(self, name, request):
        nf = request.getfixturevalue(name)
        assert nf.unitarity_scalar() == Scalar.one(nf.D, nf.mode)

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_suite_reports_the_failing_grade(self, name, request):
        # f0 + h^3 moves rho-bar by N h^3 and phi-bar by 2 h^3
        nf = request.getfixturevalue(name)
        grades = [RF_ZERO] * (nf.D + 1)
        grades[3] = RF_ONE
        bump = Scalar(grades, nf.mode)
        bad = NormalizedFamily(nf.family, nf.qdet, nf.rho, nf.f0 + bump)
        specs = [
            s for s in suite_normalize(bad)
            if s[0] in ("normalized-qdet", "normalized-unitarity")
        ]
        results = run_checks(specs)
        assert [r.name for r in results] == [
            "normalized-qdet", "normalized-unitarity",
        ]
        assert [r.status for r in results] == ["fails-at-grade-3"] * 2

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_crossing_on_the_nose(self, name, request):
        nf = request.getfixturevalue(name)
        assert nf.crossing_defect() is None


class TestPairing:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_identity_with_normalization(self, name, request):
        nf = request.getfixturevalue(name)
        pts1 = [Fraction(2)]
        pts2 = (
            [Fraction(1), Fraction(5, 2)]
            if nf.mode == "additive"
            else [Fraction(2), Fraction(3)]
        )
        assert check_pairing_qdet(nf, pts1) is None
        assert check_pairing_qdet(nf, pts2) is None

    def test_empty_points_are_rejected(self, nf_rat2):
        with pytest.raises(ShapeMismatch):
            check_pairing_qdet(nf_rat2, [])

    def test_ladders_start_from_their_first_factor(self, monkeypatch):
        # N = 2: two products in the contraction and one per ladder (N
        # ladders of two factors); multiplying Id in first took N more.
        # The symbolic residual and the residual at each evaluation point
        # take the same products, at D + 1 points since B_g = g
        nf = normalize(build_rational(2, 2))
        factors, residual = pairing_contraction(nf, [Fraction(1), Fraction(5, 2)])
        calls = []
        mul = LegMatrix.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(LegMatrix, "__mul__", counting)
        assert residual(factors).is_zero
        assert len(calls) == 4

        per_point = []

        def counted(fs):
            before = len(calls)
            out = residual(fs)
            per_point.append(len(calls) - before)
            return out

        assert certified_grade(factors, counted, nf.D, nf.mode) is None
        assert per_point == [4] * (nf.D + 1)

    def test_control_fails_when_the_rescaling_is_a_no_op(self, nf_rat2):
        # a family that is already normalized: its raw contraction is Id at
        # every grade, so the control has nothing to show and reports D
        F = build_rational(2, nf_rat2.D)
        F._base = nf_rat2.rbar
        one = Scalar.one(nf_rat2.D, nf_rat2.mode)
        same = NormalizedFamily(F, nf_rat2.qdet, one, one)
        pts = [Fraction(1), Fraction(5, 2)]
        assert check_pairing_qdet(same, pts) is None
        assert check_pairing_control(same, pts) == nf_rat2.D
        assert check_pairing_control(nf_rat2, pts) is None
        [result] = [
            r for r in run_checks(suite_normalize(same))
            if r.name == "pairing-qdet-control"
        ]
        assert result.status == f"fails-at-grade-{nf_rat2.D}"

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_unnormalized_control_fails(self, name, request):
        nf = request.getfixturevalue(name)
        pts = (
            [Fraction(1), Fraction(5, 2)]
            if nf.mode == "additive"
            else [Fraction(2), Fraction(3)]
        )
        grade = check_pairing_qdet(nf, pts, raw=True)
        assert grade is not None and grade >= 1


class TestValues:
    """NormalizedFamily.r_value: Rbar at a point, over Q[[h]], memoized."""

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_entries_are_the_symbolic_entries_evaluated(self, name, request):
        nf = request.getfixturevalue(name)
        D, c = nf.D, Fraction(3, 2)
        step = HSeries.h(D).scale(3)
        for off in (ArgShift.of(c, D), ArgShift(c, step)):
            if nf.mode == "additive":
                value = HSeries.constant(c, D) + off.hpart
            else:
                value = off.hpart.scale(nf.family.hshift_scale).exp().scale(c)
            p = Point(value, nf.mode)
            m = nf.r_value(off)
            n = nf.rbar.shape.total
            for r in range(n):
                for col in range(n):
                    sym = nf.rbar.get(r, col)
                    # a fresh Scalar, so no derivative chain is shared
                    want = Scalar(sym.grades, sym.mode).eval(p)
                    assert m.get(r, col) == want

    def test_repeated_argument_is_not_evaluated_again(self, nf_rat2, monkeypatch):
        nf = NormalizedFamily(nf_rat2.family, nf_rat2.qdet, nf_rat2.rho, nf_rat2.f0)
        calls = []
        evaluate = Scalar.eval

        def counting(s, p):
            calls.append(1)
            return evaluate(s, p)

        monkeypatch.setattr(Scalar, "eval", counting)
        first = nf.r_value(ArgShift.of(Fraction(5, 2), nf.D))
        assert len(calls) == 3  # three distinct entries of rational N = 2
        again = nf.r_value(ArgShift.of(Fraction(5, 2), nf.D))
        assert len(calls) == 3 and again == first


class TestNormalizedRowsReportGrades:
    def test_planted_off_diagonal_fault(self):
        # h^2 e_01 added to Rbar: neither operator is scalar any more, and
        # both rows report the grade instead of an error
        nf = normalize(build_rational(2, 2))
        h2 = Scalar.from_hseries(HSeries.h(nf.D, 2), nf.mode)
        fault = LegMatrix(nf.rbar.shape, {(0, 1): h2}, nf.D, nf.mode)
        nf.rbar = nf.rbar + fault
        status = {r.name: r.status for r in run_checks(suite_normalize(nf))}
        assert status["normalized-qdet"] == "fails-at-grade-2"
        assert status["normalized-unitarity"] == "fails-at-grade-2"


def pairing_points(nf):
    return (
        [Fraction(1), Fraction(5, 2)]
        if nf.mode == "additive"
        else [Fraction(2), Fraction(3)]
    )


class TestCertifiedPairing:
    """check_pairing_qdet decides its grade by certified evaluation; the
    symbolic residual of pairing_contraction is the oracle."""

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_rat3", "nf_trig"])
    def test_degree_bound_holds(self, name, raw, request):
        # Lambda_g times every grade-g residual entry clears to a
        # polynomial of degree at most B_g
        nf = request.getfixturevalue(name)
        factors, residual = pairing_contraction(nf, pairing_points(nf), raw=raw)
        bounds = degree_bounds(factors, nf.D)
        image = residual(factors)
        assert raw == (not image.is_zero)
        for v in image.entries.values():
            for g, r in enumerate(v.grades):
                if not r:
                    continue
                lam, bound = bounds[g]
                q, rem = pdivmod(pmul(lam, r.num), r.den)
                assert rem == () and pdeg(q) <= bound

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("name", ["nf_rat3", "nf_trig"])
    def test_degree_bounds_match_the_monic_fraction_oracle(
        self, name, raw, request
    ):
        # the same max-plus/lcm pass over the monic Fraction views num/den:
        # per grade the same B_g, and Lambda_g up to a rational unit
        nf = request.getfixturevalue(name)
        factors, _ = pairing_contraction(nf, pairing_points(nf), raw=raw)
        one = (Fraction(1),)
        reach = {0: (one, 0)}
        for f in factors:
            opts = {0: (one, 0)}
            entries = f.entries if isinstance(f, LegMatrix) else f
            for s in entries.values():
                for m, r in enumerate(s.grades):
                    if r:
                        d = pdeg(r.num) - pdeg(r.den)
                        if m in opts:
                            den, delta = opts[m]
                            opts[m] = (euclid_lcm(den, r.den), max(delta, d))
                        else:
                            opts[m] = (r.den, d)
            nxt = {}
            for g0, (lam0, d0) in reach.items():
                for m, (den, delta) in opts.items():
                    if g0 + m <= nf.D:
                        lam, d = pmul(lam0, den), d0 + delta
                        if g0 + m in nxt:
                            lam1, d1 = nxt[g0 + m]
                            lam, d = euclid_lcm(lam1, lam), max(d1, d)
                        nxt[g0 + m] = (lam, d)
            reach = nxt
        bounds = degree_bounds(factors, nf.D)
        assert [g for g, b in enumerate(bounds) if b] == sorted(reach)
        for g, (lam, d) in reach.items():
            assert bounds[g] == (primitive(lam), pdeg(lam) + d)

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_planted_h3_fault_in_rbar(self, name, request):
        # h^3 / (w - 1) added to one entry of Rbar: both paths see grade 3
        nf = request.getfixturevalue(name)
        grades = [RF_ZERO] * (nf.D + 1)
        grades[3] = RatFn((Fraction(1),), (Fraction(-1), Fraction(1)))
        bad = NormalizedFamily(nf.family, nf.qdet, nf.rho, nf.f0)
        fault = {(0, 1): Scalar(grades, nf.mode)}
        bad.rbar = nf.rbar + LegMatrix(nf.rbar.shape, fault, nf.D, nf.mode)
        pts = pairing_points(nf)
        factors, residual = pairing_contraction(bad, pts)
        assert residual(factors).first_nonzero_grade() == 3
        assert check_pairing_qdet(bad, pts) == 3


@pytest.fixture(scope="module")
def nf_rat2_d3():
    return normalize(build_rational(2, 3))


@st.composite
def planted_faults(draw, D=3, n=8):
    """(factor, (row, col), grade, c w^k / (w - b)^e) with small integers."""
    k, e = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    b = draw(st.integers(-3, 3))
    c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    den = (Fraction(1),)
    for _ in range(e):
        den = pmul(den, (Fraction(-b), Fraction(1)))
    fault = RatFn((Fraction(0),) * k + (c,), den)
    return (
        draw(st.integers(0, 3)),
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))),
        draw(st.integers(0, D)),
        fault,
    )


@given(planted_faults(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_certified_grade_matches_the_symbolic_residual(nf_rat2_d3, planted, raw):
    # a rational perturbation of one entry of one ladder factor at one grade
    nf = nf_rat2_d3
    i, key, grade, fault = planted
    factors, residual = pairing_contraction(nf, [Fraction(1), Fraction(5, 2)], raw=raw)
    grades = [RF_ZERO] * (nf.D + 1)
    grades[grade] = fault
    f = factors[i]
    factors[i] = f + LegMatrix(f.shape, {key: Scalar(grades, nf.mode)}, nf.D, nf.mode)
    want = residual(factors).first_nonzero_grade()
    assert certified_grade(factors, residual, nf.D, nf.mode) == want
