from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_poly import euclid_lcm, pdivmod, primitive
from lift_oracle import Lift, dense_lift, permutation_contract, scalar_residual
from planting import planted
from qkzkit.errors import LiftFailure, NonUnitError, ShapeMismatch
from qkzkit.families import (
    ArgShift,
    RMatrixFamily,
    build_rational,
    build_trigonometric,
    shift_scalar,
)
from qkzkit.hseries import HSeries
from qkzkit.qdet import (
    NormalizedFamily,
    _perm_sign,
    antisymmetrizer,
    check_pairing_control,
    check_pairing_qdet,
    compute_rho,
    contract,
    find_qdet_vector,
    ladder_shifts,
    normalize,
    pairing_contraction,
    solve_f0,
)
from qkzkit.ratfn import RF_ONE, RF_ZERO, RatFn, pdeg, pmul
from qkzkit.scalar import Point, Scalar
from qkzkit.suites import run_checks, suite_normalize
from qkzkit.tensor import (
    Elimination,
    LegMatrix,
    LegShape,
    certified_grade,
    degree_bounds,
)


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
        find_qdet_vector(F)  # the vector it checks is the antisymmetrizer
        coeffs = antisymmetrizer(F.N, F.D, F.mode)
        assert sorted(coeffs) == sorted(permutations(range(F.N)))
        for idx, c in coeffs.items():
            want = Scalar.const(Fraction(_perm_sign(list(idx))), F.D, F.mode)
            assert c == want

    def test_pivot_coefficient_is_one(self, trig):
        find_qdet_vector(trig)
        coeffs = antisymmetrizer(trig.N, trig.D, trig.mode)
        assert coeffs[(0, 1)] == Scalar.one(trig.D, trig.mode)

    def test_eigenvalue_is_unit(self, rat2, trig):
        for F in (rat2, trig):
            assert find_qdet_vector(F).is_unit

    def test_lift_builds_no_elimination(self, rat3, monkeypatch):
        # the antisymmetrizer is checked, not solved for: no linear system
        calls = []
        init = Elimination.__init__

        def counting(self, rows, ncols):
            calls.append(ncols)
            init(self, rows, ncols)

        monkeypatch.setattr(Elimination, "__init__", counting)
        find_qdet_vector(rat3)
        assert calls == []


class TestLiftOracle:
    """find_qdet_vector against the dense RatFn lift and the eigen-equation
    residual over Scalars (tests/lift_oracle.py)."""

    @pytest.mark.parametrize("name", ["rat2", "rat3", "rat4", "trig"])
    def test_scalar_residual_holds(self, name, request):
        F = request.getfixturevalue(name)
        coeffs = antisymmetrizer(F.N, F.D, F.mode)
        lam = find_qdet_vector(F)
        assert scalar_residual(F, Lift(coeffs, lam)) is None
        dense = dense_lift(F)
        assert list(coeffs.items()) == list(dense.coeffs.items())
        assert lam == dense.eigenvalue

    @pytest.mark.parametrize("build, N, D", [
        (build_rational, 2, 4), (build_rational, 3, 4), (build_rational, 4, 4),
        (build_rational, 2, 8),
        *((build_trigonometric, 2, d) for d in (0, 1, 2, 4, 6, 8)),
    ])
    def test_general_lift_needs_no_correction(self, build, N, D):
        # the general eigenvector lift finds every level v_q, q >= 1, zero:
        # the antisymmetrizer is the determinant vector at every grade
        F = build(N, D)
        dense = dense_lift(F)
        assert all(not g for c in dense.coeffs.values() for g in c.grades[1:])
        coeffs = antisymmetrizer(F.N, F.D, F.mode)
        assert list(coeffs.items()) == list(dense.coeffs.items())
        assert find_qdet_vector(F) == dense.eigenvalue

    def test_scalar_residual_sees_a_wrong_eigenvalue(self, rat2):
        grades = [RF_ZERO] * rat2.D + [RF_ONE]
        bad = Lift(
            antisymmetrizer(rat2.N, rat2.D, rat2.mode),
            find_qdet_vector(rat2) + Scalar(grades),
        )
        assert scalar_residual(rat2, bad) == (0, 0)

    def test_lift_applies_no_operator(self, rat3, monkeypatch):
        # the residual reads the sparse grade tables, not LegMatrix.apply
        # over Scalars
        calls = []
        apply = LegMatrix.apply

        def counting(self, vec):
            calls.append(1)
            return apply(self, vec)

        monkeypatch.setattr(LegMatrix, "apply", counting)
        find_qdet_vector(rat3)
        assert calls == []

    def test_lift_never_forms_the_ladder(self, rat4, monkeypatch):
        # every product's right operand is the thin operator on e_b (x) v0:
        # at most N nonzero columns, so the 4^5-square ladder never exists
        import qkzkit.qdet as qdet_mod

        def forbidden(*args):
            raise AssertionError("the lift split an operator into aux blocks")

        widths = []
        mul = LegMatrix.__mul__

        def counting(a, b):
            widths.append(len({c for _, c in b.entries}))
            return mul(a, b)

        monkeypatch.setattr(qdet_mod, "aux_blocks", forbidden)
        monkeypatch.setattr(LegMatrix, "__mul__", counting)
        find_qdet_vector(rat4)
        assert widths == [rat4.N] * rat4.N


#: (builder, N) of the planted-fault tests; N = 2 keeps the builder's name
PLANTED_FAMILIES = [
    pytest.param(build_rational, 2, id="build_rational"),
    pytest.param(build_trigonometric, 2, id="build_trigonometric"),
    pytest.param(build_rational, 3, id="build_rational-N3"),
    pytest.param(build_rational, 4, id="build_rational-N4"),
]


class TestLiftGuards:
    """A planted fault R + h^g E fails the antisymmetrizer check at grade g,
    and the failure names that grade."""

    def test_grade_zero_fault_leaves_a_residual(self):
        # at D = 0 only the grade-0 ladder is checked
        for build in (build_rational, build_trigonometric):
            F = planted(build(2, 0), 0)
            match = "the antisymmetrizer is not an eigenvector at h-grade 0$"
            with pytest.raises(LiftFailure, match=match):
                find_qdet_vector(F)

    @pytest.mark.parametrize("grade", [0, 2, 3, 4])
    @pytest.mark.parametrize("build, N", PLANTED_FAMILIES)
    def test_planted_fault_has_no_correction(self, build, N, grade):
        # R + h^grade E: the antisymmetrizer would need a correction at
        # this grade, and none is searched for (grade 1 is the next test)
        F = planted(build(N, 4), grade)
        match = f"the antisymmetrizer is not an eigenvector at h-grade {grade}$"
        with pytest.raises(LiftFailure, match=match):
            find_qdet_vector(F)

    @pytest.mark.parametrize("build, N", PLANTED_FAMILIES)
    def test_grade_one_fault_fails_the_h1_test(self, build, N):
        # R + h E: the h^1 grade, whose lam_1 is read at the pivot, fails
        F = planted(build(N, 4), 1)
        match = "the antisymmetrizer is not an eigenvector at h-grade 1$"
        with pytest.raises(LiftFailure, match=match):
            find_qdet_vector(F)


def random_operators(rng: Random, N: int, m: int = 2, D: int = 2):
    """N evaluated operators on [N, m], about half their entries
    small-integer HSeries and the rest zero."""
    shape = LegShape([N, m])
    return [
        LegMatrix.from_values(shape, {
            (r, c): HSeries([rng.randint(-3, 3) for _ in range(D + 1)])
            for r in range(shape.total)
            for c in range(shape.total)
            if rng.random() < 0.5
        }, D)
        for _ in range(N)
    ]


def sign_scalars(N: int, D: int = 2) -> dict:
    """The antisymmetrizer's coefficients as constant Scalars."""
    return {p: Scalar.const(_perm_sign(p), D) for p in permutations(range(N))}


class TestContract:
    """contract's subset recursion against the sum over all permutations
    (tests/lift_oracle.py)."""

    @pytest.mark.parametrize("name", ["rat2", "rat3", "rat4", "trig"])
    def test_rho_operators_match_the_permutation_sum(self, name, request):
        F = request.getfixturevalue(name)
        mats = [F.r(ArgShift.of_h(s, F.mode)) for s in ladder_shifts(F.N, F.D)]
        coeffs = antisymmetrizer(F.N, F.D, F.mode)
        assert contract(mats) == permutation_contract(coeffs, mats)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_block_products(self, N, monkeypatch):
        # each minor once: N 2^(N-1) - N products, against N! (N - 1)
        mats = random_operators(Random(N), N)
        calls = []
        mul = LegMatrix.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(LegMatrix, "__mul__", counting)
        got = contract(mats)
        assert len(calls) == N * 2 ** (N - 1) - N
        monkeypatch.setattr(LegMatrix, "__mul__", mul)
        assert got.symbolic() == permutation_contract(sign_scalars(N), mats)


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_contract_matches_the_permutation_sum(N, seed):
    # non-commuting blocks: the row order of every product is kept
    mats = random_operators(Random(seed), N)
    want = permutation_contract(sign_scalars(N), mats)
    assert contract(mats).symbolic() == want


class TestRho:
    @pytest.mark.parametrize("name", ["rat2", "rat3", "trig"])
    def test_rho_is_one_plus_higher_order(self, name, request):
        F = request.getfixturevalue(name)
        rho = compute_rho(F)
        assert rho.grades[0] == RatFn.from_fraction(1)
        assert rho.is_unit


class TestNormalizingScalar:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_ladder_product_equation(self, name, request):
        nf = request.getfixturevalue(name)
        F = nf.raw
        prod = Scalar.one(F.D, F.mode)
        for s in ladder_shifts(F.N, F.D):
            prod = prod * shift_scalar(nf.f0, ArgShift.of_h(s, F.mode), F.hshift_scale)
        assert prod == compute_rho(F).inv()

    def test_target_must_be_unit_normalized(self, rat2):
        with pytest.raises(NonUnitError):
            solve_f0(rat2, Scalar.const(Fraction(2), rat2.D, rat2.mode))

    def test_f0_leading_one(self, nf_rat2, nf_trig):
        for nf in (nf_rat2, nf_trig):
            assert nf.f0.grades[0] == RatFn.from_fraction(1)


class TestNormalizedFamily:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_a_normalized_family_is_a_family(self, name, request):
        nf = request.getfixturevalue(name)
        F = nf.raw
        assert isinstance(nf, RMatrixFamily)
        for attr in (
            "family", "N", "D", "mode", "shape", "hshift_scale", "crossing_hshift",
        ):
            assert getattr(nf, attr) == getattr(F, attr)
        assert nf.descriptor() == F.descriptor()
        assert nf.base == F.base.mul_scalar(nf.f0)

    def test_raw_values_are_memoized(self):
        F = build_rational(2, 2)
        off = ArgShift.of(Fraction(5, 2), F.D)
        assert F.r_value(off) is F.r_value(off)

    def test_r_and_r_value_sit_in_the_class_dict(self):
        # bench/layers.py wraps NormalizedFamily.r and .r_value by reading
        # the class's own __dict__, so inheriting them is not enough
        assert {"r", "r_value"} <= set(vars(NormalizedFamily))

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
        bad = NormalizedFamily(nf.raw, nf.f0 + bump)
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
        F._base = nf_rat2.base
        one = Scalar.one(nf_rat2.D, nf_rat2.mode)
        same = NormalizedFamily(F, one)
        pts = [Fraction(1), Fraction(5, 2)]
        assert check_pairing_qdet(same, pts) is None
        assert check_pairing_control(same, pts) == nf_rat2.D
        assert check_pairing_control(nf_rat2, pts) is None
        [result] = [
            r for r in run_checks(suite_normalize(same))
            if r.name == "pairing-qdet-control"
        ]
        assert result.status == f"fails-at-grade-{nf_rat2.D}"

    def test_entries_are_not_rehashed_per_point(self, nf_rat3, monkeypatch):
        # every evaluation point memoizes the factors' entries by value; a
        # Scalar hashes its grades once, so more points make no more
        # RatFn hashes
        import qkzkit.tensor as tensor

        calls = []
        rf_hash = RatFn.__hash__
        bounds = tensor.degree_bounds

        def counting(r):
            calls.append(1)
            return rf_hash(r)

        def check(extra):
            def padded(factors, D):
                return [b and (b[0], b[1] + extra) for b in bounds(factors, D)]

            monkeypatch.setattr(tensor, "degree_bounds", padded)
            del calls[:]
            assert check_pairing_qdet(nf_rat3, [Fraction(1), Fraction(5, 2)]) is None
            return len(calls)

        monkeypatch.setattr(RatFn, "__hash__", counting)
        check(0)  # the derivative chains of the entries, built once
        assert check(0) == check(4) > 0

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_unnormalized_control_fails(self, name, request):
        nf = request.getfixturevalue(name)
        pts = (
            [Fraction(1), Fraction(5, 2)]
            if nf.mode == "additive"
            else [Fraction(2), Fraction(3)]
        )
        grade = check_pairing_qdet(nf.raw, pts)
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
                value = off.hpart.scale(nf.hshift_scale).exp().scale(c)
            p = Point(value, nf.mode)
            m = nf.r_value(off)
            n = nf.base.shape.total
            for r in range(n):
                for col in range(n):
                    sym = nf.base.get(r, col)
                    # a fresh Scalar, so no derivative chain is shared
                    want = Scalar(sym.grades, sym.mode).eval(p)
                    assert m.get(r, col) == want

    def test_repeated_argument_is_not_evaluated_again(self, nf_rat2, monkeypatch):
        nf = NormalizedFamily(nf_rat2.raw, nf_rat2.f0)
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
        fault = LegMatrix(nf.base.shape, {(0, 1): h2}, nf.D, nf.mode)
        nf._base = nf.base + fault
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
        F = nf.raw if raw else nf
        factors, residual = pairing_contraction(F, pairing_points(nf))
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
        F = nf.raw if raw else nf
        factors, _ = pairing_contraction(F, pairing_points(nf))
        one = (Fraction(1),)
        reach = {0: (one, 0)}
        for f in factors:
            opts = {0: (one, 0)}
            for s in f.entries.values():
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
        bad = NormalizedFamily(nf.raw, nf.f0)
        fault = {(0, 1): Scalar(grades, nf.mode)}
        bad._base = nf.base + LegMatrix(nf.base.shape, fault, nf.D, nf.mode)
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
    pts = [Fraction(1), Fraction(5, 2)]
    factors, residual = pairing_contraction(nf.raw if raw else nf, pts)
    grades = [RF_ZERO] * (nf.D + 1)
    grades[grade] = fault
    f = factors[i]
    factors[i] = f + LegMatrix(f.shape, {key: Scalar(grades, nf.mode)}, nf.D, nf.mode)
    want = residual(factors).first_nonzero_grade()
    assert certified_grade(factors, residual, nf.D, nf.mode) == want
