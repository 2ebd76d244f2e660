from fractions import Fraction

import pytest
from planting import planted

from qkzkit import qkz, tensor
from qkzkit.errors import ShapeMismatch
from qkzkit.families import ArgShift, build_rational
from qkzkit.hseries import HSeries
from qkzkit.qdet import NormalizedFamily, normalize
from qkzkit.qkz import (
    QKZInstance,
    build_nabla,
    check_braiding_equivariance,
    check_commutativity_at_zero_step,
    check_flatness,
    check_quasiclassical,
    check_translation_invariance,
    first_order_solution,
    residual_qkz,
)
from qkzkit.reps import ComoduleWord, build_braiding
from qkzkit.scalar import Scalar
from qkzkit.suites import run_checks, suite_qkz
from qkzkit.tensor import LegMatrix, least_grade


def make_instance(nf, n=3, second_base=False):
    D = nf.D
    neutral = Fraction(0) if nf.mode == "additive" else Fraction(1)
    words = tuple(ComoduleWord.of([neutral], D) for _ in range(n))
    if nf.mode == "additive":
        zs = [Fraction(0), Fraction(1), Fraction(5, 2), Fraction(9, 2)]
        if second_base:
            zs = [Fraction(1, 3), Fraction(3, 2), Fraction(7, 2), Fraction(6)]
    else:
        zs = [Fraction(1), Fraction(2), Fraction(5), Fraction(11)]
        if second_base:
            zs = [Fraction(3), Fraction(7), Fraction(13), Fraction(29)]
    z = tuple(ArgShift.of(c, D) for c in zs[:n])
    return QKZInstance(nf, z, words, HSeries.constant(1, D))


def commutator_grade(inst):
    """The oracle for check_commutativity_at_zero_step: the least first
    nonzero grade of the commutators of the nabla's at K = -N, multiplied
    out."""
    zero_k = QKZInstance(
        inst.nf, inst.z, inst.words, HSeries.constant(-inst.nf.N, inst.nf.D)
    )
    grades = []
    for i in range(1, inst.n + 1):
        for j in range(i + 1, inst.n + 1):
            a = build_nabla(zero_k, i)
            b = build_nabla(zero_k, j)
            grades.append((a * b - b * a).first_nonzero_grade())
    return least_grade(grades)


class TestInstance:
    def test_word_count_must_match(self, nf_rat2):
        nf = nf_rat2
        inst = make_instance(nf, 2)
        with pytest.raises(ShapeMismatch):
            QKZInstance(nf, inst.z, inst.words[:1], inst.K)

    def test_kappa(self, nf_rat2):
        inst = make_instance(nf_rat2, 2)
        assert inst.kappa.constant_part == 1 + nf_rat2.N

    def test_regular(self, nf_rat2, nf_trig):
        for nf in (nf_rat2, nf_trig):
            make_instance(nf, 3).check_regular()

    def test_swapped_involution(self, nf_rat2):
        inst = make_instance(nf_rat2, 3)
        again = inst.swapped(1).swapped(1)
        assert again.z == inst.z and again.words == inst.words

    def test_central_charge_truncation_must_match(self, nf_rat2):
        inst = make_instance(nf_rat2, 2)
        with pytest.raises(ShapeMismatch, match="truncation"):
            QKZInstance(nf_rat2, inst.z, inst.words, HSeries.constant(1, nf_rat2.D + 1))

    def test_zero_step_gets_a_fresh_memo(self, nf_rat2, monkeypatch):
        # the zero-step instance has another K, so it must not reuse the
        # nabla's that check_flatness stored on the instance it came from
        bad = planted(NormalizedFamily(nf_rat2.raw, nf_rat2.f0), 2)
        inst = make_instance(bad, 3)
        fresh = check_commutativity_at_zero_step(make_instance(inst.nf, 3))
        check_flatness(inst)
        assert inst._nablas
        seen = []
        real = qkz.check_flatness

        def recording(zero_k, *args):
            seen.append(zero_k)
            return real(zero_k, *args)

        monkeypatch.setattr(qkz, "check_flatness", recording)
        assert check_commutativity_at_zero_step(inst) == fresh == 4
        [zero_k] = seen
        assert zero_k._nablas is not inst._nablas
        assert zero_k.K.constant_part == -nf_rat2.N


class TestValueTypes:
    """ArgShift and ComoduleWord are values: the r_value memo and the
    nabla memo key on them, and their reprs can reach a report's detail."""

    def test_equal_shifts_compare_and_hash_equal(self):
        a = ArgShift(Fraction(2), HSeries.h(4).scale(Fraction(7, 2)))
        b = ArgShift(Fraction(2), HSeries.h(4).scale(Fraction(7, 2)))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != ArgShift.of(2, 4) and a != (a.const, a.hpart)

    def test_equal_words_compare_and_hash_equal(self):
        v = ComoduleWord.of([Fraction(0), Fraction(1, 2)], 4)
        w = ComoduleWord.of([Fraction(0), Fraction(1, 2)], 4)
        assert v is not w and v == w and hash(v) == hash(w)
        assert v != ComoduleWord(v.letters[:1])

    def test_r_value_memo_keys_on_the_value(self, nf_rat2):
        a = ArgShift.of(Fraction(5, 3), nf_rat2.D)
        b = ArgShift.of(Fraction(5, 3), nf_rat2.D)
        assert nf_rat2.r_value(a) is nf_rat2.r_value(b)

    def test_reprs_keep_the_field_form(self):
        a = ArgShift.of(Fraction(1, 2), 1)
        assert repr(a) == (
            "ArgShift(const=Fraction(1, 2), "
            "hpart=HSeries('0/1,0/1'))"
        )
        assert repr(ComoduleWord((a,))) == f"ComoduleWord(letters=({a!r},))"


class TestNabla:
    def test_leading_grade_is_identity(self, nf_rat2):
        inst = make_instance(nf_rat2, 3)
        for i in range(1, 4):
            nab = build_nabla(inst, i)
            ident = nab.grade_matrix(0)
            assert ident.symbolic() == inst.nf.identity(3)

    def test_nabla_starts_from_its_first_factor(self, nf_rat2, monkeypatch):
        # n = 3: two R-factors per connection operator, so one product;
        # multiplying Id in first took one more
        inst = make_instance(nf_rat2, 3)
        calls = []
        mul = LegMatrix.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(LegMatrix, "__mul__", counting)
        for i in range(1, 4):
            build_nabla(inst, i)
        assert len(calls) == 3

    def test_single_point_nabla_is_identity(self, nf_rat2):
        inst = make_instance(nf_rat2, 1)
        assert build_nabla(inst, 1) == nf_rat2.identity(1)

    def test_invertible(self, nf_rat2):
        inst = make_instance(nf_rat2, 2)
        nab = build_nabla(inst, 1)
        ident = inst.nf.identity(2)
        assert (nab * nab.inv()).symbolic() == ident


class TestEvaluatedPath:
    """The connection runs over Q[[h]] and still detects faults."""

    #: five base points, one unit word each, central charge 1
    POINTS = [Fraction(2), Fraction(3), Fraction(9, 2), Fraction(13, 2), Fraction(9)]

    def five_points(self, nf):
        D = nf.D
        words = tuple(ComoduleWord.of([Fraction(0)], D) for _ in self.POINTS)
        z = tuple(ArgShift.of(c, D) for c in self.POINTS)
        return QKZInstance(nf, z, words, HSeries.constant(1, D))

    def test_dropped_step_shift_fails_at_grade_two(self, nf_rat2):
        inst = self.five_points(nf_rat2)
        assert nf_rat2.D == 4
        assert check_flatness(inst, drop_step_shift=True) == 2

    def test_operators_are_evaluated_over_one_denominator(self, nf_rat2):
        inst = make_instance(nf_rat2, 3)
        beta = build_braiding(
            nf_rat2, inst.words[0], inst.words[1], ArgShift.of(2, nf_rat2.D),
            value=True,
        )
        for m in (build_nabla(inst, 2), beta):
            assert isinstance(m.den, int) and m.den > 0
            assert all(
                isinstance(v, tuple) and len(v) == nf_rat2.D + 1
                and all(isinstance(x, int) for x in v)
                for v in m.entries.values()
            )

    def test_each_unstepped_nabla_is_built_once(self, nf_rat2, monkeypatch):
        inst = make_instance(nf_rat2, 3)
        calls = []
        build = qkz.build_nabla

        def counting(inst, i, z=None):
            calls.append(z is None)
            return build(inst, i, z)

        monkeypatch.setattr(qkz, "build_nabla", counting)
        assert check_flatness(inst) is None
        # three unstepped operators, and two stepped ones per index pair
        assert calls.count(True) == 3 and calls.count(False) == 6

    def test_suite_builds_each_distinct_nabla_once(self, nf_rat2, monkeypatch):
        # flatness, equivariance and quasiclassical rows share one operator
        # per instance, index and point tuple
        inst = self.five_points(nf_rat2)
        built = []
        build = qkz.build_nabla

        def recording(inst, i, z=None):
            built.append((inst.words, inst.K, i, inst.z if z is None else z))
            return build(inst, i, z)

        monkeypatch.setattr(qkz, "build_nabla", recording)
        results = run_checks(suite_qkz(nf_rat2, [inst]))
        assert all(r.passed for r in results)
        # 5 unstepped, 20 stepped by flatness, 4 on the swapped instances of
        # equivariance; 38 builds before the operators were shared
        assert len(built) == len(set(built)) == 29

    def test_suite_builds_each_connection_factor_once(self, nf_rat2, monkeypatch):
        # the nablas of one instance share each R^{j,i}(offset) placed on
        # the fiber: 116 requests from build_nabla for 56 distinct factors
        inst = self.five_points(nf_rat2)
        requests, built, inside = [], [], []
        factor, nabla, rvw = QKZInstance.factor, qkz.build_nabla, qkz.build_rvw

        def requesting(self, j, i, off):
            if inside:
                requests.append((self, j, i, off))
            return factor(self, j, i, off)

        def building(inst, i, z=None):
            inside.append(i)
            try:
                return nabla(inst, i, z)
            finally:
                inside.pop()

        def counting(*args, **kwargs):
            if inside:
                built.append(args)
            return rvw(*args, **kwargs)

        monkeypatch.setattr(QKZInstance, "factor", requesting)
        monkeypatch.setattr(qkz, "build_nabla", building)
        monkeypatch.setattr(qkz, "build_rvw", counting)
        results = run_checks(suite_qkz(nf_rat2, [inst]))
        assert all(r.passed for r in results)
        assert len(requests) == 116
        assert len(built) == len(set(requests)) == 56

    def test_suite_inverts_each_distinct_operator_once(self, monkeypatch):
        # a fresh family: its R values, and the inverses kept on them, are
        # shared by every instance of the family
        nf = normalize(build_rational(2, 4))
        inst = self.five_points(nf)
        calls = []
        bareiss = tensor._bareiss_inverse

        def counting(a, one, div):
            calls.append(len(a))
            return bareiss(a, one, div)

        monkeypatch.setattr(tensor, "_bareiss_inverse", counting)
        results = run_checks(suite_qkz(nf, [inst]))
        assert all(r.passed for r in results)
        # 40 inverses before they were kept: 12 repeats under the braiding
        # conjugators of equivariance and 4 within regular
        assert calls == [4] * 24


class TestFlatness:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact(self, name, n, request):
        nf = request.getfixturevalue(name)
        inst = make_instance(nf, n)
        assert check_flatness(inst) is None

    def test_second_base_point(self, nf_rat2):
        inst = make_instance(nf_rat2, 3, second_base=True)
        assert check_flatness(inst) is None

    def test_zero_step_commutativity(self, nf_rat2):
        inst = make_instance(nf_rat2, 3)
        assert check_commutativity_at_zero_step(inst) is None

    @pytest.mark.parametrize("name, g, grade", [
        ("nf_rat2", None, None), ("nf_rat2", 2, 4), ("nf_rat2", 3, None),
        ("nf_trig", None, None), ("nf_trig", 2, 3), ("nf_trig", 3, 4),
    ])
    def test_zero_step_commutativity_matches_the_commutators(
        self, name, g, grade, request
    ):
        # with kappa = 0 each flatness residual is minus the commutator of
        # nabla_i and nabla_j, so both read the same grade, with and
        # without Rbar + h^g E planted
        nf = request.getfixturevalue(name)
        if g is not None:
            nf = planted(NormalizedFamily(nf.raw, nf.f0), g)
        inst = make_instance(nf, 3)
        assert commutator_grade(inst) == grade
        assert check_commutativity_at_zero_step(inst) == grade

    def test_translation_invariance(self, nf_rat2):
        inst = make_instance(nf_rat2, 3)
        off = ArgShift.of(Fraction(7, 3), nf_rat2.D)
        assert check_translation_invariance(inst, off) is None


class TestEquivariance:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_all_indices(self, name, request):
        nf = request.getfixturevalue(name)
        inst = make_instance(nf, 3)
        for i in range(1, 4):
            assert check_braiding_equivariance(inst, i) is None

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_rat3", "nf_trig"])
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_planted_fault_reports_its_grade(self, name, g, request):
        # Rbar + h^g E: below index n the two sides first differ at g + 1,
        # where E meets the classical r (past D = 4 when g = 4); index n
        # has nothing to conjugate
        nf = request.getfixturevalue(name)
        inst = make_instance(planted(NormalizedFamily(nf.raw, nf.f0), g), 3)
        want = g + 1 if g + 1 <= inst.nf.D else None
        assert [check_braiding_equivariance(inst, i) for i in (1, 2, 3)] == [
            want, want, None,
        ]


class TestQuasiclassical:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_h1_grade_additivity(self, name, request):
        nf = request.getfixturevalue(name)
        inst = make_instance(nf, 3)
        assert check_quasiclassical(inst) is None

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_perturbed_nabla_fails_at_grade_one(self, name, request):
        # nabla_2 + h E: the h^1 grade it is compared at differs from the
        # sum of classical terms, so the row reads 1, the grade compared
        nf = request.getfixturevalue(name)
        inst = make_instance(nf, 3)
        nabla = inst.nabla(2)
        fault = LegMatrix(nabla.shape, {(0, 1): (0, 1) + (0,) * (nf.D - 1)},
                          nf.D, nf.mode, 1)
        inst._nablas[(2, inst.z)] = nabla + fault
        assert check_quasiclassical(inst) == 1
        [result] = [r for r in run_checks(suite_qkz(nf, [inst]))
                    if r.name == "inst0.quasiclassical"]
        assert result.status == "fails-at-grade-1"


class TestResidual:
    def test_first_order_solution(self, nf_rat2):
        nf = nf_rat2
        inst = make_instance(nf, 2)
        total = inst.fiber_shape().total
        v = [Scalar.const(Fraction(k + 1), nf.D, nf.mode) for k in range(total)]
        fmap = first_order_solution(inst, 1, v)
        res = residual_qkz(inst, fmap, 1)
        grades = [s.first_nonzero_grade() for s in res]
        worst = min((g for g in grades if g is not None), default=None)
        # exact at grades 0 and 1; the ansatz stops there, so grade 2 fails
        assert worst is not None and worst >= 2

    def test_constant_map_fails_at_grade_one(self, nf_rat2):
        nf = nf_rat2
        inst = make_instance(nf, 2)
        total = inst.fiber_shape().total
        v = [Scalar.const(Fraction(k + 1), nf.D, nf.mode) for k in range(total)]
        res = residual_qkz(inst, lambda z: list(v), 1)
        grades = [s.first_nonzero_grade() for s in res]
        worst = min((g for g in grades if g is not None), default=None)
        assert worst == 1
