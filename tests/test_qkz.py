from fractions import Fraction

import pytest
from planting import planted_nf

from qkzkit import qkz
from qkzkit.errors import ShapeMismatch
from qkzkit.families import ArgShift
from qkzkit.hseries import HSeries
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


class TestNabla:
    def test_leading_grade_is_identity(self, nf_rat2):
        inst = make_instance(nf_rat2, 3)
        for i in range(1, 4):
            nab = build_nabla(inst, i)
            ident = nab.grade_matrix(0)
            assert ident == inst.nf.identity(3)

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
        assert nab * nab.inv() == ident


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
        assert check_flatness(inst, "drop-step-shift") == 2

    def test_operators_have_hseries_entries(self, nf_rat2):
        inst = make_instance(nf_rat2, 3)
        beta = build_braiding(
            nf_rat2, inst.words[0], inst.words[1], ArgShift.of(2, nf_rat2.D),
            value=True,
        )
        for m in (build_nabla(inst, 2), beta):
            assert all(isinstance(v, HSeries) for v in m.entries.values())

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
        inst = make_instance(nf if g is None else planted_nf(nf, g), 3)
        assert commutator_grade(inst) == grade
        assert check_commutativity_at_zero_step(inst) == grade

    def test_translation_invariance(self, nf_rat2):
        inst = make_instance(nf_rat2, 3)
        assert check_translation_invariance(inst, Fraction(7, 3)) is None


class TestEquivariance:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_all_indices(self, name, request):
        nf = request.getfixturevalue(name)
        inst = make_instance(nf, 3)
        for i in range(1, 4):
            assert check_braiding_equivariance(inst, i) is None


class TestQuasiclassical:
    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_h1_grade_additivity(self, name, request):
        nf = request.getfixturevalue(name)
        inst = make_instance(nf, 3)
        assert check_quasiclassical(inst) is None


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
