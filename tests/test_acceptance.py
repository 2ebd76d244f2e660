"""End-to-end acceptance checks: every identity the kernel promises holds
exactly (tolerance zero) in the truncated ring at D = 4."""

import json
from fractions import Fraction

import pytest

from qkzkit.cli import EXIT_CHECK_FAILED, EXIT_OK, run
from qkzkit.families import (
    ArgShift,
    check_crossing,
    check_degeneration,
    check_qybe,
    default_samples,
    shift_scalar,
)
from qkzkit.hseries import HSeries
from qkzkit.qdet import (
    _perm_sign,
    check_pairing_qdet,
    find_qdet_vector,
    ladder_shifts,
)
from qkzkit.qkz import (
    QKZInstance,
    check_braiding_equivariance,
    check_flatness,
    check_quasiclassical,
)
from qkzkit.reps import (
    ComoduleWord,
    check_braid_relation,
    check_hexagon,
    check_intertwiner,
    check_rvw_unitarity,
)
from qkzkit.scalar import ADDITIVE, Scalar
from qkzkit.serialize import RunConfig


def make_instance(nf, n=3, second_base=False):
    D = nf.D
    neutral = Fraction(0) if nf.mode == ADDITIVE else Fraction(1)
    words = tuple(ComoduleWord.of([neutral], D) for _ in range(n))
    if nf.mode == ADDITIVE:
        zs = [Fraction(0), Fraction(1), Fraction(5, 2)]
        if second_base:
            zs = [Fraction(1, 3), Fraction(3, 2), Fraction(7, 2)]
    else:
        zs = [Fraction(1), Fraction(2), Fraction(5)]
        if second_base:
            zs = [Fraction(3), Fraction(7), Fraction(13)]
    z = tuple(ArgShift.of(c, D) for c in zs[:n])
    return QKZInstance(nf, z, words, HSeries.constant(1, D))


class TestCriterion01ThreeLegConsistency:
    """QYBE residual exactly zero at >= 5 deterministic sample pairs with
    one symbolic variable, for rational N = 2, 3 and trigonometric N = 2."""

    @pytest.mark.parametrize("name", ["rat2", "rat3", "trig"])
    def test_exact(self, name, request):
        F = request.getfixturevalue(name)
        assert F.D == 4
        samples = default_samples(F)
        assert len(samples) >= 5
        assert check_qybe(F, samples) is None


class TestCriterion02Crossing:
    """Both partial-transpose forms agree, are proportional to the
    displaced R with a unit scalar of leading grade 1, and the rescaled
    matrix satisfies the identity with scalar exactly 1."""

    @pytest.mark.parametrize("name", ["rat2", "rat3", "trig"])
    def test_raw_family(self, name, request):
        F = request.getfixturevalue(name)
        assert check_crossing(F) is None

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_normalized_scalar_is_one(self, name, request):
        nf = request.getfixturevalue(name)
        assert nf.crossing_defect() is None


class TestCriterion03Degeneration:
    """The scaling limit of the trigonometric family reproduces the
    rational family entrywise."""

    def test_exact(self, trig):
        assert check_degeneration(trig) is None


class TestCriterion04DeterminantPipeline:
    """The deformed antisymmetrizer has bare permutation-sign coefficients
    for the rational family (N = 2, 3), its eigen-equation residual is zero
    with the coordinate symbolic, the normalizing scalar satisfies the
    ladder-product equation exactly, and the rescaled determinant scalar
    is 1."""

    @pytest.mark.parametrize("name", ["rat2", "rat3"])
    def test_coefficients_are_signs(self, name, request):
        F = request.getfixturevalue(name)
        qd = find_qdet_vector(F)  # raises if the symbolic residual is nonzero
        for idx, c in qd.coeffs.items():
            assert sorted(idx) == list(range(F.N))
            assert c == Scalar.const(
                Fraction(_perm_sign(list(idx))), F.D, F.mode
            )

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_rat3", "nf_trig"])
    def test_ladder_product_equation(self, name, request):
        nf = request.getfixturevalue(name)
        F = nf.family
        prod = Scalar.one(F.D, F.mode)
        for s in ladder_shifts(F.N, F.D):
            prod = prod * shift_scalar(nf.f0, ArgShift.of_h(s, F.mode), F.hshift_scale)
        assert prod == nf.rho.inv()

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_rat3", "nf_trig"])
    def test_rescaled_scalar_is_one(self, name, request):
        nf = request.getfixturevalue(name)
        assert nf.normalized_rho() == Scalar.one(nf.D, nf.mode)


class TestCriterion05NormalizedIdentities:
    """The rescaled matrix is exactly unitary and satisfies the
    double-transpose-invert displacement identity on the nose."""

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_unitarity(self, name, request):
        nf = request.getfixturevalue(name)
        assert nf.unitarity_scalar() == Scalar.one(nf.D, nf.mode)

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_crossing(self, name, request):
        nf = request.getfixturevalue(name)
        assert nf.crossing_defect() is None


class TestCriterion06PairingDeterminant:
    """The determinant contraction of the ladder of rescaled R-factors is
    the identity for one and two evaluation points; without the rescaling
    the contraction must fail."""

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_identity(self, name, request):
        nf = request.getfixturevalue(name)
        one_pt = [Fraction(2)]
        two_pts = (
            [Fraction(1), Fraction(5, 2)]
            if nf.mode == ADDITIVE
            else [Fraction(2), Fraction(3)]
        )
        assert check_pairing_qdet(nf, one_pt) is None
        assert check_pairing_qdet(nf, two_pts) is None

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_unnormalized_control_fails(self, name, request):
        nf = request.getfixturevalue(name)
        two_pts = (
            [Fraction(1), Fraction(5, 2)]
            if nf.mode == ADDITIVE
            else [Fraction(2), Fraction(3)]
        )
        assert check_pairing_qdet(nf, two_pts, raw=True) is not None


class TestCriterion07RepresentationSuite:
    """Word-level checks at N = 2 on words of total length <= 3: unitarity
    of the two-word matrix, the three-word Yang-Baxter relation, the hexagon
    factorizations, and the intertwiner property of the braiding."""

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_all_exact(self, name, request):
        nf = request.getfixturevalue(name)
        D = nf.D
        if nf.mode == ADDITIVE:
            v = ComoduleWord.of([Fraction(0), Fraction(1, 2)], D)
            w = ComoduleWord.of([Fraction(1, 3)], D)
            off = ArgShift.of(Fraction(5), D)
            offs = (
                ArgShift.of(Fraction(5), D),
                ArgShift.of(Fraction(7), D),
                ArgShift.of(Fraction(2), D),
            )
        else:
            v = ComoduleWord.of([Fraction(2), Fraction(3)], D)
            w = ComoduleWord.of([Fraction(5)], D)
            off = ArgShift.of(Fraction(7), D)
            offs = (
                ArgShift.of(Fraction(5), D),
                ArgShift.of(Fraction(10), D),
                ArgShift.of(Fraction(2), D),
            )
        e = ComoduleWord(w.letters[:1])
        assert check_hexagon(nf, v, w, off) is None
        assert check_rvw_unitarity(nf, v, w, off) is None
        assert check_braid_relation(nf, (v, e, w), offs) is None
        assert check_intertwiner(nf, e, w, off) is None


class TestCriterion08Flatness:
    """The difference connection is flat: exactly for n = 2 and for n = 3
    at two distinct base points (N = 2, D = 4); the injected-fault control
    fails at h-grade <= 2."""

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_n2(self, name, request):
        nf = request.getfixturevalue(name)
        inst = make_instance(nf, 2)
        assert check_flatness(inst) is None

    @pytest.mark.parametrize("second", [False, True])
    def test_n3_two_base_points(self, nf_rat2, second):
        inst = make_instance(nf_rat2, 3, second_base=second)
        assert check_flatness(inst) is None

    def test_n3_trigonometric(self, nf_trig):
        inst = make_instance(nf_trig, 3)
        assert check_flatness(inst) is None

    def test_fault_control_fails_early(self, nf_rat2):
        inst = make_instance(nf_rat2, 3)
        grade = check_flatness(inst, fault="drop-step-shift")
        assert grade is not None and grade <= 2


class TestCriterion09BraidingEquivariance:
    """Each connection operator conjugates to the last-index one through
    braidings, exactly, for every index of the n = 3 instance."""

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_all_indices(self, name, request):
        nf = request.getfixturevalue(name)
        inst = make_instance(nf, 3)
        for i in range(1, 4):
            assert check_braiding_equivariance(inst, i) is None


class TestCriterion10QuasiclassicalLimit:
    """The h^1 grade of each connection operator equals the sum over the
    other indices of the h^1 grades of the pairwise R-factors (the
    classical first-order system)."""

    @pytest.mark.parametrize("name", ["nf_rat2", "nf_trig"])
    def test_all_indices(self, name, request):
        nf = request.getfixturevalue(name)
        inst = make_instance(nf, 3)
        assert check_quasiclassical(inst) is None


class TestCriterion11DeterminismAndRoundTrip:
    """Reports are byte-identical across runs and cache states (modulo
    timing fields); configurations round-trip exactly; the CLI exit-code
    contract holds end to end."""

    def _write(self, tmp_path, name, cfg):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_reports_identical_across_runs_and_cache_states(
        self, tmp_path, monkeypatch
    ):
        # a cold run fills the cache, a warm run reads it, and a run on a
        # second, empty cache directory computes the normalization again
        cfg = self._write(
            tmp_path, "cfg.json",
            {"family": "rational", "N": 2, "D": 2, "suite": "normalize"},
        )
        paths = [tmp_path / f"r{k}.json" for k in range(3)]
        assert run(["--config", cfg, "--out", str(paths[0])]) == EXIT_OK
        assert run(["--config", cfg, "--out", str(paths[1])]) == EXIT_OK
        monkeypatch.setenv("QKZ_CACHE_DIR", str(tmp_path / "second-cache"))
        assert run(["--config", cfg, "--out", str(paths[2])]) == EXIT_OK
        reports = [json.loads(p.read_text()) for p in paths]

        def strip(rep):
            return [
                {k: v for k, v in c.items() if k != "wall_time_ms"}
                for c in rep["checks"]
            ]

        assert strip(reports[0]) == strip(reports[1]) == strip(reports[2])

    def test_config_round_trip(self):
        cfg = RunConfig(
            "trigonometric", 2, 4, suite="all",
            instances=[{
                "points": ["1", "2", "5"],
                "words": [{"factors": ["1"]}] * 3,
                "K": "1",
            }],
        )
        assert RunConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_full_pipeline_exit_zero(self, tmp_path):
        cfg = self._write(
            tmp_path, "all.json",
            {"family": "rational", "N": 2, "D": 2, "suite": "all"},
        )
        assert run(["--config", cfg]) == EXIT_OK

    def test_fault_fixture_exit_one(self, tmp_path):
        cfg = self._write(
            tmp_path, "fault.json",
            {"family": "rational", "N": 2, "D": 2, "suite": "qkz",
             "fault": "drop-step-shift"},
        )
        assert run(["--config", cfg]) == EXIT_CHECK_FAILED
