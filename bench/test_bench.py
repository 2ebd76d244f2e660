"""Tests for the benchmark's own code: run with ``python -m pytest bench``."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import run
from layers import Tracer, self_times

#: every check name the CLI reports for rational N=2/3 and trigonometric
#: N=2 with suite all, rational N=4 with suite normalize, and five points
#: with suite qkz
SEED_CHECK_NAMES = (
    "qybe[1,1/2]", "qybe[1/2,-1/3]", "qybe[-1/3,7/5]", "qybe[7/5,-2]",
    "qybe[-2,3]", "classical-ybe[1,1/2]", "classical-ybe[1/2,-1/3]",
    "crossing", "unitarity-scalar", "degeneration", "normalized-qdet",
    "normalized-unitarity", "normalized-crossing", "pairing-qdet",
    "pairing-qdet-control", "hexagon", "rvw-unitarity", "mixed-ybe",
    "intertwiner", "inst0.regular", "inst0.flatness",
    "inst0.equivariance[1]", "inst0.equivariance[2]",
    "inst0.equivariance[3]", "inst0.equivariance[4]",
    "inst0.equivariance[5]", "inst0.quasiclassical",
)


# -- self-time accounting ------------------------------------------------

def test_self_times_on_nested_span_tree():
    # cli.run [0, 10] with 1 s of hot calls directly below it
    #   tensor.mul [1, 5] with 2 s of hot calls
    #     tensor.embed [2, 3]
    #   qdet.normalize [6, 9] with 0.5 s of hot calls
    spans = [
        (0, "cli.run", 0.0, 10.0, None, 1.0),
        (1, "tensor.LegMatrix.__mul__", 1.0, 5.0, 0, 2.0),
        (2, "tensor.LegMatrix.embed", 2.0, 3.0, 1, 0.0),
        (3, "qdet.normalize", 6.0, 9.0, 0, 0.5),
    ]
    assert self_times(spans) == {"cli": 2.0, "tensor": 2.0, "qdet": 2.5}


def test_tracer_splits_hot_and_span_time():
    now = [0.0]

    def clock():
        return now[0]

    t = Tracer(clock=clock)

    def ratfn_work():
        now[0] += 2.0

    hot_ratfn = t.wrap(ratfn_work, "ratfn.RatFn.__add__", hot=True)

    def scalar_work():
        now[0] += 1.0
        hot_ratfn()

    hot_scalar = t.wrap(scalar_work, "scalar.Scalar.__mul__", hot=True)

    def tensor_work():
        now[0] += 3.0
        hot_scalar()
        hot_ratfn()

    span = t.wrap(tensor_work, "tensor.LegMatrix.__mul__", hot=False)
    span()
    span()
    assert t.layer_self() == {"ratfn": 8.0, "scalar": 2.0, "tensor": 6.0}
    assert t.calls["ratfn.RatFn.__add__"] == 4
    assert t.group_s["tensor.mul"] == 16.0
    assert t.group_s["scalar.mul"] == 6.0
    assert [s[1] for s in t.spans] == ["tensor.LegMatrix.__mul__"] * 2


def test_tracer_patches_imported_names_and_restores_them():
    modules = run.import_program()
    fam, qkz, ratfn = modules["families"], modules["qkz"], modules["ratfn"]
    originals = (fam.pmul, qkz.build_rvw, ratfn.RatFn.__dict__["__mul__"])
    t = Tracer()
    t.install(modules)
    try:
        # pmul is wrapped where families calls it, not inside ratfn
        assert fam.pmul is not originals[0] and ratfn.pmul is originals[0]
        assert qkz.build_rvw is modules["reps"].build_rvw is not originals[1]
        one = Fraction(1)
        x = ratfn.RatFn((one, one), (0 * one, one))  # (1 + w) / w
        x * x
        fam.pmul((one, one), (one, one))
    finally:
        t.uninstall()
    assert (fam.pmul, qkz.build_rvw, ratfn.RatFn.__dict__["__mul__"]) == originals
    assert t.calls["ratfn.pmul"] >= 1
    assert t.calls["ratfn.pgcd"] >= 2
    assert t.calls["ratfn.RatFn.__mul__"] == 1


# -- check names ---------------------------------------------------------

def test_check_metric_name_example():
    assert run.check_metric_name("qybe[1,1/2]") == "check.qybe_1_1-2_s"


def test_check_metric_names_are_allowed_and_distinct():
    names = [run.check_metric_name(c) for c in SEED_CHECK_NAMES]
    for n in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n), n
    assert len(set(names)) == len(names)


# -- verdicts ------------------------------------------------------------

def _report(wl, config, statuses=None):
    statuses = statuses or {}
    checks = []
    for name in wl.checks:
        status = statuses.get(name, "exact-zero")
        grade = None if status == "exact-zero" else int(status.rsplit("-", 1)[1])
        checks.append({"name": name, "identity": "x", "status": status,
                       "first_failing_grade": grade, "wall_time_ms": 1.5})
    return {
        "config": dict(config, jobs=1, out="report.json"),
        "checks": checks,
        "passed": not statuses,
    }


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_verdict_checker_accepts_expected_verdict(name):
    wl = run.WORKLOADS[name]
    config = wl.config(0)
    assert run.verdict_problems(wl, config, 0, _report(wl, config)) == []


def test_verdict_checker_rejects_failing_grade():
    wl = run.WORKLOADS["rat4-normalize"]
    config = wl.config(0)
    report = _report(wl, config, {"pairing-qdet": "fails-at-grade-2"})
    problems = run.verdict_problems(wl, config, 1, report)
    assert "check pairing-qdet: fails-at-grade-2" in problems


def test_verdict_checker_rejects_missing_check():
    wl = run.WORKLOADS["rat2-qkz5"]
    config = wl.config(0)
    report = _report(wl, config)
    report["checks"] = [c for c in report["checks"] if c["name"] != "inst0.flatness"]
    assert run.verdict_problems(wl, config, 0, report) == [
        "missing check inst0.flatness"
    ]


def test_verdict_checker_rejects_exit_code_1():
    wl = run.WORKLOADS["rat4-normalize"]
    config = wl.config(0)
    assert run.verdict_problems(wl, config, 1, _report(wl, config)) == [
        "exit code 1, expected 0"
    ]


def test_verdict_checker_rejects_other_instance():
    wl = run.WORKLOADS["rat2-qkz5"]
    report = _report(wl, wl.config(1))
    assert run.verdict_problems(wl, wl.config(2), 0, report) == [
        f"config instances echoed as {report['config']['instances']!r}"
    ]


def test_deterministic_drops_only_timings():
    wl = run.WORKLOADS["rat4-normalize"]
    a = _report(wl, wl.config(0))
    b = _report(wl, wl.config(0))
    b["checks"][0]["wall_time_ms"] = 99.0
    assert run.deterministic(a) == run.deterministic(b)
    b["checks"][0]["identity"] = "y"
    assert run.deterministic(a) != run.deterministic(b)


# -- seeded instance -----------------------------------------------------

def test_seed_generator_is_deterministic_per_seed():
    assert run.qkz_points(7) == run.qkz_points(7)
    assert run.WORKLOADS["rat2-qkz5"].config(7) == run.WORKLOADS["rat2-qkz5"].config(7)
    assert len({tuple(run.qkz_points(s)) for s in range(10)}) > 1
    for s in range(10):
        points = run.qkz_points(s)
        assert len(set(points)) == 5
        # a translate of the fixed points: the same differences, the same work
        assert [p - points[0] for p in points] == list(run.QKZ_OFFSETS)


def test_fixed_workloads_ignore_the_seed():
    wl = run.WORKLOADS["rat4-normalize"]
    assert wl.config(0) == wl.config(12345)



# -- scheduling of the untraced run -------------------------------------

class _FakeRun:
    """Cold verdicts take 10 s and re-runs 3 s on a fake clock."""

    def __init__(self, tmp_path, monkeypatch):
        self.clock, self.kinds, self.tmp = 0.0, [], tmp_path
        self.deadline, self.samples = 1e9, {}
        monkeypatch.setattr(run.time, "perf_counter", lambda: self.clock)

    def cold(self):
        self.clock += 10
        self.kinds.append("C")
        cache = self.tmp / f"cache{len(self.kinds)}"
        cache.mkdir()
        return cache, {}

    def warm(self, cache, written):
        assert cache.is_dir()
        self.clock += 3
        self.kinds.append("W")


def test_untraced_run_fills_its_time_with_re_runs(tmp_path, monkeypatch):
    fake = _FakeRun(tmp_path, monkeypatch)
    run.run_untraced(fake, 30)
    # a third cold verdict (26 + 10 s) would not fit, one more re-run does
    assert "".join(fake.kinds) == "CWCWW"
    assert fake.clock <= 30
    assert not any(tmp_path.iterdir())  # every cache directory removed


def test_untraced_run_always_makes_one_pair(tmp_path, monkeypatch):
    fake = _FakeRun(tmp_path, monkeypatch)
    run.run_untraced(fake, 1)
    assert fake.kinds == ["C", "W"]


# -- statistics and the benchmark definition -----------------------------

def test_summarize():
    st = run.summarize([4.0, 1.0, 3.0, 2.0])
    assert (st["median"], st["n"]) == (2.5, 4)
    assert st["q1"] < st["median"] < st["q3"]
    assert "p75" not in st
    assert "p75" in run.summarize([float(i) for i in range(40)])
    assert run.summarize([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "n": 1}


def test_benchmark_json_matches_the_tables():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: wl.why for n, wl in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
