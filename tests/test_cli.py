import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planting import planted
from qkzkit import cli, qdet
from qkzkit.cache import cache_dir
from qkzkit.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    run,
)
from qkzkit.families import build_rational
from qkzkit.scalar import Scalar


def write_cfg(tmp_path, name, **overrides):
    cfg = {"family": "rational", "N": 2, "D": 2, "suite": "crossing"}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def strip_timing(report):
    return [
        {k: v for k, v in c.items() if k != "wall_time_ms"}
        for c in report["checks"]
    ]


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ok.json")
        assert run(["--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "exact-zero" in out

    def test_elliptic_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ell.json", family="elliptic")
        assert run(["--config", cfg]) == EXIT_CONFIG
        assert "elliptic family out of scope" in capsys.readouterr().err

    def test_unknown_field_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"family": "rational", "bogus": 1}))
        assert run(["--config", str(path)]) == EXIT_CONFIG

    def test_jobs_field_is_unknown(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "jobs.json", jobs=1)
        assert run(["--config", cfg]) == EXIT_CONFIG
        assert "unknown config fields: ['jobs']" in capsys.readouterr().err

    def test_jobs_option_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "ok.json")
        with pytest.raises(SystemExit) as e:
            run(["--config", cfg, "--jobs", "4"])
        assert e.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("suite", ["qybe", "crossing", "normalize", "reps"])
    @pytest.mark.parametrize("extra", [
        {"fault": "drop-step-shift"},
        {"instances": [{"points": ["0", "0"], "words": []}]},
    ], ids=["fault", "instances"])
    @pytest.mark.parametrize("through", ["config", "option"])
    def test_qkz_fields_without_qkz_rows_are_config_error(
        self, tmp_path, capsys, suite, extra, through
    ):
        # both used to exit 0: the fault was echoed although no check
        # applied it, and the instance was never decoded
        if through == "config":
            cfg = write_cfg(tmp_path, "qkz.json", suite=suite, **extra)
            argv = ["--config", cfg]
        else:
            cfg = write_cfg(tmp_path, "qkz.json", suite="qkz", **extra)
            argv = ["--config", cfg, "--suite", suite]
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert f"apply only with suite qkz or all, not {suite!r}" in err

    def test_unparsable_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["--config", str(path)]) == EXIT_CONFIG

    def test_missing_config(self, tmp_path):
        assert run(["--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("through", ["config", "option"])
    def test_report_in_a_missing_directory_is_config_error(
        self, tmp_path, capsys, monkeypatch, through
    ):
        # it used to run every check and then exit 3 on the failed write
        ran = []
        monkeypatch.setattr(cli, "run_checks", lambda specs: ran.append(specs))
        out = str(tmp_path / "missing" / "r.json")
        if through == "config":
            argv = ["--config", write_cfg(tmp_path, "out.json", out=out)]
        else:
            argv = ["--config", write_cfg(tmp_path, "ok.json"), "--out", out]
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert "is in no existing directory" in err
        assert ran == []

    def test_unwritable_report_is_config_error(self, tmp_path, capsys):
        # a directory as the report path passes the directory check, and
        # writing to it fails once the checks have run
        cfg = write_cfg(tmp_path, "ok.json")
        assert run(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "internal error" not in err

    def test_injected_fault_fails(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "fault.json", suite="qkz", fault="drop-step-shift"
        )
        out_path = tmp_path / "report.json"
        code = run(["--config", cfg, "--out", str(out_path)])
        assert code == EXIT_CHECK_FAILED
        report = json.loads(out_path.read_text())
        failing = [c for c in report["checks"] if c["status"] != "exact-zero"]
        assert failing
        assert failing[0]["name"].endswith("flatness")
        assert failing[0]["first_failing_grade"] <= 2
        assert "identity" in failing[0]

    def test_unknown_fault_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "typo.json", suite="qkz", fault="drop-step-shfit"
        )
        assert run(["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown fault 'drop-step-shfit'" in err
        assert "drop-step-shift" in err

    @pytest.mark.parametrize("suite, d", [("qybe", 0), ("normalize", 1)])
    def test_d_below_suite_minimum_is_config_error(
        self, tmp_path, capsys, suite, d
    ):
        # qybe at D=0 used to crash classical-ybe with IndexError; normalize
        # at D=1 used to fail pairing-qdet-control on a correct kernel
        cfg = write_cfg(tmp_path, "low.json", suite=suite)
        assert run(["--config", cfg, "--d-override", str(d)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"suite {suite!r} needs D >= {d + 1}, got {d}" in err

    @pytest.mark.parametrize("points, factors", [
        (["0", "2", "5"], ["1", "1", "1"]),
        (["1", "2", "5"], ["1", "0,1/2,0", "1"]),
    ], ids=["point", "word-factor"])
    def test_multiplicative_zero_is_config_error(
        self, tmp_path, capsys, points, factors
    ):
        cfg = write_cfg(
            tmp_path, "zero.json", family="trigonometric", suite="qkz",
            instances=[{
                "points": points,
                "words": [{"factors": [f]} for f in factors],
                "K": "1",
            }],
        )
        assert run(["--config", cfg]) == EXIT_CONFIG
        assert "nonzero h^0 part" in capsys.readouterr().err


    @pytest.mark.parametrize("instance, message", [
        ({"points": [], "words": []}, "at least one point"),
        ({"points": ["0", "1"], "words": [{"factors": ["0"]}, {"factors": []}]},
         "at least one factor"),
    ], ids=["no-points", "empty-word"])
    def test_degenerate_instance_is_config_error(
        self, tmp_path, capsys, instance, message
    ):
        # no points used to pass with three vacuous checks; an empty word
        # used to exit 1 with four checks in error
        cfg = write_cfg(tmp_path, "empty.json", suite="qkz",
                        instances=[instance])
        assert run(["--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("instance, message", [
        ({"words": [{"factors": ["0"]}]}, "instance has no 'points' field"),
        ({"points": ["0"]}, "instance has no 'words' field"),
        ({"points": ["0"], "words": [{}]}, "word has no 'factors' field"),
    ], ids=["points", "words", "factors"])
    def test_missing_instance_field_is_named(
        self, tmp_path, capsys, instance, message
    ):
        # these used to exit 2 with a bare KeyError text such as 'points'
        cfg = write_cfg(tmp_path, "missing.json", suite="qkz",
                        instances=[instance])
        assert run(["--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_missing_family_is_named(self, tmp_path, capsys):
        # used to exit 2 with the bare KeyError text 'family'
        path = tmp_path / "nofamily.json"
        path.write_text(json.dumps({"N": 2, "D": 2, "suite": "crossing"}))
        assert run(["--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: config has no 'family' field\n"

    @pytest.mark.parametrize("family, points, factor", [
        ("rational", ["0", "0"], "0"),
        ("rational", ["0", "1", "1,1/2,0"], "0"),
        ("trigonometric", ["2", "2"], "1"),
    ], ids=["rational", "rational-h-part", "trigonometric"])
    def test_equal_base_points_are_config_error(
        self, tmp_path, capsys, family, points, factor
    ):
        # a shared h^0 part used to put every check in error with a pole
        # of R at the difference (w = 0, or w = 1 multiplicatively)
        cfg = write_cfg(
            tmp_path, "equal.json", family=family, suite="qkz",
            instances=[{
                "points": points,
                "words": [{"factors": [factor]} for _ in points],
            }],
        )
        assert run(["--config", cfg]) == EXIT_CONFIG
        assert "distinct h^0 parts" in capsys.readouterr().err

    @pytest.mark.parametrize("points, factor, k", [
        (["0", "1/0"], "0", "1"),
        (["0", "1"], "0", "3/0"),
        (["0", "1"], "2/0", "1"),
    ], ids=["point", "K", "word-factor"])
    def test_zero_denominator_is_config_error(
        self, tmp_path, capsys, points, factor, k
    ):
        # used to exit 1 with an uncaught ZeroDivisionError traceback
        cfg = write_cfg(
            tmp_path, "zero-den.json", suite="qkz",
            instances=[{
                "points": points,
                "words": [{"factors": [factor]} for _ in points],
                "K": k,
            }],
        )
        assert run(["--config", cfg]) == EXIT_CONFIG
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, instance", [
        ({"N": 2.7}, None),
        ({"N": None}, None),
        ({"D": 1.9}, None),
        ({"D": True}, None),
        ({"suite": 1}, None),
        ({"instances": {}}, None),
        ({}, {"points": "01", "words": [{"factors": ["0"]}] * 2}),
        ({}, {"points": [0, 1], "words": [{"factors": ["0"]}] * 2}),
        ({}, {"points": ["0", "1"], "words": [{"factors": "12"}] * 2}),
        ({}, {"points": ["0", "1"], "words": [{"factors": ["0"]}] * 2, "K": 1}),
    ], ids=["float-N", "null-N", "float-D", "bool-D", "int-suite",
            "object-instances", "string-points", "int-point", "string-factors",
            "int-K"])
    def test_wrong_json_type_is_config_error(
        self, tmp_path, capsys, overrides, instance
    ):
        # each used to crash with an AttributeError traceback, to run
        # something other than what was written, or to truncate silently
        if instance is not None:
            overrides = {"suite": "qkz", "instances": [instance]}
        cfg = write_cfg(tmp_path, "typed.json", **overrides)
        assert run(["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


class TestNormalizationFailure:
    """A normalization that fails is an internal error (exit 3); a bad
    config read after a normalization that worked is still exit 2."""

    def test_lift_failure_is_internal_error(self, tmp_path, capsys, monkeypatch):
        # used to print "config error: ..." and exit 2.  R + h^2 E: the
        # determinant check fails at h-grade 2 and says so
        monkeypatch.setattr(
            cli, "family_from_descriptor",
            lambda d: planted(build_rational(d["N"], d["D"]), 2),
        )
        cfg = write_cfg(tmp_path, "lift.json", suite="normalize")
        assert run(["--config", cfg]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("internal error: LiftFailure(")
        assert "the antisymmetrizer is not an eigenvector at h-grade 2" in err

    def test_rescaling_failure_is_internal_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            qdet.NormalizedFamily, "normalized_rho",
            lambda self: Scalar.zero(self.D, self.mode),
        )
        cfg = write_cfg(tmp_path, "rho.json", suite="normalize")
        assert run(["--config", cfg]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("internal error:")
        assert "rescaled determinant scalar is not 1" in err

    def test_bad_instance_after_normalization_is_config_error(
        self, tmp_path, capsys
    ):
        # the instance is decoded against the normalized family, which is
        # computed (and cached) first
        cfg = write_cfg(tmp_path, "inst.json", suite="qkz", instances=[
            {"points": ["0", "0"], "words": [{"factors": ["0"]}] * 2},
        ])
        assert run(["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "distinct h^0 parts" in err
        assert len(list(cache_dir().glob("*.json"))) == 1


class TestReports:
    def test_report_schema(self, tmp_path):
        cfg = write_cfg(tmp_path, "ok.json")
        out_path = tmp_path / "report.json"
        assert run(["--config", cfg, "--out", str(out_path)]) == EXIT_OK
        report = json.loads(out_path.read_text())
        assert report["passed"] is True
        assert report["environment"]["D"] == 2
        for c in report["checks"]:
            assert set(c) >= {
                "name", "identity", "status", "first_failing_grade",
                "wall_time_ms",
            }

    def test_overrides_match_config_values(self, tmp_path):
        # --suite and --d-override give the report of a config that names
        # the same values
        given = write_cfg(tmp_path, "given.json", suite="crossing", D=3)
        other = write_cfg(tmp_path, "other.json", suite="qybe")
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["--config", given, "--out", str(a_path)]) == EXIT_OK
        assert run([
            "--config", other, "--suite", "crossing", "--d-override", "3",
            "--out", str(b_path),
        ]) == EXIT_OK
        a = json.loads(a_path.read_text())
        b = json.loads(b_path.read_text())
        assert strip_timing(a) == strip_timing(b)
        del a["config"]["out"], b["config"]["out"]
        assert a["config"] == b["config"] and a["environment"] == b["environment"]

    def test_suite_and_d_override(self, tmp_path):
        cfg = write_cfg(tmp_path, "ok.json", suite="qybe")
        out_path = tmp_path / "report.json"
        code = run([
            "--config", cfg, "--suite", "crossing",
            "--d-override", "3", "--out", str(out_path),
        ])
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        assert report["environment"]["D"] == 3
        assert report["config"]["suite"] == "crossing"
        names = [c["name"] for c in report["checks"]]
        assert "crossing" in names and not any(
            n.startswith("qybe") for n in names
        )

    def test_explicit_instance_config(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "inst.json", suite="qkz",
            instances=[{
                "points": ["0", "1"],
                "words": [{"factors": ["0"]}, {"factors": ["0"]}],
                "K": "1",
            }],
        )
        assert run(["--config", cfg]) == EXIT_OK


class TestImportPath:
    def test_cli_loads_no_heavy_stdlib(self):
        # hashlib loads OpenSSL's libcrypto and dataclasses loads inspect;
        # a verdict needs neither, and each costs a CLI process milliseconds
        heavy = ["hashlib", "_hashlib", "dataclasses", "inspect"]
        code = (
            "import sys, qkzkit.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "[]"
