"""Golden reports: the CLI's full report, minus its timing fields, must stay
byte-identical to the committed one for each fixed config: suite `all` at
D=2, at D=4 for rational N=3 and trigonometric N=2 (grades 3 and 4 of the
three-leg, braid and intertwiner rows), and at D=6 for the same two
families (the certified rows at their largest degree bounds B_g, and, in
the multiplicative coordinate, past the skipped point 0); suite `crossing`
on the 16x16 rational N=4 operators and at the trigonometric D=6 (the
deepest h-adic inverse lift); suite `normalize` at D=4, whose pairing rows
reach grades 3 and 4; and suite `qkz` at D=4, whose connection operators
are evaluated over Q[[h]].

A refactor that changes any verdict, check name, identity text, config echo
or key order shows up here.  To regenerate after an intended change:
``python tests/test_golden.py`` rewrites the files in ``tests/golden/``.
"""

import json
import sys
from pathlib import Path

import pytest

from qkzkit.cli import EXIT_OK, run

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    "rational-N2-D2-all": {"family": "rational", "N": 2, "D": 2, "suite": "all"},
    "trigonometric-N2-D2-all": {
        "family": "trigonometric", "N": 2, "D": 2, "suite": "all",
    },
    "rational-N3-D4-all": {"family": "rational", "N": 3, "D": 4, "suite": "all"},
    "trigonometric-N2-D4-all": {
        "family": "trigonometric", "N": 2, "D": 4, "suite": "all",
    },
    "rational-N3-D6-all": {"family": "rational", "N": 3, "D": 6, "suite": "all"},
    "trigonometric-N2-D6-all": {
        "family": "trigonometric", "N": 2, "D": 6, "suite": "all",
    },
    "rational-N4-D4-crossing": {
        "family": "rational", "N": 4, "D": 4, "suite": "crossing",
    },
    "trigonometric-N2-D6-crossing": {
        "family": "trigonometric", "N": 2, "D": 6, "suite": "crossing",
    },
    "rational-N3-D4-normalize": {
        "family": "rational", "N": 3, "D": 4, "suite": "normalize",
    },
    "trigonometric-N2-D4-normalize": {
        "family": "trigonometric", "N": 2, "D": 4, "suite": "normalize",
    },
    "rational-N2-D4-qkz": {
        "family": "rational", "N": 2, "D": 4, "suite": "qkz",
        "instances": [{
            "points": ["2", "3", "9/2", "13/2", "9"],
            "words": [{"factors": ["0"]} for _ in range(5)],
            "K": "1",
        }],
    },
    "trigonometric-N2-D4-qkz": {
        "family": "trigonometric", "N": 2, "D": 4, "suite": "qkz",
        "instances": [{
            "points": ["2", "3", "5"],
            "words": [{"factors": ["1"]} for _ in range(3)],
        }],
    },
}


def deterministic_report(config: dict, workdir: Path) -> str:
    """Run the CLI on config and return its report as indented JSON text,
    without wall_time_ms and without the echoed output path."""
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_path = workdir / "report.json"
    code = run(["--config", str(cfg_path), "--out", str(out_path)])
    report = json.loads(out_path.read_text())
    for c in report["checks"]:
        del c["wall_time_ms"]
    del report["config"]["out"]
    return json.dumps({"exit_code": code, "report": report}, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, tmp_path):
    got = deterministic_report(CONFIGS[name], tmp_path)
    assert json.loads(got)["exit_code"] == EXIT_OK
    assert got == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    import os
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, config in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.environ["QKZ_CACHE_DIR"] = str(Path(tmp) / "cache")
            (GOLDEN / f"{name}.json").write_text(
                deterministic_report(config, Path(tmp))
            )
        print(f"wrote {name}", file=sys.stderr)
