"""Golden reports: the CLI's full report, minus its timing fields, must stay
byte-identical to the committed one for two fixed configs.

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
