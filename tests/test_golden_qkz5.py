"""Golden reports of the five-point qkz workload: rational N=2, D=4, base
points 2, 3, 9/2, 13/2 and 9, one unit word each, K=1.

The plain config is pinned as ``rational-N2-D4-qkz`` in test_golden.py and
exits 0.  With fault drop-step-shift its flatness row fails at grade 2 and
the run exits 1; every other row stays exact-zero.  Both reports, minus
their timing fields, must stay byte-identical to the committed ones.  To
regenerate after an intended change: ``python tests/test_golden_qkz5.py``
rewrites the fault file in ``tests/golden/``.
"""

import json
import sys
from pathlib import Path

import pytest

from qkzkit.cli import EXIT_CHECK_FAILED, EXIT_OK
from test_golden import CONFIGS, GOLDEN, deterministic_report

PLAIN = "rational-N2-D4-qkz"
FAULT = "rational-N2-D4-qkz-drop-step-shift"
QKZ5 = {
    PLAIN: (CONFIGS[PLAIN], EXIT_OK),
    FAULT: (dict(CONFIGS[PLAIN], fault="drop-step-shift"), EXIT_CHECK_FAILED),
}


@pytest.mark.parametrize("name", sorted(QKZ5))
def test_five_point_report_matches_golden(name, tmp_path):
    config, code = QKZ5[name]
    got = deterministic_report(config, tmp_path)
    assert json.loads(got)["exit_code"] == code
    assert got == (GOLDEN / f"{name}.json").read_text()


def test_only_the_flatness_row_fails_under_the_fault():
    report = json.loads((GOLDEN / f"{FAULT}.json").read_text())["report"]
    failing = {c["name"]: c["status"] for c in report["checks"]
               if c["status"] != "exact-zero"}
    assert failing == {"inst0.flatness": "fails-at-grade-2"}
    assert len(report["checks"]) == 8


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["QKZ_CACHE_DIR"] = str(Path(tmp) / "cache")
        (GOLDEN / f"{FAULT}.json").write_text(
            deterministic_report(QKZ5[FAULT][0], Path(tmp))
        )
    print(f"wrote {FAULT}", file=sys.stderr)
