"""Golden report of a failing config: rational N=2 D=2 suite qkz with the
flatness fault drop-step-shift must exit 1 with a report byte-identical to
the committed one, minus its timing fields.

A refactor of the verdict protocol that changes a failing grade, a status,
a check name or the exit code of a failing run shows up here.  To
regenerate after an intended change: ``python tests/test_golden_fault.py``
rewrites the file in ``tests/golden/``.
"""

import json
import sys
from pathlib import Path

from qkzkit.cli import EXIT_CHECK_FAILED
from test_golden import GOLDEN, deterministic_report

NAME = "rational-N2-D2-qkz-drop-step-shift"
CONFIG = {
    "family": "rational", "N": 2, "D": 2, "suite": "qkz",
    "fault": "drop-step-shift",
}


def test_failing_report_matches_golden(tmp_path):
    got = deterministic_report(CONFIG, tmp_path)
    assert json.loads(got)["exit_code"] == EXIT_CHECK_FAILED
    assert got == (GOLDEN / f"{NAME}.json").read_text()


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["QKZ_CACHE_DIR"] = str(Path(tmp) / "cache")
        (GOLDEN / f"{NAME}.json").write_text(
            deterministic_report(CONFIG, Path(tmp))
        )
    print(f"wrote {NAME}", file=sys.stderr)
