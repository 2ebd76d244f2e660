"""The README's library example and its CLI config run as written, so they
cannot go stale."""

import re
from pathlib import Path

from qkzkit.cli import EXIT_OK, run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_config_example_runs(tmp_path):
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "run.json"
    path.write_text(block)
    assert run(["--config", str(path)]) == EXIT_OK
