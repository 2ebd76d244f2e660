"""Golden normalization data: the determinant eigenvalue, its coefficient
vector, rho and f0 must stay identical to the committed files, written in
the cache's exact text format.  The cases are rational N=3, N=4 and N=5
and trigonometric N=2 at D=4, and small and large D: rational N=2 at D=1,
rational N=3 at D=2 and trigonometric N=2 at D=6.

A change to the per-grade antisymmetrizer check, to rho or to f0 that
alters any of these shows up here.  To regenerate after an intended change:
``python tests/test_golden_normalize.py`` rewrites the files in
``tests/golden/``.
"""

import json
import sys
from pathlib import Path

import pytest

from qkzkit.families import build_rational, build_trigonometric
from qkzkit.qdet import normalize
from qkzkit.serialize import scalar_to_list

GOLDEN = Path(__file__).parent / "golden"

#: golden file stem -> the family it normalizes
CASES = {
    "normalize-rational-N2-D1": lambda: build_rational(2, 1),
    "normalize-rational-N3-D2": lambda: build_rational(3, 2),
    "normalize-rational-N3-D4": lambda: build_rational(3, 4),
    "normalize-rational-N4-D4": lambda: build_rational(4, 4),
    "normalize-rational-N5-D4": lambda: build_rational(5, 4),
    "normalize-trigonometric-N2-D4": lambda: build_trigonometric(2, 4),
    "normalize-trigonometric-N2-D6": lambda: build_trigonometric(2, 6),
}


def normalization_text(nf) -> str:
    """The normalization data of nf as indented JSON, laid out like the
    payload of a cache entry."""
    qd = nf.qdet
    data = {
        "descriptor": nf.family.descriptor(),
        "f0": scalar_to_list(nf.f0),
        "rho": scalar_to_list(nf.rho),
        "eigenvalue": scalar_to_list(qd.eigenvalue),
        "coeffs": {
            ",".join(str(i) for i in idx): scalar_to_list(c)
            for idx, c in sorted(qd.coeffs.items())
        },
    }
    return json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_normalization_matches_golden(name):
    nf = normalize(CASES[name]())
    assert normalization_text(nf) == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, build in CASES.items():
        text = normalization_text(normalize(build()))
        (GOLDEN / f"{name}.json").write_text(text)
        print(f"wrote {name}", file=sys.stderr)
