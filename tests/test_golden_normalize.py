"""Golden normalization data: the determinant eigenvalue, its coefficient
vector, rho and f0 for rational N=3, rational N=4 and trigonometric N=2 at
D=4 must stay identical to the committed files, written in the cache's
exact text format.

A change to the elimination or to the grade lift that alters any of these
shows up here.  To regenerate after an intended change:
``python tests/test_golden_normalize.py`` rewrites the files in
``tests/golden/``.
"""

import json
import sys
from pathlib import Path

import pytest

from qkzkit.serialize import scalar_to_list

GOLDEN = Path(__file__).parent / "golden"

#: golden file stem -> conftest fixture of the normalized family
CASES = {
    "normalize-rational-N3-D4": "nf_rat3",
    "normalize-rational-N4-D4": "nf_rat4",
    "normalize-trigonometric-N2-D4": "nf_trig",
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
def test_normalization_matches_golden(name, request):
    nf = request.getfixturevalue(CASES[name])
    assert normalization_text(nf) == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    from qkzkit.families import build_rational, build_trigonometric
    from qkzkit.qdet import normalize

    families = {
        "normalize-rational-N3-D4": lambda: build_rational(3, 4),
        "normalize-rational-N4-D4": lambda: build_rational(4, 4),
        "normalize-trigonometric-N2-D4": lambda: build_trigonometric(2, 4),
    }
    GOLDEN.mkdir(exist_ok=True)
    for name, build in families.items():
        text = normalization_text(normalize(build()))
        (GOLDEN / f"{name}.json").write_text(text)
        print(f"wrote {name}", file=sys.stderr)
