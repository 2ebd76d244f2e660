"""Golden normalization data: f0, rho, the determinant eigenvalue and the
antisymmetrizer's coefficients must stay identical to the committed files,
written in the cache's exact text format.  The cases are rational N=3, N=4
and N=5 and trigonometric N=2 at D=4, and small and large D: rational N=2
at D=1, rational N=3 at D=2 and trigonometric N=2 at D=6.

The normalization's one output is f0 (normalize(F).f0), and a cache entry
holds only the descriptor and f0.  These files keep the fuller layout that
earlier cache entries had, so the loader's reading of such entries has a
fixture; the test rebuilds it from four sources: f0, rho from
compute_rho(F), the eigenvalue from find_qdet_vector(F) and the
coefficients from antisymmetrizer(N, D, mode).  A change to the per-grade
antisymmetrizer check, to rho or to f0 that alters any of these shows up
here.  To regenerate after an intended change:
``python tests/test_golden_normalize.py`` rewrites the files in
``tests/golden/``.
"""

import json
import sys
from pathlib import Path

import pytest

from qkzkit.families import build_rational, build_trigonometric
from qkzkit.qdet import antisymmetrizer, compute_rho, find_qdet_vector, normalize
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


def normalization_text(F) -> str:
    """The normalization data of F as indented JSON, laid out like the
    payload of a cache entry before it held f0 alone."""
    data = {
        "descriptor": F.descriptor(),
        "f0": scalar_to_list(normalize(F).f0),
        "rho": scalar_to_list(compute_rho(F)),
        "eigenvalue": scalar_to_list(find_qdet_vector(F)),
        "coeffs": {
            ",".join(str(i) for i in idx): scalar_to_list(c)
            for idx, c in sorted(antisymmetrizer(F.N, F.D, F.mode).items())
        },
    }
    return json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_normalization_matches_golden(name):
    text = normalization_text(CASES[name]())
    assert text == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, build in CASES.items():
        text = normalization_text(build())
        (GOLDEN / f"{name}.json").write_text(text)
        print(f"wrote {name}", file=sys.stderr)
