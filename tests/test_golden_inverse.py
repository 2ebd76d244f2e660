"""Golden inverses: LegMatrix.inv on a fixed list of sparse matrices must
give the committed inverse, in the serialize text format, or raise
SingularMatrix with the committed message.

The matrices are seeded: entries are zero or (a + b w) / (c + w)-shaped
rational functions at several h-grades, in both coordinate modes, and some
have no unit pivot in a column.  Each file record keeps the matrix itself,
so the test does not depend on the generator.  To regenerate after an
intended change: ``python tests/test_golden_inverse.py`` rewrites
``tests/golden/inverse.json``.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qkzkit.errors import SingularMatrix
from qkzkit.ratfn import RF_ZERO, RatFn
from qkzkit.scalar import ADDITIVE, MULTIPLICATIVE, Scalar
from qkzkit.serialize import list_to_scalar, scalar_to_list
from qkzkit.tensor import LegMatrix, LegShape

GOLDEN = Path(__file__).parent / "golden" / "inverse.json"
SEED = 0
COUNT = 40


def _ratfn(rng) -> RatFn:
    a, b, c = (Fraction(rng.randint(-3, 3)) for _ in range(3))
    shape = rng.randrange(3)
    if shape == 0:
        return RatFn.from_fraction(a or 1)
    if shape == 1:
        return RatFn((a, b or Fraction(1)))
    return RatFn((a, b), (c, Fraction(1))) or RatFn.from_fraction(1)


def _entry(rng, D: int, mode: str) -> Scalar:
    grades = [RF_ZERO] * (D + 1)
    for m in range(D + 1):
        if rng.random() < (0.8 if m == 0 else 0.5):
            grades[m] = _ratfn(rng)
    if not any(grades):
        grades[D] = _ratfn(rng)
    return Scalar(grades, mode)


def random_matrices(seed: int = SEED, count: int = COUNT):
    """count sparse LegMatrices from one seeded generator."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        mode = (ADDITIVE, MULTIPLICATIVE)[k % 2]
        shape = LegShape(rng.choice([[2], [3], [2, 2]]))
        D = rng.randint(0, 3)
        entries = {
            (r, c): _entry(rng, D, mode)
            for r in range(shape.total)
            for c in range(shape.total)
            if rng.random() < 0.6
        }
        out.append(LegMatrix(shape, entries, D, mode))
    return out


def legmatrix_to_dict(m: LegMatrix) -> dict:
    """m as {dims, mode, D, entries}, each entry a Scalar's grade strings."""
    return {
        "dims": list(m.shape.dims),
        "mode": m.mode,
        "D": m.D,
        "entries": {
            f"{r},{c}": scalar_to_list(v)
            for (r, c), v in sorted(m.entries.items())
        },
    }


def dict_to_legmatrix(d: dict) -> LegMatrix:
    entries = {
        tuple(int(x) for x in key.split(",")): list_to_scalar(items, d["mode"])
        for key, items in d["entries"].items()
    }
    return LegMatrix(LegShape(d["dims"]), entries, int(d["D"]), d["mode"])


def inverse_record(m: LegMatrix) -> dict:
    rec = {"matrix": legmatrix_to_dict(m)}
    try:
        rec["inverse"] = legmatrix_to_dict(m.inv())
    except SingularMatrix as e:
        rec["singular"] = str(e)
    return rec


def _records():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("k", range(COUNT))
def test_inverse_matches_golden(k):
    rec = _records()[k]
    got = inverse_record(dict_to_legmatrix(rec["matrix"]))
    assert got == rec


def test_golden_mixes_invertible_and_singular():
    recs = _records()
    singular = [r["singular"] for r in recs if "singular" in r]
    assert 0 < len(singular) < len(recs)
    assert len(set(singular)) > 1  # fails at more than one column


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    recs = [inverse_record(m) for m in random_matrices()]
    GOLDEN.write_text(json.dumps(recs, indent=1) + "\n")
    print(f"wrote {GOLDEN.name}", file=sys.stderr)
