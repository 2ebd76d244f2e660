"""Operators with HSeries entries, kept as the oracle of the evaluated
LegMatrix (one integer denominator over tuples of grade numerators).

An oracle operator is a dict {(row, col): HSeries} with zeros omitted, on a
LegShape.  product is the shared-entry product that operators evaluated at
a point ran before they moved to integer entries: each distinct entry
product and each distinct entry sum once, keyed by object identity, every
HSeries operation normalized by a gcd.  inverse is the unit-pivot
Gauss-Jordan elimination of [m | Id] over HSeries or Scalar entries, the
reference for LegMatrix.inv in both forms.  view reads an evaluated
LegMatrix back as such a dict.
"""

from qkzkit.errors import SingularMatrix
from qkzkit.hseries import HSeries
from qkzkit.tensor import Elimination, LegShape


def view(m) -> dict:
    """The entries of the evaluated LegMatrix m as HSeries."""
    assert m.den is not None and m.den > 0
    return {(r, c): m.get(r, c) for (r, c) in m.entries}


def product(a: dict, b: dict) -> dict:
    rows_b: dict = {}
    for (k, c), v in b.items():
        rows_b.setdefault(k, []).append((c, v))
    terms: dict = {}
    for (r, k), x in a.items():
        for c, y in rows_b.get(k, ()):
            terms.setdefault((r, c), []).extend((x, y))
    prods, sums, out = {}, {}, {}
    for key, ts in terms.items():
        ids = tuple(map(id, ts))
        if ids not in sums:
            s = None
            for i in range(0, len(ts), 2):
                p = prods.get(ids[i : i + 2])
                if p is None:
                    p = prods[ids[i : i + 2]] = ts[i] * ts[i + 1]
                s = p if s is None else s + p
            sums[ids] = None if s.is_zero else s
        if sums[ids] is not None:
            out[key] = sums[ids]
    return out


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = v if k not in out else out[k] + v
    return {k: v for k, v in out.items() if not v.is_zero}


def neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def embed(a: dict, small: LegShape, target: LegShape, legs) -> dict:
    """a on the named 1-based legs of target, by multi-index placement."""
    rest = [i for i in range(len(target.dims)) if i + 1 not in legs]
    out = {}
    for r in range(target.total):
        for c in range(target.total):
            rm, cm = target.unravel(r), target.unravel(c)
            if any(rm[i] != cm[i] for i in rest):
                continue
            v = a.get((
                small.ravel([rm[l - 1] for l in legs]),
                small.ravel([cm[l - 1] for l in legs]),
            ))
            if v is not None:
                out[(r, c)] = v
    return out


def grade_matrix(a: dict, m: int) -> dict:
    out = {k: HSeries([v.coeffs[m]] + [0] * (len(v.n) - 1)) for k, v in a.items()}
    return {k: v for k, v in out.items() if not v.is_zero}


def first_nonzero_grade(a: dict):
    return min((v.first_nonzero_grade() for v in a.values()), default=None)


def inverse(a: dict, n: int, one) -> dict:
    """Gauss-Jordan elimination of [a | Id] with unit pivots over the ring of
    one, HSeries or Scalar; raises SingularMatrix naming the first column
    with no unit pivot."""
    rows = [{n + r: one} for r in range(n)]
    for (r, c), v in a.items():
        rows[r][c] = v
    e = Elimination(rows, n)
    if len(e.pivots) < n:
        col = min(set(range(n)) - {c for c, _ in e.pivots})
        raise SingularMatrix(f"no unit pivot in column {col}")
    out = {}
    for c, p in e.pivots:
        for k, v in e.rows[p].items():
            if k >= n:
                out[(c, k - n)] = v
    return out
