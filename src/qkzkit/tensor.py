"""Multi-leg linear algebra over the scalar ring.

A LegMatrix is a square operator on a tensor product of finite-dimensional
spaces.  Entries are Scalars (k(w)[[h]]) or, for an operator evaluated at
a point, HSeries (Q[[h]]); they are stored sparsely as {(row, col): entry}
with zeros omitted, and zero and one are taken from the entry ring.  A
product of the two kinds is over k(w)[[h]].  A product computes each
distinct entry product and each distinct entry sum once; equal term
sequences share one entry object.  Row/column indices enumerate
multi-indices in row-major leg order.  Legs are 1-based.

certified_grade decides the first failing grade of a product identity
exactly from the identity evaluated at a few points of the curve.
"""

from __future__ import annotations

from itertools import count

from .errors import ShapeMismatch, SingularMatrix
from .ratfn import P_ONE, RF_ONE, RF_ZERO, pdeg, peval, plcm, pmul
from .scalar import ADDITIVE, Point, Scalar


def least_grade(grades) -> int | None:
    """The least grade that is not None, or None when there is none: the
    first failing grade of an identity checked in several parts."""
    return min((g for g in grades if g is not None), default=None)


class LegShape:
    __slots__ = ("dims", "total", "strides")

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d <= 0 for d in dims):
            raise ShapeMismatch(f"bad leg dims {dims}")
        self.dims = dims
        strides = [1] * len(dims)
        for i in range(len(dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        self.strides = tuple(strides)
        self.total = strides[0] * dims[0]

    def unravel(self, flat: int):
        return tuple((flat // s) % d for s, d in zip(self.strides, self.dims))

    def ravel(self, multi) -> int:
        return sum(i * s for i, s in zip(multi, self.strides))

    def __eq__(self, other):
        return isinstance(other, LegShape) and self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __repr__(self):
        return f"LegShape({list(self.dims)})"


class LegMatrix:
    __slots__ = ("shape", "entries", "D", "mode")

    def __init__(self, shape: LegShape, entries: dict, D: int, mode: str = ADDITIVE):
        self.shape = shape
        self.entries = {k: v for k, v in entries.items() if not v.is_zero}
        self.D = D
        self.mode = mode

    # -- constructors -------------------------------------------------
    @staticmethod
    def identity(
        shape: LegShape, D: int, mode: str = ADDITIVE, one=None
    ) -> "LegMatrix":
        """Id on shape; one is the unit of the entry ring (Scalar by
        default)."""
        one = Scalar.one(D, mode) if one is None else one
        return LegMatrix(shape, {(i, i): one for i in range(shape.total)}, D, mode)

    @staticmethod
    def product(factors, shape: LegShape, D: int, mode: str = ADDITIVE) -> "LegMatrix":
        """The ordered product of factors, started from the first one; Id
        on shape when there are none."""
        out = None
        for f in factors:
            out = f if out is None else out * f
        return LegMatrix.identity(shape, D, mode) if out is None else out

    @staticmethod
    def _nonzero(shape: LegShape, entries: dict, D: int, mode: str) -> "LegMatrix":
        """A LegMatrix over entries already known to be nonzero."""
        m = LegMatrix.__new__(LegMatrix)
        m.shape, m.entries, m.D, m.mode = shape, entries, D, mode
        return m

    @staticmethod
    def zero(shape: LegShape, D: int, mode: str = ADDITIVE) -> "LegMatrix":
        return LegMatrix(shape, {}, D, mode)

    @staticmethod
    def from_leg_permutation(
        shape: LegShape, perm, D: int, mode: str = ADDITIVE, one=None
    ) -> "LegMatrix":
        """Operator sending e_{i_1} x...x e_{i_k} to the legs reordered by perm.

        perm is 0-based: output leg p receives input leg perm[p]; one is the
        unit of the entry ring (Scalar by default).
        """
        one = Scalar.one(D, mode) if one is None else one
        out_dims = tuple(shape.dims[p] for p in perm)
        out_shape = LegShape(out_dims)
        entries = {}
        for col in range(shape.total):
            multi = shape.unravel(col)
            entries[(out_shape.ravel([multi[p] for p in perm]), col)] = one
        return LegMatrix(out_shape, entries, D, mode)

    # -- helpers ------------------------------------------------------
    def _check(self, other: "LegMatrix"):
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        if self.D != other.D or self.mode != other.mode:
            raise ShapeMismatch("mixed truncation or mode")

    def constant(self, c):
        """The constant c in the entry ring (Scalar when there are no
        entries)."""
        for v in self.entries.values():
            return v.like(c)
        return Scalar.const(c, self.D, self.mode)

    def get(self, r: int, c: int):
        s = self.entries.get((r, c))
        return s if s is not None else self.constant(0)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def first_nonzero_grade(self) -> int | None:
        return least_grade(s.first_nonzero_grade() for s in self.entries.values())

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "LegMatrix") -> "LegMatrix":
        self._check(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return LegMatrix(self.shape, out, self.D, self.mode)

    def __neg__(self) -> "LegMatrix":
        return LegMatrix(
            self.shape, {k: -v for k, v in self.entries.items()}, self.D, self.mode
        )

    def __sub__(self, other: "LegMatrix") -> "LegMatrix":
        return self + (-other)

    def __mul__(self, other: "LegMatrix") -> "LegMatrix":
        """Entry products are keyed by the object pair of their factors and
        entry sums by the object sequence of their terms, each computed once."""
        self._check(other)
        rows_b: dict = {}
        for (k, c), v in other.entries.items():
            rows_b.setdefault(k, []).append((c, v))
        terms: dict = {}  # (r, c) -> [a1, b1, a2, b2, ...]
        for (r, k), a in self.entries.items():
            for c, b in rows_b.get(k, ()):
                terms.setdefault((r, c), []).extend((a, b))
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
        return LegMatrix._nonzero(self.shape, out, self.D, self.mode)

    def mul_scalar(self, s: Scalar) -> "LegMatrix":
        return LegMatrix(
            self.shape, {k: v * s for k, v in self.entries.items()}, self.D, self.mode
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LegMatrix) or self.shape != other.shape:
            return False
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError("LegMatrix is unhashable")

    # -- leg surgery --------------------------------------------------
    def embed(self, target: LegShape, legs) -> "LegMatrix":
        """Act with self on the named 1-based legs of target, identity elsewhere.

        The order of `legs` defines the correspondence with self's legs, so
        transposed placements like (2, 1) are supported.
        """
        legs = tuple(legs)
        if len(set(legs)) != len(legs):
            raise ShapeMismatch(f"repeated leg in {legs}")
        if len(legs) != len(self.shape.dims):
            raise ShapeMismatch("leg count mismatch")
        for mine, l in enumerate(legs):
            if not 1 <= l <= len(target.dims):
                raise ShapeMismatch(f"leg {l} outside target")
            if target.dims[l - 1] != self.shape.dims[mine]:
                raise ShapeMismatch(
                    f"dim of leg {l} is {target.dims[l - 1]}, "
                    f"operator leg has {self.shape.dims[mine]}"
                )
        offsets = [0]  # the flat offset of each setting of the other legs
        for i, (s, d) in enumerate(zip(target.strides, target.dims)):
            if i + 1 not in legs:
                offsets = [o + k * s for o in offsets for k in range(d)]
        place = [
            sum(m * target.strides[l - 1] for m, l in zip(self.shape.unravel(i), legs))
            for i in range(self.shape.total)
        ]
        out: dict = {}
        for (r, c), v in self.entries.items():
            pr, pc = place[r], place[c]
            for o in offsets:
                out[(pr + o, pc + o)] = v
        return LegMatrix._nonzero(target, out, self.D, self.mode)

    def partial_transpose(self, leg: int) -> "LegMatrix":
        """Transpose in the named 1-based leg only."""
        if not 1 <= leg <= len(self.shape.dims):
            raise ShapeMismatch(f"no leg {leg}")
        s, d = self.shape.strides[leg - 1], self.shape.dims[leg - 1]
        out = {}
        for (r, c), v in self.entries.items():
            t = ((c // s) % d - (r // s) % d) * s  # swap the two leg digits
            out[(r + t, c - t)] = v
        return LegMatrix._nonzero(self.shape, out, self.D, self.mode)

    # -- inversion ----------------------------------------------------
    def inv(self) -> "LegMatrix":
        """Exact inverse by Gauss-Jordan elimination with unit pivots.

        Eliminates the sparse augmented rows [self | Id]; the identity
        columns ride along and the inverse is read from the pivot rows.
        Raises SingularMatrix naming the first column with no unit pivot.
        """
        n = self.shape.total
        one = self.constant(1)
        rows = [{n + r: one} for r in range(n)]
        for (r, c), v in self.entries.items():
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
        return LegMatrix(self.shape, out, self.D, self.mode)

    def theta(self) -> "LegMatrix":
        """(X^{-1}) transposed in leg 1."""
        return self.inv().partial_transpose(1)

    # -- grades -------------------------------------------------------
    def grade(self, m: int):
        """Dense m-th h-grade as rows of RatFn."""
        n = self.shape.total
        out = [[RF_ZERO] * n for _ in range(n)]
        for (r, c), v in self.entries.items():
            out[r][c] = v.grades[m]
        return out

    def grade_matrix(self, m: int) -> "LegMatrix":
        """The m-th h-grade as a LegMatrix concentrated in grade 0."""
        out = {k: v.grade_part(m) for k, v in self.entries.items()}
        return LegMatrix(self.shape, out, self.D, self.mode)

    # -- entrywise maps -----------------------------------------------
    def map_entries(self, fn) -> "LegMatrix":
        """fn applied entrywise, once per distinct entry value."""
        memo: dict = {}
        out = {}
        for k, v in self.entries.items():
            y = memo.get(v)
            if y is None:
                y = memo[v] = fn(v)
            out[k] = y
        return LegMatrix(self.shape, out, self.D, self.mode)

    def apply(self, vec):
        """Matrix-vector product; vec is a list of Scalars or HSeries."""
        zero = self.constant(0)
        out = [zero] * self.shape.total
        for (r, c), v in self.entries.items():
            if not vec[c].is_zero:
                out[r] = out[r] + v * vec[c]
        return out

    def apply_grade(self, m: int, vec) -> list:
        """The m-th h-grade applied to a vector of RatFns, visiting only
        the nonzero entries."""
        out = [RF_ZERO] * self.shape.total
        for (r, c), v in self.entries.items():
            x, y = v.grades[m], vec[c]
            if x and y:
                out[r] = out[r] + x * y
        return out

    def __repr__(self):
        return f"LegMatrix({self.shape!r}, nnz={len(self.entries)})"


# -- exact elimination: over the RatFn field, and over Scalar by units --

class Elimination:
    """Sparse Gauss-Jordan elimination that records its row operations.

    Entries are RatFns (a field).  The elimination itself also runs on
    Scalars and HSeries (local rings, where only a unit can pivot), which is
    what LegMatrix.inv uses; solve() and kernel() are for RatFn entries only.
    rows are sparse ({col: entry}, zeros omitted) and are reduced in place
    to reduced row echelon form in their first ncols columns; entries at
    columns >= ncols ride along but are never pivoted on.  Columns are taken left to right; a column pivots on the
    lowest-index remaining row whose entry is a unit and is skipped when
    there is none, so over RatFn the pivot columns, the reduced pivot rows
    and the solutions are those of the dense textbook algorithm; only the
    nonzero entries of a pivot row are touched.

    Step k is recorded as (pivot row, inverse lead, [(row, factor), ...]):
    scale the pivot row by the inverse lead, then subtract factor times it
    from each listed row.  solve() replays the same steps on a right-hand
    side, so one elimination serves every right-hand side.
    """

    def __init__(self, rows, ncols: int):
        self.rows = rows
        self.ncols = ncols
        self.pivots = []  # (column, row) per step
        self.steps = []
        where: dict = {}  # column -> rows with a nonzero entry there
        for i, row in enumerate(rows):
            for c in row:
                where.setdefault(c, set()).add(i)
        done = set()
        for c in range(ncols):
            cands = where.get(c, ())
            p = min(
                (i for i in cands if i not in done and rows[i][c].is_unit),
                default=None,
            )
            if p is None:
                continue
            inv = rows[p][c].inv()
            prow = {k: v * inv for k, v in rows[p].items()}
            rows[p] = prow
            elims = []
            for t in sorted(where[c] - {p}):
                trow = rows[t]
                f = trow.pop(c)
                for k, v in prow.items():
                    if k == c:
                        continue
                    x = trow.get(k)
                    x = -(f * v) if x is None else x - f * v
                    if x:
                        trow[k] = x
                        where.setdefault(k, set()).add(t)
                    elif trow.pop(k, None) is not None:
                        where[k].discard(t)
                elims.append((t, f))
            where[c] = {p}
            done.add(p)
            self.pivots.append((c, p))
            self.steps.append((p, inv, elims))

    def solve(self, rhs):
        """The solution of rows @ x = rhs (one rhs entry per row) with every
        free variable 0, or None when a non-pivot row of the replayed rhs
        is nonzero."""
        b = list(rhs)
        for p, inv, elims in self.steps:
            v = b[p]
            if not v:
                continue
            v = v * inv
            b[p] = v
            for t, f in elims:
                b[t] = b[t] - f * v
        pivot_rows = {p for _, p in self.pivots}
        if any(x for i, x in enumerate(b) if i not in pivot_rows):
            return None
        x = [RF_ZERO] * self.ncols
        for c, p in self.pivots:
            x[c] = b[p]
        return x

    def kernel(self):
        """Kernel basis, one vector per free column (1 there, 0 at the
        other free columns)."""
        pivot_cols = {c for c, _ in self.pivots}
        basis = []
        for f in range(self.ncols):
            if f in pivot_cols:
                continue
            v = [RF_ZERO] * self.ncols
            v[f] = RF_ONE
            for c, p in self.pivots:
                v[c] = -self.rows[p].get(f, RF_ZERO)
            basis.append(v)
        return basis


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def rref(rows, ncols: int):
    """Reduced row echelon form in place; returns pivot column list."""
    width = len(rows[0]) if rows else 0
    e = Elimination(_sparse(rows), ncols)
    order = [p for _, p in e.pivots]
    used = set(order)
    order += [i for i in range(len(rows)) if i not in used]
    rows[:] = [[e.rows[i].get(c, RF_ZERO) for c in range(width)] for i in order]
    return [c for c, _ in e.pivots]


def kernel_basis(matrix, ncols: int):
    """Kernel basis of a dense RatFn matrix over the RatFn field."""
    return Elimination(_sparse(matrix), ncols).kernel()


def solve_linear(matrix, b):
    """One solution x of matrix @ x = b over the RatFn field, or None."""
    ncols = len(matrix[0]) if matrix else 0
    return Elimination(_sparse(matrix), ncols).solve(b)


# -- certified evaluation: a product identity decided at a few points ----

def _entries(factor):
    """The distinct entries of a factor: a LegMatrix or a dict of Scalars."""
    if isinstance(factor, LegMatrix):
        factor = factor.entries
    return {id(v): v for v in factor.values()}.values()


def _at(factor, p: Point):
    """factor with every entry evaluated at the point p."""
    if isinstance(factor, LegMatrix):
        return factor.map_entries(lambda s: s.eval(p))
    return {k: v.eval(p) for k, v in factor.items()}


def degree_bounds(factors, D: int) -> list:
    """(Lambda_g, B_g) for each grade g <= D, or None where nothing reaches
    grade g.

    For any Q-linear combination of products that take at most one entry
    from each factor (a skipped factor counts as the constant 1 at grade 0),
    Lambda_g times the grade-g part is a polynomial in w of degree at most
    B_g.  Per factor and grade m, den is the lcm of the entry denominators
    (their primitive int parts, so Lambda_g is a primitive int polynomial)
    and delta the largest deg num - deg den; Lambda_g is the lcm over the
    grade compositions of g of the products of dens, which runs factor by
    factor since lcm(a x, a y) = a lcm(x, y), and B_g is deg Lambda_g plus
    the largest sum of deltas over the same compositions.
    """
    reach = {0: (P_ONE, 0)}
    for f in factors:
        opts = {0: (P_ONE, 0)}  # the factor skipped
        for s in _entries(f):
            for m, r in enumerate(s.grades):
                if r:
                    d = pdeg(r.n) - pdeg(r.d)
                    if m in opts:
                        den, delta = opts[m]
                        opts[m] = (plcm(den, r.d), max(delta, d))
                    else:
                        opts[m] = (r.d, d)
        nxt: dict = {}
        for g0, (lam0, d0) in reach.items():
            for m, (den, delta) in opts.items():
                g = g0 + m
                if g > D:
                    continue
                lam, d = pmul(lam0, den), d0 + delta
                if g in nxt:
                    lam = plcm(nxt[g][0], lam)
                    d = max(nxt[g][1], d)
                nxt[g] = (lam, d)
        reach = nxt
    return [
        (reach[g][0], pdeg(reach[g][0]) + reach[g][1]) if g in reach else None
        for g in range(D + 1)
    ]


def _small_integers():
    yield 0
    for k in count(1):
        yield k
        yield -k


def certified_grade(factors, residual, D: int, mode: str = ADDITIVE) -> int | None:
    """residual(factors).first_nonzero_grade(), decided at a few points.

    factors are LegMatrices or dicts of Scalars; residual maps them, or
    the same factors evaluated at a point (HSeries entries), to a LegMatrix
    whose grade-g entries are Q-linear combinations of products taking at
    most one entry from each factor.  Evaluation at a point that is no
    pole commutes with the ring operations, and Lambda_g times the grade-g
    residual is a polynomial of degree at most B_g (degree_bounds), so
    grade g is zero once B_g + 1 points read zero there; a nonzero reading
    is exact.  The points are the small integers that are no root of a
    denominator (and not 0 in the multiplicative coordinate), taken until
    every grade below the least failing one seen has its B_g + 1 points.
    """
    bounds = degree_bounds(factors, D)
    lams = [b[0] for b in bounds if b is not None]
    need = [0 if b is None else b[1] + 1 for b in bounds]
    best, used = None, 0
    for x in _small_integers():
        if used >= max(need[:best], default=0):
            break
        if (mode != ADDITIVE and x == 0) or any(peval(lam, x) == 0 for lam in lams):
            continue
        p = Point.of(x, D, mode)
        grade = residual([_at(f, p) for f in factors]).first_nonzero_grade()
        best = least_grade([best, grade])
        used += 1
    return best
