"""Multi-leg linear algebra over the scalar ring.

A LegMatrix is a square operator on a tensor product of finite-dimensional
spaces, stored sparsely as {(row, col): entry} with zeros omitted.  A
symbolic operator has Scalar entries, in k(w)[[h]], and den None.  An
operator evaluated at a point, over Q[[h]], has one integer denominator
den > 0 for the whole operator, and each entry is a tuple of D+1 ints, the
numerators of its h-grades.  Evaluated products and sums therefore run no
gcd and build no object per term.  The ring operations take one form and
raise ShapeMismatch on a mix: symbolic() is the explicit lift into k(w)[[h]].
A product computes each distinct entry sum once; equal term sequences share
one entry object.  Both forms invert by one algorithm, a fraction-free
inverse of the h^0 grade lifted h-adically over sparse grade rows, once per
operator.  Indices enumerate multi-indices in row-major leg order; legs are
1-based.

certified_grade decides the first failing grade of a product identity
exactly from the identity evaluated at a few points of the curve.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from math import gcd, lcm
from operator import add, floordiv, neg, truediv

from .errors import ShapeMismatch, SingularMatrix
from .hseries import HSeries
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
    __slots__ = ("shape", "entries", "D", "mode", "den", "_inv")

    def __init__(self, shape: LegShape, entries: dict, D: int,
                 mode: str = ADDITIVE, den: int | None = None):
        self.shape = shape
        nonzero = bool if den is None else any
        self.entries = {k: v for k, v in entries.items() if nonzero(v)}
        self.D = D
        self.mode = mode
        self.den = den

    # -- constructors -------------------------------------------------
    @staticmethod
    def identity(shape, D: int, mode=ADDITIVE, evaluated=False) -> "LegMatrix":
        """Id on shape, symbolic or evaluated."""
        perm = range(len(shape.dims))
        return LegMatrix.from_leg_permutation(shape, perm, D, mode, evaluated)

    @staticmethod
    def product(factors, shape: LegShape, D: int, mode: str = ADDITIVE) -> "LegMatrix":
        """The ordered product of factors, started from the first one; Id
        on shape when there are none."""
        out = None
        for f in factors:
            out = f if out is None else out * f
        return LegMatrix.identity(shape, D, mode) if out is None else out

    @staticmethod
    def _nonzero(shape, entries: dict, D: int, mode: str, den=None) -> "LegMatrix":
        """A LegMatrix over entries already known to be nonzero."""
        m = LegMatrix.__new__(LegMatrix)
        m.shape, m.entries, m.D, m.mode, m.den = shape, entries, D, mode, den
        return m

    @staticmethod
    def from_leg_permutation(
        shape: LegShape, perm, D: int, mode: str = ADDITIVE, evaluated: bool = False
    ) -> "LegMatrix":
        """Operator sending e_{i_1} x...x e_{i_k} to the legs reordered by perm,
        over den 1 when evaluated.

        perm is 0-based: output leg p receives input leg perm[p].
        """
        one = (1,) + (0,) * D if evaluated else Scalar.one(D, mode)
        out_dims = tuple(shape.dims[p] for p in perm)
        out_shape = LegShape(out_dims)
        entries = {}
        for col in range(shape.total):
            multi = shape.unravel(col)
            entries[(out_shape.ravel([multi[p] for p in perm]), col)] = one
        return LegMatrix(out_shape, entries, D, mode, 1 if evaluated else None)

    @staticmethod
    def from_values(shape: LegShape, vals: dict, D: int, mode: str = ADDITIVE):
        """The evaluated operator with the HSeries entries vals, over the lcm
        of their denominators; each distinct object is converted once."""
        distinct = {id(v): v for v in vals.values()}
        den = lcm(*(v.d for v in distinct.values()))
        num = {i: tuple(x * (den // v.d) for x in v.n) for i, v in distinct.items()}
        return LegMatrix(shape, {k: num[id(v)] for k, v in vals.items()}, D, mode, den)

    # -- helpers ------------------------------------------------------
    def _check(self, other: "LegMatrix"):
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        if self.D != other.D or self.mode != other.mode:
            raise ShapeMismatch("mixed truncation or mode")
        if (self.den is None) != (other.den is None):
            raise ShapeMismatch("mixed symbolic and evaluated operators")

    def symbolic(self) -> "LegMatrix":
        """self over k(w)[[h]]; an evaluated entry is lifted through
        Scalar.from_hseries, each distinct one once."""
        if self.den is None:
            return self
        den, mode = self.den, self.mode
        lifted = _map_distinct(
            self.entries, lambda v: Scalar.from_hseries(HSeries._of(v, den), mode)
        )
        return LegMatrix(self.shape, lifted, self.D, mode)

    def get(self, r: int, c: int):
        """Entry (r, c): a Scalar, or an HSeries when evaluated."""
        v = self.entries.get((r, c))
        if self.den is not None:
            return HSeries._of(v or (0,) * (self.D + 1), self.den)
        return v if v is not None else Scalar.zero(self.D, self.mode)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def first_nonzero_grade(self) -> int | None:
        if self.den is None:
            return least_grade(s.first_nonzero_grade() for s in self.entries.values())
        return min((next(m for m, x in enumerate(v) if x)
                    for v in self.entries.values()), default=None)

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "LegMatrix") -> "LegMatrix":
        return self._combine(other, 1)

    def _combine(self, other: "LegMatrix", sign: int) -> "LegMatrix":
        """self + sign * other.  Each distinct entry of other is mapped
        once, by the sign and, when evaluated, by the factor that aligns
        the two denominators, so a difference builds no negated operator."""
        self._check(other)
        ea, eb, den = self.entries, other.entries, None
        if self.den is None:
            if sign < 0:
                eb = _map_distinct(eb, neg)
        else:
            g = gcd(self.den, other.den)
            fa, fb = other.den // g, sign * (self.den // g)
            den = self.den // g * other.den
            if fa != 1:
                ea = _map_distinct(ea, lambda v: tuple(x * fa for x in v))
            if fb != 1:
                eb = _map_distinct(eb, lambda v: tuple(x * fb for x in v))
        out = dict(ea)
        for k, v in eb.items():
            cur = out.get(k)
            if cur is not None:
                v = cur + v if den is None else tuple(map(add, cur, v))
            out[k] = v
        return LegMatrix(self.shape, out, self.D, self.mode, den)

    def __neg__(self) -> "LegMatrix":
        return self.map_entries(neg if self.den is None else lambda v: tuple(map(neg, v)))

    def __sub__(self, other: "LegMatrix") -> "LegMatrix":
        return self._combine(other, -1)

    def __mul__(self, other: "LegMatrix") -> "LegMatrix":
        """Each distinct entry sum is computed once, keyed by the object
        sequence of its terms; a symbolic one also computes each entry
        product once per object pair.  An evaluated product reads each
        distinct entry once into its nonzero (grade, numerator) pairs and
        sums their convolutions over the product of the two denominators."""
        self._check(other)
        a, b = self, other
        objs: dict = {}  # id -> entry
        rows_b: dict = {}
        for (k, c), y in b.entries.items():
            iy = id(y)
            objs[iy] = y
            rows_b.setdefault(k, []).append((c, iy))
        terms: dict = {}  # (r, c) -> [id a1, id b1, id a2, id b2, ...]
        for (r, k), x in a.entries.items():
            ix = id(x)
            objs[ix] = x
            for c, iy in rows_b.get(k, ()):
                terms.setdefault((r, c), []).extend((ix, iy))
        if a.den is None:
            total, den = partial(_pair_memo_sum, objs, {}), None
        else:
            objs = {i: [(m, x) for m, x in enumerate(v) if x] for i, v in objs.items()}
            total, den = partial(_convolution_sum, objs, a.D + 1), a.den * b.den
        sums, out = {}, {}
        for key, ids in terms.items():
            ids = tuple(ids)
            s = sums.get(ids, 0)
            if s == 0:
                s = sums[ids] = total(ids)
            if s is not None:
                out[key] = s
        return LegMatrix._nonzero(a.shape, out, a.D, a.mode, den)

    def mul_scalar(self, s: Scalar) -> "LegMatrix":
        m = self.symbolic()
        return LegMatrix(
            m.shape, {k: v * s for k, v in m.entries.items()}, m.D, m.mode
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
        if target == self.shape and legs == tuple(range(1, len(legs) + 1)):
            return self  # entries are never mutated, so share them
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
        return LegMatrix._nonzero(target, out, self.D, self.mode, self.den)

    def partial_transpose(self, leg: int) -> "LegMatrix":
        """Transpose in the named 1-based leg only."""
        if not 1 <= leg <= len(self.shape.dims):
            raise ShapeMismatch(f"no leg {leg}")
        s, d = self.shape.strides[leg - 1], self.shape.dims[leg - 1]
        out = {}
        for (r, c), v in self.entries.items():
            t = ((c // s) % d - (r // s) % d) * s  # swap the two leg digits
            out[(r + t, c - t)] = v
        return LegMatrix._nonzero(self.shape, out, self.D, self.mode, self.den)

    # -- inversion ----------------------------------------------------
    def inv(self) -> "LegMatrix":
        """Exact inverse, computed once per operator and kept on it, since
        no entry dict is ever mutated; raises SingularMatrix on every call,
        naming the first column with no unit pivot, the first whose h^0
        grade depends on those before it."""
        try:
            return self._inv
        except AttributeError:
            self._inv = self._inverse()
            return self._inv

    def _inverse(self) -> "LegMatrix":
        """The inverse, by one algorithm for both forms.

        self = sum_m h^m A_m (over den when evaluated), each A_m read as
        sparse rows of RatFns or ints.  With A_0 adj = det Id, the inverse
        of sum_m h^m A_m is sum_m h^m E_m / det^(m+1), E_0 = adj and E_m =
        -adj sum_{k=1..m} det^(k-1) A_k E_{m-k}.  Over the RatFn field adj
        is divided by det once, so that det is 1.  Only reading the grades
        and writing the entries depend on the form.
        """
        n, D, den = self.shape.total, self.D, self.den
        one, div = (RF_ONE, truediv) if den is None else (1, floordiv)
        a = [[{} for _ in range(n)] for _ in range(D + 1)]
        for (r, c), v in self.entries.items():
            for m, x in enumerate(v.grades if den is None else v):
                if x:
                    a[m][r][c] = x
        adj, det = _bareiss_inverse(a[0], one, div)
        if den is None and det != one:
            adj, det = [{c: x / det for c, x in row.items()} for row in adj], one
        e, f = [adj], -one
        for m in range(1, D + 1):
            a[m] = [{c: x * f for c, x in row.items()} for row in a[m]]
            f = f * det  # a[k] is now -det^(k-1) A_k for k <= m
            s = _sum_of_products([(a[k], e[m - k]) for k in range(1, m + 1)])
            e.append(_sum_of_products([(adj, s)]))
        keys = [(r, c) for r in range(n) for c in set().union(*(em[r] for em in e))]
        if den is None:
            out = {(r, c): Scalar([em[r].get(c, RF_ZERO) for em in e], self.mode)
                   for r, c in keys}
            return LegMatrix(self.shape, out, D, self.mode)
        dd, scale = det ** (D + 1), [den * det ** (D - m) for m in range(D + 1)]
        out = {(r, c): tuple(em[r].get(c, 0) * x for em, x in zip(e, scale))
               for r, c in keys}
        g = gcd(dd, *(x for v in out.values() for x in v)) * (1 if dd > 0 else -1)
        out = {k: tuple(x // g for x in v) for k, v in out.items()}
        return LegMatrix(self.shape, out, D, self.mode, dd // g)

    def theta(self) -> "LegMatrix":
        """(X^{-1}) transposed in leg 1."""
        return self.inv().partial_transpose(1)

    # -- grades -------------------------------------------------------
    def grade(self, m: int):
        """Dense m-th h-grade of a symbolic operator as rows of RatFn."""
        n = self.shape.total
        out = [[RF_ZERO] * n for _ in range(n)]
        for (r, c), v in self.entries.items():
            out[r][c] = v.grades[m]
        return out

    def grade_matrix(self, m: int) -> "LegMatrix":
        """The m-th h-grade as a LegMatrix concentrated in grade 0."""
        if self.den is None:
            pad = (RF_ZERO,) * self.D
            return self.map_entries(lambda s: Scalar((s.grades[m],) + pad, s.mode))
        pad = (0,) * self.D
        return self.map_entries(lambda v: (v[m],) + pad)

    # -- entrywise maps -----------------------------------------------
    def map_entries(self, fn) -> "LegMatrix":
        """fn applied entrywise, once per distinct entry value; an
        evaluated operator keeps its denominator."""
        return LegMatrix(
            self.shape, _map_distinct(self.entries, fn), self.D, self.mode, self.den
        )

    def at(self, p: Point) -> "LegMatrix":
        """The symbolic self evaluated at the point p, each distinct entry
        value once."""
        return LegMatrix.from_values(
            self.shape, _map_distinct(self.entries, lambda s: s.eval(p)),
            self.D, self.mode,
        )

    def apply(self, vec):
        """Matrix-vector product over k(w)[[h]]; vec is a list of Scalars."""
        m = self.symbolic()
        out = [Scalar.zero(m.D, m.mode)] * m.shape.total
        for (r, c), v in m.entries.items():
            if not vec[c].is_zero:
                out[r] = out[r] + v * vec[c]
        return out

    def __repr__(self):
        return f"LegMatrix({self.shape!r}, nnz={len(self.entries)}, den={self.den})"


# -- entry helpers: symbolic entries are Scalars, evaluated ones int tuples --

def _map_distinct(entries: dict, fn) -> dict:
    """{key: fn(v)}, fn called once per distinct entry value."""
    memo: dict = {}
    out = {}
    for k, v in entries.items():
        y = memo.get(v)
        if y is None:
            y = memo[v] = fn(v)
        out[k] = y
    return out


def _pair_memo_sum(objs: dict, prods: dict, ids: tuple):
    """The Scalar sum a1 b1 + a2 b2 + ... of the entries objs[id] of a term
    sequence of ids, each id pair's product once in prods; None when 0."""
    s = None
    for i in range(0, len(ids), 2):
        p = prods.get(ids[i : i + 2])
        if p is None:
            p = prods[ids[i : i + 2]] = objs[ids[i]] * objs[ids[i + 1]]
        s = p if s is None else s + p
    return None if s.is_zero else s


def _convolution_sum(objs: dict, n: int, ids: tuple):
    """The integer sum a1 b1 + a2 b2 + ... of the entries objs[id] of a
    term sequence of ids, each given by its nonzero (grade, numerator)
    pairs in grade order, as convolutions truncated below grade n; an
    n-tuple, or None when 0."""
    out = [0] * n
    for i in range(0, len(ids), 2):
        b = objs[ids[i + 1]]
        for p, x in objs[ids[i]]:
            for q, y in b:
                if p + q >= n:
                    break
                out[p + q] += x * y
    return tuple(out) if any(out) else None


def _sum_of_products(pairs) -> list:
    """sum_i a_i b_i over the pairs (a_i, b_i) of square matrices given as
    sparse rows ({col: entry}, zeros omitted), in the same form."""
    out = [{} for _ in pairs[0][0]]
    for a, b in pairs:
        for acc, row in zip(out, a):
            for k, x in row.items():
                for c, y in b[k].items():
                    acc[c] = acc[c] + x * y if c in acc else x * y
    return [{c: v for c, v in acc.items() if v} for acc in out]


def _bareiss_inverse(a, one, div) -> tuple:
    """(adj, det) with a adj = det Id for a square matrix of sparse rows over
    the integers (div floordiv) or the RatFn field (div truediv), by
    fraction-free Gauss-Jordan elimination (Bareiss 1968): every division
    is exact.  A row with no entry in the pivot column is left alone when
    the pivot equals the previous one.  Raises SingularMatrix naming the
    first column that depends on the columns before it."""
    n = len(a)
    rows, prev = [{**row, n + r: one} for r, row in enumerate(a)], one
    for k in range(n):
        p = next((i for i in range(k, n) if k in rows[i]), None)
        if p is None:
            raise SingularMatrix(f"no unit pivot in column {k}")
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        t = top[k]
        for i, row in enumerate(rows):
            f = row.get(k)
            if i == k or (f is None and t == prev):
                continue
            new = {c: t * x for c, x in row.items()}
            if f is not None:
                for c, y in top.items():
                    new[c] = new[c] - f * y if c in new else -(f * y)
            rows[i] = {c: div(v, prev) for c, v in new.items() if v}
        prev = t
    return [{c - n: x for c, x in row.items() if c >= n} for row in rows], prev


# -- exact elimination: over the RatFn field, and over Scalar by units --

class Elimination:
    """Sparse Gauss-Jordan elimination that records its row operations.

    rref, solve_linear and kernel_basis run it over the RatFn field; it
    also runs over a local ring such as Scalar, where only a unit can pivot.
    rows are sparse ({col: entry}, zeros omitted) and are reduced in place
    to reduced row echelon form in their first ncols columns; later columns
    ride along unpivoted.  A column pivots on the lowest-index remaining row
    whose entry is a unit and is skipped when there is none, so over RatFn
    the result is the dense textbook one, while only the nonzero entries of
    a pivot row are touched.

    Step k is recorded as (pivot row, inverse lead, [(row, factor), ...]):
    scale the pivot row by the inverse lead, then subtract factor times it
    from each listed row.  solve() replays the steps on a right-hand side
    and kernel() reads the reduced rows, both for RatFn entries only.
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
        for s in {id(v): v for v in f.entries.values()}.values():
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

    factors are symbolic LegMatrices; residual maps them, or the same
    factors evaluated at a point, to a LegMatrix whose grade-g
    entries are Q-linear combinations of products taking at most one entry
    from each factor.  So every operand that carries h-grades is a factor,
    an evaluated one lifted once, since the bounds see the grades of the
    factors alone; a grade-0 constant, such as a leg permutation or Id,
    may stay inside residual.  Evaluation at a point that is no
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
        grade = residual([f.at(p) for f in factors]).first_nonzero_grade()
        best = least_grade([best, grade])
        used += 1
    return best
