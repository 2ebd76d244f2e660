from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hseries_oracle as oracle
from qkzkit import tensor
from qkzkit.errors import ShapeMismatch, SingularMatrix
from qkzkit.families import ArgShift, build_rational, ladder_factors
from qkzkit.hseries import HSeries
from qkzkit.ratfn import RF_ONE, RF_ZERO, RatFn
from qkzkit.qdet import ladder_shifts
from qkzkit.scalar import ADDITIVE, MULTIPLICATIVE, Point, Scalar
from qkzkit.tensor import (
    Elimination,
    LegMatrix,
    LegShape,
    kernel_basis,
    rref,
    solve_linear,
)

D = 3


def rf(c):
    return RatFn.from_fraction(Fraction(c))


def sc(c):
    return Scalar.const(Fraction(c), D)


def sigma(n=2):
    return LegMatrix.from_leg_permutation(LegShape([n, n]), (1, 0), D)


class TestLegShape:
    def test_ravel_unravel(self):
        shape = LegShape([2, 3, 2])
        for flat in range(shape.total):
            assert shape.ravel(shape.unravel(flat)) == flat

    def test_strides_row_major(self):
        shape = LegShape([2, 3])
        assert shape.ravel((1, 2)) == 5


class TestPermutation:
    def test_sigma_squares_to_identity(self):
        s = sigma()
        assert s * s == LegMatrix.identity(LegShape([2, 2]), D)

    def test_sigma_action(self):
        s = sigma()
        shape = LegShape([2, 2])
        vec = [sc(i) for i in range(4)]
        out = s.apply(vec)
        # basis vector e_i (x) e_j maps to e_j (x) e_i
        for i in range(2):
            for j in range(2):
                assert out[shape.ravel((i, j))] == vec[shape.ravel((j, i))]


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        small = LegMatrix.identity(LegShape([2, 2]), D)
        big = LegShape([2, 2, 2])
        assert small.embed(big, (1, 3)) == LegMatrix.identity(big, D)

    def test_embedding_commutes_on_disjoint_legs(self):
        s = sigma()
        big = LegShape([2] * 4)
        a = s.embed(big, (1, 2))
        b = s.embed(big, (3, 4))
        assert a * b == b * a

    def test_leg_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sigma().embed(LegShape([2, 2, 2]), (1,))

    @pytest.mark.parametrize("evaluated", [False, True])
    def test_placement_on_its_own_shape(self, evaluated):
        # in leg order the operator is its own placement; (2, 1) conjugates
        # it by the swap of its legs
        shape = LegShape([2, 2])
        m = LegMatrix(
            shape,
            {(r, c): sc(1 + r + 5 * c) for r in range(4) for c in range(4) if r <= c},
            D,
        )
        swap = LegMatrix.from_leg_permutation(shape, (1, 0), D, evaluated=evaluated)
        if evaluated:
            m = m.at(Point.of(0, D))
        assert m.embed(shape, (1, 2)) is m
        swapped = m.embed(shape, (2, 1))
        assert swapped is not m and swapped != m
        assert swapped == swap * m * swap

    @pytest.mark.parametrize("legs, dims", [
        ((1, 2), [2, 3, 2]), ((3, 1), [3, 2, 2]), ((2, 4), [2, 2, 3, 3]),
    ])
    def test_matches_multi_index_placement(self, legs, dims):
        # entry (r, c) of the small operator lands at every setting of the
        # other legs, read off the multi-indices of the target
        small_shape = LegShape([2, 3])
        small = LegMatrix(
            small_shape,
            {(r, c): sc(1 + r + 7 * c) for r in range(6) for c in range(6) if (r + c) % 3},
            D,
        )
        big = LegShape(dims)
        want = {}
        for r in range(big.total):
            for c in range(big.total):
                rm, cm = big.unravel(r), big.unravel(c)
                rest = [i for i in range(len(big.dims)) if i + 1 not in legs]
                if any(rm[i] != cm[i] for i in rest):
                    continue
                v = small.entries.get((
                    small_shape.ravel([rm[l - 1] for l in legs]),
                    small_shape.ravel([cm[l - 1] for l in legs]),
                ))
                if v is not None:
                    want[(r, c)] = v
        got = small.embed(big, legs)
        assert got.shape == big and got.entries == want


class TestPartialTranspose:
    def test_involution(self):
        m = sigma() + LegMatrix.identity(LegShape([2, 2]), D).mul_scalar(
            Scalar.coordinate(D)
        )
        for leg in (1, 2):
            assert m.partial_transpose(leg).partial_transpose(leg) == m

    def test_transposes_commute(self):
        m = sigma()
        assert (
            m.partial_transpose(1).partial_transpose(2)
            == m.partial_transpose(2).partial_transpose(1)
        )


# entries (a + b w) / (c + w), zero about half the time so rows are sparse
small = st.integers(-3, 3).map(Fraction)
entries = st.one_of(
    st.just(RF_ZERO),
    st.tuples(small, small, small).map(
        lambda t: RatFn((t[0], t[1]), (t[2], Fraction(1)))
    ),
)


@st.composite
def invertible_matrices(draw):
    """A sparse operator whose h^0 grade is a row permutation of an upper
    triangular matrix with nonzero diagonal, so it is invertible over
    k(w)[[h]]; higher grades are arbitrary."""
    n = draw(st.sampled_from([2, 3, 4]))
    mode = draw(st.sampled_from([ADDITIVE, MULTIPLICATIVE]))
    d = draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n)))
    out = {}
    for r in range(n):
        for c in range(n):
            grades = [draw(entries) for _ in range(d + 1)]
            if c < r:
                grades[0] = RF_ZERO
            elif c == r and not grades[0]:
                grades[0] = RF_ONE
            sc = Scalar(grades, mode)
            if sc:
                out[(perm[r], c)] = sc
    shape = LegShape([2, 2]) if n == 4 else LegShape([n])
    return LegMatrix(shape, out, d, mode)


@st.composite
def inverse_cases(draw):
    """(operator, the oracle's one, the oracle's entries) on shapes [2], [3],
    [2, 2] and [2, 2, 2], at D from 0 to 4, in either mode and form.  Each
    grade has about one entry per row; the h^0 grade often gets a diagonal
    of entries other than +-1 (three draws in four), so its determinant is
    rarely +-1, and it is singular now and then."""
    shape = LegShape(draw(st.sampled_from([[2], [3], [2, 2], [2, 2, 2]])))
    n, d = shape.total, draw(st.integers(0, 4))
    mode = draw(st.sampled_from([ADDITIVE, MULTIPLICATIVE]))
    symbolic = draw(st.booleans())
    grade = entries if symbolic else st.fractions(-3, 3, max_denominator=3)
    keys = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    grades = [draw(st.dictionaries(keys, grade, max_size=n)) for _ in range(d + 1)]
    if draw(st.integers(0, 3)):
        diag = st.sampled_from([2, -2, 3, Fraction(1, 2), Fraction(-3, 2)])
        for i in range(n):
            x = draw(diag)
            grades[0][(i, i)] = RatFn.from_fraction(x) if symbolic else x
    zero = RF_ZERO if symbolic else 0
    out = {}
    for m, g in enumerate(grades):
        for k, x in g.items():
            out.setdefault(k, [zero] * (d + 1))[m] = x
    out = {k: g for k, g in out.items() if any(g)}
    if symbolic:
        out = {k: Scalar(g, mode) for k, g in out.items()}
        return LegMatrix(shape, out, d, mode), Scalar.one(d, mode), out
    out = {k: HSeries(g) for k, g in out.items()}
    return LegMatrix.from_values(shape, out, d, mode), HSeries.constant(1, d), out


class TestInverse:
    def test_inverse_of_unit_matrix(self):
        w, h = Scalar.coordinate(D), Scalar.from_hseries(HSeries.h(D))
        ident = LegMatrix.identity(LegShape([2, 2]), D)
        m = ident.mul_scalar(Scalar.one(D) + w.inv() * h) + sigma(
        ).mul_scalar(w * h * h)
        assert m * m.inv() == ident
        assert m.inv() * m == ident

    def test_singular_raises(self):
        z = LegMatrix(LegShape([2, 2]), {}, D)
        with pytest.raises(SingularMatrix):
            z.inv()

    @given(invertible_matrices())
    @settings(max_examples=30, deadline=None)
    def test_inverse_is_two_sided(self, m):
        ident = LegMatrix.identity(m.shape, m.D, m.mode)
        mi = m.inv()
        assert m * mi == ident
        assert mi * m == ident

    @given(inverse_cases())
    @settings(max_examples=200, deadline=None)
    def test_inverse_matches_the_gauss_jordan_oracle(self, case):
        # both forms against unit-pivot Gauss-Jordan over their entry ring,
        # including the SingularMatrix message
        m, one, a = case
        try:
            want = oracle.inverse(a, m.shape.total, one)
        except SingularMatrix as e:
            with pytest.raises(SingularMatrix) as got:
                m.inv()
            assert str(got.value) == str(e)
            return
        got = m.inv()
        assert (got.entries if m.den is None else oracle.view(got)) == want

    def test_inverse_eliminates_once(self, monkeypatch):
        # one elimination per inverse, of the h^0 grade alone, in both
        # forms; the h-adic lift solves no system, and no Elimination runs
        calls = []
        bareiss = tensor._bareiss_inverse

        def counting(a, one, div):
            calls.append([dict(row) for row in a])
            return bareiss(a, one, div)

        def no_elimination(self, rows, ncols):
            raise AssertionError("LegMatrix.inv ran an Elimination")

        monkeypatch.setattr(tensor, "_bareiss_inverse", counting)
        monkeypatch.setattr(Elimination, "__init__", no_elimination)
        w = Scalar.coordinate(D)
        m = LegMatrix.identity(LegShape([2, 2]), D) + sigma().mul_scalar(
            w * Scalar.from_hseries(HSeries.h(D))
        )
        for op, one in ((m, RF_ONE), (m.at(Point.of(3, D)), 1)):
            calls.clear()
            op.inv()
            assert calls == [[{i: one} for i in range(4)]]

    def test_inverse_is_kept_on_the_operator(self, monkeypatch):
        # one elimination per operator however often it is inverted, in
        # both forms; a singular operator raises the same error every time
        calls = []
        bareiss = tensor._bareiss_inverse

        def counting(a, one, div):
            calls.append(1)
            return bareiss(a, one, div)

        monkeypatch.setattr(tensor, "_bareiss_inverse", counting)
        w = Scalar.coordinate(D)
        m = LegMatrix.identity(LegShape([2, 2]), D) + sigma().mul_scalar(
            w * Scalar.from_hseries(HSeries.h(D))
        )
        singular = LegMatrix(LegShape([2, 2]), {(0, 0): sc(1)}, D)
        p = Point.of(3, D)
        for op, bad in ((m, singular), (m.at(p), singular.at(p))):
            calls.clear()
            assert op.inv() is op.inv()
            ident = LegMatrix.identity(op.shape, D, evaluated=op.den is not None)
            assert op * op.inv() == ident
            assert len(calls) == 1
            for _ in range(2):
                with pytest.raises(SingularMatrix, match="^no unit pivot in column 1$"):
                    bad.inv()
            assert len(calls) == 3


class TestTheta:
    def test_theta_is_transposed_inverse(self):
        m = sigma().mul_scalar(Scalar.coordinate(D)) + LegMatrix.identity(
            LegShape([2, 2]), D
        )
        assert m.theta() == m.inv().partial_transpose(1)


class TestFieldLinearAlgebra:
    def test_rref_pivots(self):
        rows = [[rf(1), rf(2)], [rf(2), rf(4)]]
        pivots = rref(rows, 2)
        assert pivots == [0]
        assert rows[0] == [rf(1), rf(2)]

    def test_kernel_basis_oracle(self):
        mat = [[rf(1), rf(2), rf(3)], [rf(2), rf(4), rf(6)]]
        basis = kernel_basis(mat, 3)
        assert len(basis) == 2
        for v in basis:
            for row in mat:
                acc = RF_ZERO
                for a, b in zip(row, v):
                    acc = acc + a * b
                assert acc == RF_ZERO

    def test_solve_linear(self):
        mat = [[rf(2), rf(0)], [rf(0), rf(3)]]
        sol = solve_linear(mat, [rf(4), rf(9)])
        assert sol == [rf(2), rf(3)]

    def test_solve_linear_inconsistent(self):
        mat = [[rf(1), rf(1)], [rf(2), rf(2)]]
        assert solve_linear(mat, [rf(1), rf(3)]) is None


def matvec(mat, x):
    out = []
    for row in mat:
        acc = RF_ZERO
        for a, b in zip(row, x):
            acc = acc + a * b
        out.append(acc)
    return out


class TestEliminationReplay:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_replay_matches_fresh_solve(self, data):
        nrows = data.draw(st.integers(1, 4))
        ncols = data.draw(st.integers(1, 4))
        mat = [
            [data.draw(entries) for _ in range(ncols)] for _ in range(nrows)
        ]
        mat.append(list(mat[0]))  # repeated, so a rhs can be inconsistent
        sparse = [{c: x for c, x in enumerate(r) if x} for r in mat]
        e = Elimination(sparse, ncols)
        x0 = [data.draw(entries) for _ in range(ncols)]
        consistent = matvec(mat, x0)
        inconsistent = consistent[:-1] + [consistent[-1] + RF_ONE]
        arbitrary = [data.draw(entries) for _ in mat]
        for b in (consistent, arbitrary, inconsistent, consistent):
            got = e.solve(b)
            assert got == solve_linear(mat, b)
            if got is not None:
                assert matvec(mat, got) == b
        assert e.solve(consistent) is not None
        assert e.solve(inconsistent) is None


def test_solve_linear_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")

    def to_sympy(r):
        num = sum(sympy.Rational(c.numerator, c.denominator) * w**k
                  for k, c in enumerate(r.num))
        den = sum(sympy.Rational(c.numerator, c.denominator) * w**k
                  for k, c in enumerate(r.den))
        return num / den

    def rfn(num, den=(1,)):
        return RatFn(tuple(map(Fraction, num)), tuple(map(Fraction, den)))

    r0 = [rfn((1,), (1, 1)), rfn((0, 1)), rfn((2,)), rfn((0, 0, 1), (-2, 1))]
    r1 = [rfn((0, 1)), rfn((1,)), rfn((1,), (-2, 1)), rfn((3, 1), (5, 1))]
    r2 = [a + RatFn((Fraction(0), Fraction(1))) * b for a, b in zip(r0, r1)]
    mat = [r0, r1, r2]  # rank 2: the third row is r0 + w r1, so x_3 is free
    b = [rfn((1,)), rfn((0, 1), (1, 1)), RF_ZERO]
    b[2] = b[0] + RatFn((Fraction(0), Fraction(1))) * b[1]
    x = solve_linear(mat, b)

    aug = sympy.Matrix([[to_sympy(e) for e in row] for row in mat])
    aug = aug.row_join(sympy.Matrix([to_sympy(e) for e in b]))
    red, pivots = aug.rref(simplify=sympy.cancel)
    assert list(pivots) == [0, 1]
    want = [sympy.Integer(0)] * 4
    for r, p in enumerate(pivots):
        want[p] = red[r, 4]
    assert [sympy.cancel(to_sympy(a) - b) for a, b in zip(x, want)] == [0] * 4
    assert not x[2] and not x[3]


class TestMapEntries:
    def test_once_per_distinct_entry(self):
        # rational N = 2: six entries, three distinct values
        base = build_rational(2, 2).base
        seen = []

        def fn(s):
            seen.append(s)
            return s.scale(2)

        out = base.map_entries(fn)
        assert len(base.entries) == 6 and len(seen) == 3
        assert out == base + base


class TestEvaluatedEntries:
    def test_zero_and_one_from_the_entry_ring(self):
        shape = LegShape([2])
        one = HSeries.constant(1, 2)
        m = LegMatrix.from_values(shape, {(0, 0): one.scale(3), (1, 1): one}, 2)
        assert m.get(0, 1) == HSeries.zero(2) and m.get(0, 0) == one.scale(3)
        inv = m.inv()
        assert inv.den is not None
        assert all(isinstance(v, tuple) and len(v) == 3 for v in inv.entries.values())
        assert inv * m == LegMatrix.identity(shape, 2, evaluated=True)
        assert (inv * m).symbolic() == LegMatrix.identity(shape, 2)
        assert m.grade_matrix(0) == m and m.grade_matrix(1).is_zero
        # lifted, its product with a symbolic operator is over k(w)[[h]]
        w = LegMatrix.identity(shape, 2).mul_scalar(Scalar.coordinate(2))
        lifted = m.symbolic()
        assert all(isinstance(v, Scalar) for v in (lifted * w).entries.values())
        assert lifted * w == w * lifted


# -- products: each distinct entry product and entry sum once -------------

def entries_of(m) -> dict:
    """The entries of m: Scalars, or HSeries when m is evaluated."""
    if m.den is None:
        return m.entries
    return {k: m.get(*k) for k in m.entries}


def naive_product(a, b):
    """The dense triple loop: entry (i, j) is the sum over k of
    a[i, k] b[k, j], zeros omitted, over Scalar or HSeries entries."""
    n = a.shape.total
    ea, eb = entries_of(a), entries_of(b)
    out = {}
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(n):
                x, y = ea.get((i, k)), eb.get((k, j))
                if x is not None and y is not None:
                    acc = x * y if acc is None else acc + x * y
            if acc is not None and not acc.is_zero:
                out[(i, j)] = acc
    return out


@st.composite
def shared_pair(draw, ring):
    """Two LegMatrices on one shape whose entries come from a small pool of
    objects, each pool value beside its negation, so the same object sits
    at many keys and entry sums often cancel."""
    d = 2
    dims = draw(st.sampled_from([[2], [3], [2, 2]]))
    shape = LegShape(dims)
    coeffs = st.lists(st.integers(-1, 1), min_size=d + 1, max_size=d + 1)
    pool = []
    for cs in draw(st.lists(coeffs, min_size=1, max_size=3)):
        x = HSeries(cs)
        if ring == "scalar":
            x = Scalar.from_hseries(x) * Scalar.coordinate(d).scale(
                draw(st.integers(1, 2))
            )
        pool += [x, -x]
    keys = st.tuples(st.integers(0, shape.total - 1), st.integers(0, shape.total - 1))
    build = LegMatrix if ring == "scalar" else LegMatrix.from_values
    mats = [
        build(
            shape,
            draw(st.dictionaries(keys, st.sampled_from(pool), max_size=12)),
            d,
        )
        for _ in range(2)
    ]
    return mats


class TestSharedProduct:
    @pytest.mark.parametrize("ring", ["hseries", "scalar"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_product(self, ring, data):
        a, b = data.draw(shared_pair(ring))
        prod = a * b
        assert entries_of(prod) == naive_product(a, b)
        assert all(any(v) if prod.den else v for v in prod.entries.values())

    def test_cancelling_sum_is_absent(self):
        shape = LegShape([2])
        x = HSeries([1, 2, 0])
        a = LegMatrix.from_values(shape, {(0, 0): x, (0, 1): x, (1, 0): x}, 2)
        b = LegMatrix.from_values(shape, {(0, 0): x, (1, 0): -x, (1, 1): x}, 2)
        prod = a * b
        assert (0, 0) not in prod.entries
        assert entries_of(prod) == naive_product(a, b)
        # (0, 1) and (1, 0) have the same terms: one shared object
        assert prod.entries[(0, 1)] is prod.entries[(1, 0)]

    @pytest.mark.parametrize("ring", [Scalar])
    def test_each_object_pair_multiplied_once(self, ring, monkeypatch):
        F = build_rational(2, 2)
        m = F.r(ArgShift.of(Fraction(1), 2)).embed(LegShape([2] * 3), (1, 2))
        other = F.base.embed(LegShape([2] * 3), (2, 1))
        pairs = []
        orig = ring.__mul__

        def recording(self, o):
            pairs.append((id(self), id(o)))
            return orig(self, o)

        monkeypatch.setattr(ring, "__mul__", recording)
        prod = m * other
        monkeypatch.setattr(ring, "__mul__", orig)
        assert pairs and len(pairs) == len(set(pairs))
        assert prod.entries == naive_product(m, other)

    def test_each_term_sequence_convolved_once(self, monkeypatch):
        # an evaluated product sums each distinct sequence of entry objects
        # once, and equal sequences share the result
        import qkzkit.tensor as tensor

        x, y = HSeries([1, 1, 0]), HSeries([2, 0, 1])
        shape = LegShape([2, 2])
        m = LegMatrix.from_values(
            shape, {(i, j): x for i in range(4) for j in range(4)}, 2
        )
        other = LegMatrix.from_values(shape, {(i, i): y for i in range(4)}, 2)
        seqs = []
        convolution_sum = tensor._convolution_sum

        def recording(objs, n, ids):
            seqs.append(ids)
            return convolution_sum(objs, n, ids)

        monkeypatch.setattr(tensor, "_convolution_sum", recording)
        prod = m * other
        assert len(seqs) == len(set(seqs)) == 1
        assert len({id(v) for v in prod.entries.values()}) == 1
        assert entries_of(prod) == naive_product(m, other)

    def test_rational_n4_ladder_is_cheap(self, monkeypatch):
        # the full ladder of the rational N = 4, D = 4 determinant factors:
        # 9604 nonzeros; a product per entry pair made 18228 Scalar products
        F = build_rational(4, 4)
        factors = ladder_factors(F, [ArgShift.of_h(s, F.mode) for s in ladder_shifts(4, 4)])
        calls = []
        orig = Scalar.__mul__

        def counting(self, o):
            calls.append((id(self), id(o)))
            return orig(self, o)

        monkeypatch.setattr(Scalar, "__mul__", counting)
        out = factors[0]
        for f in factors[1:]:
            start = len(calls)
            out = out * f
            assert len(set(calls[start:])) == len(calls) - start
        monkeypatch.setattr(Scalar, "__mul__", orig)
        assert len(out.entries) == 9604
        assert len(calls) < 1000
