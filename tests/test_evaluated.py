"""The evaluated LegMatrix (one integer denominator over tuples of grade
numerators) against the HSeries-entry oracle of tests/hseries_oracle.py,
on random operators with shapes [2, 2] and [2, 2, 2]."""

import operator
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hseries_oracle as oracle
from qkzkit.errors import ShapeMismatch, SingularMatrix
from qkzkit.families import check_classical_ybe, check_qybe
from qkzkit.hseries import HSeries
from qkzkit.scalar import Scalar
from qkzkit.suites import suite_reps
from qkzkit.tensor import LegMatrix, LegShape

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
units = st.integers(-1, 1)


def gapped_series(D):
    """HSeries with zero leading grades (valuation 0 to 2) and zero grades
    between nonzero ones."""
    grade = st.one_of(st.just(0), fracs.filter(bool))
    grades = st.lists(grade, min_size=D + 1, max_size=D + 1)
    return st.tuples(st.integers(0, 2), grades).map(
        lambda t: HSeries([0] * min(t[0], D + 1) + t[1][t[0]:])
    )


@st.composite
def operators(draw, count=2, unit_grade0=False, gapped=False):
    """(shape, D, [oracle dicts]): count operators on one shape whose
    entries come from a small pool of HSeries objects, each beside its
    negation, so one object sits at many keys and sums often cancel.
    unit_grade0 draws h^0 grades from -1, 0, 1 (singular now and then);
    gapped draws D up to 5 and entries from gapped_series."""
    shape = LegShape(draw(st.sampled_from([[2, 2], [2, 2, 2]])))
    D = draw(st.integers(0, 5 if gapped else 3))
    head = units if unit_grade0 else fracs
    series = gapped_series(D) if gapped else st.tuples(
        head, st.lists(fracs, min_size=D, max_size=D)
    ).map(lambda t: HSeries([t[0], *t[1]]))
    pool = draw(st.lists(series, min_size=1, max_size=4))
    pool += [-x for x in pool]
    keys = st.tuples(
        st.integers(0, shape.total - 1), st.integers(0, shape.total - 1)
    )
    ops = [
        draw(st.dictionaries(keys, st.sampled_from(pool), max_size=3 * shape.total))
        for _ in range(count)
    ]
    return shape, D, [{k: v for k, v in op.items() if not v.is_zero} for op in ops]


def evaluated(shape, D, op) -> LegMatrix:
    return LegMatrix.from_values(shape, op, D)


@given(operators())
@settings(max_examples=80, deadline=None)
def test_ring_operations_match_the_oracle(data):
    shape, D, (a, b) = data
    x, y = evaluated(shape, D, a), evaluated(shape, D, b)
    assert oracle.view(x * y) == oracle.product(a, b)
    assert oracle.view(x + y) == oracle.add(a, b)
    assert oracle.view(-x) == oracle.neg(a)
    assert oracle.view(x - y) == oracle.add(a, oracle.neg(b))
    assert (x - x).is_zero
    for m in range(D + 1):
        assert oracle.view(x.grade_matrix(m)) == oracle.grade_matrix(a, m)
    assert x.first_nonzero_grade() == oracle.first_nonzero_grade(a)
    assert (x * y).first_nonzero_grade() == oracle.first_nonzero_grade(
        oracle.product(a, b)
    )


@given(operators(gapped=True))
@settings(max_examples=150, deadline=None)
def test_product_of_gapped_entries_matches_the_oracle(data):
    # the product convolves only nonzero grades and stops at D: entries
    # with zero leading and middle grades, and operands sharing objects
    shape, D, (a, b) = data
    x, y = evaluated(shape, D, a), evaluated(shape, D, b)
    for (p, q), (pa, qa) in (((x, y), (a, b)), ((y, x), (b, a)), ((x, x), (a, a))):
        got = p * q
        assert oracle.view(got) == oracle.product(pa, qa)
        assert got.first_nonzero_grade() == oracle.first_nonzero_grade(
            oracle.product(pa, qa)
        )


@given(operators(), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_difference_is_the_sum_with_the_negation(data, k):
    # in both forms, over unequal denominators, and exactly zero where an
    # operator meets its own value over a denominator k times larger
    shape, D, (a, b) = data
    x, y = evaluated(shape, D, a), evaluated(shape, D, b)
    same = LegMatrix(
        shape, {key: tuple(k * c for c in v) for key, v in x.entries.items()},
        D, den=k * x.den,
    )
    assert same.den != x.den
    for p, q in ((x, y), (y, x), (x, same), (same, x), (x, x)):
        for left, right in ((p, q), (p.symbolic(), q.symbolic())):
            got, want = left - right, left + (-right)
            assert (got.den, got.entries) == (want.den, want.entries)
    assert (x - same).is_zero and (x.symbolic() - same.symbolic()).is_zero


@given(operators(count=1), st.data())
@settings(max_examples=40, deadline=None)
def test_embed_matches_the_oracle(data, draw):
    shape, D, (a,) = data
    k = len(shape.dims)
    target = LegShape([2] * (k + 1))
    legs = draw.draw(st.sampled_from(list(permutations(range(1, k + 2), k))))
    got = evaluated(shape, D, a).embed(target, legs)
    assert oracle.view(got) == oracle.embed(a, shape, target, legs)


@given(
    operators(count=1, unit_grade0=True),
    st.lists(fracs, min_size=3, max_size=3),
    st.lists(st.sampled_from([1, -1]), min_size=8, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_inverse_matches_the_oracle(data, tail, signs):
    shape, D, (a,) = data
    if tail[0] > 0:  # a signed unit diagonal: most draws are invertible
        diag = {(i, i): HSeries([signs[i], *tail[:D]]) for i in range(shape.total)}
        a = oracle.add(a, diag)
    x = evaluated(shape, D, a)
    try:
        want = oracle.inverse(a, shape.total, HSeries.constant(1, D))
    except SingularMatrix as e:
        with pytest.raises(SingularMatrix) as got:
            x.inv()
        assert str(got.value) == str(e)
        return
    xi = x.inv()
    assert oracle.view(xi) == want
    assert x * xi == LegMatrix.identity(shape, D, evaluated=True)


@pytest.mark.parametrize("D", [0, 1, 2, 3])
def test_inverse_with_a_negative_determinant(D):
    # the h^0 grade diag(-1, 1) has determinant -1: det^(D+1) is negative
    # for even D only, and the denominator must come out positive
    shape = LegShape([2])
    a = {(0, 0): HSeries([-1] + [1] * D), (1, 1): HSeries([1] + [0] * D)}
    xi = evaluated(shape, D, a).inv()
    assert xi.den > 0
    assert oracle.view(xi) == oracle.inverse(a, 2, HSeries.constant(1, D))


@pytest.mark.parametrize("col", [0, 1, 3])
def test_singular_column_is_the_first_dependent_one(col):
    # column col of the h^0 grade repeats column col - 1 (or is zero)
    shape, D = LegShape([2, 2]), 2
    a = {(i, i): HSeries([1, i, 0]) for i in range(4)}
    a[(col, col)] = HSeries([0, 1, 1])
    if col:
        a[(col - 1, col)] = HSeries([1, 0, 2])
    with pytest.raises(SingularMatrix, match=f"^no unit pivot in column {col}$"):
        evaluated(shape, D, a).inv()
    with pytest.raises(SingularMatrix, match=f"^no unit pivot in column {col}$"):
        oracle.inverse(a, shape.total, HSeries.constant(1, D))


@given(operators(), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_product_with_a_symbolic_operator_is_the_lifted_product(data, k):
    shape, D, (a, b) = data
    w = Scalar.coordinate(D).scale(k)
    sym = LegMatrix(
        shape, {key: Scalar.from_hseries(v) * w + w for key, v in b.items()}, D
    )
    lifted = LegMatrix(shape, {key: Scalar.from_hseries(v) for key, v in a.items()}, D)
    x = evaluated(shape, D, a)
    y = x.symbolic()
    for got, want in ((y * sym, lifted * sym), (sym * y, sym * lifted)):
        assert got.den is None and got.entries == want.entries
    assert (y + sym).entries == (lifted + sym).entries
    # the forms meet only through the explicit lift
    for op in (operator.add, operator.sub, operator.mul, operator.eq):
        for left, right in ((x, sym), (sym, x)):
            with pytest.raises(ShapeMismatch, match="mixed symbolic and evaluated"):
                op(left, right)


def test_entries_are_integer_tuples_over_one_denominator():
    shape, D = LegShape([2]), 2
    m = evaluated(shape, D, {(0, 0): HSeries([1, "1/2", 0]), (1, 0): HSeries(["2/3", 0, 1])})
    assert m.den == 6
    assert m.entries == {(0, 0): (6, 3, 0), (1, 0): (4, 0, 6)}
    assert (m * m).den == 36


@pytest.mark.parametrize("row", ["qybe", "classical-ybe", "mixed-ybe", "intertwiner"])
def test_an_evaluated_factor_is_lifted_once(row, rat2, nf_rat2, monkeypatch):
    # each row lifts its evaluated factor where it builds it: once per
    # sample pair or row, not once per product the factor enters
    lifts = []
    symbolic = LegMatrix.symbolic

    def counting(m):
        if m.den is not None:
            lifts.append(m.shape)
        return symbolic(m)

    monkeypatch.setattr(LegMatrix, "symbolic", counting)
    sample = [(Fraction(1), Fraction(1, 2))]
    checks = {
        "qybe": lambda: check_qybe(rat2, sample),
        "classical-ybe": lambda: check_classical_ybe(rat2, sample),
        **{name: fn for name, _, fn in suite_reps(nf_rat2)},
    }
    assert checks[row]() is None
    assert len(lifts) == 1
