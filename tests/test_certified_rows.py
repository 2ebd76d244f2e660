"""The product-identity rows `qybe`, `classical-ybe`, `mixed-ybe`,
`rvw-unitarity` and `intertwiner` are decided by certified evaluation.  On
planted faults their verdicts must be those of the symbolic oracles in
product_oracle.py, and Lambda_g times every grade-g entry of the symbolic
residual must clear to a polynomial of degree at most B_g.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import product_oracle as oracle
from fraction_poly import pdivmod
from planting import E, planted
from qkzkit import families, reps
from qkzkit.families import (
    build_rational,
    build_trigonometric,
    check_classical_ybe,
    check_qybe,
    default_samples,
)
from qkzkit.qdet import NormalizedFamily
from qkzkit.ratfn import pdeg, pmul
from qkzkit.reps import (
    ComoduleWord,
    check_braid_relation,
    check_intertwiner,
    check_rvw_unitarity,
)
from qkzkit.suites import _rep_words
from qkzkit.tensor import degree_bounds

BUILD = {"rational": build_rational, "trigonometric": build_trigonometric}
NF = {"rational": "nf_rat2", "trigonometric": "nf_trig"}
ROWS = ("qybe", "classical-ybe", "mixed-ybe", "rvw-unitarity", "intertwiner")
REPS_ROWS = {
    "mixed-ybe": (check_braid_relation, oracle.braid_relation),
    "rvw-unitarity": (check_rvw_unitarity, oracle.rvw_unitarity),
    "intertwiner": (check_intertwiner, oracle.intertwiner),
}


def planted_row(family, row, g, entries, request):
    """(certified check, symbolic oracle, module whose certified_grade the
    check calls) of one row, N = 2 and D = 4, with R + h^g E planted for
    the qybe rows and Rbar + h^g E for the reps rows."""
    if row not in REPS_ROWS:
        F = planted(BUILD[family](2, 4), g, entries)
        pair = default_samples(F)[:1]
        if row == "qybe":
            return lambda: check_qybe(F, pair), lambda: oracle.qybe(F, pair), families
        # the oracle reads a failure of the h^2 part of the YBE at grade 0
        return (
            lambda: check_classical_ybe(F, pair),
            lambda: None if oracle.classical_ybe(F, pair) is None else 2,
            families,
        )
    nf = request.getfixturevalue(NF[family])
    nf = planted(NormalizedFamily(nf.raw, nf.f0), g, entries)
    v, w, off, offs = _rep_words(nf)
    e = ComoduleWord(w.letters[:1])
    args = {
        "mixed-ybe": (nf, (v, e, w), offs),
        "rvw-unitarity": (nf, v, w, off),
        "intertwiner": (nf, e, w, off),
    }[row]
    check, symbolic = REPS_ROWS[row]
    return lambda: check(*args), lambda: symbolic(*args), reps


small_faults = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    min_size=1,
    max_size=3,
)


@pytest.mark.parametrize("family", sorted(BUILD))
@pytest.mark.parametrize("row", ROWS)
@given(g=st.integers(1, 3), entries=small_faults)
@settings(max_examples=5, deadline=None)
def test_certified_verdict_is_the_oracles(family, row, g, entries, request):
    check, symbolic, _ = planted_row(family, row, g, entries, request)
    assert check() == symbolic()


@pytest.mark.parametrize("family", sorted(BUILD))
@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("g", [1, 2, 3])
def test_degree_bound_holds_on_planted_faults(family, row, g, request, monkeypatch):
    check, _, module = planted_row(family, row, g, E, request)
    calls = []
    certified = module.certified_grade

    def spy(factors, residual, D, mode):
        calls.append((factors, residual, D))
        return certified(factors, residual, D, mode)

    monkeypatch.setattr(module, "certified_grade", spy)
    verdict = check()
    [(factors, residual, D)] = calls
    image = residual(factors)
    assert image.first_nonzero_grade() == verdict
    bounds = degree_bounds(factors, D)
    for v in image.entries.values():
        for m, r in enumerate(v.grades):
            if r:
                lam, bound = bounds[m]
                q, rem = pdivmod(pmul(lam, r.num), r.den)
                assert rem == () and pdeg(q) <= bound


@pytest.mark.parametrize("build", [build_rational, build_trigonometric])
def test_classical_ybe_fails_at_the_h2_grade_of_the_ybe(build):
    # R + h E: the h^1 matrix becomes r + E, whose commutator sum is the
    # h^2 grade of the YBE residual, where qybe reads the same fault;
    # R + h^2 E leaves r alone
    F = planted(build(2, 4), 1)
    assert check_qybe(F) == 2
    assert check_classical_ybe(F) == 2
    assert check_classical_ybe(planted(build(2, 4), 2)) is None


def test_classical_ybe_reads_grade_2_at_d_1():
    # the YBE of R mod h^2 reaches h^2 even where the family stops at h^1
    F = planted(build_rational(2, 1), 1)
    assert check_classical_ybe(F) == 2
    assert oracle.classical_ybe(F) == 0
    assert check_classical_ybe(build_rational(2, 1)) is None
