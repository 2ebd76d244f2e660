"""Verification suites: named exact checks over a family, with reports.

Each check is a closure returning either None (exact zero to order D) or
the first failing h-grade; suites assemble deterministic result lists that
are independent of the parallelism degree.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .errors import KernelError
from .families import (
    ArgShift,
    RMatrixFamily,
    check_classical_ybe,
    check_crossing,
    check_degeneration,
    check_qybe,
    default_samples,
    unitarity_scalar,
    TRIGONOMETRIC,
)
from .hseries import HSeries
from .qdet import NormalizedFamily, check_pairing_qdet
from .qkz import (
    QKZInstance,
    check_braiding_equivariance,
    check_flatness,
    check_quasiclassical,
)
from .reps import (
    ComoduleWord,
    check_braid_relation,
    check_hexagon,
    check_intertwiner,
    check_rvw_unitarity,
)
from .scalar import Scalar

STATUS_OK = "exact-zero"
STATUS_FAIL = "fails-at-grade-{}"
STATUS_ERROR = "error"


@dataclass
class CheckResult:
    name: str
    identity: str  # which identity the check exercises, in plain words
    status: str
    grade: int | None = None
    wall_time_ms: float = 0.0
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "identity": self.identity,
            "status": self.status,
            "first_failing_grade": self.grade,
            "wall_time_ms": round(self.wall_time_ms, 3),
        }
        if self.detail:
            d["detail"] = self.detail
        return d


def _run_one(name: str, identity: str, thunk) -> CheckResult:
    t0 = time.perf_counter()
    try:
        grade = thunk()
    except Exception as e:  # report, do not abort the suite
        dt = (time.perf_counter() - t0) * 1000
        return CheckResult(name, identity, STATUS_ERROR, None, dt, repr(e))
    dt = (time.perf_counter() - t0) * 1000
    if grade is None:
        return CheckResult(name, identity, STATUS_OK, None, dt)
    return CheckResult(name, identity, STATUS_FAIL.format(grade), grade, dt)


def run_checks(specs, jobs: int = 1) -> list:
    """Run (name, identity, thunk) triples; result order is the input
    order, independent of jobs."""
    if jobs <= 1:
        return [_run_one(*s) for s in specs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_one, *s) for s in specs]
        return [f.result() for f in futures]


def _bool_check(fn) -> "callable":
    # adapt a boolean predicate to the grade-or-None protocol
    def thunk():
        return None if fn() else 0

    return thunk


# -- suite builders ----------------------------------------------------

def suite_qybe(F: RMatrixFamily):
    samples = default_samples(F)
    specs = []
    for pair in samples:
        specs.append((
            f"qybe[{pair[0]},{pair[1]}]",
            "three-leg consistency of R, one variable symbolic",
            (lambda p=pair: check_qybe(F, [p])[0][1]),
        ))
    for pair in samples[:2]:
        specs.append((
            f"classical-ybe[{pair[0]},{pair[1]}]",
            "sum of pairwise commutators of the h^1 matrix vanishes",
            (lambda p=pair: check_classical_ybe(F, [p])[0][1]),
        ))
    return specs


def suite_crossing(F: RMatrixFamily):
    def crossing():
        _, report = check_crossing(F)
        return None if all(report.values()) else 0

    def unitarity():
        phi = unitarity_scalar(F)
        # the product is scalar by construction of the check; also require
        # the scalar to be a unit
        return None if phi.is_unit else 0

    specs = [
        ("crossing", "transpose-invert-squared is proportional to the "
         "displaced R with unit scalar", crossing),
        ("unitarity-scalar", "R(w) R-swapped(-w) is a unit scalar", unitarity),
    ]
    if F.family == TRIGONOMETRIC:
        specs.append((
            "degeneration",
            "scaling limit reproduces the rational family entrywise",
            lambda: check_degeneration(F),
        ))
    return specs


def suite_normalize(nf: NormalizedFamily):
    D, mode = nf.D, nf.mode
    one = Scalar.one(D, mode)
    pts = [Fraction(1), Fraction(5, 2)] if mode == "additive" else [
        Fraction(2), Fraction(3)
    ]
    return [
        ("normalized-qdet",
         "determinant element of the rescaled matrix acts as 1",
         _bool_check(lambda: nf.normalized_rho() == one)),
        ("normalized-unitarity",
         "rescaled R times its swapped reflection is the identity",
         _bool_check(lambda: nf.unitarity_scalar() == one)),
        ("normalized-crossing",
         "double transpose-invert of rescaled R equals its displacement",
         lambda: nf.crossing_defect()),
        ("pairing-qdet",
         "determinant contraction of the two-point ladder is the identity",
         lambda: check_pairing_qdet(nf, pts)),
        ("pairing-qdet-control",
         "the same contraction without rescaling must fail",
         _bool_check(lambda: check_pairing_qdet(nf, pts, raw=True) is not None)),
    ]


def _rep_words(nf: NormalizedFamily):
    D = nf.D
    if nf.mode == "additive":
        v = ComoduleWord.of([Fraction(0), Fraction(1, 2)], D)
        w = ComoduleWord.of([Fraction(1, 3)], D)
        off = ArgShift.of(Fraction(5), D)
        offs = (
            ArgShift.of(Fraction(5), D),
            ArgShift.of(Fraction(7), D),
            ArgShift.of(Fraction(2), D),
        )
    else:
        v = ComoduleWord.of(
            [ArgShift.of(Fraction(2), D), ArgShift.of(Fraction(3), D)], D
        )
        w = ComoduleWord.of([ArgShift.of(Fraction(5), D)], D)
        off = ArgShift.of(Fraction(7), D)
        offs = (
            ArgShift.of(Fraction(5), D),
            ArgShift.of(Fraction(10), D),
            ArgShift.of(Fraction(2), D),
        )
    return v, w, off, offs


def suite_reps(nf: NormalizedFamily):
    v, w, off, offs = _rep_words(nf)
    e = ComoduleWord(w.letters[:1])
    return [
        ("hexagon",
         "both hexagon groupings rebuild the two-word matrix",
         lambda: _str_check(check_hexagon(nf, v, w, off))),
        ("rvw-unitarity",
         "two-word matrix times its swapped reflection is the identity",
         lambda: check_rvw_unitarity(nf, v, w, off)),
        ("mixed-ybe",
         "three-word Yang-Baxter relation",
         lambda: check_braid_relation(nf, (v, e, w), offs)),
        ("intertwiner",
         "braiding intertwines the evaluation operators",
         lambda: check_intertwiner(nf, e, w, off)),
    ]


def _str_check(result):
    if result is None:
        return None
    raise KernelError(result)


def default_instance(nf: NormalizedFamily, n: int = 3) -> QKZInstance:
    D = nf.D
    words = tuple(ComoduleWord.of([_unit_letter(nf)], D) for _ in range(n))
    if nf.mode == "additive":
        zs = [Fraction(0), Fraction(1), Fraction(5, 2), Fraction(9, 2)]
    else:
        zs = [Fraction(1), Fraction(2), Fraction(5), Fraction(11)]
    z = tuple(ArgShift.of(c, D) for c in zs[:n])
    return QKZInstance(nf, z, words, HSeries.constant(1, D))


def _unit_letter(nf: NormalizedFamily):
    if nf.mode == "additive":
        return Fraction(0)
    return ArgShift.of(Fraction(1), nf.D)


def suite_qkz(nf: NormalizedFamily, instances=None, fault: str | None = None):
    if instances is None:
        instances = [default_instance(nf)]
    specs = []
    for k, inst in enumerate(instances):
        tag = f"inst{k}"
        specs.append((
            f"{tag}.regular",
            "base-point differences avoid poles and stay invertible",
            (lambda i=inst: _str_check_none(i.check_regular)),
        ))
        specs.append((
            f"{tag}.flatness",
            "difference-connection flatness (fault: step shift dropped)"
            if fault == "drop-step-shift"
            else "difference-connection flatness for every index pair",
            (lambda i=inst: _worst(check_flatness(i, fault))),
        ))
        for i_idx in range(1, inst.n + 1):
            specs.append((
                f"{tag}.equivariance[{i_idx}]",
                "connection operator conjugates to the last-index one "
                "through braidings",
                (lambda i=inst, j=i_idx: check_braiding_equivariance(i, j)),
            ))
        specs.append((
            f"{tag}.quasiclassical",
            "h^1 grade of the connection is the sum of classical terms",
            (lambda i=inst: _worst(
                [((j,), check_quasiclassical(i, j)) for j in range(1, i.n + 1)]
            )),
        ))
    return specs


def _str_check_none(fn):
    fn()
    return None


def _worst(pairs):
    grades = [g for _, g in pairs if g is not None]
    return min(grades) if grades else None


def build_report(results, config_dict, D: int) -> dict:
    return {
        "environment": {
            "version": __version__,
            "D": D,
            "determinism": "seed-free; exact arithmetic; report content "
            "independent of the parallelism degree",
        },
        "config": config_dict,
        "checks": [r.to_dict() for r in results],
        "passed": all(r.passed for r in results),
    }


def summary_text(results) -> str:
    width = max((len(r.name) for r in results), default=4)
    lines = [f"{'check'.ljust(width)}  status"]
    for r in results:
        lines.append(f"{r.name.ljust(width)}  {r.status}")
    n_ok = sum(1 for r in results if r.passed)
    lines.append(f"{n_ok}/{len(results)} checks exact")
    return "\n".join(lines)
