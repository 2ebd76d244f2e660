"""Verification suites: named exact checks over a family, with reports.

A suite is a list of (name, identity, thunk) rows.  Each thunk calls one
check, which returns None (exact zero to order D) or the first failing
h-grade; the rows run serially, in order, into a deterministic report.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import __version__
from .families import (
    ArgShift,
    RMatrixFamily,
    check_classical_ybe,
    check_crossing,
    check_degeneration,
    check_qybe,
    check_unitarity,
    default_samples,
    TRIGONOMETRIC,
)
from .hseries import HSeries
from .qdet import NormalizedFamily, check_pairing_control, check_pairing_qdet
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
from .serialize import decode_instance

STATUS_OK = "exact-zero"
STATUS_FAIL = "fails-at-grade-{}"
STATUS_ERROR = "error"


class CheckResult:
    __slots__ = ("name", "identity", "status", "grade", "wall_time_ms", "detail")

    def __init__(
        self,
        name: str,
        identity: str,  # which identity the check exercises, in plain words
        status: str,
        grade: int | None = None,
        wall_time_ms: float = 0.0,
        detail: str = "",
    ):
        self.name = name
        self.identity = identity
        self.status = status
        self.grade = grade
        self.wall_time_ms = wall_time_ms
        self.detail = detail

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


def run_checks(specs) -> list:
    """Run (name, identity, thunk) rows serially, in order."""
    return [_run_one(*s) for s in specs]


# -- suite builders ----------------------------------------------------

def suite_qybe(F: RMatrixFamily):
    samples = default_samples(F)
    specs = []
    for pair in samples:
        specs.append((
            f"qybe[{pair[0]},{pair[1]}]",
            "three-leg consistency of R, one variable symbolic",
            (lambda p=pair: check_qybe(F, [p])),
        ))
    for pair in samples[:2]:
        specs.append((
            f"classical-ybe[{pair[0]},{pair[1]}]",
            "sum of pairwise commutators of the h^1 matrix vanishes",
            (lambda p=pair: check_classical_ybe(F, [p])),
        ))
    return specs


def suite_crossing(F: RMatrixFamily):
    specs = [
        ("crossing", "transpose-invert-squared is proportional to the "
         "displaced R with unit scalar", lambda: check_crossing(F)),
        ("unitarity-scalar", "R(w) R-swapped(-w) is a unit scalar",
         lambda: check_unitarity(F)),
    ]
    if F.family == TRIGONOMETRIC:
        specs.append((
            "degeneration",
            "scaling limit reproduces the rational family entrywise",
            lambda: check_degeneration(F),
        ))
    return specs


def suite_normalize(nf: NormalizedFamily):
    pts = [Fraction(1), Fraction(5, 2)] if nf.mode == "additive" else [
        Fraction(2), Fraction(3)
    ]
    # the vector representation: a one-point ladder, a one-letter word
    none = ArgShift.none(nf.D, nf.mode)
    e = ComoduleWord((none,))
    return [
        ("normalized-qdet",
         "determinant element of the rescaled matrix acts as 1",
         lambda: check_pairing_qdet(nf, [none.const])),
        ("normalized-unitarity",
         "rescaled R times its swapped reflection is the identity",
         lambda: check_rvw_unitarity(nf, e, e, none)),
        ("normalized-crossing",
         "double transpose-invert of rescaled R equals its displacement",
         lambda: nf.crossing_defect()),
        ("pairing-qdet",
         "determinant contraction of the two-point ladder is the identity",
         lambda: check_pairing_qdet(nf, pts)),
        ("pairing-qdet-control",
         "the same contraction without rescaling must fail",
         lambda: check_pairing_control(nf, pts)),
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
        v = ComoduleWord.of([Fraction(2), Fraction(3)], D)
        w = ComoduleWord.of([Fraction(5)], D)
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
         lambda: check_hexagon(nf, v, w, off)),
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


def default_instance(nf: NormalizedFamily, n: int = 3) -> QKZInstance:
    D = nf.D
    words = tuple(ComoduleWord.of([ArgShift.none(D, nf.mode)], D) for _ in range(n))
    if nf.mode == "additive":
        zs = [Fraction(0), Fraction(1), Fraction(5, 2), Fraction(9, 2)]
    else:
        zs = [Fraction(1), Fraction(2), Fraction(5), Fraction(11)]
    z = tuple(ArgShift.of(c, D) for c in zs[:n])
    return QKZInstance(nf, z, words, HSeries.constant(1, D))


def suite_qkz(nf: NormalizedFamily, instances=None, fault: str | None = None):
    if instances is None:
        instances = [default_instance(nf)]
    drop = fault == "drop-step-shift"
    specs = []
    for k, inst in enumerate(instances):
        tag = f"inst{k}"
        specs.append((
            f"{tag}.regular",
            "base-point differences avoid poles and stay invertible",
            (lambda i=inst: i.check_regular()),
        ))
        specs.append((
            f"{tag}.flatness",
            "difference-connection flatness (fault: step shift dropped)"
            if drop
            else "difference-connection flatness for every index pair",
            (lambda i=inst: check_flatness(i, drop)),
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
            (lambda i=inst: check_quasiclassical(i)),
        ))
    return specs


def _qkz_specs(F, nf, cfg):
    instances = [decode_instance(d, nf, F.D) for d in cfg.instances]
    return suite_qkz(nf, instances or None, fault=cfg.fault)


#: every suite once, in the order `all` runs them: name -> (least D, whether
#: it checks the normalized family, its rows from (F, nf, run config)).  qybe
#: and qkz read the h^1 grade; the un-rescaled contraction that
#: pairing-qdet-control needs to differ from Id cannot do so below h^2.
SUITES = {
    "qybe": (1, False, lambda F, nf, cfg: suite_qybe(F)),
    "crossing": (0, False, lambda F, nf, cfg: suite_crossing(F)),
    "normalize": (2, True, lambda F, nf, cfg: suite_normalize(nf)),
    "reps": (0, True, lambda F, nf, cfg: suite_reps(nf)),
    "qkz": (1, True, _qkz_specs),
}
SUITE_NAMES = (*SUITES, "all")


def suite_rows(suite: str) -> list:
    """The table rows a suite name runs: every row for `all`."""
    return [row for name, row in SUITES.items() if suite in (name, "all")]


def build_report(results, config_dict, D: int) -> dict:
    return {
        "environment": {
            "version": __version__,
            "D": D,
            "determinism": "seed-free; exact arithmetic",
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
