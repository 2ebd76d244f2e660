"""Exact text/JSON round-trips for ring elements, operators, and configs.

Formats are decimal-free: fractions are "p/q", polynomials "p/q*w^k + ...",
rational functions "num / den", h-series "c0,c1,...".  A Scalar is the list
of its grade strings; a LegMatrix is {dims, mode, D, entries}.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import KernelError
from .families import ArgShift
from .hseries import HSeries, hseries_to_str, str_to_hseries
from .qkz import FAULTS
from .ratfn import ratfn_to_str, str_to_ratfn
from .scalar import ADDITIVE, MULTIPLICATIVE, Scalar
from .tensor import LegMatrix, LegShape


def scalar_to_list(s: Scalar) -> list:
    return [ratfn_to_str(g) for g in s.grades]


def list_to_scalar(items, mode: str = ADDITIVE) -> Scalar:
    return Scalar([str_to_ratfn(t) for t in items], mode)


def scalar_to_str(s: Scalar) -> str:
    return " ; ".join(scalar_to_list(s))


def str_to_scalar(text: str, mode: str = ADDITIVE) -> Scalar:
    return list_to_scalar(text.split(" ; "), mode)


def legmatrix_to_dict(m: LegMatrix) -> dict:
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
    shape = LegShape(d["dims"])
    mode = d["mode"]
    entries = {}
    for key, items in d["entries"].items():
        r, c = (int(x) for x in key.split(","))
        entries[(r, c)] = list_to_scalar(items, mode)
    return LegMatrix(shape, entries, int(d["D"]), mode)


# -- displacements and words -------------------------------------------

def argshift_to_str(a: ArgShift) -> str:
    """An ArgShift serialized as the h-series const + hpart."""
    return hseries_to_str(HSeries.constant(a.const, a.hpart.truncation) + a.hpart)


def str_to_argshift(text: str, D: int) -> ArgShift:
    s = str_to_hseries(text, D)
    return ArgShift(s.constant_part, s.positive_part())


def word_to_dict(word) -> dict:
    return {"factors": [argshift_to_str(a) for a in word.letters]}


def dict_to_word(d: dict, D: int):
    from .reps import ComoduleWord

    extra = set(d) - {"factors"}
    if extra:
        raise KernelError(f"unknown word fields: {sorted(extra)}")
    return ComoduleWord(tuple(str_to_argshift(t, D) for t in d["factors"]))


# -- run configuration -------------------------------------------------

_CONFIG_FIELDS = {
    "family", "N", "D", "suite", "instances", "out", "jobs", "fault",
}
_INSTANCE_FIELDS = {"points", "words", "K"}


class RunConfig:
    def __init__(
        self,
        family: str,
        N: int,
        D: int,
        suite: str = "all",
        instances=(),
        out: str | None = None,
        jobs: int = 1,
        fault: str | None = None,
    ):
        from .suites import SUITE_NAMES  # suites imports this module

        if suite not in SUITE_NAMES:
            raise KernelError(f"unknown suite {suite!r}")
        if fault is not None and fault not in FAULTS:
            raise KernelError(f"unknown fault {fault!r}; known: {list(FAULTS)}")
        self.family = family
        self.N = int(N)
        self.D = int(D)
        self.suite = suite
        self.instances = list(instances)  # raw dicts; decoded lazily
        self.out = out
        self.jobs = int(jobs)  # echoed only: checks run serially
        self.fault = fault

    def to_dict(self) -> dict:
        d = {
            "family": self.family,
            "N": self.N,
            "D": self.D,
            "suite": self.suite,
            "instances": self.instances,
            "jobs": self.jobs,
        }
        if self.out is not None:
            d["out"] = self.out
        if self.fault is not None:
            d["fault"] = self.fault
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        extra = set(d) - _CONFIG_FIELDS
        if extra:
            raise KernelError(f"unknown config fields: {sorted(extra)}")
        for inst in d.get("instances", ()):
            bad = set(inst) - _INSTANCE_FIELDS
            if bad:
                raise KernelError(f"unknown instance fields: {sorted(bad)}")
        return RunConfig(
            family=d["family"],
            N=d.get("N", 2),
            D=d.get("D", 4),
            suite=d.get("suite", "all"),
            instances=d.get("instances", ()),
            out=d.get("out"),
            jobs=d.get("jobs", 1),
            fault=d.get("fault"),
        )

    @staticmethod
    def load(path: str) -> "RunConfig":
        with open(path) as f:
            return RunConfig.from_dict(json.load(f))


def decode_instance(d: dict, nf, D: int):
    from .qkz import QKZInstance
    from .reps import ComoduleWord  # noqa: F401  (via dict_to_word)

    points = tuple(str_to_argshift(t, D) for t in d["points"])
    words = tuple(dict_to_word(w, D) for w in d["words"])
    if not points:
        raise KernelError("an instance needs at least one point")
    if any(len(w) == 0 for w in words):
        raise KernelError("every word needs at least one factor")
    if nf.mode == MULTIPLICATIVE:
        for a in points + tuple(a for w in words for a in w.letters):
            if a.const == 0:
                raise KernelError(
                    "multiplicative point or word factor needs a nonzero "
                    f"h^0 part, got {argshift_to_str(a)!r}"
                )
    consts = [a.const for a in points]
    if len(set(consts)) != len(consts):
        raise KernelError(
            f"base points need pairwise distinct h^0 parts, got {d['points']}"
        )
    k = str_to_hseries(d.get("K", "1"), D)
    return QKZInstance(nf, points, words, k)


def encode_instance(inst) -> dict:
    return {
        "points": [argshift_to_str(z) for z in inst.z],
        "words": [word_to_dict(w) for w in inst.words],
        "K": hseries_to_str(inst.K),
    }
