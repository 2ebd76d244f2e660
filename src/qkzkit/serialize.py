"""Exact text/JSON round-trips for ring elements, operators, and configs.

Formats are decimal-free: fractions are "p/q", polynomials "p/q*w^k + ...",
rational functions "num / den", h-series "c0,c1,...".  A Scalar is the list
of its grade strings; a LegMatrix is {dims, mode, D, entries}.
"""

from __future__ import annotations

import json

from .errors import KernelError
from .families import ArgShift
from .hseries import HSeries, hseries_to_str, str_to_hseries
from .qkz import FAULTS, QKZInstance
from .ratfn import ratfn_to_str, str_to_ratfn
from .reps import ComoduleWord
from .scalar import ADDITIVE, MULTIPLICATIVE, Scalar
from .tensor import LegMatrix, LegShape


def scalar_to_list(s: Scalar) -> list:
    return [ratfn_to_str(g) for g in s.grades]


def list_to_scalar(items, mode: str = ADDITIVE) -> Scalar:
    return Scalar([str_to_ratfn(t) for t in items], mode)


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
    s = str_to_hseries(_typed("point or word factor", text, str), D)
    return ArgShift(s.constant_part, s.positive_part())


def dict_to_word(d: dict, D: int):
    extra = set(_typed("word", d, dict)) - {"factors"}
    if extra:
        raise KernelError(f"unknown word fields: {sorted(extra)}")
    factors = _typed("factors", d["factors"], list)
    return ComoduleWord(tuple(str_to_argshift(t, D) for t in factors))


# -- run configuration -------------------------------------------------

#: the JSON type of each config field
_CONFIG_TYPES = {
    "family": str, "N": int, "D": int, "suite": str, "instances": list,
    "out": str, "fault": str,
}
_INSTANCE_FIELDS = {"points", "words", "K"}
_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(name: str, value, kind):
    """value, checked to be of the JSON type kind (a bool is no integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise KernelError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


class RunConfig:
    """A validated run: every value rule is checked here, once."""

    def __init__(
        self,
        family: str,
        N: int = 2,
        D: int = 4,
        suite: str = "all",
        instances=(),
        out: str | None = None,
        fault: str | None = None,
    ):
        from .suites import SUITE_NAMES, suite_rows  # suites imports this module

        _typed("N", N, int)
        _typed("D", D, int)
        if suite not in SUITE_NAMES:
            raise KernelError(f"unknown suite {suite!r}")
        if fault is not None and fault not in FAULTS:
            raise KernelError(f"unknown fault {fault!r}; known: {list(FAULTS)}")
        least_d = max(d for d, _, _ in suite_rows(suite))
        if D < least_d:
            raise KernelError(f"suite {suite!r} needs D >= {least_d}, got {D}")
        if (instances or fault is not None) and suite not in ("qkz", "all"):
            raise KernelError(
                f"instances and fault apply only with suite qkz or all, not {suite!r}"
            )
        self.family = family
        self.N = N
        self.D = D
        self.suite = suite
        self.instances = list(instances)  # raw dicts; decoded lazily
        self.out = out
        self.fault = fault

    def to_dict(self) -> dict:
        d = {
            "family": self.family,
            "N": self.N,
            "D": self.D,
            "suite": self.suite,
            "instances": self.instances,
        }
        if self.out is not None:
            d["out"] = self.out
        if self.fault is not None:
            d["fault"] = self.fault
        return d

    @staticmethod
    def from_dict(d: dict, **overrides) -> "RunConfig":
        """The config of a JSON object, with overrides (already typed, such
        as command-line values) replacing its fields."""
        extra = set(_typed("config", d, dict)) - set(_CONFIG_TYPES)
        if extra:
            raise KernelError(f"unknown config fields: {sorted(extra)}")
        for key, value in d.items():
            _typed(key, value, _CONFIG_TYPES[key])
        for inst in d.get("instances", ()):
            bad = set(_typed("instance", inst, dict)) - _INSTANCE_FIELDS
            if bad:
                raise KernelError(f"unknown instance fields: {sorted(bad)}")
        fields = {**d, **overrides}
        return RunConfig(fields.pop("family"), **fields)

    @staticmethod
    def load(path: str, **overrides) -> "RunConfig":
        with open(path) as f:
            return RunConfig.from_dict(json.load(f), **overrides)


def decode_instance(d: dict, nf, D: int):
    points = _typed("points", d["points"], list)
    points = tuple(str_to_argshift(t, D) for t in points)
    words = tuple(dict_to_word(w, D) for w in _typed("words", d["words"], list))
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
    k = str_to_hseries(_typed("K", d.get("K", "1"), str), D)
    return QKZInstance(nf, points, words, k)
