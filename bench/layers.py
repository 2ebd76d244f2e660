"""In-process layer tracing for the qkzkit benchmark.

The tracer wraps public entry points of the ``qkzkit`` modules from the
outside: each wrapper replaces the function wherever it is looked up (class
attributes, module globals, and names other modules imported), so the
program itself is not modified.

Two kinds of boundary are recorded:

* span layers (tensor, families, qdet, reps, qkz, cache, suites, cli) keep
  one span per call: ``(id, name, start, end, parent, hot)``, where ``hot``
  is the time that aggregated calls directly below the span took;
* hot layers (ratfn, hseries, scalar) see millions of calls, so they keep
  aggregated counts and self times instead of spans.

A layer's self time is the time its frames ran minus the time their child
frames covered.  Hot layers sit below span layers: a hot entry point never
calls back into a span layer.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

#: aggregated layers: module -> entry points ("Class.method" or function).
#: RatFn's constructor is left out: it runs inside nearly every other RatFn
#: call, so wrapping it would double the tracing cost of the hottest layer;
#: the gcd it runs is still counted through pgcd.
HOT = {
    "ratfn": [
        "RatFn.__add__", "RatFn.__sub__", "RatFn.__mul__",
        "RatFn.__neg__", "RatFn.__truediv__", "RatFn.scale", "RatFn.inv",
        "RatFn.diff", "RatFn.eval", "RatFn.shift_arg", "RatFn.scale_arg",
        "RatFn.recip_arg", "pgcd", "pmul",
    ],
    "hseries": [
        "HSeries.__add__", "HSeries.__sub__", "HSeries.__neg__",
        "HSeries.__mul__", "HSeries.scale", "HSeries.inv", "HSeries.exp",
    ],
    "scalar": [
        "Scalar.__add__", "Scalar.__sub__", "Scalar.__neg__", "Scalar.__mul__",
        "Scalar.mul_ratfn", "Scalar.scale", "Scalar.inv", "Scalar.diff",
        "Scalar.shift", "Scalar.shift_mul", "Scalar.scale_arg",
        "Scalar.negate_arg", "Scalar.eval",
    ],
}

#: span layers: module -> entry points
SPANS = {
    "tensor": [
        "LegMatrix.__mul__", "LegMatrix.__add__", "LegMatrix.__sub__",
        "LegMatrix.__neg__", "LegMatrix.mul_scalar", "LegMatrix.embed",
        "LegMatrix.partial_transpose", "LegMatrix.inv", "LegMatrix.map_entries",
        "LegMatrix.apply", "LegMatrix.grade", "LegMatrix.grade_matrix",
        "rref", "solve_linear", "kernel_basis",
    ],
    "families": [
        "RMatrixFamily.r", "RMatrixFamily.r_value", "family_from_descriptor",
        "check_qybe", "check_classical_ybe", "check_crossing",
        "unitarity_scalar", "check_degeneration",
    ],
    "qdet": [
        "normalize", "find_qdet_vector", "compute_rho", "solve_f0",
        "qdet_apply", "check_pairing_qdet", "NormalizedFamily.r",
        "NormalizedFamily.r_value", "NormalizedFamily.normalized_rho",
        "NormalizedFamily.unitarity_scalar", "NormalizedFamily.crossing_defect",
    ],
    "reps": [
        "build_rvw", "build_braiding", "build_L", "check_hexagon",
        "check_braid_relation", "check_rvw_unitarity", "check_intertwiner",
    ],
    "qkz": [
        "build_nabla", "check_flatness", "check_braiding_equivariance",
        "check_quasiclassical", "QKZInstance.check_regular",
    ],
    "cache": ["load_normalized"],
    "suites": ["run_checks", "build_report"],
    "cli": ["run"],
}

#: entry points whose outermost calls are timed together, and counted
GROUPS = {
    "ratfn.pgcd": "ratfn.gcd",
    "scalar.Scalar.__mul__": "scalar.mul",
    "scalar.Scalar.shift": "scalar.shift",
    "scalar.Scalar.shift_mul": "scalar.shift",
    "scalar.Scalar.scale_arg": "scalar.shift",
    "scalar.Scalar.negate_arg": "scalar.shift",
    "scalar.Scalar.eval": "scalar.eval",
    "tensor.LegMatrix.__mul__": "tensor.mul",
    "tensor.LegMatrix.embed": "tensor.embed",
    "tensor.LegMatrix.inv": "tensor.inv",
    "tensor.rref": "tensor.rref",
    "families.RMatrixFamily.r": "families.r",
    "qdet.NormalizedFamily.r": "families.r",
    "families.RMatrixFamily.r_value": "families.r_value",
    "qdet.NormalizedFamily.r_value": "families.r_value",
    "qdet.normalize": "qdet.normalize",
    "qdet.find_qdet_vector": "qdet.find_vector",
    "qdet.qdet_apply": "qdet.apply",
    "reps.build_rvw": "reps.build_rvw",
    "qkz.build_nabla": "qkz.build_nabla",
    "cache.load_normalized": "cache.load",
}

#: entry points wrapped only where other modules call them; calls inside
#: their own module stay inside an already-timed entry point
FOREIGN = {"ratfn.pmul"}


def self_times(spans) -> dict:
    """Self time per layer from spans ``(id, name, start, end, parent, hot)``.

    A span's self time is its duration minus the durations of its child
    spans and minus ``hot``; the layer is the part of ``name`` before the
    first dot.
    """
    child = defaultdict(float)
    for _sid, _name, start, end, parent, _hot in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = defaultdict(float)
    for sid, name, start, end, _parent, hot in spans:
        out[name.split(".", 1)[0]] += (end - start) - child[sid] - hot
    return dict(out)


def _coeff_bits(poly) -> int:
    """Bits of the largest numerator or denominator among the coefficients."""
    if not poly:
        return 0
    num = max(abs(c.numerator) for c in poly)
    den = max(c.denominator for c in poly)
    return max(num.bit_length(), den.bit_length())


class Tracer:
    """Records spans and aggregated counters at qkzkit layer boundaries.

    ``install(modules)`` patches the entry points; ``uninstall()`` puts
    the original functions back.  Spans stay in memory in ``spans``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # a frame is [time of hot calls directly below it, span id]
        self.stack = [[0.0, None]]
        self.spans: list = []
        # one mutable cell per name, so that wrappers update it in place
        self._calls: dict = {}  # entry point -> [calls]
        self._groups: dict = {}  # group -> [depth, seconds of outermost calls]
        self._hot: dict = {}  # hot layer -> [self seconds]
        self.gcd_useful = 0
        self.max_deg = 0
        self.max_coeff_bits = 0
        self.max_nnz = 0
        self.inv_max_dim = 0
        self.rvw_args: set = set()
        self._patched: list = []

    @property
    def calls(self) -> Counter:
        return Counter({k: c[0] for k, c in self._calls.items()})

    @property
    def group_s(self) -> dict:
        return defaultdict(float, {k: c[1] for k, c in self._groups.items()})

    # -- observations taken after a call returns ------------------------
    def _observe(self, name, args, kwargs, result):
        if name == "ratfn.pgcd":
            a, b = args
            self.max_deg = max(self.max_deg, len(a) - 1, len(b) - 1)
            self.max_coeff_bits = max(
                self.max_coeff_bits, _coeff_bits(a), _coeff_bits(b)
            )
            if len(result) > 1:
                self.gcd_useful += 1
        elif name.startswith("tensor.") and hasattr(result, "entries"):
            self.max_nnz = max(self.max_nnz, len(result.entries))
            if name == "tensor.LegMatrix.inv":
                self.inv_max_dim = max(self.inv_max_dim, result.shape.total)
        elif name == "reps.build_rvw":
            self.rvw_args.add((args[1:], tuple(sorted(kwargs.items()))))

    def wrap(self, fn, name: str, hot: bool):
        """Wrapper of fn that records the call under name ("module.qual")."""
        clock, stack, spans = self.clock, self.stack, self.spans
        push, pop = stack.append, stack.pop
        count = self._calls.setdefault(name, [0])
        group = GROUPS.get(name)
        gcell = self._groups.setdefault(group, [0, 0.0]) if group else None
        observe = self._observe if group else None
        layer_self = self._hot.setdefault(name.split(".", 1)[0], [0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)  # reserve the id; filled on exit
            push(frame)
            if gcell:
                gcell[0] += 1
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                pop()
                count[0] += 1
                if gcell:
                    gcell[0] -= 1
                    if not gcell[0]:
                        gcell[1] += t1 - t0
                if observe and done:
                    observe(name, args, kwargs, result)
                if hot:
                    layer_self[0] += (t1 - t0) - frame[0]
                    # the parent also excludes this wrapper's bookkeeping
                    parent[0] += clock() - t0
                else:
                    spans[frame[1]] = (frame[1], name, t0, t1, parent[1], frame[0])

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict):
        """Patch every entry point of HOT and SPANS in modules
        (short name -> module)."""
        for table, hot in ((HOT, True), (SPANS, False)):
            for mod_name, entries in table.items():
                for entry in entries:
                    self._patch(modules, mod_name, entry, hot)

    def _patch(self, modules, mod_name, entry, hot):
        name = f"{mod_name}.{entry}"
        mod = modules[mod_name]
        owner_name, _, attr = entry.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            orig = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(orig, name, hot))
            self._patched.append((owner, attr, orig))
            return
        orig = getattr(mod, attr)
        wrapped = self.wrap(orig, name, hot)
        # replace the function under every name it is looked up by; a
        # FOREIGN entry point keeps its own module's calls unwrapped
        for other_name, other in modules.items():
            if name in FOREIGN and other_name == mod_name:
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapped)
                    self._patched.append((other, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def layer_self(self) -> dict:
        """Self seconds per layer: hot layers from their aggregated frames,
        span layers from the spans."""
        out = {k: c[0] for k, c in self._hot.items() if k in HOT}
        out.update(self_times([s for s in self.spans if s is not None]))
        return out
