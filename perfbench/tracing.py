"""Span tracing of thetakit's layers from outside the package.

`Tracer.install` replaces every module-level binding of the measured public
functions across the loaded ``thetakit.*`` modules (including names one
module imported from another, such as ``cli.eigenvalues``) with a wrapper
that records a span: layer name, start, end, parent span and job id. Spans
stay in memory until the job ends; `job_layers` turns one job's spans into
per-layer counters. A layer's self time is its span duration minus the time
covered by its child spans. The wrapper's own work after a call (binding
arguments, hashing inputs for repeat keys) is timed as the span's `probe_s`
and charged to no layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import sys
import time

import numpy as np

# layer name -> (module, function names); None means every public function
# the module defines itself.
LAYERS = (
    ("catalog.load", "catalog", ("load",)),
    ("io.graph6", "io", ("read_graph6", "from_graph6")),
    ("graphs.generate", "graphs", None),
    ("products.spectrum", "products", ("power_spectrum", "product_spectrum")),
    ("products.materialize", "products", ("strong_product", "strong_power")),
    ("spectra.eigensolve", "spectra", ("eigenvalues", "jacobi_eigenvalues")),
    ("spectra.group", "spectra", ("spectrum_from_values", "spectrum_from_groups")),
    ("srg.check", "srg", ("srg_check",)),
    ("theta.sdp", "theta", ("theta_exact_result",)),
    ("theta.best", "theta", ("theta_best",)),
    ("bounds", "bounds", None),
    ("exact.clique", "exact", ("clique_number", "independence_number")),
    ("exact.chromatic", "exact", ("chromatic_number",)),
    ("exact.capacity", "exact", ("capacity_certificate", "capacity_power_lb")),
)


def _digest(array) -> str:
    a = np.ascontiguousarray(array)
    return hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest() + str(a.shape)


def _solve(out, args):
    budget = float(args["budget"])
    return {"solves": 1, "timeouts": int(out.status == "timeout"),
            "elapsed": float(out.elapsed), "budget": budget}


def _theta_best(out, args):
    return {f"method.{out.method}": 1}


# counters recorded per call, keyed by "<module>.<function>"; each gets the
# return value and the bound arguments. Repeat keys are the inputs whose
# reuse `repeat_share` counts.
PROBES = {
    "spectra.jacobi_eigenvalues": lambda out, a: {"n3": len(out) ** 3},
    "theta.theta_exact_result": lambda out, a: {
        "iterations": out.iterations, "converged": int(out.converged),
        "results": 1, "gap": float(out.gap)},
    "theta.theta_best": _theta_best,
    "exact.clique_number": _solve,
    "exact.chromatic_number": _solve,
    "products.power_spectrum": lambda out, a: {
        "combos": math.comb(len(a["s"].groups) + a["k"] - 1, a["k"])},
    "products.product_spectrum": lambda out, a: {
        "combos": math.prod(len(s.groups) for s in a["spectra"])},
    "products.strong_product": lambda out, a: {
        "vertices": out.n, "bytes_computed": 2 * out.n * out.n},
    "io.from_graph6": lambda out, a: {"bytes": len(a["text"])},
}
REPEAT_KEYS = {
    "spectra.jacobi_eigenvalues": lambda a: _digest(a["matrix"]),
    "theta.theta_best": lambda a: (_digest(a["g"].adj), a["tol"], a["exact_cap"]),
    "srg.srg_check": lambda a: _digest(a["g"].adj),
}


class _Span:
    __slots__ = ("name", "parent", "job", "start", "end", "probe_s", "failed", "extra")

    def __init__(self, name, parent, job):
        self.name, self.parent, self.job = name, parent, job
        self.start = self.end = self.probe_s = 0.0
        self.failed = False
        self.extra = {}

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans around thetakit's public functions, grouped by job."""

    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[int] = []
        self._seen: dict = {}
        self.job = None

    def begin_job(self, job_id) -> None:
        self.spans, self._stack, self._seen, self.job = [], [], {}, job_id

    def _wrap(self, layer: str, key: str, fn):
        sig = inspect.signature(fn)
        probe, repeat = PROBES.get(key), REPEAT_KEYS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _Span(layer, self._stack[-1] if self._stack else None, self.job)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe or repeat:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if probe:
                    span.extra.update(probe(out, bound.arguments))
                if repeat:
                    seen = self._seen.setdefault(key, set())
                    k = repeat(bound.arguments)
                    span.extra["keyed"] = 1
                    span.extra["repeats"] = int(k in seen)
                    seen.add(k)
                span.probe_s = time.perf_counter() - span.end
            return out

        return traced

    def install(self) -> None:
        """Wrap every binding of the measured functions in loaded thetakit modules."""
        wrapped = {}
        for layer, modname, names in LAYERS:
            mod = sys.modules[f"thetakit.{modname}"]
            if names is None:
                names = [n for n, v in vars(mod).items()
                         if inspect.isfunction(v) and not n.startswith("_")
                         and v.__module__ == mod.__name__]
            for name in names:
                fn = getattr(mod, name)
                wrapped[fn] = self._wrap(layer, f"{modname}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "thetakit" and not modname.startswith("thetakit."):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, name, wrapped[value])
        # the catalog's generator table holds some generator functions
        # directly rather than through a module attribute
        gens = sys.modules["thetakit.catalog"]._GENERATORS
        for key, entry in gens.items():
            if entry[0] in wrapped:
                gens[key] = (wrapped[entry[0]],) + tuple(entry[1:])

    def job_spans(self) -> list:
        """The current job's spans; `parent` indexes into the same list."""
        return [s.as_dict() for s in self.spans]


def job_layers(spans: list, t0: float, t1: float) -> tuple[dict, float, bool]:
    """Per-layer counters for one job's spans, the time covered by its
    top-level spans and their probes, and whether the spans are consistent:
    each lies inside the job's window [t0, t1] and inside its parent, and no
    self time is negative.

    `calls` counts spans with no enclosing span of the same layer, so a
    layer function calling another of its own layer counts once.
    """
    eps = 1e-6
    child = [0.0] * len(spans)
    covered = 0.0
    ok = True
    for s in spans:
        outer = (t0, t1) if s["parent"] is None else (
            spans[s["parent"]]["start"], spans[s["parent"]]["end"])
        ok &= outer[0] - eps <= s["start"] <= s["end"] <= outer[1] + eps
        took = s["end"] - s["start"] + s["probe_s"]
        if s["parent"] is None:
            covered += took
        else:
            child[s["parent"]] += took
    ok &= covered <= t1 - t0 + eps
    layers: dict = {}
    for i, s in enumerate(spans):
        row = layers.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
        own = (s["end"] - s["start"]) - child[i]
        ok &= own >= -eps
        row["self_s"] += own
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        if p is None:
            row["calls"] += 1
            row["failed"] = row.get("failed", 0) + int(s["failed"])
        merge_counters(row, s["extra"])
    return layers, covered, ok


def merge_counters(acc: dict, row: dict) -> None:
    """Add one row of layer counters into `acc`; `gap` keeps the largest."""
    for k, v in row.items():
        acc[k] = max(acc.get(k, v), v) if k == "gap" else acc.get(k, 0) + v
