"""Span tracing around calls into heightlab's public functions.

`Tracer.install()` replaces every public function of each layer module with
a wrapper that records a span (name, start, end, parent span, job id), at
every module namespace that binds the function, and wraps the methods of
`Subspace` and `FactoredReal` on the class.  Spans stay in memory until
`write()`.  A layer's self time is the duration of its spans minus the part
covered by their child spans; time in sympy or mpmath therefore counts for
the layer that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "cli",
    "infima_lab",
    "filtration",
    "exterior_algebra",
    "rational_linalg",
    "exact_reals",
    "places_heights",
    "twisted_system",
    "bounds_reduction",
)

CLASS_METHODS = {
    ("exterior_algebra", "Subspace"): (
        "__init__", "zero", "full", "span", "kernel", "contains_vector", "contains", "intersect", "add",
    ),
    ("exact_reals", "FactoredReal"): (
        "one", "from_rational", "prime_power", "__mul__", "__truediv__", "__pow__", "cmp",
        "to_fraction", "log10_exact", "log10", "log10_float", "to_json", "from_json",
    ),
}

# per-layer metrics: (name, unit), in the order BENCHMARK.json lists them
METRICS = (
    ("cli.self_ms", "ms"),
    ("cli.requests", "count"),
    ("infima_lab.self_ms", "ms"),
    ("infima_lab.successive_infima.ms", "ms"),
    ("infima_lab.vectors", "count"),
    ("infima_lab.scan_system.ms", "ms"),
    ("infima_lab.scan_hit_ratio", "ratio"),
    ("filtration.self_ms", "ms"),
    ("filtration.candidate_subspaces.ms", "ms"),
    ("filtration.candidates", "count"),
    ("filtration.weight.calls", "count"),
    ("filtration.winner_ratio", "ratio"),
    ("exterior_algebra.self_ms", "ms"),
    ("exterior_algebra.intersect.calls", "count"),
    ("exterior_algebra.add.calls", "count"),
    ("exterior_algebra.subspaces_built", "count"),
    ("rational_linalg.self_ms", "ms"),
    ("rational_linalg.rref.calls", "count"),
    ("rational_linalg.det.calls", "count"),
    ("exact_reals.self_ms", "ms"),
    ("exact_reals.from_rational.calls", "count"),
    ("exact_reals.cmp.calls", "count"),
    ("exact_reals.log10.calls", "count"),
    ("places_heights.self_ms", "ms"),
    ("places_heights.abs_value.calls", "count"),
    ("twisted_system.self_ms", "ms"),
    ("twisted_system.validate.calls", "count"),
    ("twisted_system.twisted_height.calls", "count"),
    ("twisted_system.pair_invariants.ms", "ms"),
    ("bounds_reduction.self_ms", "ms"),
    ("bounds_reduction.bound_constants.calls", "count"),
    ("bounds_reduction.reduce_system.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Records spans while installed; `uninstall()` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in start order
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job_id = array("i")
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        hook = _RESULT_HOOKS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_id, start, end, parent, job_id = self.name_id, self.start, self.end, self.parent, self.job_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_id.append(self.job)
            start.append(clock())
            end.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result

        return wrapper

    def _generator_wrapper(self, name: str, fn):
        """Counts the items a generator yields, in total and per calling span."""
        counts, stack, names, name_id = self.counts, self._stack, self.names, self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name + ".yields"] += 1
                if stack:
                    counts[f"{name}.yields@{names[name_id[stack[-1]]]}"] += 1
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"heightlab.{layer}")
        modules = [m for k, m in sys.modules.items() if k == "heightlab" or k.startswith("heightlab.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"heightlab.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrappers[id(fn)] = (fn, self._generator_wrapper(name, fn))
                else:
                    wrappers[id(fn)] = (fn, self._span_wrapper(name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(sys.modules[f"heightlab.{layer}"], cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                name = f"{layer}.{attr.strip('_')}"
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._span_wrapper(name, raw.__func__))
                else:
                    wrapped = self._span_wrapper(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def summary(self, jobs: int) -> dict:
        """Per-name calls, total and self nanoseconds, and per-layer self time."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        total_ns = Counter()
        layer_self_ns = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total_ns[name] += dur
            layer_self_ns[name.split(".", 1)[0]] += dur - child[i]
        return {"jobs": jobs, "spans": n, "calls": calls, "total_ns": total_ns, "self_ns": layer_self_ns}

    def write(self, path: str):
        """One tab-separated line per span: id, name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tjob\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.job_id[i]}\n"
                )


def _count_candidates(counts, result):
    counts["filtration.candidates"] += len(result)


def _count_scan(counts, result):
    counts["infima_lab.scan_solutions"] += len(result.solutions)


_RESULT_HOOKS = {
    "filtration.candidate_subspaces": _count_candidates,
    "infima_lab.scan_system": _count_scan,
}


def per_layer_metrics(summary: dict, counts: Counter, overhead_ratio: float) -> dict:
    """The METRICS values: times in ms per job, counts as totals over the pass."""
    jobs = summary["jobs"]
    calls, total_ns, self_ns = summary["calls"], summary["total_ns"], summary["self_ns"]

    def per_job_ms(ns):
        return ns / 1e6 / jobs

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name, _ in METRICS:
        layer, rest = name.split(".", 1)
        if rest == "self_ms":
            values[name] = per_job_ms(self_ns[layer])
        elif rest.endswith(".ms"):
            values[name] = per_job_ms(total_ns[f"{layer}.{rest[:-3]}"])
        elif rest.endswith(".calls"):
            values[name] = calls[f"{layer}.{rest[:-6]}"]
    values["cli.requests"] = calls["cli.main"]
    values["infima_lab.vectors"] = counts["infima_lab.enumerate_primitive.yields"]
    values["infima_lab.scan_hit_ratio"] = ratio(
        counts["infima_lab.scan_solutions"],
        counts["infima_lab.enumerate_primitive.yields@infima_lab.scan_system"],
    )
    values["filtration.candidates"] = counts["filtration.candidates"]
    values["filtration.winner_ratio"] = ratio(
        calls["filtration.exceptional_subspace"], counts["filtration.candidates"]
    )
    values["exterior_algebra.subspaces_built"] = calls["exterior_algebra.init"]
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: values[name] for name, _ in METRICS}
