"""Span recorder for the benchmark's traced runs.

Spans are recorded from outside the program: :func:`install` replaces
the public entry point of each layer, at the place where its caller
looks the name up, with a wrapper that opens a span around the call.
Each span has a name, a start and an end (``time.monotonic`` seconds),
the index of its parent span and the id of the request it belongs to.
Spans stay in memory; :meth:`Recorder.dump` writes them once, as JSON
and in Chrome Trace Event format.

A span's self time is its duration minus the durations of its direct
children, except children marked *transparent* (disk-cache I/O), whose
time stays with the parent layer that asked for it.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Optional

#: Span names whose time is charged to the enclosing span.
TRANSPARENT = ("interp.diskcache",)

#: Per-layer self-time metrics: metric name -> span names summed.
LAYER_SPANS = {
    "repro.import_s": ("repro.import",),
    "apps.build_s": ("apps.build",),
    "passes.preopt_s": ("passes.preopt",),
    "passes.cleanup_s": ("passes.cleanup",),
    "ad.analysis_s": ("ad.inline", "ad.aliasing", "ad.activity"),
    "ad.cacheplan_s": ("ad.cacheplan",),
    "ad.emit_s": ("ad.transform",),
    "ir.verify_s": ("ir.verify",),
    "passes.certify_s": ("passes.certify",),
    "interp.lower_s": ("interp.lower",),
    "interp.pycompile_s": ("interp.compile",),
    "interp.native_build_s": ("interp.native_build",),
    "interp.exec_s": ("interp.exec",),
}


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request = 0

    def begin(self, name: str, start: Optional[float] = None) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name,
            "start": time.monotonic() if start is None else start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "args": {},
        })
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> dict:
        span = self.spans[idx]
        span["end"] = time.monotonic()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        return span

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn: Callable, name, after=None) -> Callable:
        """``fn`` inside a span.  ``name`` is a string or a callable of
        the call's arguments; ``after(span_args, result, *args)`` runs
        once the span is closed, to record counts without timing them."""
        rec = self

        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            idx = rec.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = rec.end(idx)
            if after is not None:
                after(span["args"], result, *args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- aggregation ---------------------------------------------------
    def self_times(self, request: int) -> dict[str, float]:
        """Span name -> summed self time over one request's spans."""
        out: dict[str, float] = {}
        children: dict[int, float] = {}
        for s in self.spans:
            if s["request"] != request or s["end"] is None:
                continue
            dur = s["end"] - s["start"]
            if s["parent"] is not None and s["name"] not in TRANSPARENT:
                children[s["parent"]] = children.get(s["parent"], 0.0) + dur
        for i, s in enumerate(self.spans):
            if s["request"] != request or s["end"] is None:
                continue
            dur = s["end"] - s["start"]
            out[s["name"]] = out.get(s["name"], 0.0) + dur - children.get(i, 0.0)
        return out

    def inclusive(self, request: int, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["request"] == request and s["name"] == name
                   and s["end"] is not None)

    def args_of(self, request: int, name: str) -> list[dict]:
        return [s["args"] for s in self.spans
                if s["request"] == request and s["name"] == name]

    def dump(self, path_stem: str, pid: int) -> None:
        """Write ``<stem>.spans.json`` and ``<stem>.chrome.json``."""
        with open(path_stem + ".spans.json", "w") as f:
            json.dump(self.spans, f)
        events = []
        for s in self.spans:
            if s["end"] is None:
                continue
            events.append({
                "name": s["name"], "ph": "X", "pid": pid,
                "tid": s["request"],
                "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                "args": s["args"],
            })
        with open(path_stem + ".chrome.json", "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# ----------------------------------------------------------------------
# Recording hooks for the layers' results (run after the span closes)
# ----------------------------------------------------------------------

def _pass_name(pm, fn, module) -> str:
    # The AD transform runs the pre-AD pipeline on its private working
    # copy and the cleanup pipeline on the generated gradient.
    return ("passes.preopt" if fn.name.startswith("__ad_work_")
            else "passes.cleanup")


def _after_passes(args: dict, result, pm, fn, module) -> None:
    args["changes"] = sum(pm.stats.values())


def _after_transform(args: dict, grad_name, tr) -> None:
    args["grad_ops"] = tr.module.functions[grad_name].num_ops()
    plan = getattr(tr, "plan", None)
    args["cache_slots"] = len(plan.slots) if plan is not None else 0


def _after_compile(args: dict, code, fn, *rest) -> None:
    args["fusion"] = code.__fusion_stats__.as_dict()
    ns = code.__native_stats__
    args["native"] = ({"claimed": ns.claimed,
                       "claims_proven": ns.claims_proven}
                      if ns is not None else None)


def _after_load(args: dict, result, *rest) -> None:
    args["hit"] = result is not None


def _after_executor(args: dict, result, ex, *rest) -> None:
    args["peak_cached_bytes"] = ex.adjoint_stats()["peak_cached_bytes"]


def _after_simmpi(args: dict, result, engine, *rest) -> None:
    args["peak_cached_bytes"] = sum(
        st.executor.adjoint_stats()["peak_cached_bytes"]
        for st in engine.ranks)


#: (module, attribute path, span name or namer, after-hook).  Each entry
#: names the place where the caller looks the entry point up.
PATCHES = [
    ("repro.ad.transform", "ADTransform.build", "ad.transform",
     _after_transform),
    ("repro.passes.pass_manager", "PassManager.run_function", _pass_name,
     _after_passes),
    ("repro.ad.transform", "force_inline_all", "ad.inline", None),
    ("repro.ad.transform", "analyze_aliasing", "ad.aliasing", None),
    ("repro.ad.transform", "analyze_activity", "ad.activity", None),
    ("repro.ad.cacheplan", "CachePlanner.build", "ad.cacheplan", None),
    ("repro.ir.verifier", "verify_function", "ir.verify", None),
    ("repro.passes.intervals", "certify_bounds", "passes.certify", None),
    ("repro.interp.compile", "lower_function", "interp.lower", None),
    ("repro.interp.compile", "compile_function", "interp.compile",
     _after_compile),
    ("repro.interp.native", "compile_function", "interp.compile",
     _after_compile),
    ("repro.interp.native", "NativeEmitter.build", "interp.native_build",
     None),
    ("repro.interp.diskcache", "CompileCache.load", "interp.diskcache",
     _after_load),
    ("repro.interp.diskcache", "CompileCache.store", "interp.diskcache",
     None),
    ("repro.interp.diskcache", "CompileCache.load_native",
     "interp.diskcache", _after_load),
    ("repro.interp.diskcache", "CompileCache.store_native",
     "interp.diskcache", None),
    ("repro.interp.executor", "Executor.run", "interp.exec",
     _after_executor),
    ("repro.parallel.mpi", "SimMPI.run", "interp.exec", _after_simmpi),
]


def install(rec: Recorder) -> None:
    """Wrap every entry point in :data:`PATCHES` with ``rec``'s spans."""
    for modname, path, name, after in PATCHES:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, after))


def summary(rec: Recorder) -> dict:
    """What the parent aggregates: request 0 (process start to first
    gradient) broken into layer self times and counts, plus the
    execution self time of every later, steady-state request."""
    first = rec.self_times(0)
    counts: dict[str, float] = {}
    counts["passes.pass_changes"] = sum(
        a.get("changes", 0) for name in ("passes.preopt", "passes.cleanup")
        for a in rec.args_of(0, name))
    tr = rec.args_of(0, "ad.transform")
    counts["ad.grad_ops"] = sum(a.get("grad_ops", 0) for a in tr)
    counts["ad.cache_slots"] = sum(a.get("cache_slots", 0) for a in tr)
    fusion: dict[str, int] = {}
    claimed = proven = 0
    for a in rec.args_of(0, "interp.compile"):
        for k, v in a.get("fusion", {}).items():
            fusion[k] = fusion.get(k, 0) + v
        native = a.get("native") or {}
        claimed += native.get("claimed", 0)
        proven += native.get("claims_proven", 0)
    counts["interp.lowered_ops"] = fusion.get("ops", 0)
    counts["interp.kernels"] = fusion.get("kernels", 0)
    counts["interp.fused_ops"] = fusion.get("fused_ops", 0)
    counts["interp.checks_elided"] = fusion.get("checks_elided", 0)
    counts["interp.bounds_unproven"] = fusion.get("bounds_unproven", 0)
    counts["interp.native_claimed"] = claimed
    counts["interp.native_claims_proven"] = proven
    loads = [a["hit"] for a in rec.args_of(0, "interp.diskcache")
             if "hit" in a]
    counts["interp.diskcache_hits"] = sum(loads)
    counts["interp.diskcache_misses"] = len(loads) - sum(loads)
    counts["ad.cache_peak_bytes"] = max(
        (a.get("peak_cached_bytes", 0) for a in rec.args_of(0, "interp.exec")),
        default=0)
    return {
        "first": first,
        "first_wall_s": rec.inclusive(0, "request"),
        "transform_incl_s": rec.inclusive(0, "ad.transform"),
        "steady_exec_s": [rec.self_times(r).get("interp.exec", 0.0)
                          for r in range(1, rec.request + 1)],
        "counts": counts,
    }
