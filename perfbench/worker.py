"""One benchmark process: a gradient request, or the reference.

Run by ``run.py`` as ``python3 perfbench/worker.py '<json config>'``;
prints one JSON line.  The config keys are:

* ``role``: ``"request"`` (fresh-process gradient request, then
  steady-state gradients) or ``"reference"`` (one gradient on the
  interpreter, after importing every ``repro`` module so the
  benchmark's bytecode cache is warm for the requests);
* ``workload``, ``seed``, ``backend``;
* ``t_spawn``: ``time.monotonic()`` of the parent just before it
  started this process (the clock is system-wide), so the first
  gradient is timed from process start;
* ``steady_s`` and ``min_steady``: steady-state sampling budget;
* ``rss_after``: a number of steady gradients after which the peak RSS
  is read (and which the process makes at least), or null for no
  reading.  A fixed amount of work, so the reading does not depend on
  how many samples the host's speed allowed;
* before each steady gradient a request runs the cyclic garbage
  collector, outside the timed region;
* a request also times the host-speed probe (``probe_s``):
  ``FIRST_PROBES`` times right after its first gradient, and once
  before each steady one;
* ``trace``: a path stem to write spans to, or null for no tracing;
  ``pid``: the process number shown in the Chrome trace.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext

#: Probes timed right after the first gradient.
FIRST_PROBES = 3


def _import_everything() -> None:
    import importlib
    import pkgutil

    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    cfg = json.loads(sys.argv[1])
    t_spawn = cfg["t_spawn"]
    rec = None
    if cfg.get("trace"):
        import spans
        rec = spans.Recorder()
        root = rec.begin("request", start=t_spawn)
        imp = rec.begin("repro.import", start=t_spawn)

    import numpy  # noqa: F401
    import repro  # noqa: F401
    import workloads
    if workloads.WORKLOADS[cfg["workload"]]["app"] == "lulesh":
        import repro.apps.lulesh.driver  # noqa: F401
    else:
        import repro.apps.minibude.driver  # noqa: F401
    if cfg["role"] == "reference":
        _import_everything()

    if rec is not None:
        rec.end(imp)
        idx = rec.begin("bench.trace_install")
        spans.install(rec)
        rec.end(idx)

    def span(name):
        return rec.span(name) if rec is not None else nullcontext()

    out = {"digests": [], "errors": [], "steady_s": [], "probe_s": []}
    try:
        with span("apps.build"):
            prog = workloads.Program(cfg["workload"], cfg["seed"],
                                     cfg["backend"])
        with span("bench.inputs"):
            inputs = prog.inputs()
        result = prog.gradient(inputs)
        out["first_s"] = time.monotonic() - t_spawn
        if rec is not None:
            rec.end(root)
        out["digests"].append(prog.digest(result))
    except Exception:  # noqa: BLE001 - reported as a failed gradient
        out["errors"].append(traceback.format_exc())
        return _finish(out, rec, cfg)

    if cfg["role"] == "request":
        out["probe_s"] = [workloads.host_calib()
                          for _ in range(FIRST_PROBES)]
        deadline = time.monotonic() + cfg["steady_s"]
        rss_after = cfg.get("rss_after")
        min_steady = max(cfg["min_steady"], rss_after or 0)
        last = 0.0
        while (len(out["steady_s"]) < min_steady
               or time.monotonic() + last <= deadline):
            # Each gradient starts from a collected heap: a LULESH openmp
            # gradient leaves ~20 MB in reference cycles, and the moment
            # the cyclic collector frees them would otherwise decide the
            # peak RSS reading.
            gc.collect()
            out["probe_s"].append(workloads.host_calib())
            if rec is not None:
                rec.request += 1
                root = rec.begin("request")
            try:
                with span("bench.inputs"):
                    inputs = prog.inputs()
                t0 = time.monotonic()
                result = prog.gradient(inputs)
                last = time.monotonic() - t0
                if rec is not None:
                    rec.end(root)
                out["steady_s"].append(last)
                if len(out["steady_s"]) == rss_after:
                    out["peak_rss_mb"] = _rss_mb()
                out["digests"].append(prog.digest(result))
            except Exception:  # noqa: BLE001 - reported as a failed gradient
                out["errors"].append(traceback.format_exc())
                break
    return _finish(out, rec, cfg)


def _finish(out: dict, rec, cfg: dict) -> int:
    if rec is not None:
        import spans
        rec.dump(cfg["trace"], pid=cfg["pid"])
        out["trace"] = spans.summary(rec)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
