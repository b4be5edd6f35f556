"""End-to-end and per-layer gradient benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lulesh-omp-steady --seed 1 \\
        --seconds 30 --trace 0

Every workload is a closed loop of fresh worker processes, one at a
time, cycling through three compile-cache states:

* ``cold``: an empty compile-cache directory (``REPRO_CACHE_DIR``);
* ``warm``: the directory the preceding cold process just filled;
* ``none``: ``REPRO_CACHE_DIR`` unset, so nothing is persisted.

A run makes the workload's number of cycles within ``--seconds``.  Each
process times its first gradient from process start, then makes
steady-state gradients (fresh inputs built outside the timed region)
for its share of the time left.  Before the loop, one reference process
computes the same gradient on the interpreter backend; every gradient
of the run must match it bitwise (gradients, primal outputs, simulated
clock and cost vector).

End-to-end times are adjusted for the host's speed: each sample is
scaled by ``CALIB_NOMINAL_S / probe``, where ``probe`` is the median
time of a host-speed probe (a fixed loop that runs no ``repro`` code)
timed between the gradients of the process that took the sample.
On a shared host whose speed swings by up to 1.5x over seconds to
minutes, this keeps a change to the program visible while most of the
host's drift cancels.  The raw medians are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced cycle and prints the per-layer metrics.  The
last line of standard output is one JSON object; the exit code is
nonzero when a gradient failed or mismatched.  All files the run
writes go under ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import CALIB_NOMINAL_S, WORKLOADS, host_calib  # noqa: E402

#: Cache states of one cycle, in launch order (warm follows its cold).
CYCLE = ("cold", "warm", "none")

#: Hard cap on one invocation's wall time, in seconds.
RUN_CAP_S = 170.0

#: Steady gradients every ``none`` process makes at least, so a traced
#: cycle always times one.
MIN_STEADY = 1

#: Steady gradients after which the run's peak RSS is read, so that a
#: leak of any size per gradient shows eight times over.
RSS_GRADS = 8

#: Guess at a first gradient's wall time, in seconds, until the run has
#: measured one (it decides the first process's steady-state share).
FIRST_GUESS_S = 3.0

#: Per-layer metrics that are printed but left out of the JSON result:
#: each is 0 on at least one workload of BENCHMARK.json (the compiled
#: backend builds no C; miniBUDE's spawn bodies lower no ops; neither
#: the MPI nor the task program has atomics or rank skew), or, for the
#: trace overhead, sits around 0 with either sign.  A relative change
#: of such a value is undefined.
PRINTED_ONLY = frozenset({
    "interp.native_build_s", "interp.native_claimed",
    "interp.native_claims_proven", "interp.lowered_ops", "interp.kernels",
    "interp.fused_ops", "interp.checks_elided", "interp.bounds_unproven",
    "interp.compiled_frac", "interp.diskcache_misses", "perf.atomic_ops",
    "perf.reduction_ops", "parallel.sim_clock_spread_s",
    "bench.trace_overhead_frac",
})

#: Environment variables removed for the worker processes (the rest of
#: the environment is inherited; see child_env).
CLEARED_ENV = ("PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE",
               "REPRO_CACHE_DIR")


def child_env(root: str, state: str) -> dict:
    """The fixed environment of every worker process.

    ``PYTHONHASHSEED`` is left to its default randomisation; bytecode
    goes to a benchmark-owned ``PYTHONPYCACHEPREFIX`` (warmed by the
    reference process) so imports cost what they cost with ``.pyc``
    files; temporary files (``cc`` output) stay inside the checkout;
    NumPy's BLAS runs on one thread.
    """
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(state, "pycache")
    env["TMPDIR"] = os.path.join(state, "tmp")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.root = os.getcwd()
        self.state = os.path.join(self.root, ".perfbench")
        self.started = time.monotonic()
        for sub in ("cache", "traces"):
            shutil.rmtree(os.path.join(self.state, sub), ignore_errors=True)
        for sub in ("cache", "traces", "tmp", "pycache"):
            os.makedirs(os.path.join(self.state, sub), exist_ok=True)
        self.env = child_env(self.root, self.state)
        self.n_procs = 0

    def worker(self, cfg: dict, cache_dir=None) -> dict:
        """Run one worker process to completion; its JSON result, or a
        result holding the error when it failed."""
        env = dict(self.env)
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = cache_dir
        cfg = dict(cfg, workload=self.args.workload, seed=self.args.seed,
                   pid=self.n_procs)
        self.n_procs += 1
        timeout = max(1.0, RUN_CAP_S - (time.monotonic() - self.started))
        cfg["t_spawn"] = time.monotonic()
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                json.dumps(cfg)]
        try:
            proc = subprocess.run(argv, env=env, cwd=self.root,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"digests": [], "steady_s": [],
                    "errors": [f"worker timed out after {timeout:.0f} s"]}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"digests": [], "steady_s": [],
                    "errors": [f"worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}"]}
        return json.loads(lines[-1])

    def reference(self) -> dict:
        return self.worker({"role": "reference", "backend": "interp",
                            "steady_s": 0.0, "min_steady": 0,
                            "trace": None})

    def cycle_procs(self, cycles: int, window: float, trace: bool,
                    rss: bool = False) -> list[tuple[str, dict]]:
        """``cycles`` times the processes of CYCLE, in order, within
        ``window`` seconds.  Each process gets for steady gradients an
        equal share of the time left once the first gradients still to
        come are set aside (estimated from the median of those made so
        far); ``none`` processes make at least MIN_STEADY.  With
        ``rss``, the run's first ``none`` process makes at least
        RSS_GRADS steady gradients and reads its peak RSS after them."""
        deadline = time.monotonic() + window
        n = cycles * len(CYCLE)
        procs: list[tuple[str, dict]] = []
        for i in range(n):
            kind = CYCLE[i % len(CYCLE)]
            if kind == "cold":
                cold_dir = os.path.join(self.state, "cache",
                                        str(self.n_procs))
            firsts = [p["first_s"] for _, p in procs if "first_s" in p]
            est = statistics.median(firsts) if firsts else FIRST_GUESS_S
            steady_s = max(0.0, (deadline - time.monotonic()) / (n - i)
                           - est)
            rss_after = (RSS_GRADS if rss and i == CYCLE.index("none")
                         else None)
            stem = None
            if trace:
                stem = os.path.join(
                    self.state, "traces",
                    f"{self.args.workload}-s{self.args.seed}"
                    f"-p{self.n_procs}-{kind}")
            cfg = {"role": "request", "backend": self.spec["backend"],
                   "steady_s": steady_s,
                   "min_steady": MIN_STEADY if kind == "none" else 0,
                   "rss_after": rss_after, "trace": stem}
            procs.append((kind, self.worker(
                cfg, None if kind == "none" else cold_dir)))
        return procs


def check(procs, ref: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) against the reference digest."""
    attempted = failed = 0
    msgs = []
    want = ref["digests"][0]["digest"] if ref["digests"] else None
    if want is None:
        msgs.append("reference failed: " + "; ".join(ref["errors"]))
    for kind, p in procs:
        for d in p["digests"]:
            attempted += 1
            if d["digest"] != want:
                failed += 1
                msgs.append(f"{kind} process: gradient differs from the "
                            f"interpreter reference")
        attempted += len(p["errors"])
        failed += len(p["errors"])
        msgs.extend(f"{kind} process: {e}" for e in p["errors"])
    return attempted, failed, msgs


def end_to_end(procs) -> dict:
    """metric -> (value, raw value, unit, sample count) over a run
    without failures.  A time's value is the median of its samples,
    each scaled by ``CALIB_NOMINAL_S`` over the median probe of the
    process that took it; the raw value is the plain median."""
    def times(samples):
        return (statistics.median(t * f for t, f in samples),
                statistics.median(t for t, _ in samples), "s", len(samples))

    scale = [(kind, p, CALIB_NOMINAL_S / statistics.median(p["probe_s"]))
             for kind, p in procs]
    first = {k: [(p["first_s"], f) for kind, p, f in scale if kind == k]
             for k in CYCLE}
    steady = [(t, f) for _, p, f in scale for t in p["steady_s"]]
    rss = [p["peak_rss_mb"] for _, p in procs if "peak_rss_mb" in p]
    return {
        "setup_s": times(first["none"]),
        "first_grad_cold_s": times(first["cold"]),
        "first_grad_warm_s": times(first["warm"]),
        "grad_s": times(steady),
        "peak_rss_mb": (max(rss), max(rss), "MB", len(rss)),
    }


def per_layer(untraced, traced, ref: dict, calib: list[float]) -> dict:
    """metric -> (value, unit) from one traced cycle without failures."""
    import spans
    cold, warm = (next(p["trace"] for kind, p in traced if kind == k)
                  for k in ("cold", "warm"))
    out: dict[str, tuple] = {}
    for metric, names in spans.LAYER_SPANS.items():
        out[metric] = (sum(cold["first"].get(n, 0.0) for n in names), "s")
    out["ad.transform_s"] = (cold["transform_incl_s"], "s")
    exec_samples = [s for _, p in traced
                    for s in p["trace"]["steady_exec_s"]]
    out["interp.steady_exec_s"] = (statistics.median(exec_samples), "s")
    covered = sum(v for k, (v, _) in out.items()
                  if k in spans.LAYER_SPANS)
    out["bench.layer_coverage_frac"] = (covered / cold["first_wall_s"],
                                        "ratio")
    counts = cold["counts"]
    for name in ("passes.pass_changes", "ad.grad_ops", "ad.cache_slots",
                 "interp.lowered_ops", "interp.kernels", "interp.fused_ops",
                 "interp.checks_elided", "interp.bounds_unproven",
                 "interp.native_claimed", "interp.native_claims_proven"):
        out[name] = (counts[name], "count")
    out["ad.cache_peak_bytes"] = (counts["ad.cache_peak_bytes"], "bytes")
    out["interp.compiled_frac"] = (
        counts["interp.lowered_ops"] / counts["ad.grad_ops"], "ratio")
    hits = warm["counts"]["interp.diskcache_hits"]
    misses = warm["counts"]["interp.diskcache_misses"]
    out["interp.diskcache_hits"] = (hits, "count")
    out["interp.diskcache_misses"] = (misses, "count")
    out["interp.diskcache_hit_frac"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    sim = ref["digests"][0]
    out["perf.sim_grad_s"] = (sim["sim_s"], "sim_s")
    for k in ("flops", "atomic_ops", "reduction_ops"):
        out[f"perf.{k}"] = (sim["cost"][k], "count")
    out["perf.stream_bytes"] = (sim["cost"]["stream_bytes"], "bytes")
    out["parallel.sim_clock_spread_s"] = (sim["sim_clock_spread_s"], "sim_s")

    def total_first(procs):
        return sum(p["first_s"] for _, p in procs)

    base = total_first(untraced)
    out["bench.trace_overhead_frac"] = (
        (total_first(traced) - base) / base, "ratio")
    out["bench.host_calib_s"] = (statistics.mean(calib), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout holding "
              "src/repro", file=sys.stderr)
        return 2

    run = Run(args)
    calib = [host_calib()]
    ref = run.reference()
    if args.trace:
        untraced = run.cycle_procs(1, args.seconds / 2, trace=False)
        procs = run.cycle_procs(1, args.seconds / 2, trace=True)
        checked = untraced + procs
    else:
        procs = checked = run.cycle_procs(run.spec["cycles"], args.seconds,
                                          trace=False, rss=True)
    calib.append(host_calib())

    attempted, failed, msgs = check(checked, ref)
    attempted = max(attempted, 1)
    for m in msgs:
        print("FAIL", m.splitlines()[-1])
    print(f"workload {args.workload} seed {args.seed} backend "
          f"{run.spec['backend']}: {len(checked)} processes")
    print(f"bench.host_calib_s = {calib[0]:.4f} s at start, "
          f"{calib[1]:.4f} s at end")
    print(f"fail_frac = {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} gradients)")

    metrics: dict = {}
    if failed == 0:
        if args.trace:
            for name, (value, unit) in per_layer(untraced, procs, ref,
                                                 calib).items():
                if name not in PRINTED_ONLY:
                    metrics[name] = {"value": value, "unit": unit}
                print(f"{name} = {value:.6g} {unit}")
        else:
            for name, (value, raw, unit, n) in end_to_end(procs).items():
                metrics[name] = {"value": value, "unit": unit}
                print(f"{name} = {value:.4f} {unit} (median of {n}; raw "
                      f"{raw:.4f} {unit})" if unit == "s" else
                      f"{name} = {value:.1f} {unit} (after "
                      f"{RSS_GRADS} steady gradients)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
