"""The benchmark's own checks: exact counts and gradient digests repeat
across processes, and span self times add up.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
Each workload case starts two worker processes (~10 s together).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import child_env  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _traced_request(workload: str, hashseed: int, state) -> dict:
    (state / "tmp").mkdir(exist_ok=True)
    env = child_env(ROOT, str(state))
    env["PYTHONHASHSEED"] = str(hashseed)
    cfg = {"role": "request", "workload": workload, "seed": 7,
           "backend": WORKLOADS[workload]["backend"], "steady_s": 0.0,
           "min_steady": 1, "trace": str(state / f"h{hashseed}"),
           "pid": hashseed, "t_spawn": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(cfg)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_and_digests_repeat_across_hash_seeds(workload, tmp_path):
    a = _traced_request(workload, 1, tmp_path)
    b = _traced_request(workload, 2, tmp_path)
    assert not a["errors"] and not b["errors"]
    assert a["trace"]["counts"] == b["trace"]["counts"]
    assert len(a["digests"]) == len(b["digests"]) == 2
    assert a["digests"] == b["digests"]
    # The steady-state gradient repeats the first one bit for bit.
    assert a["digests"][0] == a["digests"][1]


def test_self_time_subtracts_children_except_transparent():
    rec = Recorder()
    outer = rec.begin("interp.compile", start=0.0)
    inner = rec.begin("interp.lower", start=1.0)
    rec.end(inner)
    io = rec.begin("interp.diskcache", start=3.0)
    rec.end(io)
    rec.end(outer)
    # Fix the end times so the arithmetic is exact.
    rec.spans[outer]["end"] = 10.0
    rec.spans[inner]["end"] = 3.0
    rec.spans[io]["end"] = 4.0
    st = rec.self_times(0)
    assert st["interp.lower"] == 2.0
    assert st["interp.diskcache"] == 1.0
    assert st["interp.compile"] == 8.0   # disk-cache I/O stays with it
    assert rec.inclusive(0, "interp.compile") == 10.0
