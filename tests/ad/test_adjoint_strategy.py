"""Pluggable adjoint strategies (repro.ad.strategy).

Covers the revolve reference schedule, the checkpointed adjoint's
bit-identity with the cache-all plan under both backends, its
O(log N) peak cached state, the implicit (fixed-point) adjoint, the
eligibility fallbacks, per-region tags, the verifier rules, and the
IR round-trip of the ``adjoint`` loop attribute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ad import ADConfig, Const, Duplicated, autodiff, autodiff_transform
from repro.ad.strategy import (CacheAllAdjoint, CheckpointAdjoint,
                               ImplicitAdjoint, resolve_strategy,
                               simulate_schedule, strategy_fingerprint)
from repro.interp import ExecConfig, Executor
from repro.ir import (I64, IRBuilder, Ptr, VerificationError, parse_module,
                      print_module, verify_module)

BACKENDS = ["interp", "compiled"]


# ---------------------------------------------------------------------------
# The pure-Python revolve schedule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 13, 64, 100])
def test_simulate_schedule(n):
    order, peak, advance = simulate_schedule(n)
    assert order == list(range(n - 1, -1, -1))
    if n == 0:
        assert peak == 0 and advance == 0
    elif n == 1:
        assert peak == 1 and advance == 0
    else:
        # ceil(log2 n) + 1 snapshot slots — the select chain in
        # _ckpt_forward_loop computes exactly this bound.
        assert peak == (n - 1).bit_length() + 1
        # O(N log N) primal recompute.
        assert advance <= n * (n - 1).bit_length()


def test_resolve_strategy():
    assert isinstance(resolve_strategy(None), CacheAllAdjoint)
    assert isinstance(resolve_strategy("cache-all"), CacheAllAdjoint)
    assert isinstance(resolve_strategy("checkpoint"), CheckpointAdjoint)
    assert isinstance(resolve_strategy("implicit"), ImplicitAdjoint)
    strat = CheckpointAdjoint()
    assert resolve_strategy(strat) is strat
    with pytest.raises(ValueError, match="unknown adjoint strategy"):
        resolve_strategy("bogus")


def test_strategy_fingerprints_distinct():
    fps = {strategy_fingerprint(ADConfig(adjoint=a))
           for a in ("cache-all", "checkpoint", "implicit")}
    assert len(fps) == 3
    assert strategy_fingerprint(
        ADConfig(adjoint="implicit", implicit_iters=5)) != \
        strategy_fingerprint(ADConfig(adjoint="implicit"))


# ---------------------------------------------------------------------------
# Checkpoint == cache-all, bit for bit, under both backends
# ---------------------------------------------------------------------------

def _step_loop_module(adjoint_tag=None):
    """x[i] <- 0.99*x[i] + x[i]^2 iterated ``steps`` times."""
    b = IRBuilder()
    with b.function("step_loop", [("x", Ptr()), ("n", I64),
                                  ("steps", I64)]) as f:
        x, n, steps = f.args
        with b.for_(0, steps, name="s", adjoint=adjoint_tag):
            with b.for_(0, n, name="i") as i:
                v = b.load(x, i)
                b.store(b.add(b.mul(v, 0.99), b.mul(v, v)), x, i)
    verify_module(b.module)
    return b.module


def _grad_step_loop(adjoint, steps, backend, n=5, tag=None):
    m = _step_loop_module(tag)
    g = autodiff(m, "step_loop", [Duplicated, Const, Const],
                 ADConfig(adjoint=adjoint) if adjoint else ADConfig())
    ex = Executor(m, ExecConfig(backend=backend))
    x = np.linspace(0.1, 0.9, n)
    dx = np.ones(n)
    ex.run(g, x, dx, n, steps)
    return dx, ex.adjoint_stats()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 7, 64])
def test_checkpoint_bit_identical(backend, steps):
    g_ca, _ = _grad_step_loop("cache-all", steps, backend)
    g_ck, _ = _grad_step_loop("checkpoint", steps, backend)
    np.testing.assert_array_equal(g_ca, g_ck)


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_peak_state_logarithmic(backend):
    """Peak cached bytes grow O(log steps), not O(steps)."""
    peaks = {}
    for steps in (8, 64, 256):
        _, st_ca = _grad_step_loop("cache-all", steps, backend)
        _, st_ck = _grad_step_loop("checkpoint", steps, backend)
        assert st_ck["peak_cached_bytes"] < st_ca["peak_cached_bytes"]
        peaks[steps] = st_ck["peak_cached_bytes"]
    # 32x the steps must cost far less than 32x the state: the slot
    # count goes 4 -> 7 -> 9 (ceil(log2 N) + 1).
    assert peaks[256] <= 3 * peaks[8]


def test_per_region_tag_overrides_global_default():
    """A tagged loop is managed even under the cache-all default."""
    m = _step_loop_module("checkpoint")
    tr = autodiff_transform(m, "step_loop", [Duplicated, Const, Const])
    assert tr.adjoint_report["strategy"] == "cache-all"
    assert [e["loop"] for e in tr.adjoint_report["managed"]] == ["s"]
    g_ca, _ = _grad_step_loop(None, 16, "interp")
    g_tag, st = _grad_step_loop(None, 16, "interp", tag="checkpoint")
    np.testing.assert_array_equal(g_ca, g_tag)


# ---------------------------------------------------------------------------
# Implicit (fixed-point) adjoint
# ---------------------------------------------------------------------------

def _fixpoint_module(tag=None):
    """x[i] <- 0.5*x[i] + theta[i]: contraction to x* = 2*theta."""
    b = IRBuilder()
    with b.function("fixpt", [("x", Ptr()), ("theta", Ptr()),
                              ("n", I64), ("steps", I64)]) as f:
        x, theta, n, steps = f.args
        with b.for_(0, steps, name="s", adjoint=tag):
            with b.for_(0, n, name="i") as i:
                b.store(b.add(b.mul(b.load(x, i), 0.5),
                              b.load(theta, i)), x, i)
    verify_module(b.module)
    return b.module


@pytest.mark.parametrize("backend", BACKENDS)
def test_implicit_matches_unrolled(backend):
    steps, n = 60, 4

    def run(tag):
        m = _fixpoint_module(tag)
        g = autodiff(m, "fixpt", [Duplicated, Duplicated, Const, Const],
                     ADConfig())
        ex = Executor(m, ExecConfig(backend=backend))
        x = np.full(n, 3.0)
        theta = np.linspace(0.5, 2.0, n)
        dx, dtheta = np.ones(n), np.zeros(n)
        ex.run(g, x, dx, theta, dtheta, n, steps)
        return dtheta

    unrolled = run(None)
    implicit = run("implicit")
    # After 60 halvings the map is numerically at its fixed point, so
    # theta_bar = sum_k 0.5^k = 2 (per element, seed 1) for both.
    np.testing.assert_allclose(implicit, unrolled, rtol=0, atol=1e-10)
    np.testing.assert_allclose(implicit, 2.0, rtol=0, atol=1e-10)


def test_implicit_iters_truncates_neumann_series():
    m = _fixpoint_module("implicit")
    g = autodiff(m, "fixpt", [Duplicated, Duplicated, Const, Const],
                 ADConfig(implicit_iters=3))
    ex = Executor(m, ExecConfig())
    n = 2
    x, theta = np.full(n, 3.0), np.ones(n)
    dx, dtheta = np.ones(n), np.zeros(n)
    ex.run(g, x, dx, theta, dtheta, n, 50)
    # 3 Neumann rounds: 1 + 0.5 + 0.25
    np.testing.assert_allclose(dtheta, 1.75, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Eligibility fallbacks (recorded, and still correct via cache-all)
# ---------------------------------------------------------------------------

def _report_for(build_body, adjoint="checkpoint", args=None):
    b = IRBuilder()
    arglist = args or [("x", Ptr()), ("n", I64), ("steps", I64)]
    with b.function("f", arglist) as f:
        build_body(b, f)
    verify_module(b.module)
    tr = autodiff_transform(b.module, "f",
                            [Duplicated] + [Const] * (len(arglist) - 1),
                            ADConfig(adjoint=adjoint))
    return tr.adjoint_report


def test_fallback_while_in_body():
    def body(b, f):
        x, n, steps = f.args
        with b.for_(0, steps, name="s"):
            with b.while_():
                v = b.load(x, 0)
                b.store(b.mul(v, 0.5), x, 0)
                b.loop_while(b.cmp("gt", b.load(x, 0), 1.0))

    rep = _report_for(body)
    assert rep["managed"] == []
    assert len(rep["fallbacks"]) == 1
    assert "dynamic trip-count" in rep["fallbacks"][0]["reason"]


def test_fallback_dynamic_bounds():
    def body(b, f):
        x, n, steps = f.args
        with b.for_(0, n, name="i") as i:
            # The bound of the would-be time loop is loop-varying.
            with b.for_(0, b.add(i, 1), name="s"):
                b.store(b.mul(b.load(x, 0), 0.5), x, 0)

    rep = _report_for(body)
    assert rep["managed"] == []
    # The outer loop is eligible-shaped but the inner tagged-one is not
    # function-level; only top-level loops are considered, so the outer
    # loop is the candidate and its body holds an inner dynamic region.
    assert len(rep["fallbacks"]) == 1
    assert "non-static extent" in rep["fallbacks"][0]["reason"]


def test_fallback_still_differentiates_correctly():
    """An ineligible loop silently falls back to the cache-all plan."""
    def build(adjoint):
        b = IRBuilder()
        with b.function("f", [("x", Ptr()), ("steps", I64)]) as f:
            x, steps = f.args
            with b.for_(0, steps, name="s"):
                with b.while_():
                    v = b.load(x, 0)
                    b.store(b.mul(v, 0.5), x, 0)
                    b.loop_while(b.cmp("gt", b.load(x, 0), 1.0))
        verify_module(b.module)
        cfg = ADConfig(adjoint=adjoint) if adjoint else ADConfig()
        g = autodiff(b.module, "f", [Duplicated, Const], cfg)
        ex = Executor(b.module, ExecConfig())
        x, dx = np.array([40.0]), np.array([1.0])
        ex.run(g, x, dx, 3)
        return dx

    np.testing.assert_array_equal(build(None), build("checkpoint"))


def test_lulesh_julia_flavor_falls_back():
    """jl.* runtime calls in the body are a recorded fallback."""
    pytest.importorskip("numpy")
    from repro.apps.lulesh.driver import LuleshApp

    app = LuleshApp("julia", 2, adjoint="checkpoint")
    app.grad_fn()
    rep = app.adjoint_report
    assert rep["managed"] == []
    assert any("jl." in e["reason"] for e in rep["fallbacks"])


# ---------------------------------------------------------------------------
# Determinism: gradient IR must not depend on hash ordering
# ---------------------------------------------------------------------------

_HASHSEED_SCRIPT = """
import sys
from repro.ad import ADConfig, Const, Duplicated, autodiff
from repro.ir import I64, IRBuilder, Ptr, print_module, verify_module

if sys.argv[1] == "lulesh-openmp":
    from repro.apps.lulesh.driver import LuleshApp
    app = LuleshApp("openmp", 2)
    app.grad_fn()
    sys.stdout.write(print_module(app.module))
    sys.exit(0)

b = IRBuilder()
with b.function("step_loop", [("x", Ptr()), ("y", Ptr()), ("n", I64),
                              ("steps", I64)]) as f:
    x, y, n, steps = f.args
    with b.for_(0, steps, name="s", adjoint=sys.argv[1] or None):
        with b.for_(0, n, name="i") as i:
            u, v = b.load(x, i), b.load(y, i)
            b.store(b.add(b.mul(u, 0.99), b.mul(v, u)), x, i)
            b.store(b.add(v, b.mul(u, 0.125)), y, i)
verify_module(b.module)
autodiff(b.module, "step_loop", [Duplicated, Duplicated, Const, Const],
         ADConfig(adjoint=sys.argv[1]) if sys.argv[1] else ADConfig())
sys.stdout.write(print_module(b.module))
"""


@pytest.mark.parametrize("adjoint", ["", "checkpoint", "implicit",
                                     "lulesh-openmp"])
def test_gradient_ir_deterministic_across_hash_seeds(adjoint, tmp_path):
    """Byte-identical gradient IR under different PYTHONHASHSEEDs: the
    strategy analysis (state discovery, snapshot order) and the cache
    planner (pointer-slot creation while closing over recomputable
    values) must iterate in program order, never set order.  The
    LULESH openmp gradient has ptr-load cache slots, which the planner
    used to create in set order."""
    import os
    import subprocess
    import sys

    import repro

    script = tmp_path / "emit_ir.py"
    script.write_text(_HASHSEED_SCRIPT)
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    outs = []
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src_root + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, str(script), adjoint],
                              capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert all(out == outs[0] for out in outs)
    if adjoint in ("checkpoint", "implicit"):
        assert f"{{adjoint='{adjoint}'}}".encode() in outs[0]


# ---------------------------------------------------------------------------
# Verifier rules and IR round-trip for the loop attribute
# ---------------------------------------------------------------------------

def test_verifier_rejects_unknown_tag():
    b = IRBuilder()
    with b.function("f", [("n", I64)]) as f:
        (n,) = f.args
        with b.for_(0, n, adjoint="bogus"):
            pass
    with pytest.raises(VerificationError, match="unknown adjoint strategy"):
        verify_module(b.module)


def test_verifier_rejects_simd_with_adjoint_tag():
    b = IRBuilder()
    with b.function("f", [("n", I64)]) as f:
        (n,) = f.args
        with b.for_(0, n, simd=True, adjoint="checkpoint"):
            pass
    with pytest.raises(VerificationError, match="serial counted loops"):
        verify_module(b.module)


def test_adjoint_attr_roundtrip():
    m = _step_loop_module("checkpoint")
    text = print_module(m)
    assert "{adjoint='checkpoint'}" in text
    m2 = parse_module(text)
    loops = [op for op in m2.functions["step_loop"].body.ops
             if op.opcode == "for"]
    assert loops[0].attrs.get("adjoint") == "checkpoint"
    assert print_module(m2) == text
    verify_module(m2)
