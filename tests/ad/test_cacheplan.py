"""Cache-vs-recompute planning (min-cut, §IV-C) unit tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ad import ADConfig, Duplicated, PlanError, autodiff
from repro.ad.activity import analyze_activity
from repro.ad.cacheplan import CachePlanner, dims_for_op, min_cut, nest_of
from repro.interp import ExecConfig, Executor
from repro.ir import F64, I64, IRBuilder, Ptr
from repro.passes.aliasing import analyze_aliasing


def _plan_for(build, activities_dup=("x",)):
    b = IRBuilder()
    fn = build(b)
    f = b.module.functions[fn]
    aliasing = analyze_aliasing(f, b.module)
    dup = {a for a in f.args if a.name in activities_dup}
    activity = analyze_activity(f, b.module, aliasing, dup, set())
    planner = CachePlanner(f, b.module, aliasing, activity)
    return planner.build(), f, b


def test_overwritten_load_is_cached():
    def build(b):
        with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.parallel_for(0, n) as i:
                v = b.load(x, i)
                b.store(v * v, x, i)  # overwrites x
        return "k"

    plan, f, _ = _plan_for(build)
    loads = [op for op in f.walk() if op.opcode == "load"]
    assert any(plan.resolution.get(ld.result) == "cache" for ld in loads)


def test_readonly_load_is_recomputed():
    def build(b):
        with b.function("k", [("x", Ptr()), ("y", Ptr()), ("n", I64)],
                        arg_attrs=[{"noalias": True}, {"noalias": True},
                                   {}]) as f:
            x, y, n = f.args
            with b.parallel_for(0, n) as i:
                v = b.load(x, i)     # x never written: recomputable
                b.store(v * v, y, i)
        return "k"

    plan, f, _ = _plan_for(build, activities_dup=("x", "y"))
    loads = [op for op in f.walk() if op.opcode == "load"
             and op.operands[0].name == "x"]
    for ld in loads:
        assert plan.resolution.get(ld.result) == "recompute"
    assert plan.stats["cached"] == 0


def test_mincut_prefers_cheap_cut():
    """Chain a -> b -> c where only `a` is unrecomputable: min-cut may
    cache any single value; cache-all caches every needed one."""
    def build(b):
        with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.parallel_for(0, n) as i:
                a = b.load(x, i)           # overwritten below: must-cache
                c = b.exp(a)
                d = b.sin(c)
                b.store(d * c * a, x, i)
        return "k"

    plan, f, _ = _plan_for(build)
    assert plan.stats["cached"] >= 1
    # With the min cut, caching `a` alone suffices (exp/sin recompute).
    assert plan.stats["cached"] <= 2


def test_cache_all_ablation_caches_more():
    def build_module():
        b = IRBuilder()
        with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.parallel_for(0, n) as i:
                a = b.load(x, i)
                b.store(b.sin(b.exp(a)) * a, x, i)
        return b

    counts = {}
    for cache_all in (False, True):
        b = build_module()
        grad = autodiff(b.module, "k", [Duplicated, None],
                        ADConfig(cache_all=cache_all))
        g = b.module.functions[grad]
        counts[cache_all] = sum(1 for op in g.walk()
                                if op.opcode == "alloc"
                                and (op.result.name or "").startswith(
                                    "cache"))
        # both produce correct gradients
        x0 = np.array([0.3, 0.7, 1.1])
        dx = np.ones(3)
        Executor(b.module).run(grad, x0.copy(), dx, 3)
        expect = np.cos(np.exp(x0)) * np.exp(x0) * x0 + np.sin(np.exp(x0))
        np.testing.assert_allclose(dx, expect, rtol=1e-12)
    assert counts[True] > counts[False]


def test_depth0_values_are_free():
    def build(b):
        with b.function("k", [("x", Ptr()), ("s", F64), ("n", I64)]) as f:
            x, s, n = f.args
            scale = b.exp(s)  # depth 0: free in the reverse pass
            with b.parallel_for(0, n) as i:
                b.store(b.load(x, i) * scale, x, i)
        return "k"

    plan, f, _ = _plan_for(build)
    exps = [op for op in f.walk() if op.opcode == "exp"]
    assert exps
    assert exps[0].result not in plan.resolution or \
        plan.resolution[exps[0].result] == "free"


def test_nest_and_dims():
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n) as i:
            with b.parallel_for(0, n) as j:
                v = b.load(x, j)
                b.store(v * 2.0, x, j)
    f = b.module.functions["k"]
    loads = [op for op in f.walk() if op.opcode == "load"]
    nest = nest_of(loads[0])
    assert [o.opcode for o in nest] == ["for", "parallel_for"]
    assert dims_for_op(loads[0]) == nest


def test_workshare_drops_fork_dim():
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.fork(4) as (tid, nth):
            with b.workshare(0, n) as i:
                v = b.load(x, i)
                b.store(v * v, x, i)
    f = b.module.functions["k"]
    loads = [op for op in f.walk() if op.opcode == "load"]
    dims = dims_for_op(loads[0])
    assert [d.opcode for d in dims] == ["for"]  # fork dropped (§VI-B)


def test_while_values_use_dynamic_cache():
    b = IRBuilder()
    with b.function("k", [("x", Ptr())]) as f:
        x = f.args[0]
        with b.while_() as it:
            v = b.load(x, 0)
            b.store(v * v, x, 0)
            b.loop_while(v > 1.5)
    f = b.module.functions["k"]
    aliasing = analyze_aliasing(f, b.module)
    activity = analyze_activity(f, b.module, aliasing, set(f.args), set())
    plan = CachePlanner(f, b.module, aliasing, activity).build()
    dyn_slots = [s for s in plan.slots.values() if s.dyn_anchor is not None]
    assert dyn_slots, "while-body values must use strategy-3 caches"


def test_gradient_correct_under_both_plans():
    for cache_all in (False, True):
        b = IRBuilder()
        with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.for_(0, n) as i:
                v = b.load(x, i)
                w = b.sqrt(v + 1.0)
                b.store(w * v, x, i)
        grad = autodiff(b.module, "k", [Duplicated, None],
                        ADConfig(cache_all=cache_all))
        x0 = np.array([1.0, 2.0, 3.0])
        dx = np.ones(3)
        Executor(b.module).run(grad, x0.copy(), dx, 3)
        expect = np.sqrt(x0 + 1) + x0 / (2 * np.sqrt(x0 + 1))
        np.testing.assert_allclose(dx, expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# The max-flow min-cut against brute force
# ---------------------------------------------------------------------------

_INF = float("inf")


@st.composite
def capacitated_graph(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=16))
    caps = st.one_of(st.integers(1, 9).map(float), st.just(_INF))
    return n, [(u, v, draw(caps)) for u, v in chosen]


@settings(max_examples=200, deadline=None)
@given(graph=capacitated_graph())
def test_min_cut_is_minimum_with_inclusion_minimal_sink_side(graph):
    """Node 0 is the source and node 1 the sink.  Brute force over every
    sink side: the cut value is the minimum, and the returned side is a
    minimum side contained in every other minimum side (the partition
    the planner's cache decisions read)."""
    n, edges = graph
    sides = [frozenset((1,) + extra) for k in range(n - 1)
             for extra in itertools.combinations(range(2, n), k)]

    def capacity(side):
        return sum(c for u, v, c in edges if u not in side and v in side)

    best = min(capacity(side) for side in sides)
    if best == _INF:
        with pytest.raises(PlanError, match="uncuttable"):
            min_cut(n, edges, 0, 1)
        return
    value, sink_side = min_cut(n, edges, 0, 1)
    assert value == best
    assert sink_side in sides
    assert capacity(sink_side) == best
    assert all(sink_side <= side for side in sides
               if capacity(side) == best)
