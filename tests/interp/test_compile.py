"""Compiled backend: parity with the interpreter, fallback contract,
compile cache, and backend wiring."""

import numpy as np
import pytest

from repro.ad import Duplicated, autodiff
from repro.interp import (
    ExecConfig,
    Executor,
    InterpreterError,
    LoweringError,
    compile_function,
)
from repro.interp.compile import _at
from repro.interp.interpreter import TaskScheduler
from repro.interp.memory import Memory
from repro.ir import F64, I64, IRBuilder, Ptr, Task, verify_module
from repro.parallel import mpi_run
from repro.perf.cost import CostVector


def run_both(module, fn_name, make_arrays, scalars=(), num_threads=1,
             strict=True):
    """Run ``fn_name`` under both backends (compiled in strict mode)
    and assert bit-identical buffers, simulated clock, and cost."""
    outs = {}
    for backend in ("interp", "compiled"):
        arrays = make_arrays()
        ex = Executor(module, ExecConfig(backend=backend,
                                         num_threads=num_threads))
        if backend == "compiled" and strict:
            ex.interp.backend.strict = True
        ret = ex.run(fn_name, *arrays, *scalars)
        outs[backend] = (arrays, ret, ex.clock, ex.cost.as_dict())
    ia, ir, ic, icost = outs["interp"]
    ca, cr, cc, ccost = outs["compiled"]
    for a, b in zip(ia, ca):
        np.testing.assert_array_equal(a, b)
    assert ir == cr
    assert ic == cc
    assert icost == ccost
    return outs["compiled"]


# ---------------------------------------------------------------------------
# Parity across the lowered constructs
# ---------------------------------------------------------------------------

def test_fork_workshare_barrier_parity():
    b = IRBuilder()
    with b.function("fk", [("x", Ptr()), ("acc", Ptr()), ("n", I64)]) as f:
        x, acc, n = f.args
        with b.fork(num_threads=3):
            with b.workshare(0, n) as i:
                b.store(b.mul(b.load(x, i), 2.0), x, i)
            b.barrier()
            with b.workshare(0, n, nowait=True) as i:
                b.atomic_add(b.load(x, i), acc)
    verify_module(b.module)
    n = 17
    arrays, _, _, _ = run_both(
        b.module, "fk",
        lambda: (np.arange(float(n)), np.zeros(1)), (n,), num_threads=3)
    np.testing.assert_allclose(arrays[1][0], 2.0 * np.arange(n).sum())


def test_while_dyncache_parity():
    b = IRBuilder()
    with b.function("wh", [("x", Ptr())]) as f:
        x = f.args[0]
        h = b.cache_create()
        with b.while_() as it:
            v = b.load(x, 0)
            b.cache_push(h, v)
            b.store(b.mul(v, 0.5), x, 0)
            b.loop_while(b.cmp("gt", b.load(x, 0), 1.0))
        # drain two entries back out (LIFO)
        b.store(b.cache_pop(h, F64), x, 1)
        b.store(b.cache_pop(h, F64), x, 2)
        _ = it
    verify_module(b.module)
    run_both(b.module, "wh", lambda: (np.array([40.0, 0.0, 0.0]),))


def run_both_tasks(monkeypatch, module, fn_name, make_arrays, scalars=(),
                   num_threads=1):
    """``run_both`` that also asserts every scheduled task's spawn and
    finish clocks and cost are bit-identical across the backends;
    returns the compiled run's arrays and the lowered source."""
    log = []
    schedule = TaskScheduler.schedule

    def record(self, task):
        schedule(self, task)
        log.append((task.spawn_clock, task.finish_clock,
                    task.cost.as_dict()))

    monkeypatch.setattr(TaskScheduler, "schedule", record)
    arrays, _, _, _ = run_both(module, fn_name, make_arrays, scalars,
                               num_threads=num_threads)
    assert log and len(log) % 2 == 0
    assert log[:len(log) // 2] == log[len(log) // 2:]
    return arrays, module.functions[fn_name]._compiled_code.__lowered_source__


def test_spawn_wait_parity(monkeypatch):
    b = IRBuilder()
    with b.function("sp", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.spawn() as t1:
            with b.for_(0, n, simd=True) as i:
                b.store(b.add(b.load(x, i), 1.0), x, i)
        b.wait_task(t1)
        with b.spawn() as t2:
            b.store(b.mul(b.load(x, 0), 10.0), x, 0)
        b.wait_task(t2)
    verify_module(b.module)
    arrays, src = run_both_tasks(monkeypatch, b.module, "sp",
                                 lambda: (np.zeros(4),), (4,))
    np.testing.assert_allclose(arrays[0], [10.0, 1.0, 1.0, 1.0])
    # Both task bodies are lowered region units, not interpreter bridges.
    assert src.count("yield from rt._run_task(_u") == 2
    assert "_bg(" not in src


def test_spawn_in_serial_loop_parity(monkeypatch):
    """One spawn site run per loop trip, all waited on afterwards: the
    task scheduler sees several tasks in flight at once."""
    b = IRBuilder()
    with b.function("sl", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        tasks = b.alloc(4, Task, space="gc")
        with b.for_(0, 4) as c:
            with b.spawn() as t:
                with b.for_(0, n, simd=True) as i:
                    at = b.add(b.mul(c, n), i)
                    b.store(b.mul(b.sin(b.load(x, at)), 2.0), x, at)
            b.store(t, tasks, c)
        with b.for_(0, 4) as c:
            b.wait_task(b.load(tasks, c))
    verify_module(b.module)
    _, src = run_both_tasks(monkeypatch, b.module, "sl",
                            lambda: (np.linspace(0.0, 1.0, 20),), (5,),
                            num_threads=3)
    assert "rt._run_task(" in src and "_bg(" not in src


def test_spawn_inside_fork_parity(monkeypatch):
    """A task spawned by every thread of a fork region: the spawn unit
    nests inside the fork body unit and sees the thread's id."""
    b = IRBuilder()
    with b.function("sf", [("x", Ptr())]) as f:
        x = f.args[0]
        with b.fork(num_threads=3) as (tid, nth):
            with b.spawn() as t:
                v = b.load(x, tid)
                b.store(b.add(b.mul(v, v), b.itof(nth)), x, tid)
            b.wait_task(t)
            b.barrier()
            b.store(b.add(b.load(x, tid), 1.0), x, tid)
    verify_module(b.module)
    _, src = run_both_tasks(monkeypatch, b.module, "sf",
                            lambda: (np.array([1.5, -2.0, 3.0]),),
                            num_threads=3)
    assert "_rf(rt" in src and "rt._run_task(" in src and "_bg(" not in src


def test_nested_spawn_parity(monkeypatch):
    b = IRBuilder()
    with b.function("ns", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.spawn() as outer:
            with b.spawn() as inner:
                with b.for_(0, n, simd=True) as i:
                    b.store(b.exp(b.load(x, i)), x, i)
            b.store(b.add(b.load(x, 0), 1.0), x, 0)
            b.wait_task(inner)
            b.store(b.mul(b.load(x, 1), 3.0), x, 1)
        b.wait_task(outer)
    verify_module(b.module)
    _, src = run_both_tasks(monkeypatch, b.module, "ns",
                            lambda: (np.linspace(-1.0, 1.0, 6),), (6,))
    assert src.count("yield from rt._run_task(_u") == 2


def test_spawn_in_simd_loop_stays_bridged(monkeypatch):
    """A spawn in vector context runs through the interpreter bridge
    (as fork and parallel_for do there), still bit-identically."""
    b = IRBuilder()
    with b.function("sv", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n, simd=True) as i:
            with b.spawn() as t:
                b.store(b.mul(b.load(x, i), 4.0), x, i)
            b.wait_task(t)
    verify_module(b.module)
    _, src = run_both_tasks(monkeypatch, b.module, "sv",
                            lambda: (np.arange(5.0),), (5,))
    assert "_bg(rt" in src and "_run_task(" not in src


#: Edge values for the ``_at`` fold: signed zeros, infinities, NaN, the
#: largest/smallest normals, subnormals, and ordinary magnitudes.
_AT_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0,
                      1.7976931348623157e308, -1.7976931348623157e308,
                      2.2250738585072014e-308, 5e-324, -5e-324,
                      1e16, -1e16, 0.1, 3.0])


@pytest.mark.parametrize("kind", ["add", "min", "max"])
def test_at_scalar_target_matches_ufunc_at(kind):
    """``_at`` into one cell (the adjoint of a broadcast read) applies
    the lanes in order exactly like ``ufunc.at``: same bits for every
    scalar or width-1..8 lane vector over the edge values."""
    ufunc = {"add": np.add, "min": np.minimum, "max": np.maximum}[kind]
    rng = np.random.default_rng(7)
    rt = type("RT", (), {})()
    rt.cost = CostVector()
    ptr = Memory().alloc(4, F64, "heap")
    for _ in range(3000):
        pool = np.concatenate((_AT_EDGES, rng.standard_normal(4)
                               * 10.0 ** rng.integers(-300, 300, 4)))
        start = rng.choice(pool)
        width = int(rng.integers(0, 9))
        if width == 0:
            val = rng.choice(pool)
            val = float(val) if rng.integers(2) else np.float64(val)
        else:
            val = rng.choice(pool, size=width)
        ptr.buffer.data[2] = start
        _at(rt, kind, False, val, ptr, 2)
        want = np.array([start])
        ufunc.at(want, np.zeros(max(width, 1), dtype=np.int64), val)
        assert (ptr.buffer.data[2:3].view(np.uint64)
                == want.view(np.uint64)).all(), (kind, start, val)


def test_masked_if_parity():
    b = IRBuilder()
    with b.function("mi", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(x, i)
            with b.if_(b.cmp("gt", v, 0.0)):
                b.store(b.sqrt(v), x, i)
            with b.else_():
                b.store(b.neg(v), x, i)
    verify_module(b.module)
    run_both(b.module, "mi",
             lambda: (np.array([4.0, -9.0, 0.0, 2.25, -1.0]),), (5,))


def test_atomic_kinds_parity():
    b = IRBuilder()
    with b.function("at", [("x", Ptr()), ("out", Ptr()), ("n", I64)]) as f:
        x, out, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(x, i)
            b.atomic_add(v, out, 0)
            b.atomic_min(v, out, 1)
            b.atomic_max(v, out, 2)
    verify_module(b.module)
    arrays, _, _, _ = run_both(
        b.module, "at",
        lambda: (np.array([3.0, -7.0, 5.0]), np.zeros(3)), (3,))
    np.testing.assert_allclose(arrays[1], [1.0, -7.0, 5.0])


def test_alloc_privatization_in_simd_parity():
    b = IRBuilder()
    with b.function("pv", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n, simd=True) as i:
            tmp = b.alloc(2)
            b.store(b.load(x, i), tmp, 0)
            b.store(b.mul(b.load(tmp, 0), 3.0), tmp, 1)
            b.store(b.load(tmp, 1), x, i)
    verify_module(b.module)
    arrays, _, _, _ = run_both(
        b.module, "pv", lambda: (np.arange(6.0),), (6,))
    np.testing.assert_allclose(arrays[0], 3.0 * np.arange(6.0))


def test_gradient_reverse_workshare_parity():
    """AD of a fork/workshare loop generates reverse-order worksharing
    and cache traffic; both backends must agree bit-for-bit."""
    b = IRBuilder()
    with b.function("g", [("x", Ptr()), ("y", Ptr()), ("n", I64)]) as f:
        x, y, n = f.args
        with b.fork(num_threads=2):
            with b.workshare(0, n) as i:
                v = b.load(x, i)
                b.store(b.mul(b.sin(v), v), y, i)
    verify_module(b.module)
    grad = autodiff(b.module, "g", [Duplicated, Duplicated, None])
    n = 9

    def make_arrays():
        x = np.linspace(0.1, 2.0, n)
        dx = np.zeros(n)
        y = np.zeros(n)
        dy = np.ones(n)
        return x, dx, y, dy

    arrays, _, _, _ = run_both(b.module, grad, make_arrays, (n,),
                               num_threads=2)
    x = np.linspace(0.1, 2.0, n)
    np.testing.assert_allclose(arrays[1], np.sin(x) + x * np.cos(x),
                               rtol=1e-12)


def test_user_function_call_parity():
    b = IRBuilder()
    with b.function("helper", [("x", Ptr()), ("i", I64)]) as f:
        x, i = f.args
        b.store(b.add(b.load(x, i), 100.0), x, i)
    with b.function("main", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n) as i:
            b.call("helper", x, i)
    verify_module(b.module)
    arrays, _, _, _ = run_both(
        b.module, "main", lambda: (np.arange(3.0),), (3,))
    np.testing.assert_allclose(arrays[0], np.arange(3.0) + 100.0)


def test_mpi_parity_through_events():
    """Compiled code yields MPI events upward; SimMPI coordination and
    the simulated network clock must match the interpreter exactly."""
    b = IRBuilder()
    with b.function("pp", [("buf", Ptr()), ("n", I64)]) as f:
        buf, n = f.args
        rank = b.call("mpi.comm_rank")
        with b.if_(b.cmp("eq", rank, 0)):
            b.call("mpi.send", buf, n, 1, 5)
            b.call("mpi.recv", buf, n, 1, 6)
        with b.else_():
            tmp = b.alloc(n)
            b.call("mpi.recv", tmp, n, 0, 5)
            with b.for_(0, n, simd=True) as i:
                b.store(b.load(tmp, i) * 2.0, tmp, i)
            b.call("mpi.send", tmp, n, 0, 6)
    verify_module(b.module)

    results = {}
    for backend in ("interp", "compiled"):
        bufs = [np.arange(1.0, 4.0), np.zeros(3)]
        res = mpi_run(b.module, "pp", 2, lambda r: (bufs[r], 3),
                      config=ExecConfig(backend=backend))
        results[backend] = (bufs, res.time)
    np.testing.assert_array_equal(results["interp"][0][0],
                                  results["compiled"][0][0])
    np.testing.assert_allclose(results["interp"][0][0],
                               2 * np.arange(1.0, 4.0))
    assert results["interp"][1] == results["compiled"][1]
    fn = b.module.functions["pp"]
    assert getattr(fn, "_compiled_code", None) not in (None, False)


# ---------------------------------------------------------------------------
# Fallback contract and wiring
# ---------------------------------------------------------------------------

def _simple_module():
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        x = f.args[0]
        b.store(b.add(b.load(x, 0), 1.0), x, 0)
    verify_module(b.module)
    return b.module


def test_unknown_backend_rejected():
    with pytest.raises(InterpreterError, match="unknown backend"):
        Executor(_simple_module(), ExecConfig(backend="bogus"))


def test_sanitize_pins_interpreter():
    ex = Executor(_simple_module(),
                  ExecConfig(backend="compiled", sanitize=True))
    assert ex.interp.backend is None
    x = np.zeros(1)
    ex.run("f", x)
    assert x[0] == 1.0


def test_tape_pins_interpreter():
    """An attached operator-overloading tape must route execution to
    the interpreter even when the compiled backend is active."""
    from repro.baselines.codipack import CoDiPackTape

    mod = _simple_module()
    ex = Executor(mod, ExecConfig(backend="compiled"))
    ex.interp.tape = CoDiPackTape(ex.interp)
    x = np.zeros(1)
    ex.run("f", x)
    assert x[0] == 1.0
    # the guard fires before compilation is ever attempted
    assert getattr(mod.functions["f"], "_compiled_code", None) is None


def test_lowering_failure_falls_back(monkeypatch):
    import repro.interp.compile as compile_mod

    def boom(fn, **kwargs):
        raise LoweringError("synthetic failure")

    monkeypatch.setattr(compile_mod, "compile_function", boom)
    mod = _simple_module()
    ex = Executor(mod, ExecConfig(backend="compiled"))
    x = np.zeros(1)
    ex.run("f", x)
    assert x[0] == 1.0
    fn = mod.functions["f"]
    assert fn._compiled_code is False
    assert "synthetic failure" in str(fn._compile_error)
    # strict mode surfaces the failure instead
    mod2 = _simple_module()
    ex2 = Executor(mod2, ExecConfig(backend="compiled"))
    ex2.interp.backend.strict = True
    with pytest.raises(LoweringError, match="synthetic failure"):
        ex2.run("f", np.zeros(1))


def test_compiled_code_cached_on_function():
    mod = _simple_module()
    fn = mod.functions["f"]
    ex = Executor(mod, ExecConfig(backend="compiled"))
    ex.run("f", np.zeros(1))
    code = fn._compiled_code
    assert code is not False and code is not None
    assert "def _compiled" in code.__lowered_source__
    ex2 = Executor(mod, ExecConfig(backend="compiled"))
    ex2.run("f", np.zeros(1))
    assert fn._compiled_code is code


def test_compile_function_source_is_inspectable():
    mod = _simple_module()
    code = compile_function(mod.functions["f"])
    src = code.__lowered_source__
    assert src.startswith("def _compiled(rt")
    assert "_ld(rt" in src and "_st(rt" in src
