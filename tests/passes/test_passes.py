"""Optimization pass unit tests."""

import numpy as np
import pytest

from repro.interp import ExecConfig, Executor
from repro.ir import F64, I64, IRBuilder, Constant, Ptr, verify_module
from repro.passes import (
    Cleanup,
    LICM,
    OpenMPOpt,
    Simplify,
    default_pipeline,
    inline_all,
)


def _count(fn, opcode):
    return sum(1 for op in fn.walk() if op.opcode == opcode)


def test_dce_removes_dead_arith():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        dead = b.load(x, 0) * 2.0
        b.store(1.0, x, 0)
    fn = b.module.functions["f"]
    assert _count(fn, "mul") == 1
    Cleanup().run(fn, b.module)
    assert _count(fn, "mul") == 0
    assert _count(fn, "load") == 0
    assert _count(fn, "store") == 1
    verify_module(b.module)


def test_dce_keeps_effects():
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        b.atomic_add(1.0, f.args[0], 0)
        b.memset(f.args[0], 0.0, 1)
    fn = b.module.functions["f"]
    Cleanup().run(fn, b.module)
    assert _count(fn, "atomic") == 1
    assert _count(fn, "memset") == 1


def test_dce_removes_empty_loop():
    b = IRBuilder()
    with b.function("f", [("n", I64)]) as f:
        with b.for_(0, f.args[0]) as i:
            pass
    fn = b.module.functions["f"]
    Cleanup().run(fn, b.module)
    assert _count(fn, "for") == 0


def test_constfold_arith():
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        v = b.mul(b.add(2.0, 3.0), 4.0)
        b.store(v, f.args[0], 0)
    fn = b.module.functions["f"]
    Cleanup().run(fn, b.module)
    store = fn.body.ops[-2]
    assert store.opcode == "store"
    assert isinstance(store.operands[0], Constant)
    assert store.operands[0].value == 20.0


def test_constfold_identities():
    b = IRBuilder()
    with b.function("f", [("a", F64)], ret=F64) as f:
        a = f.args[0]
        v = (a + 0.0) * 1.0 - 0.0
        b.ret(v / 1.0)
    fn = b.module.functions["f"]
    Cleanup().run(fn, b.module)
    # everything folds to the argument itself
    assert fn.body.ops[-1].operands[0] is fn.args[0]


def test_cse_merges_pure_ops():
    b = IRBuilder()
    with b.function("f", [("a", F64)], ret=F64) as f:
        a = f.args[0]
        v1 = a * a
        v2 = a * a
        b.ret(v1 + v2)
    fn = b.module.functions["f"]
    Cleanup().run(fn, b.module)
    assert _count(fn, "mul") == 1


def test_cse_commutative():
    b = IRBuilder()
    with b.function("f", [("a", F64), ("c", F64)], ret=F64) as f:
        a, c = f.args
        b.ret(a * c + c * a)
    fn = b.module.functions["f"]
    Cleanup().run(fn, b.module)
    assert _count(fn, "mul") == 1


def test_cse_does_not_merge_loads():
    b = IRBuilder()
    with b.function("f", [("x", Ptr())], ret=F64) as f:
        x = f.args[0]
        v1 = b.load(x, 0)
        b.store(v1 + 1.0, x, 0)
        v2 = b.load(x, 0)  # different value!
        b.ret(v1 + v2)
    fn = b.module.functions["f"]
    Cleanup().run(fn, b.module)
    assert _count(fn, "load") == 2


def test_licm_hoists_invariant():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("s", F64), ("n", I64)]) as f:
        x, s, n = f.args
        with b.for_(0, n) as i:
            k = b.exp(s)  # invariant
            b.store(b.load(x, i) * k, x, i)
    fn = b.module.functions["f"]
    LICM().run(fn, b.module)
    loop = next(op for op in fn.walk() if op.opcode == "for")
    assert _count(fn, "exp") == 1
    assert all(op.opcode != "exp" for op in loop.body.ops)


def test_licm_skips_parallel_regions():
    """Plain LICM must not see through parallel regions (the outlined
    body is a separate function in real LLVM)."""
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("s", F64), ("n", I64)]) as f:
        x, s, n = f.args
        with b.parallel_for(0, n) as i:
            k = b.exp(s)
            b.store(b.load(x, i) * k, x, i)
    fn = b.module.functions["f"]
    LICM().run(fn, b.module)
    region = next(op for op in fn.walk() if op.opcode == "parallel_for")
    assert any(op.opcode == "exp" for op in region.body.ops)


def test_openmp_opt_hoists_from_parallel():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("s", F64), ("n", I64)]) as f:
        x, s, n = f.args
        with b.parallel_for(0, n) as i:
            k = b.exp(s)
            b.store(b.load(x, i) * k, x, i)
    fn = b.module.functions["f"]
    OpenMPOpt().run(fn, b.module)
    region = next(op for op in fn.walk() if op.opcode == "parallel_for")
    assert all(op.opcode != "exp" for op in region.body.ops)


def test_openmp_opt_hoists_closure_pointer_loads():
    from repro.frontends import OpenMP
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        omp = OpenMP(b)
        with omp.parallel_for(0, n, captured=[x, n]) as (i, env):
            v = b.load(env[x], i)
            b.store(v * v, env[x], i)
    fn = b.module.functions["f"]

    def ptr_loads_in_fork():
        region = next(op for op in fn.walk() if op.opcode == "fork")
        return [op for op in region.walk() if op.opcode == "load"
                and str(op.result.type).startswith("ptr")]

    assert ptr_loads_in_fork()  # the closure reload pattern (Fig. 3)
    OpenMPOpt().run(fn, b.module)
    Cleanup().run(fn, b.module)
    assert not ptr_loads_in_fork()


def test_openmp_opt_store_to_load_forwarding():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)], ret=F64) as f:
        x, n = f.args
        cell = b.alloc(1)
        b.store(4.5, cell, 0)
        v = b.load(cell, 0)
        b.ret(v * 2.0)
    fn = b.module.functions["f"]
    OpenMPOpt().run(fn, b.module)
    Cleanup().run(fn, b.module)
    ret = fn.body.ops[-1]
    assert isinstance(ret.operands[0], Constant)
    assert ret.operands[0].value == 9.0


def test_openmp_opt_merges_disjoint_regions():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("y", Ptr()), ("n", I64)],
                    arg_attrs=[{"noalias": True}, {"noalias": True},
                               {}]) as f:
        x, y, n = f.args
        with b.parallel_for(0, n) as i:
            b.store(1.0, x, i)
        with b.parallel_for(0, n) as j:
            b.store(2.0, y, j)
    fn = b.module.functions["f"]
    assert _count(fn, "parallel_for") == 2
    OpenMPOpt().run(fn, b.module)
    assert _count(fn, "parallel_for") == 1
    verify_module(b.module)
    xs, ys = np.zeros(4), np.zeros(4)
    Executor(b.module).run("f", xs, ys, 4)
    np.testing.assert_allclose(xs, 1.0)
    np.testing.assert_allclose(ys, 2.0)


def test_openmp_opt_does_not_merge_dependent_regions():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            b.store(1.0, x, i)
        with b.parallel_for(0, n) as j:
            b.store(b.load(x, j) * 2.0, x, j)
    fn = b.module.functions["f"]
    OpenMPOpt().run(fn, b.module)
    assert _count(fn, "parallel_for") == 2


def test_simplify_constant_if():
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        with b.if_(b.const(True)):
            b.store(1.0, f.args[0], 0)
        with b.else_():
            b.store(2.0, f.args[0], 0)
    fn = b.module.functions["f"]
    Simplify().run(fn, b.module)
    assert _count(fn, "if") == 0
    assert _count(fn, "store") == 1


def test_inline_user_calls():
    b = IRBuilder()
    with b.function("helper", [("a", F64)], ret=F64) as f:
        b.ret(f.args[0] * 3.0)
    with b.function("main", [("a", F64)], ret=F64) as f:
        r = b.call("helper", f.args[0])
        b.ret(r + 1.0)
    fn = b.module.functions["main"]
    n = inline_all(fn, b.module)
    assert n == 1
    assert _count(fn, "call") == 0
    verify_module(b.module)
    assert Executor(b.module).run("main", 2.0) == pytest.approx(7.0)


def test_inline_respects_noinline():
    b = IRBuilder()
    with b.function("kern", [("a", F64)], ret=F64) as f:
        b.ret(f.args[0] * 3.0)
    b.module.functions["kern"].attrs["noinline"] = True
    with b.function("main", [("a", F64)], ret=F64) as f:
        b.ret(b.call("kern", f.args[0]))
    fn = b.module.functions["main"]
    assert inline_all(fn, b.module) == 0
    from repro.passes import force_inline_all
    assert force_inline_all(fn, b.module) == 1


def test_pipeline_preserves_semantics():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        k = b.mul(2.0, 3.0)
        with b.for_(0, n) as i:
            inv = b.sqrt(k)
            v = b.load(x, i)
            b.store(v * inv + 0.0, x, i)
    verify_module(b.module)
    xs_ref = np.arange(1.0, 6.0)
    expect = xs_ref * np.sqrt(6.0)
    default_pipeline().run(b.module)
    verify_module(b.module)
    xs = np.arange(1.0, 6.0)
    Executor(b.module).run("f", xs, 5)
    np.testing.assert_allclose(xs, expect)
