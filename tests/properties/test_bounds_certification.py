"""Fuzz: static bounds certification is sound.  On random affine
programs with declared extents, every access the interval analysis
marks *proven* runs without ever tripping a runtime bounds check — the
fully-checked interpreter and the check-eliding compiled backend
execute bit-identically — and certified scalar sites carry no
``_check_bounds`` branch in the generated source."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.interp import ExecConfig, Executor
from repro.interp.lowering import lower_function
from repro.ir import I64, IRBuilder, Ptr, verify_module
from repro.passes.intervals import certify_bounds

# A random program: a buffer x with a declared extent N, plus loops
# whose affine index expressions stay inside [0, N) by construction —
# with a scale/offset/reversal chosen so certification has real work.

_EXTENT = st.integers(4, 16)


@st.composite
def _programs(draw):
    n = draw(_EXTENT)
    body = []
    for _ in range(draw(st.integers(1, 3))):
        scale = draw(st.integers(1, 3))
        span = n // scale
        off = draw(st.integers(0, n - scale * (span - 1) - 1))
        rev = draw(st.booleans())
        kind = draw(st.sampled_from(["scale", "rev", "plain"]))
        body.append((kind, scale, span, off, rev))
    return n, body


def _build(n, body):
    b = IRBuilder()
    with b.function("prog", [("x", Ptr()), ("s", I64)],
                    arg_attrs=[{"extent": n, "noalias": True}, {}]):
        fn = b.module.functions["prog"]
        x, _s = fn.args
        for depth, (kind, scale, span, off, rev) in enumerate(body):
            with b.for_(0, span, name=f"i{depth}") as i:
                if kind == "scale":
                    idx = b.add(b.mul(i, scale), off)
                elif kind == "rev":
                    idx = b.sub(span - 1 + off, i)
                else:
                    idx = b.add(i, off)
                v = b.load(x, idx)
                b.store(b.add(b.mul(v, 1.5), 0.25), x, idx)
    verify_module(b.module)
    return b.module


def _run(module, backend, xs):
    arr = np.array(xs, dtype=np.float64)
    ex = Executor(module, ExecConfig(backend=backend))
    if backend != "interp":
        ex.interp.backend.strict = True
    ex.run("prog", arr, 0)
    stats = ex.compile_stats()
    return arr, stats


@settings(max_examples=60, deadline=None)
@given(prog=_programs(), seed=st.integers(0, 2 ** 32 - 1))
def test_certified_sites_never_trip_runtime_checks(prog, seed):
    n, body = prog
    module = _build(n, body)

    fn = module.functions["prog"]
    facts = certify_bounds(fn, module)
    counts = facts.counts()
    # The generator only emits in-range affine accesses: nothing may
    # be flagged provably OOB, and every access must be certified (the
    # index arithmetic is exactly the shape the analysis covers).
    assert counts["oob"] == 0
    assert counts["unproven"] == 0
    assert counts["proven"] == len(body) * 2

    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=n)

    # Interpreter: every access runtime-checked.  Must not raise.
    ref, _ = _run(module, "interp", xs)
    # Compiled backend: proven checks elided.  Bit-identical.
    got, stats = _run(module, "compiled", xs)
    np.testing.assert_array_equal(ref, got)
    assert stats["bounds_proven"] == counts["proven"]
    assert stats["checks_elided"] > 0


def test_proven_scalar_site_has_no_check_in_source():
    b = IRBuilder()
    with b.function("prog", [("x", Ptr())],
                    arg_attrs=[{"extent": 8, "noalias": True}]):
        fn = b.module.functions["prog"]
        x = fn.args[0]
        with b.for_(0, 8) as i:
            # Force the scalar open-coded path with a serial loop of
            # scalar accesses.
            b.store(b.add(b.load(x, i), 1.0), x, i)
    verify_module(b.module)
    fn = b.module.functions["prog"]

    bounds = certify_bounds(fn, b.module)
    units, _consts, stats = lower_function(fn, bounds=bounds)
    assert "_check_bounds" not in "".join(units)
    assert stats.checks_elided > 0
    assert stats.bounds_proven == 2 and stats.bounds_unproven == 0

    # Without certification the very same program carries the checks.
    units2, _c2, stats2 = lower_function(fn)
    assert "_check_bounds" in "".join(units2)
    assert stats2.checks_elided == 0


def test_unproven_site_keeps_check_and_raises():
    b = IRBuilder()
    with b.function("prog", [("x", Ptr()), ("j", I64)],
                    arg_attrs=[{"extent": 8, "noalias": True}, {}]):
        fn = b.module.functions["prog"]
        x, j = fn.args
        b.store(1.0, x, j)   # j unconstrained: unproven
    verify_module(b.module)

    ex = Executor(b.module, ExecConfig(backend="compiled"))
    ex.interp.backend.strict = True
    arr = np.zeros(8)
    ex.run("prog", arr, 3)           # in range: fine
    assert arr[3] == 1.0
    import pytest
    with pytest.raises(Exception):
        ex.run("prog", np.zeros(8), 8)   # out of range: still caught
