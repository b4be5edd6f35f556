"""Cleanup: constant folding, block-local CSE and DCE in two sweeps.

A pre-order sweep resolves each op's operands through the replacements
found so far, then folds the op (constant operands through the NumPy
evaluators the interpreter uses, plus fast-math style identities:
``x+0``, ``x-0``, ``x*1``, ``x*0``, ``x/1``, ``select`` on a constant
condition or equal arms, idempotent ``min``/``max``/``and``/``or``) or
value-numbers it within its block; it counts uses as it goes.  A
reverse sweep then drops dead ops by use count: pure ops, loads,
pointer arithmetic, pure intrinsic calls and allocations without uses,
and ``if``/``for``/``parallel_for`` ops whose regions are empty.  SSA
dominance makes one sweep of each kind enough: a value's replacement is
known before its first use, and its last user goes before it does.
Loads are never merged (LICM and OpenMPOpt handle the profitable load
cases).
"""

from __future__ import annotations

import numpy as np

from ..ir.function import Function, Module
from ..ir.opinfo import OP_INFO
from ..ir.ops import Block, Op
from ..ir.types import F64, I64
from ..ir.values import Constant, Value
from .pass_manager import FunctionPass

_CMP = OP_INFO["cmp"].attrs["preds"]

#: Side-effect-free intrinsic calls: merged here (and dropped when
#: unused), recomputed in the reverse pass by the AD cache planner.
PURE_INTRINSICS = frozenset({"mpi.comm_rank", "mpi.comm_size",
                             "rt.num_threads"})
#: Intrinsic calls dropped when unused.
_DEAD_INTRINSICS = PURE_INTRINSICS | {"jl.arrayptr"}
#: Non-computational opcodes removable when their result is unused.
_REMOVABLE = frozenset({"ptradd", "load", "alloc", "cache_create"})


class Cleanup(FunctionPass):
    name = "cleanup"

    def run(self, fn: Function, module: Module) -> bool:
        self.changed = False
        self.replacements: dict[Value, Value] = {}
        self.uses: dict[Value, int] = {}
        self._forward(fn.body)
        self._sweep(fn.body)
        return self.changed

    def _forward(self, block: Block) -> None:
        repl = self.replacements
        uses = self.uses
        seen: dict = {}
        for op in block.ops:
            operands = op.operands
            if repl:
                resolved = [repl.get(v, v) for v in operands]
                if resolved != operands:  # identity comparison
                    op.operands = operands = resolved
                    self.changed = True
            for v in operands:
                uses[v] = uses.get(v, 0) + 1
            if op.result is not None:
                new = _fold(op)
                k = _key(op)
                if k is not None:
                    # A folded op's key maps to its folded value, so a
                    # later duplicate folds the same way (equal-valued
                    # constants match here, not by identity).
                    prev = seen.setdefault(k, new or op.result)
                    if new is None and prev is not op.result:
                        new = prev
                if new is not None:
                    repl[op.result] = new
                    self.changed = True
            for region in op.regions:
                self._forward(region)

    def _sweep(self, block: Block) -> None:
        uses = self.uses
        kept: list[Op] = []
        for op in reversed(block.ops):
            for region in op.regions:
                self._sweep(region)
            if _dead(op, uses):
                for v in op.operands:
                    uses[v] -= 1
                op.parent = None
            else:
                kept.append(op)
        if len(kept) != len(block.ops):
            kept.reverse()
            block.ops[:] = kept
            self.changed = True


def _dead(op: Op, uses: dict) -> bool:
    if op.result is not None and uses.get(op.result):
        return False
    oc = op.opcode
    if oc in OP_INFO:
        return True
    if oc in _REMOVABLE:
        return op.result is not None
    if oc == "call":
        return op.attrs["callee"] in _DEAD_INTRINSICS
    if oc in ("if", "for", "parallel_for"):
        return not any(region.ops for region in op.regions)
    return False


def _key(op: Op):
    """Value-numbering key: opcode, operands (constants by value) and
    scalar attributes; None for ops that must not be merged."""
    oc = op.opcode
    info = OP_INFO.get(oc)
    pure_call = oc == "call" and op.attrs["callee"] in PURE_INTRINSICS
    if info is None and oc != "ptradd" and not pure_call:
        return None
    operand_ids = [("c", v.value) if isinstance(v, Constant) else
                   ("v", id(v)) for v in op.operands]
    if info is not None and info.commutative:
        operand_ids.sort()
    attr_items = tuple(sorted(
        (k, v) for k, v in op.attrs.items()
        if isinstance(v, (str, int, bool, float)))) if op.attrs else ()
    return (oc, tuple(operand_ids), attr_items)


def _const(v) -> Constant:
    # NumPy scalars become the Python float/int/bool that types them.
    return Constant(v.item() if isinstance(v, np.generic) else v)


def _is_const(v: Value, val) -> bool:
    # 0 == 0.0 == False and 1 == 1.0 == True: one test covers every type.
    return isinstance(v, Constant) and v.value == val


def _fold(op: Op) -> Value | None:
    oc = op.opcode
    info = OP_INFO.get(oc)
    if info is None:
        return None
    ops_ = op.operands
    values = [v.value for v in ops_ if isinstance(v, Constant)]
    if len(values) == len(ops_):
        if oc == "cmp":
            return _const(_CMP[op.attrs["pred"]](*values))
        if info.evaluate is None:
            return None
        if oc == "select":
            return ops_[1] if values[0] else ops_[2]
        try:
            return _const(info.evaluate(*values))
        except (ZeroDivisionError, FloatingPointError, ValueError):
            return None

    # Identities (fast-math style; the apps avoid NaN-sensitive
    # corners, matching how the benchmarks are compiled with -O2).
    if oc in ("add", "iadd"):
        if _is_const(ops_[0], 0):
            return ops_[1]
        if _is_const(ops_[1], 0):
            return ops_[0]
    elif oc in ("sub", "isub"):
        if _is_const(ops_[1], 0):
            return ops_[0]
    elif oc in ("mul", "imul"):
        for a, b in ((0, 1), (1, 0)):
            if _is_const(ops_[a], 1):
                return ops_[b]
            if _is_const(ops_[a], 0):
                return Constant(0, I64) if oc == "imul" else \
                    Constant(0.0, F64)
    elif oc in ("div", "idiv"):
        if _is_const(ops_[1], 1):
            return ops_[0]
    elif oc == "select":
        if isinstance(ops_[0], Constant):
            return ops_[1] if ops_[0].value else ops_[2]
        if ops_[1] is ops_[2]:
            return ops_[1]
    elif oc in ("min", "max", "imin", "imax", "and", "or"):
        if ops_[0] is ops_[1]:
            return ops_[0]
    return None
