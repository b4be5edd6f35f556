"""Textual printer for the repro IR (debugging, tests, goldens)."""

from __future__ import annotations

import io

from .function import Function, Module
from .ops import Block, Op
from .values import Argument, BlockArg, Constant, Result, Value


class _Namer:
    def __init__(self) -> None:
        self.names: dict[Value, str] = {}
        self.used: set[str] = set()
        self.counter = 0

    def name(self, v: Value) -> str:
        if isinstance(v, Constant):
            return repr(v.value)
        if v in self.names:
            return self.names[v]
        if isinstance(v, (Argument, BlockArg)) and v.name:
            n = f"%{v.name}"
        else:
            n = f"%{self.counter}"
            self.counter += 1
        # Disambiguate duplicates.
        while n in self.used:
            n = f"{n}_{self.counter}"
            self.counter += 1
        self.names[v] = n
        self.used.add(n)
        return n


def print_module(module: Module) -> str:
    out = io.StringIO()
    for fn in module.functions.values():
        out.write(print_function(fn))
        out.write("\n")
    return out.getvalue()


def print_function(fn: Function) -> str:
    out = io.StringIO()
    namer = _Namer()
    args = ", ".join(
        f"{namer.name(a)}: {a.type}"
        + ("".join(f" {k}" if val is True else f" {k}={val}"
                   for k, val in sorted(a.attrs.items()) if val))
        for a in fn.args)
    out.write(f"func @{fn.name}({args}) -> {fn.ret_type} {{\n")
    _print_block(fn.body, out, namer, indent=1)
    out.write("}\n")
    return out.getvalue()


class _OpsView:
    """Duck-typed block holding a chosen op list (for print_op)."""

    __slots__ = ("ops",)

    def __init__(self, ops: list) -> None:
        self.ops = ops


def _op_context(op: Op) -> str:
    """Enclosing-region path of an op, e.g. ``@fn / fork / if``."""
    parts = []
    blk = op.parent
    while blk is not None:
        pop = blk.parent_op
        if pop is None:
            fn = blk.parent_function
            if fn is not None:
                parts.append(f"@{getattr(fn, 'name', fn)}")
            break
        parts.append(pop.opcode)
        blk = pop.parent
    return " / ".join(reversed(parts))


def print_op(op: Op, context: bool = True) -> str:
    """Render one op as provenance for diagnostics: its printed form
    (region bodies elided) plus the enclosing-region path."""
    namer = _Namer()
    if op.regions:
        args = ", ".join(namer.name(v) for v in op.operands)
        line = f"{op.opcode} {args}".rstrip() + f"{_fmt_attrs(op)} {{...}}"
    else:
        out = io.StringIO()
        _print_block(_OpsView([op]), out, namer, indent=0)
        line = out.getvalue().rstrip("\n")
    if context:
        ctx = _op_context(op)
        if ctx:
            line += f"   [in {ctx}]"
    return line


def _fmt_attrs(op: Op, skip=("callee",)) -> str:
    items = [f'{k}={v!r}' for k, v in sorted(op.attrs.items())
             if k not in skip and v not in (False, None, {}, [])]
    return (" {" + ", ".join(items) + "}") if items else ""


def _print_block(block: Block, out, namer: _Namer, indent: int) -> None:
    pad = "  " * indent
    for op in block.ops:
        n = namer.name
        oc = op.opcode
        if oc == "load":
            out.write(f"{pad}{n(op.result)} = load {n(op.operands[0])}"
                      f"[{n(op.operands[1])}] : {op.result.type}\n")
        elif oc == "store":
            out.write(f"{pad}store {n(op.operands[0])}, {n(op.operands[1])}"
                      f"[{n(op.operands[2])}]\n")
        elif oc == "atomic":
            out.write(f"{pad}atomic_{op.attrs['kind']} {n(op.operands[0])}, "
                      f"{n(op.operands[1])}[{n(op.operands[2])}]"
                      f"{_fmt_attrs(op, skip=('callee', 'kind'))}\n")
        elif oc == "alloc":
            out.write(f"{pad}{n(op.result)} = alloc {n(op.operands[0])} x "
                      f"{op.result.type.elem} space={op.attrs['space']}\n")
        elif oc == "call":
            res = f"{n(op.result)} = " if op.result else ""
            args = ", ".join(n(v) for v in op.operands)
            out.write(f"{pad}{res}call @{op.attrs['callee']}({args})"
                      f"{_fmt_attrs(op)}\n")
        elif oc == "return":
            vals = ", ".join(n(v) for v in op.operands)
            out.write(f"{pad}return {vals}\n".rstrip() + "\n")
        elif oc == "for":
            kind = "workshare_for" if op.attrs.get("workshare") else "for"
            simd = " simd" if op.attrs.get("simd") else ""
            # Only the adjoint-strategy tag is printed (round-trips via
            # the parser); other loop attrs stay internal.
            adjoint = op.attrs.get("adjoint")
            tag = f" {{adjoint={adjoint!r}}}" if adjoint else ""
            out.write(f"{pad}{kind}{simd} {namer.name(op.body.args[0])} in "
                      f"[{n(op.operands[0])}, {n(op.operands[1])}) "
                      f"step {n(op.operands[2])}{tag} {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "parallel_for":
            out.write(f"{pad}parallel_for {namer.name(op.body.args[0])} in "
                      f"[{n(op.operands[0])}, {n(op.operands[1])})"
                      f"{_fmt_attrs(op)} {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "fork":
            body = op.regions[0]
            out.write(f"{pad}fork({n(op.operands[0])}) "
                      f"({namer.name(body.args[0])}, {namer.name(body.args[1])})"
                      f" {{\n")
            _print_block(body, out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "if":
            out.write(f"{pad}if {n(op.operands[0])} {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            if op.regions[1].ops:
                out.write(f"{pad}}} else {{\n")
                _print_block(op.regions[1], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "while":
            out.write(f"{pad}while {namer.name(op.body.args[0])} {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "condition":
            out.write(f"{pad}continue_if {n(op.operands[0])}\n")
        elif oc == "spawn":
            out.write(f"{pad}{n(op.result)} = spawn {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "cmp":
            out.write(f"{pad}{n(op.result)} = cmp.{op.attrs['pred']} "
                      f"{n(op.operands[0])}, {n(op.operands[1])}\n")
        else:
            res = f"{n(op.result)} = " if op.result else ""
            args = ", ".join(n(v) for v in op.operands)
            out.write(f"{pad}{res}{oc} {args}{_fmt_attrs(op)}\n")
