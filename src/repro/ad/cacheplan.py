"""Cache-vs-recompute planning (paper §IV-C).

The adjoint of an instruction often needs primal values.  Values defined
at function top level are *free*: the reverse section of the generated
gradient function can still see their forward SSA values (allocation
strategy 1 — "stack variable alive for the whole differentiation").
Values defined inside loops must either be **recomputed** in the reverse
pass from available values, or **cached** during the forward pass:

* in an array indexed by the (linearized) loop iteration when every
  enclosing loop's extent is known at function entry (strategy 2), or
* in a dynamically grown cache (strategy 3) when an enclosing loop has
  a dynamic trip count (``while``) — pushed per forward iteration,
  popped at reverse-iteration entry in mirrored order.

The choice between caching and recomputation is a minimum vertex cut on
the data-dependency graph (the "minimum-cut recompute vs cache
analysis" of [17] cited in §IV-C): sources are values that *cannot* be
recomputed (loads from overwritten memory, communication results, ...),
sinks are the values the reverse pass needs, and cutting a node means
caching it, at a capacity equal to its estimated cache footprint.

Fork regions cache per-thread (indexed by ``tid``); worksharing loops
cache per-iteration, which also makes the reverse robust to a different
thread-to-iteration mapping (paper §VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ir.function import Function, Module
from ..ir.ops import Op
from ..ir.types import F64, I1, I64, PointerType, Request, Task, Type
from ..ir.values import Argument, BlockArg, Constant, Result, Value
from ..passes.aliasing import AliasInfo
from ..passes.cleanup import PURE_INTRINSICS
from .activity import ActivityInfo
from .rules import RULES, ZERO_DERIVATIVE


class PlanError(Exception):
    pass


class ForkNThreads:
    """Substitution marker: the value is the thread count of a fork
    region; the transform materializes it at depth 0 as
    ``select(num_threads <= 0, rt.num_threads(), num_threads)``."""

    __slots__ = ("fork_op",)

    def __init__(self, fork_op: Op) -> None:
        self.fork_op = fork_op


#: Loop-like region ops that constitute cache index dimensions.
_DIM_OPS = ("for", "parallel_for", "while", "fork")


def nest_of(op: Op) -> list[Op]:
    """Enclosing dimension ops, outermost first (spawn/if contribute
    no dimension)."""
    nest: list[Op] = []
    blk = op.parent
    while blk is not None:
        owner = blk.parent_op
        if owner is None:
            break
        if owner.opcode in _DIM_OPS:
            nest.append(owner)
        blk = owner.parent
    nest.reverse()
    return nest


def def_op_of(v: Value) -> Optional[Op]:
    return v.op if isinstance(v, Result) else None


def _directly_in_function_body(op: Op) -> bool:
    return op.parent is not None and op.parent.parent_op is None


def depth_of(v: Value) -> int:
    """0 iff the defining op sits *directly* in the function body —
    only those forward-clone SSA values remain in scope for the reverse
    section.  Values inside any region (including ``if``/``spawn``,
    which add no cache dimension) are not free: their reverse uses live
    in a sibling region."""
    op = def_op_of(v)
    if op is None:
        return 0
    if _directly_in_function_body(op):
        return 0
    return max(1, len(nest_of(op)))


def dims_for_op(op: Op, exclude=()) -> list[Op]:
    """Cache dimensions for values defined at ``op``.

    Drops a fork dimension when a worksharing loop lies deeper in the
    nest: worksharing iterations are cached by iteration index alone
    (§VI-B), independent of the thread that executed them.

    ``exclude`` holds loops whose storage is managed by an
    :class:`repro.ad.strategy.AdjointStrategy` (checkpoint / implicit):
    those loops re-run one augmented iteration at a time during the
    reverse sweep, so caches inside them hold a *single* iteration and
    the managed loop contributes no index dimension.
    """
    nest = nest_of(op)
    dims: list[Op] = []
    for i, d in enumerate(nest):
        if d in exclude:
            continue
        if d.opcode == "fork":
            deeper_ws = any(
                n.opcode == "for" and n.attrs.get("workshare")
                for n in nest[i + 1:])
            if deeper_ws:
                continue
        dims.append(d)
    return dims


def _value_defined_at_depth0(v: Value) -> bool:
    if isinstance(v, (Constant, Argument)):
        return True
    if isinstance(v, BlockArg):
        return False
    op = def_op_of(v)
    return op is not None and _directly_in_function_body(op)


def _dim_is_static(dim: Op, resolve=None) -> bool:
    """A dimension is static when its extent is computable at function
    entry (all bound operands defined at depth 0, possibly after
    looking through closure-capture loads via ``resolve``)."""
    if dim.opcode == "while":
        return False

    def ok(v: Value) -> bool:
        if _value_defined_at_depth0(v):
            return True
        return resolve is not None and resolve(v) is not None

    if dim.opcode == "fork":
        return ok(dim.operands[0])
    # for / parallel_for
    return all(ok(o) for o in dim.operands)


@dataclass
class CacheSlot:
    """Storage assignment for one cached value (or synthetic)."""

    key: object                       # Value, or (Op, tag) for synthetics
    elem: Type
    dims: list[Op]                    # static dims below the dynamic split
    dyn_anchor: Optional[Op]          # innermost dynamic dim, or None
    slot_id: int = 0

    @property
    def kind(self) -> str:
        if self.dyn_anchor is not None:
            return "hybrid" if self.dims else "dyn"
        return "indexed"


class CachePlan:
    def __init__(self) -> None:
        #: Value -> "free" | "recompute" | "cache"
        self.resolution: dict[Value, str] = {}
        self.slots: dict[object, CacheSlot] = {}
        #: dynamic loop op -> ordered slot keys pushed per iteration
        self.dyn_groups: dict[Op, list[object]] = {}
        self.needed: set[Value] = set()
        #: pointer values validated for reverse re-derivation
        self.needed_ptrs: set[Value] = set()
        #: pointer loads whose (primal, shadow) values are cached as
        #: objects because the slot may be overwritten (closure records
        #: not cleaned up by optimization)
        self.ptr_cached_loads: set = set()
        #: in-region value -> equivalent depth-0 value (resolved through
        #: unique closure-capture stores; Enzyme knows the kmpc capture
        #: convention, §V-C: "marking information which is required to
        #: compute the derivative of the parallel construct")
        self.subst: dict[Value, Value] = {}
        self.stats: dict = {}

    def slot_for(self, key) -> Optional[CacheSlot]:
        return self.slots.get(key)

    def is_cached(self, v: Value) -> bool:
        return self.resolution.get(v) == "cache"


class CachePlanner:
    def __init__(self, fn: Function, module: Module, aliasing: AliasInfo,
                 activity: ActivityInfo, cache_all: bool = False,
                 nominal_extent: int = 64,
                 managed_loops: frozenset = frozenset()) -> None:
        self.fn = fn
        self.module = module
        self.aliasing = aliasing
        self.activity = activity
        self.cache_all = cache_all
        self.nominal_extent = nominal_extent
        #: Loops whose storage an AdjointStrategy manages: they add no
        #: cache dimension (single-iteration caches; see dims_for_op).
        self.managed_loops = managed_loops
        self.plan = CachePlan()
        self._slot_ids = 0

    # ------------------------------------------------------------------
    def build(self) -> CachePlan:
        # Values hash by object identity: iterate the needed and closure
        # sets in program order, or slot numbering (and with it the
        # gradient IR, which keys the compile cache) would vary from
        # process to process.
        rank = {op.result: i for i, op in enumerate(self.fn.walk())
                if op.result is not None}

        def in_program_order(values) -> list[Value]:
            return sorted(values, key=lambda v: rank.get(v, len(rank)))

        needed = in_program_order(self._collect_needed())
        closure = self._close(needed)
        self._classify(in_program_order(closure), needed)
        self._assign_slots()
        self.plan.stats = {
            "needed": len(needed),
            "closure": len(closure),
            "cached": sum(1 for r in self.plan.resolution.values()
                          if r == "cache"),
            "recompute": sum(1 for r in self.plan.resolution.values()
                             if r == "recompute"),
        }
        return self.plan

    # ------------------------------------------------------------------
    # Phase 1: what does the reverse pass need?
    # ------------------------------------------------------------------
    def _collect_needed(self) -> set[Value]:
        needed: set[Value] = set()
        act = self.activity

        def need(v: Value) -> None:
            if isinstance(v, Constant):
                return
            if isinstance(v.type, PointerType):
                self._need_pointer(v, needed)
            else:
                needed.add(v)

        for op in self.fn.walk():
            oc = op.opcode
            if oc in RULES or oc in ZERO_DERIVATIVE:
                if op.result is None or not act.value_active(op.result):
                    continue
                if oc in ZERO_DERIVATIVE:
                    continue
                rule = RULES[oc]
                active = _operand_active(op, act)
                for dep in rule.deps(op, active):
                    need(dep)
            elif oc == "load":
                if op.result.type is F64 and act.value_active(op.result):
                    need(op.operands[1])
                    need(op.operands[0])
                elif op.result.type in (Request, Task):
                    # handle loads: shadow re-derivation needs the pointer
                    # chain and the index
                    need(op.operands[1])
                    need(op.operands[0])
            elif oc == "store":
                if self._dest_active(op.operands[1]):
                    need(op.operands[2])
                    need(op.operands[1])
            elif oc == "atomic":
                if self._dest_active(op.operands[1]):
                    need(op.operands[2])
                    need(op.operands[1])
            elif oc in ("memset", "memcpy"):
                if self._dest_active(op.operands[0]):
                    for v in op.operands:
                        need(v)
            elif oc == "alloc":
                self._plan_shadow_persistence(op)
            elif oc == "if":
                need(op.operands[0])
            elif oc == "for":
                for v in op.operands:
                    need(v)
            elif oc == "while":
                self._add_synthetic((op, "trip"), I64, op)
            elif oc == "parallel_for":
                for v in op.operands:
                    need(v)
            elif oc == "fork":
                need(op.operands[0])
            elif oc == "call":
                callee = op.attrs["callee"]
                if callee.startswith("mpi."):
                    for v in op.operands:
                        need(v)
                    if callee == "mpi.wait":
                        # forward shadow (the record) of the waited
                        # request must be preserved to the reverse wait
                        self._add_synthetic((op, "record"), Request, op)
                    if callee == "mpi.allreduce":
                        self._add_synthetic((op, "record"), Request, op)
                    if callee == "mpi.reduce":
                        self._add_synthetic((op, "record"), Request, op)
                elif callee == "task.wait":
                    pass  # reverse-flow shadow, nothing to preserve
                elif callee == "jl.gc_preserve_begin":
                    for v in op.operands:
                        need(v)
        self.plan.needed = set(needed)
        return needed

    def _dest_active(self, ptr: Value) -> bool:
        return self.activity.ptr_active(ptr, self.aliasing)

    def _need_pointer(self, ptr: Value, needed: set[Value]) -> None:
        """Validate that a pointer can be re-derived in the reverse pass
        and register its integer dependencies."""
        if ptr in self.plan.needed_ptrs:
            return
        self.plan.needed_ptrs.add(ptr)
        if isinstance(ptr, (Argument, Constant)):
            return
        op = def_op_of(ptr)
        if op is None:
            raise PlanError(f"pointer {ptr!r} has no derivation")
        oc = op.opcode
        if oc == "alloc":
            return  # primal clone / fresh reverse shadow
        if oc == "ptradd":
            needed.add(op.operands[1])
            self._need_pointer(op.operands[0], needed)
            return
        if oc == "load":
            base = op.operands[0]
            if not self.aliasing.is_readonly(base):
                # The pointer slot may be overwritten: preserve the
                # primal and shadow pointer values themselves (object
                # caches) instead of re-deriving through memory.
                self.plan.ptr_cached_loads.add(op)
                self._add_synthetic((op, "pptr"), op.result.type, op)
                self._add_synthetic((op, "sptr"), op.result.type, op)
                return
            needed.add(op.operands[1])
            self._need_pointer(base, needed)
            return
        if oc == "call" and op.attrs["callee"] == "jl.arrayptr":
            self._need_pointer(op.operands[0], needed)
            return
        raise PlanError(f"unsupported pointer derivation {op!r}")

    def _add_synthetic(self, key, elem: Type, op: Op) -> None:
        dims = dims_for_op(op, self.managed_loops)
        self._make_slot(key, elem, dims)

    def _plan_shadow_persistence(self, op: Op) -> None:
        """Region-local allocations that need shadows get their forward
        shadow *pointer* cached when the region is not parallel, so the
        reverse pass reuses the very same shadow buffer (anything may
        have captured it — e.g. an MPI shadow request).  Inside parallel
        regions the reverse allocates fresh zeroed shadows instead
        (shadow state cannot legally escape a parallel iteration, and
        MPI is not permitted there)."""
        if op.parent is None or op.parent.parent_op is None:
            return  # function-level: the forward SSA shadow is in scope
        if not self._alloc_needs_shadow(op):
            return
        dims = dims_for_op(op, self.managed_loops)
        parallel = any(
            d.opcode in ("parallel_for", "fork")
            or (d.opcode == "for" and d.attrs.get("workshare"))
            or d.attrs.get("simd")
            for d in dims)
        if parallel:
            return
        self._make_slot((op, "shadowptr"), op.result.type, dims)

    def _alloc_needs_shadow(self, alloc: Op) -> bool:
        elem = alloc.result.type.elem
        if isinstance(elem, PointerType) or elem in (Request, Task):
            return True
        if elem is not F64:
            return False
        return self.activity.origin_active(("alloc", alloc)) or \
            self.activity.all_origins_active

    # ------------------------------------------------------------------
    # Depth-0 resolution through unique capture stores
    # ------------------------------------------------------------------
    def resolve_depth0(self, v: Value, depth: int = 0) -> Optional[Value]:
        """Return a depth-0 value provably equal to ``v`` (possibly by
        looking through a load whose location has exactly one store,
        at depth 0, of a depth-0 value), else None."""
        if depth > 8:
            return None
        if _value_defined_at_depth0(v):
            return v
        cached = self.plan.subst.get(v)
        if cached is not None:
            return cached
        if isinstance(v, BlockArg) and v.owner is not None and \
                v.owner.opcode == "fork" and v.index == 1:
            marker = ForkNThreads(v.owner)
            self.plan.subst[v] = marker
            return marker
        op = def_op_of(v)
        if op is None or op.opcode != "load":
            return None
        if self._store_map is None:
            self._build_store_map()
        key = _loc_ident(op.operands[0], op.operands[1])
        if key is None:
            return None
        stores = self._store_map.get(key)
        if stores is None or len(stores) != 1:
            return None
        store = stores[0]
        if nest_of(store):
            return None  # store not at depth 0
        # Bulk writes (memset/memcpy) to a possibly-aliasing buffer
        # invalidate exact-location forwarding.
        for bulk in self._bulk_writes:
            if self.aliasing.may_alias(bulk.operands[0], op.operands[0]):
                return None
        resolved = self.resolve_depth0(store.operands[0], depth + 1)
        if resolved is not None:
            self.plan.subst[v] = resolved
        return resolved

    _store_map = None

    def _build_store_map(self) -> None:
        self._store_map = {}
        self._bulk_writes = []
        for op in self.fn.walk():
            if op.opcode == "store":
                key = _loc_ident(op.operands[1], op.operands[2])
                if key is not None:
                    self._store_map.setdefault(key, []).append(op)
            elif op.opcode in ("memset", "memcpy"):
                self._bulk_writes.append(op)

    # ------------------------------------------------------------------
    # Phase 2: dependency closure over recomputation
    # ------------------------------------------------------------------
    def _recompute_deps(self, v: Value) -> Optional[list[Value]]:
        """Operand values needed to recompute ``v`` in the reverse pass,
        or None when ``v`` cannot be recomputed."""
        op = def_op_of(v)
        if op is None:
            return None
        oc = op.opcode
        from ..ir.opinfo import OP_INFO
        if oc in OP_INFO:
            return [o for o in op.operands if not isinstance(o, Constant)]
        if oc == "load":
            if self.aliasing.is_readonly(op.operands[0]):
                self._need_pointer(op.operands[0], self.plan.needed)
                return [op.operands[1]]
            return None
        if oc == "call" and op.attrs["callee"] in PURE_INTRINSICS:
            return []
        return None

    def _close(self, needed: list[Value]) -> set[Value]:
        closure: set[Value] = set()
        work = list(needed)
        while work:
            v = work.pop()
            if v in closure or self._is_free(v):
                continue
            closure.add(v)
            deps = self._recompute_deps(v)
            if deps:
                for d in deps:
                    if d not in closure and not self._is_free(d):
                        work.append(d)
        return closure

    def _is_free(self, v: Value) -> bool:
        if isinstance(v, (Constant, Argument, BlockArg)):
            return True
        if isinstance(v.type, PointerType):
            return True  # pointers are re-derived, never cached
        return depth_of(v) == 0

    # ------------------------------------------------------------------
    # Phase 3: min-cut (or cache-all)
    # ------------------------------------------------------------------
    def _cacheable(self, v: Value) -> bool:
        return v.type in (F64, I64, I1, Request, Task)

    def _cache_weight(self, v: Value) -> float:
        op = def_op_of(v)
        weight = float(v.type.size_bytes)
        if op is not None:
            for dim in dims_for_op(op, self.managed_loops):
                weight *= self._dim_extent_estimate(dim)
        return weight

    def _dim_extent_estimate(self, dim: Op) -> float:
        if dim.opcode in ("for", "parallel_for"):
            lb, ub = dim.operands[0], dim.operands[1]
            if isinstance(lb, Constant) and isinstance(ub, Constant):
                return max(1, ub.value - lb.value)
        if dim.opcode == "fork":
            return 16.0
        return float(self.nominal_extent)

    def _classify(self, closure: list[Value], needed: list[Value]) -> None:
        """``closure`` and ``needed`` come in program order (see build)."""
        res = self.plan.resolution
        for v in closure:
            res[v] = "recompute"  # refined below

        if self.cache_all:
            for v in closure:
                if self._cacheable(v):
                    res[v] = "cache"
                elif self._recompute_deps(v) is None:
                    raise PlanError(f"value {v!r} is neither cacheable nor "
                                    f"recomputable")
            return

        # Min vertex cut: value i of the closure splits into node 2 + 2i
        # (in) and 3 + 2i (out), joined by an edge of its cache weight.
        index = {v: i for i, v in enumerate(closure)}
        edges: list[tuple[int, int, float]] = []
        for i, v in enumerate(closure):
            cap = self._cache_weight(v) if self._cacheable(v) else _INF
            edges.append((2 + 2 * i, 3 + 2 * i, cap))
            deps = self._recompute_deps(v)
            if deps is None:
                if not self._cacheable(v):
                    raise PlanError(
                        f"value {v!r} must be preserved but cannot be "
                        f"cached")
                edges.append((_SOURCE, 2 + 2 * i, _INF))
            else:
                edges += [(3 + 2 * index[d], 2 + 2 * i, _INF)
                          for d in deps if not self._is_free(d)]
        edges += [(3 + 2 * index[v], _SINK, _INF) for v in needed
                  if v in index]

        _, sink_side = min_cut(2 + 2 * len(closure), edges, _SOURCE, _SINK)
        for i, v in enumerate(closure):
            if 2 + 2 * i not in sink_side and 3 + 2 * i in sink_side:
                res[v] = "cache"

    # ------------------------------------------------------------------
    # Phase 4: storage assignment
    # ------------------------------------------------------------------
    def _assign_slots(self) -> None:
        for v, r in self.plan.resolution.items():
            if r == "cache":
                op = def_op_of(v)
                dims = (dims_for_op(op, self.managed_loops)
                        if op is not None else [])
                self._make_slot(v, v.type, dims)

    def _make_slot(self, key, elem: Type, dims: list[Op]) -> CacheSlot:
        existing = self.plan.slots.get(key)
        if existing is not None:
            return existing
        dyn_anchor: Optional[Op] = None
        static_dims: list[Op] = []
        last_dynamic = -1
        for i, d in enumerate(dims):
            if not _dim_is_static(d, self.resolve_depth0):
                last_dynamic = i
        if last_dynamic >= 0:
            dyn_anchor = dims[last_dynamic]
            static_dims = dims[last_dynamic + 1:]
            # Dynamic caches are serial; a parallel dim outside the
            # anchor would mean vector pushes.
            for d in dims[:last_dynamic]:
                if d.opcode in ("parallel_for", "fork") or (
                        d.opcode == "for" and d.attrs.get("workshare")):
                    raise PlanError(
                        "dynamic-trip-count loop nested inside a parallel "
                        "region is not supported by the cache planner")
        else:
            static_dims = dims
        self._slot_ids += 1
        slot = CacheSlot(key=key, elem=elem, dims=static_dims,
                         dyn_anchor=dyn_anchor, slot_id=self._slot_ids)
        self.plan.slots[key] = slot
        if dyn_anchor is not None:
            self.plan.dyn_groups.setdefault(dyn_anchor, []).append(key)
        return slot


_SOURCE, _SINK = 0, 1
_INF = float("inf")


def min_cut(num_nodes: int, edges: list, source: int,
            sink: int) -> tuple[float, set[int]]:
    """Minimum ``source``-``sink`` cut of a digraph of ``(u, v, capacity)``
    edges (capacities may be infinite), by Dinic's max-flow.  Returns the
    cut value and the sink side: the nodes that can still reach ``sink``
    in the residual graph, which is the same for every maximum flow (the
    inclusion-minimal sink side over all minimum cuts).  Raises
    :class:`PlanError` when infinite capacities leave no finite cut."""
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    to: list[int] = []        # edge 2k runs u -> v, edge 2k + 1 back
    res: list[float] = []     # residual capacities
    for u, v, cap in edges:
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += (v, u)
        res += (cap, 0.0)
    total = 0.0
    while True:
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for u in queue:  # breadth-first levels over residual edges
            for e in adj[u]:
                if res[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[sink] < 0:
            break
        # Blocking flow: depth-first along level-increasing edges, each
        # node resuming at its current arc.
        arc = [0] * num_nodes
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                pushed = min(res[e] for e in path)
                if pushed == _INF:
                    raise PlanError("min-cut failed: uncuttable path "
                                    "(uncacheable mandatory value)")
                for e in path:
                    res[e] -= pushed
                    res[e ^ 1] += pushed
                total += pushed
                path, u = [], source
            elif arc[u] < len(adj[u]):
                e = adj[u][arc[u]]
                if res[e] > 0 and level[to[e]] == level[u] + 1:
                    path.append(e)
                    u = to[e]
                else:
                    arc[u] += 1
            elif path:  # dead end: retreat and never enter it again
                level[u] = -1
                u = to[path.pop() ^ 1]
                arc[u] += 1
            else:
                break
    sink_side = {sink}
    stack = [sink]
    while stack:
        for e in adj[stack.pop()]:
            if res[e ^ 1] > 0 and to[e] not in sink_side:
                sink_side.add(to[e])
                stack.append(to[e])
    return total, sink_side


def _loc_ident(ptr: Value, idx: Value):
    """Identity key of an exact memory location (pointer value identity
    plus a constant or value-identity index)."""
    if isinstance(idx, Constant):
        return (id(ptr), ("c", idx.value))
    return (id(ptr), ("v", id(idx)))


def _operand_active(op: Op, act: ActivityInfo):
    def active(i: int) -> bool:
        o = op.operands[i]
        return o.type is F64 and not isinstance(o, Constant) and \
            act.value_active(o)
    return active
