"""Task DAGs: the abstraction §IV-A differentiates.

Fork-join programs induce a directed acyclic graph of permissible
orderings: a node with multiple children is a spawn, a node with
multiple predecessors is a sync.  Reverse-mode AD reverses that DAG —
spawns become syncs and syncs become spawns — and the adjoint program's
parallelism is the transpose of the primal's.

This module gives the standalone DAG machinery: construction,
reversal, topological execution, and greedy list scheduling (used to
check that the reversed DAG preserves the primal's critical path /
parallel slackness, which is the theoretical backbone of the paper's
"the gradient scales like the primal" result).
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable


class TaskDAG:
    """A DAG of tasks with execution costs (insertion-ordered maps)."""

    def __init__(self) -> None:
        self.cost: dict[Hashable, float] = {}
        self.succ: dict[Hashable, dict[Hashable, None]] = {}
        self.pred: dict[Hashable, dict[Hashable, None]] = {}

    def add_task(self, tid: Hashable, cost: float = 1.0) -> Hashable:
        self.succ.setdefault(tid, {})
        self.pred.setdefault(tid, {})
        self.cost[tid] = float(cost)
        return tid

    def add_dep(self, before: Hashable, after: Hashable) -> None:
        """``after`` may only run once ``before`` completed."""
        succ, pred = self.succ[before], self.pred[after]  # KeyError: unknown
        succ[after] = pred[before] = None
        if len(self.topo_order()) < len(self.cost):
            del succ[after], pred[before]
            raise ValueError(f"dependency {before} -> {after} creates a "
                             f"cycle")

    # ------------------------------------------------------------------
    def reverse(self) -> "TaskDAG":
        """The adjoint DAG: every edge flipped (§IV-A).

        A primal spawn (out-degree > 1) becomes an adjoint sync
        (in-degree > 1) and vice versa.
        """
        out = TaskDAG()
        for n, c in self.cost.items():
            out.add_task(n, c)
        for a, succs in self.succ.items():
            for b in succs:
                out.succ[b][a] = out.pred[a][b] = None
        return out

    # ------------------------------------------------------------------
    def spawns(self) -> set:
        return {n for n, succs in self.succ.items() if len(succs) > 1}

    def syncs(self) -> set:
        return {n for n, preds in self.pred.items() if len(preds) > 1}

    def work(self) -> float:
        """T_1: total work."""
        return sum(self.cost.values())

    def span(self) -> float:
        """T_inf: critical-path length."""
        if not self.cost:
            return 0.0
        longest: dict = {}
        for n in self.topo_order():
            longest[n] = self.cost[n] + max(
                (longest[p] for p in self.pred[n]), default=0.0)
        return max(longest.values())

    def topo_order(self) -> list:
        """Kahn's algorithm, one generation at a time, each in insertion
        order (networkx's ``topological_sort`` order)."""
        indeg = {n: len(preds) for n, preds in self.pred.items()}
        generation = [n for n, d in indeg.items() if d == 0]
        order: list = []
        while generation:
            order += generation
            released = []
            for n in generation:
                for s in self.succ[n]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        released.append(s)
            generation = released
        return order

    def execute(self, run: Callable[[Hashable], None]) -> list:
        """Run every task once in a dependency-respecting order."""
        order = self.topo_order()
        for t in order:
            run(t)
        return order


def list_schedule(dag: TaskDAG, nworkers: int) -> float:
    """Greedy list-scheduling makespan on ``nworkers`` workers.

    Guaranteed within 2x of optimal (Graham's bound); used to predict
    the parallel runtime of both the primal DAG and its reversal.
    """
    if nworkers <= 0:
        raise ValueError("nworkers must be positive")
    indeg = {n: len(preds) for n, preds in dag.pred.items()}
    ready = [(0.0, n) for n in dag.cost if indeg[n] == 0]
    heapq.heapify(ready)
    workers = [0.0] * nworkers
    finish: dict = {}
    done = 0
    while ready:
        avail_at, n = heapq.heappop(ready)
        w = min(range(nworkers), key=lambda i: workers[i])
        start = max(workers[w], avail_at)
        end = start + dag.cost[n]
        workers[w] = end
        finish[n] = end
        done += 1
        for succ in dag.succ[n]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                avail = max(finish[p] for p in dag.pred[succ])
                heapq.heappush(ready, (avail, succ))
    if done != len(dag.cost):
        raise ValueError("DAG has unreachable tasks (cycle?)")
    return max(finish.values()) if finish else 0.0
