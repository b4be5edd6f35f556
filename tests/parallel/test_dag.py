"""Task DAG reversal and scheduling (§IV-A theory)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import TaskDAG, list_schedule


def _diamond():
    d = TaskDAG()
    for t, c in (("spawn", 1.0), ("a", 2.0), ("b", 3.0), ("sync", 1.0)):
        d.add_task(t, c)
    d.add_dep("spawn", "a")
    d.add_dep("spawn", "b")
    d.add_dep("a", "sync")
    d.add_dep("b", "sync")
    return d


def test_spawn_sync_classification():
    d = _diamond()
    assert d.spawns() == {"spawn"}
    assert d.syncs() == {"sync"}


def test_reverse_swaps_spawn_and_sync():
    r = _diamond().reverse()
    assert r.spawns() == {"sync"}
    assert r.syncs() == {"spawn"}


def test_reverse_preserves_work_and_span():
    d = _diamond()
    r = d.reverse()
    assert r.work() == d.work()
    assert r.span() == d.span()


def test_cycle_rejected():
    d = TaskDAG()
    d.add_task("a")
    d.add_task("b")
    d.add_dep("a", "b")
    with pytest.raises(ValueError, match="cycle"):
        d.add_dep("b", "a")


def test_cycle_rejection_leaves_dag_unchanged():
    d = TaskDAG()
    for t in "abc":
        d.add_task(t)
    d.add_dep("a", "b")
    d.add_dep("b", "c")
    with pytest.raises(ValueError, match="cycle"):
        d.add_dep("c", "a")          # closes a -> b -> c -> a
    with pytest.raises(ValueError, match="cycle"):
        d.add_dep("b", "b")          # self-loop
    d.add_dep("a", "b")              # a repeated edge is no cycle
    assert d.topo_order() == ["a", "b", "c"]
    assert d.syncs() == set() and d.spawns() == set()
    with pytest.raises(KeyError):
        d.add_dep("a", "missing")


def _insertion_ordered_dag():
    d = TaskDAG()
    for t, c in (("e", 2.0), ("a", 1.0), ("d", 4.0), ("b", 3.0),
                 ("c", 0.5), ("f", 1.5)):
        d.add_task(t, c)
    for a, b in (("a", "f"), ("e", "c"), ("a", "b"), ("e", "b"),
                 ("b", "d"), ("c", "d"), ("d", "f")):
        d.add_dep(a, b)
    return d


def test_topo_order_is_generation_by_generation_in_insertion_order():
    """Pinned orders (they match networkx.topological_sort, which the
    DAG used before): sources in task insertion order, then the tasks
    each generation releases, in the order their edges were added."""
    d = _insertion_ordered_dag()
    assert d.topo_order() == ["e", "a", "c", "b", "d", "f"]
    assert d.reverse().topo_order() == ["f", "d", "b", "c", "a", "e"]
    assert d.span() == 10.5          # e -> b -> d -> f
    assert d.reverse().span() == 10.5

    g = TaskDAG()
    for t in (5, 3, 9, 1, 7, 2):
        g.add_task(t)
    for a, b in ((9, 2), (3, 2), (5, 1), (5, 7), (3, 7), (1, 2)):
        g.add_dep(a, b)
    assert g.topo_order() == [5, 3, 9, 1, 7, 2]
    assert g.span() == 3.0


def test_execute_respects_dependencies():
    d = _diamond()
    seen = []
    d.execute(seen.append)
    assert seen.index("spawn") < seen.index("a") < seen.index("sync")
    assert seen.index("spawn") < seen.index("b") < seen.index("sync")


def test_list_schedule_bounds():
    d = _diamond()
    t1 = list_schedule(d, 1)
    t2 = list_schedule(d, 2)
    assert t1 == pytest.approx(d.work())
    # a and b run in parallel with 2 workers
    assert t2 == pytest.approx(1.0 + 3.0 + 1.0)
    assert d.span() <= t2 <= t1


@st.composite
def random_dag(draw):
    n = draw(st.integers(2, 14))
    d = TaskDAG()
    for i in range(n):
        d.add_task(i, draw(st.floats(0.1, 5.0)))
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()) and draw(st.booleans()):
                d.add_dep(i, j)  # i < j: acyclic by construction
    return d


@settings(max_examples=60, deadline=None)
@given(dag=random_dag(), workers=st.integers(1, 8))
def test_schedule_within_graham_bound(dag, workers):
    """Greedy list scheduling: span <= T_P <= T1/P + span (Graham)."""
    tp = list_schedule(dag, workers)
    t1 = dag.work()
    tinf = dag.span()
    assert tp >= tinf - 1e-9
    assert tp >= t1 / workers - 1e-9
    assert tp <= t1 / workers + tinf + 1e-9


@settings(max_examples=40, deadline=None)
@given(dag=random_dag(), workers=st.integers(1, 8))
def test_reverse_dag_schedules_comparably(dag, workers):
    """§IV-A's scalability argument: the adjoint DAG has identical work
    and span, so its greedy makespan obeys the same Graham bound."""
    rev = dag.reverse()
    assert rev.work() == pytest.approx(dag.work())
    assert rev.span() == pytest.approx(dag.span())
    tp = list_schedule(rev, workers)
    assert tp <= dag.work() / workers + dag.span() + 1e-9
