"""Tests for the phase-2 recursive FW-BW task kernel and drivers."""

import numpy as np
import pytest

from repro.core import (
    SCCState,
    WorkItem,
    collect_color_sets,
    recur_fwbw_task,
    run_recur_phase,
)
from repro.core.result import same_partition
from repro.graph import from_edge_list
from repro.runtime.trace import TaskDAGRecord
from tests.conftest import random_digraph, scipy_scc_labels


def full_item(g):
    return WorkItem(color=0, nodes=np.arange(g.num_nodes))


class TestSingleTask:
    def test_identifies_pivot_scc_and_partitions(self):
        # IN(0) -> core{1,2} -> OUT(3); pivot forced to the core
        g = from_edge_list([(0, 1), (1, 2), (2, 1), (2, 3)], 4)
        s = SCCState(g)
        item = WorkItem(color=0, nodes=np.array([1, 2, 0, 3]))
        children, cost = recur_fwbw_task(s, item, pivot_strategy="first")
        assert s.mark[1] and s.mark[2]
        assert cost > 0
        child_sets = {frozenset(ch.nodes.tolist()) for ch in children}
        assert child_sets == {frozenset({0}), frozenset({3})}

    def test_task_log_entry(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 1), (2, 3)], 4)
        s = SCCState(g)
        recur_fwbw_task(
            s,
            WorkItem(color=0, nodes=np.array([1, 2, 0, 3])),
            pivot_strategy="first",
        )
        entry = s.profile.task_log[0]
        assert entry.scc == 2
        assert entry.fw == 1 and entry.bw == 1 and entry.remain == 0

    def test_empty_item_returns_no_children(self):
        g = from_edge_list([(0, 1)], 2)
        s = SCCState(g)
        s.color[:] = 5
        children, cost = recur_fwbw_task(
            s, WorkItem(color=0, nodes=np.arange(2))
        )
        assert children == []
        assert s.num_sccs == 0

    def test_scan_representation(self):
        g = from_edge_list([(0, 1), (1, 0)], 2)
        s = SCCState(g)
        children, cost_scan = recur_fwbw_task(
            s, WorkItem(color=0, nodes=None), pivot_strategy="first"
        )
        assert s.mark.all()
        s2 = SCCState(g)
        _, cost_hybrid = recur_fwbw_task(
            s2, full_item(g), pivot_strategy="first"
        )
        # same result, but scan charged the O(N) colour sweep
        assert cost_scan >= cost_hybrid


class TestDrivers:
    @pytest.mark.parametrize("backend", ["serial", "supervised"])
    @pytest.mark.parametrize("seed", range(3))
    def test_full_decomposition(self, backend, seed):
        g = random_digraph(150, 600, seed=seed)
        s = SCCState(g, seed=seed)
        run_recur_phase(
            s,
            [(0, np.arange(150))],
            backend=backend,
            num_threads=2,
        )
        s.check_done()
        assert same_partition(s.labels, scipy_scc_labels(g))

    def test_task_dag_recorded(self):
        g = random_digraph(100, 400, seed=1)
        s = SCCState(g)
        n_tasks = run_recur_phase(s, [(0, np.arange(100))], queue_k=4)
        recs = [r for r in s.trace if isinstance(r, TaskDAGRecord)]
        assert len(recs) == 1
        assert len(recs[0].tasks) == n_tasks
        assert recs[0].queue_k == 4

    def test_spawn_tree_parents_valid(self):
        g = random_digraph(100, 400, seed=2)
        s = SCCState(g)
        run_recur_phase(s, [(0, np.arange(100))])
        rec = [r for r in s.trace if isinstance(r, TaskDAGRecord)][0]
        roots = [t for t in rec.tasks if t.parent == -1]
        assert len(roots) == 1
        for i, t in enumerate(rec.tasks):
            assert t.parent < i

    def test_multiple_initial_items(self):
        g = from_edge_list([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
        s = SCCState(g)
        s.color[:2] = 5
        s.color[2:] = 6
        run_recur_phase(
            s, [(5, np.array([0, 1])), (6, np.array([2, 3]))]
        )
        s.check_done()
        assert s.num_sccs == 2

    def test_unknown_backend(self):
        g = from_edge_list([(0, 1)], 2)
        with pytest.raises(ValueError):
            run_recur_phase(SCCState(g), [], backend="gpu")

    def test_scan_repr_end_to_end(self):
        g = random_digraph(80, 300, seed=5)
        s = SCCState(g)
        run_recur_phase(s, [(0, None)])
        s.check_done()
        assert same_partition(s.labels, scipy_scc_labels(g))


class TestCollectColorSets:
    def test_groups_by_color(self):
        g = from_edge_list([], 6)
        s = SCCState(g)
        s.color[:] = [5, 6, 5, 7, 6, 5]
        sets = dict(collect_color_sets(s))
        assert set(sets) == {5, 6, 7}
        assert np.array_equal(sets[5], [0, 2, 5])

    def test_marked_excluded(self):
        g = from_edge_list([], 3)
        s = SCCState(g)
        s.mark_singletons(np.array([1]), 0)
        sets = collect_color_sets(s)
        all_nodes = np.concatenate([n for _, n in sets])
        assert 1 not in all_nodes

    def test_empty_when_done(self):
        g = from_edge_list([], 2)
        s = SCCState(g)
        s.mark_singletons(np.arange(2), 0)
        assert collect_color_sets(s) == []
