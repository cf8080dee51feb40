"""Correctness tests for the three full algorithms (Alg. 3, 6, 9)."""

import numpy as np
import pytest

from repro import strongly_connected_components
from repro.core import PHASE_NAMES, same_partition
from repro.graph import from_edge_list
from tests.conftest import random_digraph, scipy_scc_labels

ALL_METHODS = ["tarjan", "kosaraju", "baseline", "method1", "method2"]
PARALLEL = ["baseline", "method1", "method2"]


@pytest.mark.parametrize("method", ALL_METHODS)
class TestCorrectness:
    def test_small_graphs(self, small_graph, method):
        name, g = small_graph
        r = strongly_connected_components(g, method)
        assert same_partition(r.labels, scipy_scc_labels(g))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed, method):
        g = random_digraph(200, 800, seed=seed)
        r = strongly_connected_components(g, method)
        assert same_partition(r.labels, scipy_scc_labels(g))

    def test_planted_graph(self, planted_medium, method):
        r = strongly_connected_components(planted_medium.graph, method)
        assert same_partition(r.labels, planted_medium.labels)


@pytest.mark.parametrize("method", PARALLEL)
class TestParallelMethodDetails:
    def test_all_nodes_phase_attributed(self, planted_medium, method):
        r = strongly_connected_components(planted_medium.graph, method)
        assert (r.phase_of >= 0).all()

    def test_deterministic_under_seed(self, method):
        g = random_digraph(150, 600, seed=9)
        a = strongly_connected_components(g, method, seed=4)
        b = strongly_connected_components(g, method, seed=4)
        assert np.array_equal(a.labels, b.labels)

    def test_trace_nonempty(self, method):
        g = random_digraph(100, 300, seed=1)
        r = strongly_connected_components(g, method)
        assert len(r.profile.trace) > 0
        assert r.profile.trace.total_work() > 0

    def test_supervised_backend_correct(self, method):
        g = random_digraph(200, 800, seed=3)
        r = strongly_connected_components(
            g, method, backend="supervised", num_threads=2
        )
        assert same_partition(r.labels, scipy_scc_labels(g))

    def test_scan_pivot_repr_correct(self, method):
        g = random_digraph(120, 400, seed=5)
        r = strongly_connected_components(g, method, pivot_repr="scan")
        assert same_partition(r.labels, scipy_scc_labels(g))

    def test_maxdegree_pivot_correct(self, method):
        g = random_digraph(120, 500, seed=6)
        r = strongly_connected_components(
            g, method, pivot_strategy="maxdegree"
        )
        assert same_partition(r.labels, scipy_scc_labels(g))


class TestMethodSpecifics:
    def test_unknown_method_rejected(self):
        g = from_edge_list([(0, 1)], 2)
        with pytest.raises(ValueError):
            strongly_connected_components(g, "magic")

    def test_method2_without_trim2(self):
        g = random_digraph(150, 500, seed=7)
        r = strongly_connected_components(g, "method2", use_trim2=False)
        assert same_partition(r.labels, scipy_scc_labels(g))
        assert "trim2_pairs" not in r.profile.counters

    def test_method2_wcc_counters(self, planted_medium):
        r = strongly_connected_components(planted_medium.graph, "method2")
        assert r.profile.counters["wcc_components"] >= 1
        assert r.profile.counters.get("trim2_pairs", 0) >= 1

    def test_method1_giant_found_on_planted(self, planted_medium):
        r = strongly_connected_components(planted_medium.graph, "method1")
        sizes = np.bincount(r.labels)
        giant_id = int(np.argmax(sizes))
        giant_node = int(np.flatnonzero(r.labels == giant_id)[0])
        # the giant SCC must be identified by the par-fwbw phase
        from repro.core import PHASE_FWBW

        assert r.phase_of[giant_node] == PHASE_FWBW

    def test_phase_fractions_sum_to_one(self, planted_medium):
        r = strongly_connected_components(planted_medium.graph, "method2")
        total = sum(r.phase_fractions().values())
        assert total == pytest.approx(1.0)

    def test_wall_times_recorded(self, planted_medium):
        r = strongly_connected_components(planted_medium.graph, "method2")
        assert "par_trim" in r.profile.wall_times
        assert "recur_fwbw" in r.profile.wall_times

    def test_custom_queue_k(self):
        g = random_digraph(100, 400, seed=8)
        r = strongly_connected_components(g, "method2", queue_k=2)
        from repro.runtime.trace import TaskDAGRecord

        rec = [x for x in r.profile.trace if isinstance(x, TaskDAGRecord)][0]
        assert rec.queue_k == 2

    def test_empty_graph_all_methods(self):
        g = from_edge_list([], 0)
        for method in ALL_METHODS:
            r = strongly_connected_components(g, method)
            assert r.labels.size == 0
