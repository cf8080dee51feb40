"""Tests for the extension comparator algorithms (FW-BW, coloring,
MultiStep)."""

import numpy as np
import pytest

from repro import strongly_connected_components
from repro.core import (
    PHASE_COLORING,
    SCCState,
    color_propagation_round,
    same_partition,
)
from repro.graph import from_edge_list
from tests.conftest import random_digraph, scipy_scc_labels

COMPARATORS = ["fwbw", "coloring", "multistep"]


@pytest.mark.parametrize("method", COMPARATORS)
class TestCorrectness:
    def test_small_graphs(self, small_graph, method):
        _, g = small_graph
        r = strongly_connected_components(g, method)
        assert same_partition(r.labels, scipy_scc_labels(g))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed, method):
        g = random_digraph(200, 800, seed=seed)
        r = strongly_connected_components(g, method)
        assert same_partition(r.labels, scipy_scc_labels(g))

    def test_planted(self, planted_medium, method):
        r = strongly_connected_components(planted_medium.graph, method)
        assert same_partition(r.labels, planted_medium.labels)


class TestColoringDetails:
    def test_single_round_on_one_scc(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
        r = strongly_connected_components(g, "coloring", use_trim=False)
        assert r.num_sccs == 1
        assert r.profile.counters["coloring_rounds"] == 1

    def test_phase_attribution(self):
        g = from_edge_list([(0, 1), (1, 0)], 2)
        r = strongly_connected_components(g, "coloring", use_trim=False)
        assert (r.phase_of == PHASE_COLORING).all()

    def test_propagation_round_marks_root_sccs(self):
        # two disjoint 2-cycles: one round finds both SCCs
        g = from_edge_list([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
        s = SCCState(g)
        active = np.arange(4)
        color_propagation_round(s, active, phase="coloring")
        assert s.mark.all()
        assert s.num_sccs == 2

    def test_chain_needs_multiple_rounds(self):
        # a -> B-cycle -> c: round 1 finds only the max-coloured SCCs,
        # later rounds (plus trim) mop up — bounded rounds still work.
        g = from_edge_list(
            [(0, 1), (1, 2), (2, 1), (2, 3), (4, 3)], 5
        )
        r = strongly_connected_components(g, "coloring", use_trim=False)
        assert same_partition(r.labels, scipy_scc_labels(g))

    def test_max_rounds_enforced(self):
        # A chain with DECREASING ids: every node is coloured by the
        # head (the max id), whose "SCC" is just itself — one node per
        # round, so a 1-round budget must fail.  (An increasing chain
        # converges in one round: each node is its own max ancestor.)
        g = from_edge_list([(i + 1, i) for i in range(30)], 31)
        with pytest.raises(RuntimeError):
            strongly_connected_components(
                g, "coloring", use_trim=False, max_rounds=1
            )

    def test_worst_case_chain_still_correct(self):
        g = from_edge_list([(i + 1, i) for i in range(30)], 31)
        r = strongly_connected_components(g, "coloring", use_trim=False)
        assert r.num_sccs == 31
        # trim collapses the same chain in one coloring round of zero
        r2 = strongly_connected_components(g, "coloring", use_trim=True)
        assert r2.profile.counters["coloring_rounds"] == 0

    def test_trim_reduces_rounds(self):
        g = random_digraph(300, 900, seed=3)
        with_trim = strongly_connected_components(g, "coloring")
        without = strongly_connected_components(g, "coloring", use_trim=False)
        assert (
            with_trim.profile.counters["coloring_rounds"]
            <= without.profile.counters["coloring_rounds"]
        )


class TestMultistepDetails:
    def test_giant_found_by_fwbw(self, planted_medium):
        from repro.core import PHASE_FWBW

        r = strongly_connected_components(planted_medium.graph, "multistep")
        sizes = np.bincount(r.labels)
        giant_node = int(np.flatnonzero(r.labels == np.argmax(sizes))[0])
        assert r.phase_of[giant_node] == PHASE_FWBW

    def test_counters(self, planted_medium):
        r = strongly_connected_components(planted_medium.graph, "multistep")
        assert "coloring_rounds" in r.profile.counters


class TestFwbwDetails:
    def test_no_trim_phase(self):
        g = random_digraph(150, 500, seed=1)
        r = strongly_connected_components(g, "fwbw")
        from repro.core import PHASE_RECUR

        assert (r.phase_of == PHASE_RECUR).all()

    def test_supervised_backend(self):
        g = random_digraph(150, 500, seed=2)
        r = strongly_connected_components(
            g, "fwbw", backend="supervised", num_threads=2
        )
        assert same_partition(r.labels, scipy_scc_labels(g))

    def test_more_tasks_than_baseline(self, planted_medium):
        # without Trim, each trivial SCC costs a full task
        fwbw = strongly_connected_components(planted_medium.graph, "fwbw")
        base = strongly_connected_components(planted_medium.graph, "baseline")
        assert (
            fwbw.profile.counters["recur_tasks"]
            > base.profile.counters["recur_tasks"]
        )
