"""Tests for Par-Trim (Algorithm 4)."""

import numpy as np
import pytest

from repro.core import (
    PHASE_TRIM,
    SCCState,
    effective_degrees,
    par_trim,
    par_trim_rescan,
)
from repro.graph import from_edge_list
from repro.kernels import effective_degrees_arrays
from tests.conftest import SMALL_GRAPHS, random_digraph, scipy_scc_labels


class TestEffectiveDegrees:
    def test_counts_same_color_only(self):
        g = from_edge_list([(0, 1), (2, 1)], 3)
        s = SCCState(g)
        s.color[2] = 9  # different partition
        out, ins, _ = effective_degrees(s, np.arange(3))
        assert ins[1] == 1  # only the edge from same-colour node 0
        assert out[2] == 0  # its target is in another partition

    def test_marked_neighbours_excluded(self):
        g = from_edge_list([(0, 1), (2, 1)], 3)
        s = SCCState(g)
        s.mark_singletons(np.array([2]), PHASE_TRIM)  # colour -> DONE
        out, ins, _ = effective_degrees(s, np.array([0, 1]))
        assert ins[1] == 1

    def test_scanned_counts_all_adjacency(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
        s = SCCState(g)
        _, _, scanned = effective_degrees(s, np.arange(3))
        assert scanned == 6  # 3 out + 3 in

    @pytest.mark.parametrize("color", [0, 7])
    def test_fresh_state_matches_kernel(self, color):
        # every node active, one colour: the degrees come from the
        # CSR rows; self-loops and duplicate edges count like the sweep
        g = from_edge_list(
            [(0, 0), (0, 1), (0, 1), (1, 2), (2, 0), (2, 2), (3, 1)],
            5,
            dedup=False,
        )
        s = SCCState(g)
        s.color[:] = color
        nodes = np.flatnonzero(~s.mark)
        got = effective_degrees(s, nodes)
        want = effective_degrees_arrays(
            g.indptr, g.indices, g.in_indptr, g.in_indices, nodes, s.color
        )
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2] == 14
        got[0][0] -= 1  # Par-Trim decrements in place
        assert g.out_degree(0) == 3


class TestParTrim:
    def test_dag_fully_trimmed(self):
        g = from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
        s = SCCState(g)
        trimmed = par_trim(s)
        assert trimmed == 4
        assert s.mark.all()
        assert s.num_sccs == 4

    def test_cycle_not_trimmed(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
        s = SCCState(g)
        assert par_trim(s) == 0
        assert not s.mark.any()

    def test_figure_1b_cascade(self):
        # Leaves d, e and source a trim in round one; the removal of c
        # then exposes b (Section 2.2's iterative trimming).
        edges, n = SMALL_GRAPHS["figure1b"]
        g = from_edge_list(edges, n)
        s = SCCState(g)
        assert par_trim(s) == 5
        assert s.profile.counters["trim_iterations"] == 2

    def test_long_chain_cascades_from_both_ends(self):
        # A 6-path trims inward from both ends: 3 iterations.
        g = from_edge_list([(i, i + 1) for i in range(5)], 6)
        s = SCCState(g)
        assert par_trim(s) == 6
        assert s.profile.counters["trim_iterations"] == 3

    def test_tail_behind_scc_trimmed(self):
        edges, n = SMALL_GRAPHS["scc_with_tail"]
        g = from_edge_list(edges, n)
        s = SCCState(g)
        assert par_trim(s) == 2  # nodes 3, 4
        assert not s.mark[:3].any()

    def test_isolated_nodes_trimmed(self):
        g = from_edge_list([], 5)
        s = SCCState(g)
        assert par_trim(s) == 5

    def test_self_loop_survives_trim(self):
        from repro.graph import from_edge_array

        g = from_edge_array(np.array([0]), np.array([0]), 1, dedup=False)
        s = SCCState(g)
        assert par_trim(s) == 0  # in/out degree 1 via the loop

    def test_respects_existing_colors(self):
        # 2-cycle split across two partitions: both ends become
        # effectively degree-0 and must be trimmed.
        g = from_edge_list([(0, 1), (1, 0)], 2)
        s = SCCState(g)
        s.color[1] = 9
        assert par_trim(s) == 2

    def test_restrict_mask(self):
        g = from_edge_list([(0, 1)], 4)
        s = SCCState(g)
        restrict = np.array([True, True, False, False])
        par_trim(s, restrict=restrict)
        assert s.mark[0] and s.mark[1]
        assert not s.mark[2] and not s.mark[3]

    def test_trace_records_work(self):
        g = random_digraph(60, 200, seed=0)
        s = SCCState(g)
        par_trim(s)
        assert len(s.trace) >= 1
        assert s.trace.total_work() > 0

    def test_trimmed_nodes_are_truly_trivial_sccs(self):
        for seed in range(4):
            g = random_digraph(150, 450, seed=seed)
            s = SCCState(g)
            par_trim(s)
            sizes = np.bincount(scipy_scc_labels(g))
            # every marked node must be a size-1 SCC in truth
            oracle = scipy_scc_labels(g)
            for v in np.flatnonzero(s.mark):
                assert sizes[oracle[v]] == 1


class TestRescanEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_marks_as_incremental(self, seed):
        g = random_digraph(120, 350, seed=seed)
        s1, s2 = SCCState(g), SCCState(g)
        t1 = par_trim(s1)
        t2 = par_trim_rescan(s2)
        assert t1 == t2
        assert np.array_equal(s1.mark, s2.mark)

    def test_rescan_records_more_work_on_deep_cascade(self):
        # A long path forces ~n/2 trim rounds; the literal Algorithm 4
        # rescans all survivors each round (O(n^2) work) while the
        # incremental version only touches trimmed frontiers (O(n)).
        g = from_edge_list([(i, i + 1) for i in range(59)], 60)
        s1, s2 = SCCState(g), SCCState(g)
        par_trim(s1)
        par_trim_rescan(s2)
        assert s2.trace.total_work() > 3 * s1.trace.total_work()
