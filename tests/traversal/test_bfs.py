"""Unit tests for BFS kernels."""

from collections import deque

import numpy as np
import pytest

import repro.traversal.bfs
from repro.graph import from_edge_list
from repro.kernels.reference import DEDUP_DENSITY_DIVISOR
from repro.runtime import WorkTrace
from repro.traversal import bfs_color_transform, bfs_levels, bfs_mask
from repro.traversal.bfs import dense_frontier
from tests.conftest import random_digraph


def chain():
    return from_edge_list([(0, 1), (1, 2), (2, 3)], 4)


class TestBfsLevels:
    def test_distances(self):
        dist = bfs_levels(chain(), 0)
        assert np.array_equal(dist, [0, 1, 2, 3])

    def test_unreachable_minus_one(self):
        g = from_edge_list([(0, 1)], 3)
        dist = bfs_levels(g, 0)
        assert dist[2] == -1

    def test_reverse_direction(self):
        dist = bfs_levels(chain(), 3, direction="in")
        assert np.array_equal(dist, [3, 2, 1, 0])

    def test_matches_networkx(self):
        g = random_digraph(60, 250, seed=3)
        import networkx as nx

        nxg = g.to_networkx()
        dist = bfs_levels(g, 0)
        ref = nx.single_source_shortest_path_length(nxg, 0)
        for v in range(60):
            assert dist[v] == ref.get(v, -1)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            bfs_levels(chain(), 0, direction="sideways")


class TestBfsMask:
    def test_reaches_everything_downstream(self):
        mask, res = bfs_mask(chain(), 0)
        assert mask.all()
        assert res.levels == 3
        assert res.nodes_visited == 4

    def test_allowed_gates_traversal(self):
        allowed = np.array([True, True, False, True])
        mask, _ = bfs_mask(chain(), 0, allowed=allowed)
        assert np.array_equal(mask, [True, True, False, False])

    def test_multi_source(self):
        g = from_edge_list([(0, 1), (2, 3)], 4)
        mask, _ = bfs_mask(g, np.array([0, 2]))
        assert mask.all()

    def test_trace_records_levels(self):
        tr = WorkTrace()
        bfs_mask(chain(), 0, trace=tr, phase="x")
        assert len(tr) >= 3
        assert all(r.phase == "x" for r in tr)

    def test_edge_scan_count(self):
        g = from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
        _, res = bfs_mask(g, 0)
        assert res.edges_scanned == 4


def oracle_bfs_mask(g, sources, direction, allowed):
    """Plain per-node BFS: (visited mask, levels, edges scanned, nodes
    visited), counted the way :func:`bfs_mask` reports them."""
    indptr, indices = (
        (g.indptr, g.indices)
        if direction == "out"
        else (g.in_indptr, g.in_indices)
    )
    dist = np.full(g.num_nodes, -1, dtype=np.int64)
    queue = deque()
    for s in sources:
        dist[s] = 0
        queue.append(s)
    edges = 0
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u] : indptr[u + 1]]:
            edges += 1
            if dist[v] < 0 and (allowed is None or allowed[v]):
                dist[v] = dist[u] + 1
                queue.append(v)
    visited = dist >= 0
    return visited, int(dist.max()), edges, int(visited.sum())


class TestBfsMaskOracle:
    """bfs_mask's dense and sparse levels against a plain BFS."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("direction", ["out", "in"])
    @pytest.mark.parametrize("mask", ["none", "random", "source-outside"])
    def test_matches_per_node_bfs(self, seed, direction, mask, monkeypatch):
        dense_calls = []
        real_step = repro.traversal.bfs.dense_frontier

        def spy(targets, blocked):
            dense_calls.append(targets.size)
            return real_step(targets, blocked)

        monkeypatch.setattr(repro.traversal.bfs, "dense_frontier", spy)
        rng = np.random.default_rng(seed)
        # sparse graphs take the sorted path, denser ones flag arrays
        n = 300
        g = random_digraph(n, [350, 600, 2400][seed % 3], seed=seed)
        sources = rng.choice(n, size=1 + seed % 3, replace=False)
        allowed = None
        if mask != "none":
            allowed = rng.random(n) < 0.7
        if mask == "source-outside":
            allowed[sources] = False
        got, res = bfs_mask(g, sources, direction=direction, allowed=allowed)
        visited, levels, edges, nodes = oracle_bfs_mask(
            g, sources, direction, allowed
        )
        assert got.dtype == bool
        np.testing.assert_array_equal(got, visited)
        assert (res.levels, res.edges_scanned, res.nodes_visited) == (
            levels,
            edges,
            nodes,
        )
        assert all(k > n // DEDUP_DENSITY_DIVISOR for k in dense_calls)

    def test_sparse_then_dense_level(self, monkeypatch):
        dense_calls = []
        real_step = repro.traversal.bfs.dense_frontier

        def spy(targets, blocked):
            dense_calls.append(targets.size)
            return real_step(targets, blocked)

        monkeypatch.setattr(repro.traversal.bfs, "dense_frontier", spy)
        # 0 -> 1 is a one-target level; 1 -> every other node is dense.
        n = 300
        g = from_edge_list([(0, 1)] + [(1, k) for k in range(2, n)], n)
        mask, res = bfs_mask(g, 0)
        assert mask.all()
        assert dense_calls == [n - 2]
        assert (res.levels, res.edges_scanned, res.nodes_visited) == (
            2,
            n - 1,
            n,
        )

    def test_dense_frontier_is_sorted_unique_unblocked(self):
        rng = np.random.default_rng(4)
        targets = rng.integers(0, 50, 200)
        blocked = rng.random(50) < 0.4
        want = np.unique(targets[~blocked[targets]])
        np.testing.assert_array_equal(dense_frontier(targets, blocked), want)


class TestBfsColorTransform:
    def test_fw_recolouring(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)], 4)
        color = np.zeros(4, dtype=np.int64)
        res = bfs_color_transform(g, 0, {0: 5}, color)
        assert np.array_equal(color, [5, 5, 5, 5])
        assert set(res.recolored[5].tolist()) == {0, 1, 2, 3}

    def test_pruning_at_other_colors(self):
        g = from_edge_list([(0, 1), (1, 2)], 3)
        color = np.array([0, 7, 0], dtype=np.int64)
        res = bfs_color_transform(g, 0, {0: 5}, color)
        # node 1 has colour 7: pruned, so node 2 is never reached
        assert np.array_equal(color, [5, 7, 0])
        assert set(res.recolored[5].tolist()) == {0}

    def test_two_transition_bw_pass(self):
        # FW pass coloured {0,1,2} to cfw=5; BW pass from pivot 0 over
        # reverse edges must mark the cycle as cscc=6 and colour
        # remaining colour-0 ancestors as cbw=7.
        g = from_edge_list([(0, 1), (1, 2), (2, 0), (3, 0), (2, 4)], 5)
        color = np.zeros(5, dtype=np.int64)
        bfs_color_transform(g, 0, {0: 5}, color)
        assert color[3] == 0  # not forward-reachable
        res = bfs_color_transform(
            g, 0, {0: 7, 5: 6}, color, direction="in"
        )
        assert set(res.recolored[6].tolist()) == {0, 1, 2}
        assert set(res.recolored[7].tolist()) == {3}
        assert color[4] == 5  # fw-only, untouched by bw pass

    def test_pivot_color_must_match(self):
        g = from_edge_list([(0, 1)], 2)
        color = np.array([3, 0], dtype=np.int64)
        with pytest.raises(ValueError):
            bfs_color_transform(g, 0, {0: 5}, color)

    def test_levels_counted(self):
        color = np.zeros(4, dtype=np.int64)
        res = bfs_color_transform(chain(), 0, {0: 1}, color)
        assert res.levels == 3
