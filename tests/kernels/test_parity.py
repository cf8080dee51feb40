"""Cross-backend parity for every kernel behind the registry.

The contract (DESIGN.md §8): every implementation of a kernel must
produce bit-identical output arrays, identical in-place mutations, and
identical scanned-edge counts.  Three implementations are exercised —
the numpy reference, whatever the accelerated ``numba`` backend
resolves to on this machine (the @njit wrappers with numba installed,
the tuned-NumPy fastpath otherwise), and the :mod:`repro.kernels.jit`
loop wrappers called directly, which run in interpreted mode when
numba is absent so the compiled kernels' logic is tested everywhere.
"""

import tracemalloc

import numpy as np
import pytest

from repro.kernels import get_kernel, use_backend
from repro.kernels import jit, reference
from tests.conftest import random_digraph

SEEDS = [0, 1, 2, 7]


def _accelerated(name):
    with use_backend("numba"):
        return get_kernel(name)


def _graph(seed, n=60, m=240):
    return random_digraph(n, m, seed=seed)


def _frontier(g, rng):
    k = rng.integers(1, max(2, g.num_nodes // 2))
    return np.unique(rng.integers(0, g.num_nodes, size=k)).astype(np.int64)


class TestExpandFrontier:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_backends_match(self, seed):
        g = _graph(seed)
        rng = np.random.default_rng(seed)
        frontier = _frontier(g, rng)
        ref_t, ref_s = reference.expand_frontier(
            g.indptr, g.indices, frontier, return_sources=True
        )
        for impl in (_accelerated("expand_frontier"), jit.expand_frontier):
            t, s = impl(g.indptr, g.indices, frontier, return_sources=True)
            assert np.array_equal(t, ref_t)
            assert np.array_equal(s, ref_s)
            u = impl(g.indptr, g.indices, frontier, unique=True)
            assert np.array_equal(
                u,
                reference.expand_frontier(
                    g.indptr, g.indices, frontier, unique=True
                ),
            )

    def test_empty_frontier(self):
        g = _graph(0)
        empty = np.empty(0, dtype=np.int64)
        for impl in (
            reference.expand_frontier,
            _accelerated("expand_frontier"),
            jit.expand_frontier,
        ):
            assert impl(g.indptr, g.indices, empty).size == 0


class TestRottenIndptr:
    """One indptr entry raised by 2^24 (a flipped bit) makes a row 16M
    entries long.  The gathers refuse it before allocating the range,
    so the error is a ValueError the integrity tier can type, not a
    gigabyte allocation."""

    @staticmethod
    def _gather(impl, g, rot):
        n = g.num_nodes
        indptr = g.indptr.copy()
        add_indptr = np.zeros(n + 1, dtype=np.int64)
        add_indices = np.zeros(4, dtype=np.int64)
        (add_indptr if rot == "add" else indptr)[n] += 2**24
        frontier = np.array([1, 5, n - 1], dtype=np.int64)
        if impl == "expand_frontier":
            return reference.expand_frontier(indptr, g.indices, frontier)
        tomb = np.zeros(g.num_edges, dtype=bool)
        return reference.delta_expand_frontier(
            indptr, g.indices, tomb, add_indptr, add_indices, frontier
        )

    @pytest.mark.parametrize(
        "impl,rot",
        [
            ("expand_frontier", "base"),
            ("reference_delta", "base"),
            ("reference_delta", "add"),
        ],
    )
    def test_refused_without_allocating(self, impl, rot):
        g = _graph(0, n=64, m=256)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="corrupt indptr"):
                self._gather(impl, g, rot)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestBfsLevelTransform:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_backends_match(self, seed):
        g = _graph(seed)
        rng = np.random.default_rng(seed)
        base_color = rng.integers(0, 3, size=g.num_nodes).astype(np.int64)
        frontier = _frontier(g, rng)
        olds = np.array([0, 1], dtype=np.int64)
        news = np.array([100, 101], dtype=np.int64)

        ref_color = base_color.copy()
        ref_hits, ref_scanned = reference.bfs_level_transform(
            g.indptr, g.indices, frontier, ref_color, olds, news
        )
        for impl in (
            _accelerated("bfs_level_transform"),
            jit.bfs_level_transform,
        ):
            color = base_color.copy()
            hits, scanned = impl(
                g.indptr, g.indices, frontier, color, olds, news
            )
            assert scanned == ref_scanned
            assert np.array_equal(color, ref_color)
            assert len(hits) == len(ref_hits)
            for h, rh in zip(hits, ref_hits):
                assert np.array_equal(h, rh)


class TestEffectiveDegrees:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_backends_match(self, seed):
        g = _graph(seed)
        rng = np.random.default_rng(seed)
        color = rng.integers(0, 3, size=g.num_nodes).astype(np.int64)
        nodes = _frontier(g, rng)
        ref = reference.effective_degrees_arrays(
            g.indptr, g.indices, g.in_indptr, g.in_indices, nodes, color
        )
        for impl in (
            _accelerated("effective_degrees"),
            jit.effective_degrees_arrays,
        ):
            out, inn, scanned = impl(
                g.indptr, g.indices, g.in_indptr, g.in_indices, nodes, color
            )
            assert np.array_equal(out, ref[0])
            assert np.array_equal(inn, ref[1])
            assert scanned == ref[2]


class TestTrimDecrement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_backends_match(self, seed):
        g = _graph(seed)
        rng = np.random.default_rng(seed)
        color = rng.integers(0, 2, size=g.num_nodes).astype(np.int64)
        cand = _frontier(g, rng)  # sorted, as the contract requires
        old_colors = color[cand].copy()
        color[cand] = -1  # candidates were just detached
        base_eff = rng.integers(0, 5, size=g.num_nodes).astype(np.int64)

        ref_eff = base_eff.copy()
        ref_hit, ref_scanned = reference.trim_decrement(
            g.indptr, g.indices, cand, old_colors, color, ref_eff
        )
        for impl in (_accelerated("trim_decrement"), jit.trim_decrement):
            eff = base_eff.copy()
            hit, scanned = impl(
                g.indptr, g.indices, cand, old_colors, color, eff
            )
            assert np.array_equal(hit, ref_hit)  # expansion order
            assert scanned == ref_scanned
            assert np.array_equal(eff, ref_eff)

    def test_bincount_path_matches_scalar_path(self, monkeypatch):
        # Force the fastpath's bincount branch even on a small batch.
        from repro.kernels import fastpath

        g = _graph(3, n=40, m=200)
        color = np.zeros(g.num_nodes, dtype=np.int64)
        cand = np.arange(0, g.num_nodes, 2, dtype=np.int64)
        old_colors = color[cand].copy()
        color[cand] = -1
        eff_ref = np.full(g.num_nodes, 10, dtype=np.int64)
        ref_hit, _ = reference.trim_decrement(
            g.indptr, g.indices, cand, old_colors, color, eff_ref
        )
        monkeypatch.setattr(fastpath, "_BINCOUNT_CUTOFF", 0)
        eff = np.full(g.num_nodes, 10, dtype=np.int64)
        hit, _ = fastpath.trim_decrement(
            g.indptr, g.indices, cand, old_colors, color, eff
        )
        assert np.array_equal(hit, ref_hit)
        assert np.array_equal(eff, eff_ref)


class TestWccHookRound:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("both", [False, True])
    @pytest.mark.parametrize("compress", [False, True])
    def test_all_backends_match(self, seed, both, compress):
        g = _graph(seed)
        rng = np.random.default_rng(seed)
        active = np.arange(g.num_nodes, dtype=np.int64)
        u, v = reference.expand_frontier(
            g.indptr, g.indices, active, return_sources=True
        )
        u, v = np.asarray(v), np.asarray(u)  # mixed orientation on purpose
        base = rng.permutation(g.num_nodes).astype(np.int64)

        ref = base.copy()
        reference.wcc_hook_round(u, v, ref, active, both, compress)
        assert not np.array_equal(ref, base)  # the round did something
        for impl in (_accelerated("wcc_hook_round"), jit.wcc_hook_round):
            wcc = base.copy()
            impl(u, v, wcc, active, both, compress)
            assert np.array_equal(wcc, ref)


class TestTrim2PatternPairs:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("incoming", [False, True])
    def test_all_backends_match(self, seed, incoming):
        # Graph rich in 2-cycles so the pattern actually fires.
        rng = np.random.default_rng(seed)
        edges = []
        n = 30
        for i in range(0, n - 1, 2):
            edges += [(i, i + 1), (i + 1, i)]
        for _ in range(20):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                edges.append((int(a), int(b)))
        from repro.graph import from_edge_list

        g = from_edge_list(edges, n)
        color = np.zeros(n, dtype=np.int64)
        if incoming:
            nbr = (g.in_indptr, g.in_indices)
            back = (g.indptr, g.indices)
            eff_dir = 1
        else:
            nbr = (g.indptr, g.indices)
            back = (g.in_indptr, g.in_indices)
            eff_dir = 0
        eff = reference.effective_degrees_arrays(
            g.indptr, g.indices, g.in_indptr, g.in_indices,
            np.arange(n, dtype=np.int64), color,
        )[eff_dir]
        cands = np.flatnonzero(eff == 1).astype(np.int64)
        ref = reference.trim2_pattern_pairs(
            *nbr, *back, cands, color, eff
        )
        assert ref[0].size  # the fixture produced at least one pair
        for impl in (
            _accelerated("trim2_pattern_pairs"),
            jit.trim2_pattern_pairs,
        ):
            n_arr, k_arr, scanned = impl(*nbr, *back, cands, color, eff)
            assert np.array_equal(n_arr, ref[0])
            assert np.array_equal(k_arr, ref[1])
            assert scanned == ref[2]


class TestDfsCollectColored:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_backends_match(self, seed):
        g = _graph(seed)
        rng = np.random.default_rng(seed)
        base_color = np.zeros(g.num_nodes, dtype=np.int64)
        # A two-transition map like the real BW pass {c: cbw, cfw: cscc}.
        half = rng.integers(0, g.num_nodes, size=g.num_nodes // 2)
        base_color[half] = 1
        pivot = int(half[0]) if half.size else 0
        olds = np.array([1, 0], dtype=np.int64)
        news = np.array([50, 60], dtype=np.int64)

        ref_color = base_color.copy()
        ref_parts, ref_edges = reference.dfs_collect_colored(
            g.indptr, g.indices, pivot, olds, news, ref_color
        )
        assert all(np.all(np.diff(p) > 0) for p in ref_parts if p.size)
        for impl in (
            _accelerated("dfs_collect_colored"),
            jit.dfs_collect_colored,
        ):
            color = base_color.copy()
            parts, edges = impl(
                g.indptr, g.indices, pivot, olds, news, color
            )
            assert edges == ref_edges
            assert np.array_equal(color, ref_color)
            for p, rp in zip(parts, ref_parts):
                assert np.array_equal(p, rp)
