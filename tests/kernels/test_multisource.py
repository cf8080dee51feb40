"""Parity and semantics for the bit-parallel multi-source kernels.

Same three-tier scheme as :mod:`tests.kernels.test_parity`: the numpy
reference, whatever the accelerated ``numba`` backend resolves to on
this machine, and the :mod:`repro.kernels.jit` wrappers called
directly (interpreted when numba is absent).  The multi-source
contract is stricter than "same reachability": bit-identical frontier
node/bit arrays, identical in-place ``visited`` mutations, identical
scanned-edge counts, and — for the intersect kernel — the
deterministic lowest-wave pivot-claim tie-break.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core import tarjan_scc
from repro.core.result import canonical_labels
from repro.generators import generate
from repro.kernels import get_kernel, use_backend
from repro.kernels import fastpath, jit, reference
from repro.kernels.reference import (
    DEDUP_DENSITY_DIVISOR,
    MS_BW_ONLY,
    MS_CLAIMED,
    MS_FW_ONLY,
    MS_MAX_WAVES,
    MS_SCC,
    MS_UNREACHED,
)
from tests.conftest import random_digraph

SEEDS = [0, 1, 2, 7]


def _accelerated(name):
    with use_backend("numba"):
        return get_kernel(name)


def _wave_setup(g, rng, n_waves):
    """Random disjoint-wave state: ``n_waves`` colours, one pivot each.

    Returns ``(color, wave_colors, wave_masks, pivots, bits)`` with
    every node painted one of the wave colours.
    """
    color = rng.integers(0, n_waves, size=g.num_nodes).astype(np.int64)
    # ensure every colour occurs so each wave has a pivot
    color[:n_waves] = np.arange(n_waves)
    wave_colors = np.arange(n_waves, dtype=np.int64)
    wave_masks = np.left_shift(
        np.uint64(1), np.arange(n_waves, dtype=np.uint64)
    )
    pivots = np.array(
        [int(rng.choice(np.flatnonzero(color == c))) for c in wave_colors],
        dtype=np.int64,
    )
    return color, wave_colors, wave_masks, pivots, wave_masks.copy()


def _tiers():
    return (
        ("reference", reference.ms_expand_frontier),
        ("accelerated", _accelerated("ms_expand_frontier")),
        ("jit", jit.ms_expand_frontier),
    )


class TestMsExpandFrontier:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_waves", [1, 3, 17, 64])
    def test_one_level_all_tiers_match(self, seed, n_waves):
        g = random_digraph(80, 400, seed=seed)
        rng = np.random.default_rng(seed)
        color, wc, wm, pivots, bits = _wave_setup(g, rng, n_waves)
        base = np.zeros(g.num_nodes, dtype=np.uint64)
        base[pivots] = bits
        ref_vis = base.copy()
        ref = reference.ms_expand_frontier(
            g.indptr, g.indices, pivots, bits, ref_vis, color, wc, wm
        )
        for name, impl in _tiers()[1:]:
            vis = base.copy()
            nxt, nbits, scanned = impl(
                g.indptr, g.indices, pivots, bits, vis, color, wc, wm
            )
            assert np.array_equal(nxt, ref[0]), name
            assert np.array_equal(nbits, ref[1]), name
            assert scanned == ref[2], name
            assert np.array_equal(vis, ref_vis), name

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fixpoint_visited_identical(self, seed):
        g = random_digraph(120, 700, seed=seed)
        rng = np.random.default_rng(seed + 100)
        color, wc, wm, pivots, bits = _wave_setup(g, rng, 11)
        finals = {}
        for name, impl in _tiers():
            vis = np.zeros(g.num_nodes, dtype=np.uint64)
            vis[pivots] = bits
            frontier, fbits = pivots, bits
            total = 0
            while frontier.size:
                frontier, fbits, scanned = impl(
                    g.indptr, g.indices, frontier, fbits, vis,
                    color, wc, wm,
                )
                total += scanned
            finals[name] = (vis, total)
        ref_vis, ref_total = finals["reference"]
        for name in ("accelerated", "jit"):
            assert np.array_equal(finals[name][0], ref_vis), name
            assert finals[name][1] == ref_total, name

    def test_colour_boundary_respected(self):
        # 0 -> 1 -> 2 with node 2 painted a non-wave colour: the wave
        # must stop at the boundary without visiting node 2.
        from repro.graph import from_edge_list

        g = from_edge_list([(0, 1), (1, 2)], 3)
        color = np.array([5, 5, 9], dtype=np.int64)
        wc = np.array([5], dtype=np.int64)
        wm = np.array([1], dtype=np.uint64)
        for name, impl in _tiers():
            vis = np.zeros(3, dtype=np.uint64)
            vis[0] = np.uint64(1)
            nxt, nbits, scanned = impl(
                g.indptr, g.indices,
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.uint64),
                vis, color, wc, wm,
            )
            assert nxt.tolist() == [1], name
            assert scanned == 1, name
            nxt, nbits, scanned = impl(
                g.indptr, g.indices, nxt, nbits, vis, color, wc, wm
            )
            assert nxt.size == 0, name
            assert vis[2] == 0, name

    def test_empty_frontier(self):
        g = random_digraph(10, 30, seed=0)
        wc = np.array([0], dtype=np.int64)
        wm = np.array([1], dtype=np.uint64)
        empty = np.empty(0, dtype=np.int64)
        ebits = np.empty(0, dtype=np.uint64)
        for name, impl in _tiers():
            vis = np.zeros(10, dtype=np.uint64)
            nxt, nbits, scanned = impl(
                g.indptr, g.indices, empty, ebits, vis,
                np.zeros(10, dtype=np.int64), wc, wm,
            )
            assert nxt.size == 0 and nbits.size == 0 and scanned == 0


def _live_entries(indptr, indices, frontier, fbits, visited, color, wc, wm):
    """Adjacency entries that still carry a gainable lane bit — the
    count the fastpath's density switch compares with ``n / 8``."""
    lanes = dict(zip(wc.tolist(), wm.tolist()))
    live = 0
    for u, b in zip(frontier.tolist(), fbits.tolist()):
        for v in indices[indptr[u] : indptr[u + 1]].tolist():
            if b & lanes.get(int(color[v]), 0) & ~int(visited[v]):
                live += 1
    return live


def _assert_fastpath_level(
    indptr, indices, frontier, fbits, visited, color, wc, wm
):
    """One level on the fastpath and the reference, bit for bit.

    Returns the reference's ``(nxt, nbits)`` and advances ``visited``
    in place the way both tiers did.
    """
    ref_vis = visited.copy()
    want = reference.ms_expand_frontier(
        indptr, indices, frontier, fbits, ref_vis, color, wc, wm
    )
    got = fastpath.ms_expand_frontier(
        indptr, indices, frontier, fbits, visited, color, wc, wm
    )
    assert np.array_equal(got[0], want[0])
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[1], want[1])
    assert got[1].dtype == want[1].dtype
    assert got[2] == want[2]
    assert np.array_equal(visited, ref_vis)
    return want[0], want[1]


def _shared_colour_state(g, rng, n_colours, n_waves, frontier_frac):
    """Random mid-sweep state where colours are owned by several waves.

    Wave ``j`` owns colour ``j % n_colours``, so every ``wave_masks``
    entry is multi-bit; ``visited`` holds random subsets of each
    node's own colour lanes, so targets already carry some of the bits
    arriving at them.
    """
    n = g.num_nodes
    color = rng.integers(0, n_colours, size=n).astype(np.int64)
    wc = np.arange(n_colours, dtype=np.int64)
    wm = np.zeros(n_colours, dtype=np.uint64)
    for j in range(n_waves):
        wm[j % n_colours] |= np.uint64(1) << np.uint64(j)
    noise = rng.integers(0, 2**63, size=n, dtype=np.int64)
    visited = noise.astype(np.uint64) & wm[color]
    k = max(1, int(n * frontier_frac))
    frontier = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    fbits = wm[color[frontier]] & rng.integers(
        1, 2**63, size=k, dtype=np.int64
    ).astype(np.uint64)
    fbits[fbits == 0] = wm[color[frontier[fbits == 0]]]
    return color, wc, wm, frontier, fbits, visited


class TestFastpathMsExpandFrontier:
    """The fastpath's visited-first filter and density-switched merge
    against the reference: same nodes, bits, ``scanned`` and
    ``visited`` on every level."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dense", [True, False])
    def test_dense_and_sparse_levels(self, seed, dense):
        g = random_digraph(400, 4000, seed=seed)
        rng = np.random.default_rng(seed + 500)
        color, wc, wm, frontier, fbits, visited = _shared_colour_state(
            g, rng, n_colours=3, n_waves=9,
            frontier_frac=0.5 if dense else 0.01,
        )
        live = _live_entries(
            g.indptr, g.indices, frontier, fbits, visited, color, wc, wm
        )
        cutoff = g.num_nodes // DEDUP_DENSITY_DIVISOR
        if dense:
            assert live > cutoff
        else:
            assert 0 < live <= cutoff
        _assert_fastpath_level(
            g.indptr, g.indices, frontier, fbits, visited, color, wc, wm
        )

    @pytest.mark.parametrize("dense", [True, False])
    def test_targets_gain_only_missing_lanes(self, dense):
        # Node 0 feeds every other node; nodes already hold lanes 0
        # and 2 of the three arriving, so each may gain lane 1 only —
        # and node 1, which holds all three, gains nothing.
        n = 40 if dense else 400
        from repro.graph import from_edge_list

        g = from_edge_list([(0, v) for v in range(1, 40)], n)
        color = np.zeros(n, dtype=np.int64)
        wc = np.array([0], dtype=np.int64)
        wm = np.array([0b111], dtype=np.uint64)
        visited = np.full(n, 0b101, dtype=np.uint64)
        visited[1] = 0b111
        frontier = np.array([0], dtype=np.int64)
        fbits = np.array([0b111], dtype=np.uint64)
        live = _live_entries(
            g.indptr, g.indices, frontier, fbits, visited, color, wc, wm
        )
        assert (live > n // DEDUP_DENSITY_DIVISOR) == dense
        nxt, nbits = _assert_fastpath_level(
            g.indptr, g.indices, frontier, fbits, visited, color, wc, wm
        )
        assert nxt.tolist() == list(range(2, 40))
        assert set(nbits.tolist()) == {0b010}
        assert visited[1] == 0b111
        assert (visited[2:40] == 0b111).all()

    def test_one_colour_owned_by_several_waves(self):
        # Lanes 0 and 3 share colour 7, lane 1 owns colour 9: a colour-7
        # target takes lanes 0 and 3 from the same entry, a colour-9
        # target only lane 1, whatever else the source carries.
        from repro.graph import from_edge_list

        g = from_edge_list([(0, 1), (0, 2), (3, 1), (3, 2)], 4)
        color = np.array([7, 7, 9, 9], dtype=np.int64)
        wc = np.array([7, 9], dtype=np.int64)
        wm = np.array([0b1001, 0b0010], dtype=np.uint64)
        visited = np.array([0b1001, 0, 0, 0b0010], dtype=np.uint64)
        frontier = np.array([0, 3], dtype=np.int64)
        fbits = np.array([0b1011, 0b0010], dtype=np.uint64)
        nxt, nbits = _assert_fastpath_level(
            g.indptr, g.indices, frontier, fbits, visited, color, wc, wm
        )
        assert nxt.tolist() == [1, 2]
        assert nbits.tolist() == [0b1001, 0b0010]

    @pytest.mark.parametrize("direction", ["fw", "bw"])
    def test_certificate_shaped_fixpoint_on_orkut(self, direction):
        """One giant wave plus seven small ones, to fixpoint level by
        level — the sweep a ``sample`` certificate runs."""
        g = generate("orkut", scale=0.05).graph
        labels = canonical_labels(tarjan_scc(g))
        uniq, first, counts = np.unique(
            labels, return_index=True, return_counts=True
        )
        picked = np.sort(np.argsort(-counts, kind="stable")[:8])
        assert counts[picked].max() > 0.9 * g.num_nodes
        wc = uniq[picked]
        wm = np.left_shift(np.uint64(1), np.arange(8, dtype=np.uint64))
        ptr, idx = (
            (g.indptr, g.indices)
            if direction == "fw"
            else (g.in_indptr, g.in_indices)
        )
        visited = np.zeros(g.num_nodes, dtype=np.uint64)
        frontier = first[picked].astype(np.int64)
        visited[frontier] = wm
        fbits = wm.copy()
        cutoff = g.num_nodes // DEDUP_DENSITY_DIVISOR
        branches = set()
        while frontier.size:
            live = _live_entries(
                ptr, idx, frontier, fbits, visited, labels, wc, wm
            )
            branches.add(live > cutoff)
            frontier, fbits = _assert_fastpath_level(
                ptr, idx, frontier, fbits, visited, labels, wc, wm
            )
        assert branches == {True, False}
        giant = wc[np.argmax(counts[picked])]
        lane = wm[np.argmax(counts[picked])]
        assert ((visited & lane) != 0).sum() == (labels == giant).sum()


class TestMsFwbwIntersect:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_tiers_match_on_random_masks(self, seed):
        # Arbitrary overlapping visited masks — exercises every
        # category including CLAIMED and the tie-break.
        rng = np.random.default_rng(seed)
        n = 200
        nodes = np.arange(n, dtype=np.int64)
        bits = np.left_shift(
            np.uint64(1),
            rng.integers(0, MS_MAX_WAVES, size=n).astype(np.uint64),
        )
        fw = rng.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)
        bw = rng.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)
        ref = reference.ms_fwbw_intersect(nodes, bits, fw, bw)
        assert set(np.unique(ref)) <= {
            MS_SCC, MS_FW_ONLY, MS_BW_ONLY, MS_UNREACHED, MS_CLAIMED
        }
        for name, impl in (
            ("accelerated", _accelerated("ms_fwbw_intersect")),
            ("jit", jit.ms_fwbw_intersect),
        ):
            assert np.array_equal(
                impl(nodes, bits, fw, bw), ref
            ), name

    def test_lowest_wave_claim_tie_break(self):
        # One node inside the FW∧BW region of waves 0 and 3: only the
        # lowest wave (bit 0) may claim it as SCC; wave 3 sees CLAIMED.
        nodes = np.array([7, 7], dtype=np.int64)
        bits = np.array([1 << 0, 1 << 3], dtype=np.uint64)
        fw = np.zeros(8, dtype=np.uint64)
        bw = np.zeros(8, dtype=np.uint64)
        fw[7] = bw[7] = np.uint64((1 << 0) | (1 << 3))
        for name, impl in (
            ("reference", reference.ms_fwbw_intersect),
            ("accelerated", _accelerated("ms_fwbw_intersect")),
            ("jit", jit.ms_fwbw_intersect),
        ):
            cat = impl(nodes, bits, fw, bw)
            assert cat.tolist() == [MS_SCC, MS_CLAIMED], name

    def test_category_semantics(self):
        # bit 0 wave: SCC, FW-only, BW-only, unreached.
        nodes = np.arange(4, dtype=np.int64)
        bits = np.full(4, 1, dtype=np.uint64)
        fw = np.array([1, 1, 0, 0], dtype=np.uint64)
        bw = np.array([1, 0, 1, 0], dtype=np.uint64)
        cat = reference.ms_fwbw_intersect(nodes, bits, fw, bw)
        assert cat.tolist() == [
            MS_SCC, MS_FW_ONLY, MS_BW_ONLY, MS_UNREACHED
        ]


class TestDispatcherValidation:
    def _call(self, wc, wm, visited=None):
        g = random_digraph(10, 30, seed=0)
        vis = (
            visited
            if visited is not None
            else np.zeros(10, dtype=np.uint64)
        )
        return kernels.ms_expand_frontier(
            g.indptr, g.indices,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.uint64),
            vis, np.zeros(10, dtype=np.int64), wc, wm,
        )

    def test_rejects_empty_waves(self):
        with pytest.raises(ValueError, match="at least one wave"):
            self._call(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64),
            )

    def test_rejects_too_many_waves(self):
        n = MS_MAX_WAVES + 1
        with pytest.raises(ValueError, match="64"):
            self._call(
                np.arange(n, dtype=np.int64),
                np.ones(n, dtype=np.uint64),
            )

    def test_rejects_unsorted_wave_colors(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            self._call(
                np.array([3, 1], dtype=np.int64),
                np.array([1, 2], dtype=np.uint64),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="aligned"):
            self._call(
                np.array([0, 1], dtype=np.int64),
                np.array([1], dtype=np.uint64),
            )

    def test_rejects_wrong_visited_dtype(self):
        with pytest.raises(ValueError, match="uint64"):
            self._call(
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.uint64),
                visited=np.zeros(10, dtype=np.int64),
            )
