"""DeltaCSR: the mutable edge-delta overlay must always agree with a
plain Python edge-set mirror of the same mutation stream — merged
neighborhoods, snapshots, kernel views, subgraphs, across compactions.
"""

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edge_array, induced_subgraph
from repro.graph.delta import DEFAULT_COMPACT_RATIO, DeltaCSR
from repro.kernels import (
    delta_expand_frontier,
    get_kernel,
    sorted_unique,
    use_backend,
)
from tests.conftest import random_digraph


def mirror_graph(edges: set, n: int) -> CSRGraph:
    """Frozen CSR of a Python ``{(u, v)}`` edge set."""
    if edges:
        arr = np.array(sorted(edges), dtype=np.int64)
        return from_edge_array(arr[:, 0], arr[:, 1], n, dedup=False)
    return from_edge_array(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), n
    )


def check_views(delta: DeltaCSR, mirror: set, n: int) -> None:
    """Both kernel views hold an up-to-date flattened add-log and
    expand every node to exactly the mirror's edges."""
    every = np.arange(n, dtype=np.int64)
    want = sorted(mirror)
    for view, adds, reverse in (
        (delta.forward_view(), delta._add_out, False),
        (delta.backward_view(), delta._add_in, True),
    ):
        fresh_ptr, fresh_idx = delta._flatten(adds)
        np.testing.assert_array_equal(view[3], fresh_ptr)
        np.testing.assert_array_equal(view[4], fresh_idx)
        targets, sources = delta_expand_frontier(
            *view, every, return_sources=True
        )
        ends = (targets, sources) if reverse else (sources, targets)
        assert sorted(zip(*(a.tolist() for a in ends))) == want


def random_stream(rng, n, k):
    """``k`` random (insert?, u, v) operations."""
    return [
        (bool(rng.integers(0, 2)), int(rng.integers(0, n)), int(rng.integers(0, n)))
        for _ in range(k)
    ]


class TestMirrorFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stream_matches_edge_set_mirror(self, seed):
        n = 40
        base = random_digraph(n, 120, seed=seed, self_loops=True)
        delta = DeltaCSR(base, compact_ratio=10.0)  # never compact here
        src, dst = base.edge_array()
        mirror = set(zip(src.tolist(), dst.tolist()))
        rng = np.random.default_rng(seed + 100)
        for ins, u, v in random_stream(rng, n, 300):
            if ins:
                changed = delta.add_edge(u, v)
                assert changed == ((u, v) not in mirror)
                mirror.add((u, v))
            else:
                changed = delta.remove_edge(u, v)
                assert changed == ((u, v) in mirror)
                mirror.discard((u, v))
            assert delta.num_edges == len(mirror)
            assert delta.has_edge(u, v) == ((u, v) in mirror)
            # the add-logs cached across tombstone flips stay current
            check_views(delta, mirror, n)
        # merged per-node views agree with the mirror on every node
        for u in range(n):
            want_out = sorted(v for (s, v) in mirror if s == u)
            want_in = sorted(s for (s, v) in mirror if v == u)
            assert delta.out_neighbors(u).tolist() == want_out
            assert delta.in_neighbors(u).tolist() == want_in
        # the materialized snapshot is the mirror graph, bit for bit
        assert delta.snapshot() == mirror_graph(mirror, n)
        es, ed = delta.edge_array()
        assert set(zip(es.tolist(), ed.tolist())) == mirror

    def test_resurrect_tombstoned_base_edge(self):
        base = from_edge_array(
            np.array([0, 1], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
            3,
        )
        delta = DeltaCSR(base)
        assert delta.remove_edge(0, 1)
        assert delta.log_size == 1
        # re-adding clears the tombstone instead of growing the add log
        assert delta.add_edge(0, 1)
        assert delta.log_size == 0
        assert delta.has_edge(0, 1)
        assert delta.snapshot() == base

    def test_idempotent_noops_leave_mutations_untouched(self):
        base = from_edge_array(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64), 2
        )
        delta = DeltaCSR(base)
        before = delta.mutations
        assert not delta.add_edge(0, 1)  # already present
        assert not delta.remove_edge(1, 0)  # never existed
        assert delta.mutations == before
        assert delta.add_edge(1, 0)
        assert delta.mutations == before + 1

    def test_endpoint_validation(self):
        base = random_digraph(5, 10, seed=0)
        delta = DeltaCSR(base)
        with pytest.raises(ValueError):
            delta.add_edge(0, 5)
        with pytest.raises(ValueError):
            delta.remove_edge(-1, 0)
        with pytest.raises(ValueError):
            DeltaCSR(base, compact_ratio=0.0)


class TestCompaction:
    def test_maybe_compact_triggers_at_ratio(self):
        n = 30
        base = random_digraph(n, 100, seed=3)
        delta = DeltaCSR(base, compact_ratio=DEFAULT_COMPACT_RATIO)
        rng = np.random.default_rng(7)
        mirror = set(zip(*(a.tolist() for a in base.edge_array())))
        compacted = False
        for ins, u, v in random_stream(rng, n, 200):
            if ins:
                delta.add_edge(u, v)
                mirror.add((u, v))
            else:
                delta.remove_edge(u, v)
                mirror.discard((u, v))
            if delta.maybe_compact():
                compacted = True
                assert delta.log_size == 0
                assert delta.base == mirror_graph(mirror, n)
            assert delta.snapshot() == mirror_graph(mirror, n)
        assert compacted
        assert delta.compactions >= 1

    def test_compact_preserves_views(self):
        n = 12
        base = random_digraph(n, 30, seed=5)
        delta = DeltaCSR(base)
        delta.add_edge(0, n - 1)
        delta.remove_edge(*next(iter(zip(*base.edge_array()))))
        before = {u: delta.out_neighbors(u).tolist() for u in range(n)}
        delta.compact()
        assert delta.log_size == 0
        for u in range(n):
            assert delta.out_neighbors(u).tolist() == before[u]


class TestKernelViews:
    def test_tombstone_flips_keep_the_flattened_add_logs(self):
        base = from_edge_array(
            np.array([0, 1], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
            3,
        )
        delta = DeltaCSR(base)
        assert delta.add_edge(2, 0)
        fwd, bwd = delta.forward_view(), delta.backward_view()
        # delete and resurrect a base edge: only the masks change
        for flip in (delta.remove_edge, delta.add_edge):
            assert flip(0, 1)
            assert delta.forward_view()[3] is fwd[3]
            assert delta.backward_view()[4] is bwd[4]
            assert delta.forward_view()[2] is fwd[2]
        # an add-list change drops them
        assert delta.add_edge(2, 1)
        assert delta.forward_view()[4].tolist() == [0, 1]
        assert delta.backward_view()[4].tolist() == [2, 2]

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_delta_expand_matches_merged_neighbors(self, backend):
        n = 25
        base = random_digraph(n, 80, seed=9)
        delta = DeltaCSR(base, compact_ratio=10.0)
        rng = np.random.default_rng(11)
        for ins, u, v in random_stream(rng, n, 120):
            (delta.add_edge if ins else delta.remove_edge)(u, v)
        frontier = np.array([0, 3, 3, n - 1, 7], dtype=np.int64)
        with use_backend(backend):
            targets, sources = delta_expand_frontier(
                *delta.forward_view(), frontier, return_sources=True
            )
            uniq = delta_expand_frontier(
                *delta.forward_view(), frontier, unique=True
            )
            back = delta_expand_frontier(
                *delta.backward_view(), frontier, unique=True
            )
        # per-slot contract: base survivors then adds, slots in order
        want_t, want_s = [], []
        for u in frontier.tolist():
            row = delta.out_neighbors(u).tolist()
            want_t.extend(row)
            want_s.extend([u] * len(row))
        assert sorted(targets.tolist()) == sorted(want_t)
        assert sources.tolist() == want_s
        assert uniq.tolist() == sorted(set(want_t))
        want_b = set()
        for u in frontier.tolist():
            want_b.update(delta.in_neighbors(u).tolist())
        assert back.tolist() == sorted(want_b)

    @pytest.mark.parametrize(
        "mix", ["base-only", "add-only", "tombstoned", "mixed"]
    )
    def test_unique_is_sorted_unique_of_plain_expansion(self, mix):
        """``unique=True`` dedups the gathered targets without the
        per-slot grouping sort; the answer must not change."""
        n = 40
        rng = np.random.default_rng(23)
        if mix == "add-only":
            empty = np.empty(0, dtype=np.int64)
            base = from_edge_array(empty, empty, n)
        else:
            base = random_digraph(n, 160, seed=21)
        delta = DeltaCSR(base, compact_ratio=10.0)
        if mix == "add-only":
            for u, v in rng.integers(0, n, size=(120, 2)).tolist():
                delta.add_edge(u, v)
        elif mix == "tombstoned":
            src, dst = delta.edge_array()
            for u, v in list(zip(src.tolist(), dst.tolist()))[::3]:
                assert delta.remove_edge(u, v)
        elif mix == "mixed":
            for ins, u, v in random_stream(rng, n, 150):
                (delta.add_edge if ins else delta.remove_edge)(u, v)
        frontiers = (
            np.array([5, 0, 5, n - 1, 12], dtype=np.int64),  # sparse
            np.arange(n, dtype=np.int64),  # dense: the bitmap branch
        )
        for view in (delta.forward_view(), delta.backward_view()):
            for frontier in frontiers:
                plain = delta_expand_frontier(*view, frontier)
                uniq = delta_expand_frontier(*view, frontier, unique=True)
                assert plain.size
                assert uniq.dtype == np.int64
                np.testing.assert_array_equal(uniq, sorted_unique(plain))

    def test_backend_outputs_bit_identical(self):
        n = 30
        base = random_digraph(n, 90, seed=13)
        delta = DeltaCSR(base, compact_ratio=10.0)
        rng = np.random.default_rng(17)
        for ins, u, v in random_stream(rng, n, 150):
            (delta.add_edge if ins else delta.remove_edge)(u, v)
        frontier = rng.integers(0, n, 12).astype(np.int64)
        view = delta.forward_view()
        ref = get_kernel("delta_expand_frontier", backend="numpy")
        fast = get_kernel("delta_expand_frontier", backend="numba")
        for kwargs in (
            {},
            {"return_sources": True},
            {"unique": True},
        ):
            a = ref(*view, frontier, **kwargs)
            b = fast(*view, frontier, **kwargs)
            if isinstance(a, tuple):
                assert np.array_equal(a[0], b[0])
                assert np.array_equal(a[1], b[1])
            else:
                assert np.array_equal(a, b)

    def test_empty_frontier_and_unique_sources_conflict(self):
        base = random_digraph(6, 10, seed=1)
        delta = DeltaCSR(base)
        out = delta_expand_frontier(
            *delta.forward_view(), np.empty(0, dtype=np.int64)
        )
        assert out.size == 0
        with pytest.raises(ValueError):
            delta_expand_frontier(
                *delta.forward_view(),
                np.array([0], dtype=np.int64),
                return_sources=True,
                unique=True,
            )


class TestInducedSubgraph:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_matches_snapshot_subgraph(self, seed):
        n = 35
        base = random_digraph(n, 100, seed=seed)
        delta = DeltaCSR(base, compact_ratio=10.0)
        rng = np.random.default_rng(seed + 50)
        for ins, u, v in random_stream(rng, n, 150):
            (delta.add_edge if ins else delta.remove_edge)(u, v)
        nodes = rng.choice(n, size=14, replace=False).astype(np.int64)
        sub_d, map_d = delta.induced_subgraph(nodes)
        sub_s, map_s = induced_subgraph(delta.snapshot(), nodes)
        assert np.array_equal(map_d, map_s)
        assert sub_d == sub_s

    def test_out_of_range_rejected(self):
        delta = DeltaCSR(random_digraph(5, 8, seed=0))
        with pytest.raises(ValueError):
            delta.induced_subgraph(np.array([0, 5], dtype=np.int64))
