"""DeltaCSR compaction property: interleaved add/remove of the *same*
edges across ``maybe_compact()`` boundaries must keep every view of the
delta (membership, neighbors, snapshot) bit-identical to a fresh CSR
built from the surviving edge set.

This is the invariant the streaming tier leans on: a feed that keeps
flipping one edge (add, remove, add, ...) crosses compaction
boundaries at arbitrary points — a fold that loses a tombstone or
resurrects a folded add would silently corrupt every SCC answer after
it."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.generators import generate
from repro.graph.build import from_edge_array
from repro.graph.delta import DeltaCSR

SCALE = 0.02
GRAPH = "wiki"


@lru_cache(maxsize=None)
def base_graph():
    return generate(GRAPH, scale=SCALE, seed=77).graph


def model_edge_set(g):
    src, dst = g.edge_array()
    return set(zip(src.tolist(), dst.tolist()))


@st.composite
def interleavings(draw, max_ops=40):
    """Op sequences biased to flip the same few edges repeatedly,
    with explicit compaction points between ops."""
    g = base_graph()
    n = g.num_nodes
    # a small pool so add/remove of the same edge interleaves often
    pool_size = draw(st.integers(min_value=1, max_value=6))
    pool = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(pool_size)
    ]
    # include some existing base edges: removing a *base* edge needs a
    # tombstone, the state a bad fold would lose.
    src, dst = g.edge_array()
    for i in draw(
        st.lists(
            st.integers(min_value=0, max_value=src.shape[0] - 1),
            max_size=3,
        )
    ):
        pool.append((int(src[i]), int(dst[i])))
    k = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for _ in range(k):
        edge = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        kind = draw(st.sampled_from(["add", "remove"]))
        compact_here = draw(
            st.sampled_from([False, False, False, True])
        )
        ops.append((kind, edge, compact_here))
    return ops


def check_parity(delta, model):
    g = base_graph()
    want = from_edge_array(
        np.array([u for u, v in sorted(model)], dtype=np.int64),
        np.array([v for u, v in sorted(model)], dtype=np.int64),
        g.num_nodes,
    )
    snap = delta.snapshot()
    assert snap.num_nodes == want.num_nodes
    assert snap.num_edges == want.num_edges == len(model)
    # rows are sorted in both, so the arrays match exactly, transpose
    # included
    np.testing.assert_array_equal(snap.indptr, want.indptr)
    np.testing.assert_array_equal(snap.indices, want.indices)
    np.testing.assert_array_equal(snap.in_indptr, want.in_indptr)
    np.testing.assert_array_equal(snap.in_indices, want.in_indices)
    # membership and per-node neighbor queries agree with the model
    for u, v in model:
        assert delta.has_edge(u, v)
        assert v in delta.out_neighbors(u).tolist()
        assert u in delta.in_neighbors(v).tolist()


@settings(max_examples=60, deadline=None)
@given(ops=interleavings())
def test_interleaved_flips_across_compactions_match_fresh_csr(ops):
    g = base_graph()
    # tiny ratio: maybe_compact() folds eagerly, so op sequences cross
    # compaction boundaries mid-interleaving
    delta = DeltaCSR(g, compact_ratio=1e-9)
    model = model_edge_set(g)
    for kind, (u, v), compact_here in ops:
        if kind == "add":
            delta.add_edge(u, v)
            model.add((u, v))
        else:
            delta.remove_edge(u, v)
            model.discard((u, v))
        if compact_here:
            delta.maybe_compact()
            assert delta.log_size == 0
    check_parity(delta, model)


@settings(max_examples=30, deadline=None)
@given(ops=interleavings())
def test_explicit_compact_is_idempotent_and_lossless(ops):
    g = base_graph()
    delta = DeltaCSR(g)  # default ratio: folds rarely
    model = model_edge_set(g)
    for kind, (u, v), compact_here in ops:
        if kind == "add":
            delta.add_edge(u, v)
            model.add((u, v))
        else:
            delta.remove_edge(u, v)
            model.discard((u, v))
        if compact_here:
            delta.compact()
            delta.compact()  # second fold must be a no-op
            assert delta.log_size == 0
    check_parity(delta, model)


def test_same_edge_flip_storm_across_boundaries():
    """Deterministic worst case: one edge added and removed across
    every compaction boundary, ending in each terminal state."""
    g = base_graph()
    u, v = 1, 2
    base_has = (u, v) in model_edge_set(g)
    for end_present in (True, False):
        delta = DeltaCSR(g, compact_ratio=1e-9)
        present = base_has
        for i in range(12):
            if present:
                delta.remove_edge(u, v)
            else:
                delta.add_edge(u, v)
            present = not present
            delta.maybe_compact()
        if present != end_present:
            if present:
                delta.remove_edge(u, v)
            else:
                delta.add_edge(u, v)
            present = end_present
        assert delta.has_edge(u, v) == end_present
        model = model_edge_set(g)
        if end_present:
            model.add((u, v))
        else:
            model.discard((u, v))
        assert delta.num_edges == len(model)
        check_parity(delta, model)
