"""Property gate for the bit-parallel phase-2 batch path.

On arbitrary randomly-coloured R-MAT / DAG / cycle graphs, draining
the phase-2 queue with 64-pivot batched peeling must be bit-identical
to the sequential per-pivot drain: same label array, and the same
total scanned-edge count.  Edge totals are read off the task trace
through a cost model that prices exactly one unit per DFS edge and
zero for everything else, so ``TaskDAGRecord.total_work`` *is* the
number of adjacency entries the phase charged — the attribution the
simulator depends on (DESIGN.md §13).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import SCCState
from repro.core.recurfwbw import run_recur_phase
from repro.core.result import same_partition
from repro.generators import rmat_graph
from repro.graph import from_edge_array
from repro.kernels import use_backend
from repro.runtime.cost import CostModel
from repro.runtime.trace import TaskDAGRecord
from tests.conftest import batch_policy, scipy_scc_labels

#: one work unit per scanned DFS edge, nothing else — task costs in
#: the trace become raw scanned-edge counts.
EDGE_COUNTING_COST = CostModel(
    stream_edge=0.0, stream_node=0.0, dfs_edge=1.0, dfs_node=0.0
)

KERNEL_BACKENDS = ("numpy", "numba")


@st.composite
def storm_graphs(draw):
    """(graph, colours): an R-MAT, DAG or cycle digraph, randomly
    partitioned into colour groups as phase 2 would receive it."""
    kind = draw(st.sampled_from(["rmat", "dag", "cycle"]))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    if kind == "rmat":
        g = rmat_graph(draw(st.integers(4, 7)), 4.0, rng=rng)
    elif kind == "dag":
        n = draw(st.integers(2, 64))
        m = draw(st.integers(1, 4 * n))
        a = rng.integers(0, n, size=m)
        b = rng.integers(0, n, size=m)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = lo != hi  # edges point up the node order: acyclic
        g = from_edge_array(lo[keep], hi[keep], n)
    else:
        n = draw(st.integers(3, 64))
        ring = np.arange(n, dtype=np.int64)
        chords = draw(st.integers(0, n))
        src = np.concatenate([ring, rng.integers(0, n, size=chords)])
        dst = np.concatenate(
            [np.roll(ring, -1), rng.integers(0, n, size=chords)]
        )
        g = from_edge_array(src, dst, n)
    n_colors = draw(st.integers(1, 8))
    return g, n_colors, seed


def _seed_queue(g, n_colors, seed):
    """Paint a random colouring and seed the queue with its groups."""
    s = SCCState(g, seed=17, cost=EDGE_COUNTING_COST)
    rng = np.random.default_rng(seed + 1)
    colors = s.new_colors(n_colors)
    paint = colors[rng.integers(0, n_colors, size=g.num_nodes)]
    s.color[:] = paint
    items = [
        (int(c), np.flatnonzero(paint == c))
        for c in colors.tolist()
    ]
    return s, [(c, nd) for c, nd in items if nd.size]


def _scanned_edges(state):
    return sum(
        rec.total_work
        for rec in state.trace.records
        if isinstance(rec, TaskDAGRecord)
    )


def _drain(g, n_colors, seed, *, kernel, executor="serial", batch):
    s, items = _seed_queue(g, n_colors, seed)
    with use_backend(kernel), batch_policy(batch):
        run_recur_phase(s, items, backend=executor, num_threads=1)
    return s


@settings(max_examples=40, deadline=None)
@given(gc=storm_graphs())
def test_batched_bit_identical_serial_all_backends(gc):
    g, n_colors, seed = gc
    base = _drain(g, n_colors, seed, kernel="numpy", batch=False)
    for kernel in KERNEL_BACKENDS:
        batched = _drain(g, n_colors, seed, kernel=kernel, batch=True)
        assert np.array_equal(base.labels, batched.labels), kernel
        assert _scanned_edges(batched) == _scanned_edges(base), kernel
        assert base.trace.records == batched.trace.records, kernel


@settings(max_examples=40, deadline=None)
@given(gc=storm_graphs())
def test_single_color_queue_matches_oracle(gc):
    # degenerate storm: the whole graph as one partition — the
    # batched drain must still peel every SCC correctly.
    g, _, seed = gc
    s = SCCState(g, seed=17)
    items = [(0, np.arange(g.num_nodes, dtype=np.int64))]
    run_recur_phase(s, items)
    assert same_partition(s.labels, scipy_scc_labels(g))


@settings(max_examples=6, deadline=None)
@given(gc=storm_graphs())
def test_batched_bit_identical_process_pools(gc):
    g, n_colors, seed = gc
    base = _drain(
        g, n_colors, seed,
        kernel="numba", executor="supervised", batch=False,
    )
    batched = _drain(
        g, n_colors, seed,
        kernel="numba", executor="supervised", batch=True,
    )
    assert np.array_equal(base.labels, batched.labels)
    assert _scanned_edges(batched) == _scanned_edges(base)
