"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import faulthandler
import signal
import threading

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edge_list

# ---------------------------------------------------------------------------
# Deadlock protection: this suite exercises real worker pools and fault
# injection, so a regression that reintroduces an unbounded wait (e.g. a
# bare fut.get()) must fail CI rather than hang it.  faulthandler gives a
# C-level traceback dump on SIGABRT etc.; the autouse alarm below turns a
# wedged test into a TimeoutError with a Python traceback.
# ---------------------------------------------------------------------------
faulthandler.enable()

#: per-test wall-clock budget (seconds); generous — the whole suite runs
#: in well under a minute, so only a genuine deadlock ever trips this.
TEST_TIMEOUT_SECONDS = 120


@pytest.fixture(autouse=True)
def _global_test_timeout(request):
    """Abort any single test that runs longer than the global budget."""
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):  # pragma: no cover - non-POSIX / nested runners
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"test exceeded the global {TEST_TIMEOUT_SECONDS}s deadlock "
            f"guard: {request.node.nodeid}"
        )

    old = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def scipy_scc_labels(g: CSRGraph) -> np.ndarray:
    """Independent SCC oracle via scipy.sparse.csgraph."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    n = g.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mat = sp.csr_matrix(
        (np.ones(g.num_edges), g.indices, g.indptr), shape=(n, n)
    )
    _, labels = connected_components(mat, directed=True, connection="strong")
    return labels.astype(np.int64)


def scipy_wcc_labels(g: CSRGraph) -> np.ndarray:
    """Independent WCC oracle via scipy.sparse.csgraph."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    n = g.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mat = sp.csr_matrix(
        (np.ones(g.num_edges), g.indices, g.indptr), shape=(n, n)
    )
    _, labels = connected_components(mat, directed=False)
    return labels.astype(np.int64)


def batch_policy(batch: bool):
    """Patch the phase-2 drain policy for a ``with`` block: the default
    batched :data:`~repro.core.recurfwbw.BATCH_POLICY`, or the
    per-pivot reference (width 1 never reaches ``min_run``, so nothing
    is batched)."""
    from unittest import mock

    from repro.core import recurfwbw

    policy = (
        recurfwbw.BATCH_POLICY
        if batch
        else recurfwbw.Phase2BatchPolicy(width=1)
    )
    return mock.patch.object(recurfwbw, "BATCH_POLICY", policy)


def random_digraph(
    n: int, m: int, seed: int = 0, *, self_loops: bool = False
) -> CSRGraph:
    """Uniform random digraph for fuzz-style tests."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    from repro.graph import from_edge_array

    return from_edge_array(
        src, dst, n, dedup=True, drop_self_loops=not self_loops
    )


def ring_of_rings(k: int = 20, sz: int = 25, seed: int = 3) -> CSRGraph:
    """k size-sz cyclic SCCs chained by forward-only cross edges —
    trims and the giant-SCC step cannot resolve them, so the phase-2
    recur queue gets real work (kill-mid-phase2 and deadline drills)."""
    from repro.graph import from_edge_array

    rng = np.random.default_rng(seed)
    src, dst = [], []
    for r in range(k):
        base = r * sz
        for i in range(sz):
            src.append(base + i)
            dst.append(base + (i + 1) % sz)
        a = rng.integers(0, sz, 2 * sz)
        b = rng.integers(0, sz, 2 * sz)
        src += (base + a).tolist()
        dst += (base + b).tolist()
    for r in range(k - 1):
        for _ in range(3):
            src.append(r * sz + int(rng.integers(sz)))
            dst.append((r + 1) * sz + int(rng.integers(sz)))
    return from_edge_array(np.array(src), np.array(dst), k * sz)


# ---------------------------------------------------------------------------
# Canonical small graphs (name -> edge list, num_nodes)
# ---------------------------------------------------------------------------
SMALL_GRAPHS: dict[str, tuple[list[tuple[int, int]], int]] = {
    "empty": ([], 0),
    "single": ([], 1),
    "isolated3": ([], 3),
    "self_loop": ([(0, 0)], 1),
    "edge": ([(0, 1)], 2),
    "two_cycle": ([(0, 1), (1, 0)], 2),
    "chain4": ([(0, 1), (1, 2), (2, 3)], 4),
    "cycle4": ([(0, 1), (1, 2), (2, 3), (3, 0)], 4),
    "two_cycles_bridge": (
        [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)],
        4,
    ),
    "figure1b": (
        # Fig. 1(b) of the paper: cascading trim a <- b <- c; d, e leaves
        [(0, 1), (1, 2), (2, 3), (2, 4)],
        5,
    ),
    "diamond_dag": ([(0, 1), (0, 2), (1, 3), (2, 3)], 4),
    "scc_with_tail": (
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
        5,
    ),
    "two_cycle_pattern_a": (
        # Trim2 Fig. 4(a): A<->B with an extra incoming edge.
        [(0, 1), (1, 0), (2, 0)],
        3,
    ),
    "two_cycle_pattern_b": (
        # Trim2 Fig. 4(b): A<->B with an extra outgoing edge.
        [(0, 1), (1, 0), (0, 2)],
        3,
    ),
    "complete4": (
        [(i, j) for i in range(4) for j in range(4) if i != j],
        4,
    ),
    "star_out": ([(0, i) for i in range(1, 6)], 6),
    "star_in": ([(i, 0) for i in range(1, 6)], 6),
    "nested_sccs": (
        # big cycle 0-1-2-3 plus inner chord cycle and a pendant 2-cycle
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (1, 0),
            (3, 4),
            (4, 5),
            (5, 4),
        ],
        6,
    ),
}


@pytest.fixture(params=sorted(SMALL_GRAPHS))
def small_graph(request) -> tuple[str, CSRGraph]:
    name = request.param
    edges, n = SMALL_GRAPHS[name]
    return name, from_edge_list(edges, n)


@pytest.fixture()
def planted_medium():
    """A mid-sized planted graph with known SCC structure."""
    from repro.generators import SCCStructureSpec, scc_structured_graph

    spec = SCCStructureSpec(
        n=4000,
        giant_frac=0.55,
        trivial_frac=0.6,
        alpha=2.1,
        chain2_pairs=60,
    )
    return scc_structured_graph(spec, rng=np.random.default_rng(777))
