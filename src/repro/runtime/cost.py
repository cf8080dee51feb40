"""Cost model: converting counted operations into simulated work units.

Everything the simulator reports is expressed in **edge-units**: the
cost of one edge inspection by a streaming kernel (a vectorized scan or
a sequential array walk over CSR).  The constants below convert other
operations into that currency.  They are calibration constants, not
measurements — chosen so the *shape* of the paper's results holds
(DESIGN.md §5) — and every one of them is centralized here so the
ablation benches and the calibration tests can reason about them.

Rationale for the defaults:

``DFS_EDGE`` / ``DFS_NODE`` (8.0):
    Tarjan's DFS chases pointers in node order with no locality; on the
    paper's multi-million-node graphs every edge hop is effectively a
    DRAM-latency stall, while streaming kernels read CSR contiguously
    at bandwidth rates.  An 8x penalty per touched element is at the
    low end of the measured random-vs-stream DRAM gap and is the value
    that calibrates the simulated Figure 6 to the paper's reported
    envelope (geometric-mean speedup ~14x at 32 threads, Section 5);
    the calibration sweep lives in ``tests/integration`` and the
    sensitivity of the headline numbers to this constant is reported
    in EXPERIMENTS.md.

``STREAM_NODE`` (1.0):
    Node-indexed array touches in vectorized sweeps cost about one
    edge-unit.

``TRAVERSAL_BFS_EDGE`` (1.25):
    The level-synchronous BFS pays for frontier compaction and atomics
    on top of the stream cost (Section 4.2 cites the "larger fixed
    cost" of the parallel BFS).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "MemoryModel",
    "DEFAULT_MEMORY_MODEL",
]


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs in edge-units (see module docstring)."""

    #: streaming edge inspection — the unit.
    stream_edge: float = 1.0
    #: streaming node touch (degree read, mask update).
    stream_node: float = 1.0
    #: DFS edge hop (pointer chasing, cache-hostile).
    dfs_edge: float = 8.0
    #: DFS node visit (stack push/pop, lowlink bookkeeping).
    dfs_node: float = 8.0
    #: parallel-BFS edge relaxation (frontier compaction + CAS).
    bfs_edge: float = 1.25
    #: parallel-BFS node visit.
    bfs_node: float = 1.25

    def stream(self, nodes: float = 0.0, edges: float = 0.0) -> float:
        """Work of a streaming sweep touching ``nodes`` + ``edges``."""
        return self.stream_node * nodes + self.stream_edge * edges

    def dfs(self, nodes: float = 0.0, edges: float = 0.0) -> float:
        """Work of a sequential DFS visiting ``nodes`` + ``edges``."""
        return self.dfs_node * nodes + self.dfs_edge * edges

    def bfs(self, nodes: float = 0.0, edges: float = 0.0) -> float:
        """Work of one parallel-BFS level over ``nodes`` + ``edges``."""
        return self.bfs_node * nodes + self.bfs_edge * edges


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class MemoryModel:
    """Peak-memory estimate of one SCC run, for admission control.

    The serving layer (:mod:`repro.service.govern`) must decide whether
    to *admit* a request **before** loading the graph it names — an
    estimate that is cheap, conservative, and derived from the same
    structural facts the rest of the repo builds on:

    * the CSR arrays are ``int64`` throughout (``graph.csr``), so a
      graph costs ``8 * (nodes + 1 + edges)`` bytes, and every method
      that traverses backwards also materializes the transpose (same
      size again);
    * :class:`~repro.core.state.SCCState` keeps ``color``/``labels``
      (int64), ``mark`` (bool) and ``phase_of`` (int8) — 18 bytes per
      node — and the shared-memory mirror of a process backend doubles
      exactly that set;
    * each forked worker costs a near-constant interpreter overhead on
      top of the copy-on-write graph pages.

    ``headroom`` is a multiplicative safety factor covering transient
    peaks the static inventory misses (frontier buffers, trim
    scratch, checkpoint serialization).  Estimates are deliberately
    conservative: the admission check refuses a request the budget
    *might not* cover, because the alternative is the OOM killer.
    """

    #: bytes per CSR index (int64 throughout — see graph.csr).
    index_bytes: int = 8
    #: SCCState bytes per node (color 8 + labels 8 + mark 1 + phase 1).
    state_bytes_per_node: float = 18.0
    #: shared-memory mirror bytes per node (same array set as the state).
    mirror_bytes_per_node: float = 18.0
    #: cached effective-degree arrays (out + in, int64 each).
    degree_bytes_per_node: float = 16.0
    #: per-worker interpreter overhead of a forked pool (bytes).
    worker_bytes: float = 48e6
    #: safety factor over the static inventory.
    headroom: float = 1.25

    def graph_bytes(self, nodes: int, edges: int) -> float:
        """Bytes of one CSR (indptr + indices)."""
        return self.index_bytes * (nodes + 1 + edges)

    def session_bytes(
        self, nodes: int, edges: int, *, processes: bool = False
    ) -> float:
        """Bytes a warm session pins: graph + transpose + degrees
        (+ the shared mirror once a process backend has run)."""
        total = 2 * self.graph_bytes(nodes, edges)
        total += self.degree_bytes_per_node * nodes
        if processes:
            total += self.mirror_bytes_per_node * nodes
        return total

    def run_bytes(
        self,
        nodes: int,
        edges: int,
        *,
        backend: str = "serial",
        num_workers: int = 0,
    ) -> float:
        """Conservative peak bytes of one run on a cold session."""
        processes = backend == "supervised"
        total = self.session_bytes(nodes, edges, processes=processes)
        total += self.state_bytes_per_node * nodes
        if processes:
            total += self.worker_bytes * max(num_workers, 0)
        return total * self.headroom


DEFAULT_MEMORY_MODEL = MemoryModel()
