"""Warm graph sessions: pay the setup once, run many times.

The paper's Methods 1 & 2 are one-shot pipelines, but a serving system
repeats them against the same graph under different methods, seeds and
executors.  The expensive work is all *per-graph*, not *per-run*:
loading the edge list, building the transpose CSR, validating the
structure, mirroring the mutable arrays into shared memory, and
forking a worker pool.  A :class:`GraphSession` owns exactly that
per-graph state, keyed by a CRC fingerprint of the CSR arrays, so the
second run on a session pays none of it (measured by
``benchmarks/bench_engine_serving.py`` into ``BENCH_engine.json``).

What a session caches:

* the :class:`~repro.graph.csr.CSRGraph` itself (load once);
* the transpose CSR (built eagerly by :meth:`warmup`, reused by every
  backward traversal and by the supervised executor's pre-fork build);
* the out/in degree arrays;
* the structural validation verdict (:func:`repro.graph.validate.
  validate_graph` runs at most once per session);
* a :class:`~repro.engine.shm.SharedStateMirror` sized for the graph;
* a warm forked :class:`~repro.engine.pool.WorkerPool`, respawned only
  when the armed configuration (worker count, kernel backend, fault
  plan) actually changes;
* the current graph version's certificate proofs
  (:attr:`GraphSession.proofs`, a :class:`~repro.integrity.certify.
  ProofLedger`), dropped on every applied update.

:class:`SessionStats` records where the setup time went and how often
each artifact was reused — the warm-vs-cold amortization evidence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..graph import CSRGraph
from ..ioutil import crc32_chunks
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from .pool import WorkerPool, fork_available
from .shm import SharedStateMirror, arm_worker_context

__all__ = [
    "DELTA_LOG_ARRAYS",
    "graph_fingerprint",
    "SessionStats",
    "GraphSession",
]

#: the sealed delta-state arrays an applied update batch writes: the
#: tombstone masks and the flattened add-logs, both directions.  The
#: base CSR changes only when the log compacts into a fresh one.
DELTA_LOG_ARRAYS = (
    "tomb",
    "add_indptr",
    "add_indices",
    "tomb_in",
    "add_in_indptr",
    "add_in_indices",
)


def graph_fingerprint(g: CSRGraph) -> int:
    """CRC32 fingerprint of a graph's CSR arrays.

    The session cache key, and the identity recorded into run
    checkpoints (:mod:`repro.runtime.lifecycle`) so a resume against
    different data is refused rather than silently wrong.
    """
    return crc32_chunks(
        np.int64(g.num_nodes).tobytes(),
        g.indptr.tobytes(),
        g.indices.tobytes(),
    )


@dataclass
class SessionStats:
    """Where one session's setup time went, and what got reused.

    ``proofs_run``/``proofs_reused`` count certificate proofs (a
    sampled SCC's FW∧BW pair, the ``full`` level's Tarjan run) that
    :attr:`GraphSession.proofs` ran, and that it answered from what
    an earlier certificate of the same graph version proved.
    """

    graph_load_seconds: float = 0.0
    transpose_seconds: float = 0.0
    degrees_seconds: float = 0.0
    validate_seconds: float = 0.0
    pool_spawn_seconds: float = 0.0
    #: worker-pool forks (1 for a warm session serving many runs).
    pool_spawns: int = 0
    #: runs served by this session.
    runs: int = 0
    #: runs that reused every cached artifact (no respawn, no rebuild).
    warm_runs: int = 0
    #: cache hits on already-built artifacts.
    transpose_reuses: int = 0
    pool_reuses: int = 0
    #: integrity-tier accounting (0 when checksums are off).
    integrity_verifications: int = 0
    integrity_failures: int = 0
    #: certificate proofs run / answered from the proof ledger.
    proofs_run: int = 0
    proofs_reused: int = 0

    def setup_seconds(self) -> float:
        """Total one-time setup paid so far (load + derive + fork)."""
        return (
            self.graph_load_seconds
            + self.transpose_seconds
            + self.degrees_seconds
            + self.validate_seconds
            + self.pool_spawn_seconds
        )

    def to_dict(self) -> dict:
        return {
            "graph_load_seconds": self.graph_load_seconds,
            "transpose_seconds": self.transpose_seconds,
            "degrees_seconds": self.degrees_seconds,
            "validate_seconds": self.validate_seconds,
            "pool_spawn_seconds": self.pool_spawn_seconds,
            "setup_seconds": self.setup_seconds(),
            "pool_spawns": self.pool_spawns,
            "runs": self.runs,
            "warm_runs": self.warm_runs,
            "transpose_reuses": self.transpose_reuses,
            "pool_reuses": self.pool_reuses,
            "integrity_verifications": self.integrity_verifications,
            "integrity_failures": self.integrity_failures,
            "proofs_run": self.proofs_run,
            "proofs_reused": self.proofs_reused,
        }


class GraphSession:
    """One graph, loaded once, served many times.

    Sessions are usually obtained through :meth:`repro.engine.Engine.
    session` (which deduplicates them by fingerprint); constructing one
    directly is fine for library use.  A session owns OS resources
    (shared-memory segments, worker processes) once the supervised
    backend has run — :meth:`close` releases them, and the session is a context
    manager.

    :attr:`proofs` holds what certificates already proved about this
    graph version's labels; it lives exactly as long as the version
    (:meth:`mark_mutated` and :meth:`close` drop it, so do LRU
    eviction and quarantine, which close the session).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        name: Optional[str] = None,
        cost: CostModel = DEFAULT_COST_MODEL,
        load_seconds: float = 0.0,
        integrity: bool = False,
    ) -> None:
        self._graph = graph
        self.name = name
        self.cost = cost
        self.fingerprint = graph_fingerprint(graph)
        #: monotonically increasing mutation epoch.  0 for the frozen
        #: graph the session was created with; bumped by
        #: :meth:`mark_mutated` after each applied update batch.  The
        #: ``fingerprint`` stays the cache identity; ``(fingerprint,
        #: version)`` — :attr:`versioned_fingerprint` — names the exact
        #: graph state certificates and checkpoints were taken against.
        self.version = 0
        self._delta = None
        #: the attached :class:`~repro.engine.dynamic.DynamicSCC`
        #: maintainer, once :meth:`repro.engine.Engine.update` has
        #: promoted the session to mutable.
        self.dynamic = None
        self.stats = SessionStats(graph_load_seconds=load_seconds)
        self._degrees: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._validated = False
        self._mirror: Optional[SharedStateMirror] = None
        self._pool: Optional[WorkerPool] = None
        self._pool_signature: Optional[tuple] = None
        self._proofs = None
        self._closed = False
        self.checksums = None
        if integrity:
            from ..integrity import ChecksummedArrays

            self.checksums = ChecksummedArrays()
            self.checksums.seal("indptr", graph.indptr)
            self.checksums.seal("indices", graph.indices)
            if graph._in_indptr is not None:
                self.checksums.seal("in_indptr", graph._in_indptr)
                self.checksums.seal("in_indices", graph._in_indices)

    # -- mutable graph state --------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The session's current graph.

        Immutable sessions return the graph they were created with;
        mutable sessions return the merged snapshot of their delta
        overlay (cached by the overlay until the next mutation), so
        every run against the session sees the live edge set.
        """
        if self._delta is not None:
            return self._delta.snapshot()
        return self._graph

    @property
    def mutable(self) -> bool:
        """True once :meth:`make_mutable` attached a delta overlay."""
        return self._delta is not None

    @property
    def delta(self):
        """The :class:`~repro.graph.delta.DeltaCSR` overlay, if any."""
        return self._delta

    @property
    def versioned_fingerprint(self) -> Tuple[int, int]:
        """``(fingerprint, version)`` — the exact graph-state identity."""
        return (self.fingerprint, self.version)

    def make_mutable(self, *, compact_ratio: Optional[float] = None):
        """Attach (once) and return the session's delta overlay.

        The base graph stays frozen underneath; updates land in the
        overlay's edge log and :attr:`graph` switches to serving the
        merged snapshot.  ``compact_ratio`` only applies on the first
        call (the overlay keeps its configuration afterwards).
        """
        self._check_open()
        if self._delta is None:
            from ..graph.delta import DEFAULT_COMPACT_RATIO, DeltaCSR

            self._delta = DeltaCSR(
                self._graph,
                compact_ratio=(
                    compact_ratio
                    if compact_ratio is not None
                    else DEFAULT_COMPACT_RATIO
                ),
            )
        return self._delta

    def mark_mutated(self) -> int:
        """Advance the mutation epoch after an applied update batch.

        Invalidates every artifact derived from the pre-mutation
        arrays: cached degrees, the structural-validation verdict, and
        the forked worker pool (its workers inherited the old graph
        copy-on-write), and the proof ledger (its proofs were about the
        old graph).  The shared mirror survives — it is sized by node
        count, which updates never change.  Returns the new version.
        """
        self._check_open()
        if self._delta is None:
            raise RuntimeError("session is not mutable")
        self.version += 1
        self._proofs = None
        self._degrees = None
        self._validated = False
        self.release_pool()
        return self.version

    def reseal_integrity(self, names: Optional[Sequence[str]] = None) -> None:
        """Re-seal the integrity sidecars over the mutated arrays.

        Mutable sessions seal the *delta state* — base CSR (both
        directions), tombstone masks, and the flattened add-log — so a
        bit flip landing in any of them between updates is caught at
        the next borrow.  Without ``names`` every array is sealed into
        a fresh store (promotion, compaction: the base changed); with
        ``names`` only those seals are recomputed, so the rest keep
        guarding what they sealed.  No-op when checksums are off.
        """
        if self.checksums is None:
            return
        arrays = self.integrity_arrays()
        if names is None:
            from ..integrity import ChecksummedArrays

            self.checksums = ChecksummedArrays()
            names = arrays
        for name in names:
            self.checksums.seal(name, arrays[name])

    # -- cached derived artifacts ---------------------------------------
    def ensure_transpose(self) -> None:
        """Build (and time) the transpose CSR once; later calls hit the
        cache on the graph object."""
        self._check_open()
        if self.graph._in_indptr is not None:
            self.stats.transpose_reuses += 1
            return
        t0 = time.perf_counter()
        self.graph.in_indptr
        self.stats.transpose_seconds += time.perf_counter() - t0
        if self.checksums is not None and self._delta is None:
            self.checksums.seal("in_indptr", self.graph._in_indptr)
            self.checksums.seal("in_indices", self.graph._in_indices)

    def effective_degrees(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(out_degrees, in_degrees)`` of the full graph."""
        self._check_open()
        if self._degrees is None:
            t0 = time.perf_counter()
            self.ensure_transpose()
            self._degrees = (
                self.graph.out_degrees(),
                self.graph.in_degrees(),
            )
            self.stats.degrees_seconds += time.perf_counter() - t0
            if self.checksums is not None and self._delta is None:
                self.checksums.seal("out_degrees", self._degrees[0])
                self.checksums.seal("in_degrees", self._degrees[1])
        return self._degrees

    # -- integrity ------------------------------------------------------
    @property
    def proofs(self):
        """This graph version's :class:`~repro.integrity.certify.
        ProofLedger` (created on first use), counting into
        :attr:`stats`.

        It trusts the graph exactly as far as the sidecars do, like the
        cached transpose and degrees: a version's arrays are read-only
        and checked at borrow and ``run:final``, and every applied
        update starts a new version.  Compaction keeps it (the edge set
        is unchanged).
        """
        self._check_open()
        if self._proofs is None:
            from ..integrity.certify import ProofLedger

            self._proofs = ProofLedger(self.stats)
        return self._proofs

    def integrity_arrays(self) -> dict:
        """Name -> array for every sealable artifact materialized so
        far (the ``corrupt`` fault kind targets these same names)."""
        if self._delta is not None:
            fwd = self._delta.forward_view()
            bwd = self._delta.backward_view()
            return {
                "indptr": fwd[0],
                "indices": fwd[1],
                "tomb": fwd[2],
                "add_indptr": fwd[3],
                "add_indices": fwd[4],
                "in_indptr": bwd[0],
                "in_indices": bwd[1],
                "tomb_in": bwd[2],
                "add_in_indptr": bwd[3],
                "add_in_indices": bwd[4],
            }
        arrays = {
            "indptr": self.graph.indptr,
            "indices": self.graph.indices,
        }
        if self.graph._in_indptr is not None:
            arrays["in_indptr"] = self.graph._in_indptr
            arrays["in_indices"] = self.graph._in_indices
        if self._degrees is not None:
            arrays["out_degrees"] = self._degrees[0]
            arrays["in_degrees"] = self._degrees[1]
        return arrays

    def verify_integrity(self, *, context: str = "") -> int:
        """Verify every sealed session array against its sidecar.

        No-op (returns 0) when checksums are off.  Raises
        :class:`~repro.errors.IntegrityError` on the first mismatch;
        the failure is counted so a quarantined session's stats still
        tell the story after it is evicted.
        """
        if self.checksums is None:
            return 0
        self._check_open()
        try:
            checked = self.checksums.verify_all(
                self.integrity_arrays(), context=context
            )
        except Exception:
            self.stats.integrity_failures += 1
            raise
        self.stats.integrity_verifications += checked
        return checked

    def validate(self) -> None:
        """Structural validation, at most once per session."""
        self._check_open()
        if self._validated:
            return
        from ..graph.validate import validate_graph

        t0 = time.perf_counter()
        validate_graph(self.graph)
        self.stats.validate_seconds += time.perf_counter() - t0
        self._validated = True

    def warmup(
        self, *, processes: bool = False, num_workers: int = 2
    ) -> "GraphSession":
        """Eagerly pay the setup this session would otherwise pay on its
        first run: transpose, degrees, and (optionally) the worker pool."""
        self.ensure_transpose()
        self.effective_degrees()
        if processes and fork_available():
            self.executor_resources(num_workers=num_workers)
        return self

    # -- warm executor resources ----------------------------------------
    def executor_resources(
        self,
        *,
        num_workers: int = 2,
        faults=None,
        kernel_backend: Optional[str] = None,
    ) -> Tuple[SharedStateMirror, WorkerPool]:
        """The session's shared mirror and warm pool, (re)armed for the
        requested configuration.

        The pool persists across runs; it is respawned only when the
        fork-inherited configuration changes — a different worker
        count, kernel backend, or fault plan.  Everything else a run
        varies (method, seed, queue contents) flows through the shared
        mirror, which workers re-read on every task.
        """
        self._check_open()
        from ..kernels import get_backend

        if kernel_backend is None:
            kernel_backend = get_backend()
        self.ensure_transpose()  # workers must inherit it copy-on-write
        if self._mirror is None:
            self._mirror = SharedStateMirror(self.graph.num_nodes)
        signature = (num_workers, kernel_backend, faults)
        if (
            self._pool is not None
            and self._pool.alive  # a condemned pool is replaced
            and signature == self._pool_signature
        ):
            self.stats.pool_reuses += 1
            return self._mirror, self._pool
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None

        mirror = self._mirror

        def arm() -> None:
            arm_worker_context(
                self.graph,
                mirror,
                cost=self.cost,
                faults=faults,
                kernel_backend=kernel_backend,
            )

        pool = WorkerPool(num_workers, arm=arm)
        t0 = time.perf_counter()
        pool.start()
        self.stats.pool_spawn_seconds += time.perf_counter() - t0
        self.stats.pool_spawns += 1
        self._pool = pool
        self._pool_signature = signature
        return mirror, pool

    @property
    def pool(self) -> Optional[WorkerPool]:
        return self._pool

    def release_pool(self) -> bool:
        """Condemn and tear down the warm pool (keep everything else).

        The memory governor's cheapest pressure-relief step: the next
        process-backed run pays one respawn, but the graph, transpose
        and mirror stay warm.  Returns True when a pool was released.
        """
        if self._pool is None:
            return False
        self._pool.terminate()
        self._pool = None
        self._pool_signature = None
        return True

    def estimated_bytes(self) -> int:
        """Approximate bytes this session pins (cache + shm + workers).

        Counts the CSR arrays actually materialized (graph, transpose),
        the cached degree arrays, the proof ledger's labels copy, the
        shared mirror, and a nominal per-worker overhead for a live
        pool — the currency the memory governor trades in when
        deciding what to evict.
        """
        from ..runtime.cost import DEFAULT_MEMORY_MODEL as mm

        g = self.graph
        if self._delta is not None:
            # Base CSR (both directions) + tombstones + add-log, plus
            # the cached merged snapshot currently being served.
            total = self._delta.nbytes()
            total += g.indptr.nbytes + g.indices.nbytes
            if g._in_indptr is not None:
                total += g._in_indptr.nbytes + g._in_indices.nbytes
        else:
            total = g.indptr.nbytes + g.indices.nbytes
            if g._in_indptr is not None:
                total += g._in_indptr.nbytes + g._in_indices.nbytes
        if self._degrees is not None:
            total += sum(a.nbytes for a in self._degrees)
        if self._proofs is not None:
            total += self._proofs.nbytes
        if self._mirror is not None:
            total += int(mm.mirror_bytes_per_node * g.num_nodes)
        if self._pool is not None:
            total += int(mm.worker_bytes * self._pool.num_workers)
        return int(total)

    def note_run(self, *, warm: bool) -> None:
        """Record one served run (``warm`` = every artifact reused)."""
        self.stats.runs += 1
        if warm:
            self.stats.warm_runs += 1

    # -- lifecycle ------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the pool, the shared-memory segments and the proof
        ledger (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._proofs = None
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None
        if self._mirror is not None:
            self._mirror.close()
            self._mirror = None

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "anonymous"
        return (
            f"GraphSession({label!r}, n={self.graph.num_nodes}, "
            f"fingerprint={self.fingerprint:#010x}, "
            f"runs={self.stats.runs})"
        )
