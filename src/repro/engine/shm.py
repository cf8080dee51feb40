"""Shared-memory plumbing for the supervised process executor.

Three pieces of setup live here: shared-memory mirrors of the
:class:`~repro.core.state.SCCState` arrays, the fork-inherited worker
context, and the guarantee that segments are unlinked on every exit
path.  The supervisor's ephemeral pools and the warm
:class:`~repro.engine.session.GraphSession` pools both build on it.

Two guarantees the helpers here uphold:

* **no leaked segments** — every segment is appended to its registry
  *before* anything else can fail, and :meth:`SharedStateMirror.close`
  unlinks whatever was actually created, so a crash half-way through
  construction (or mid-run) never leaves a segment behind until
  reboot;
* **one worker context** — :data:`WORKER_CTX` is the single
  fork-inherited channel to worker processes.  It is armed immediately
  before a pool forks and cleared right after (workers keep their
  inherited copy), so concurrent arming bugs surface as an empty
  context, not as cross-talk between runs.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

__all__ = [
    "WORKER_CTX",
    "shm_array",
    "SharedStateMirror",
    "arm_worker_context",
    "disarm_worker_context",
]

#: Fork-inherited worker context (set immediately before fork).
WORKER_CTX: dict = {}


def shm_array(shape, dtype, init: np.ndarray, registry: list) -> np.ndarray:
    """Create a shared segment backing a copy of ``init``.

    The segment is appended to ``registry`` *before* anything else can
    fail, so the caller's ``finally`` block always sees (and unlinks)
    every segment that was actually created — an exception between
    creation and registration would otherwise leak it until reboot.
    """
    shm = shared_memory.SharedMemory(create=True, size=max(init.nbytes, 1))
    registry.append(shm)
    arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    arr[:] = init
    return arr


class SharedStateMirror:
    """Shared-memory mirrors of the SCCState mutable arrays + counters.

    One mirror serves many runs over the same graph: the segments are
    sized once for ``num_nodes`` and reused — :meth:`load` copies a
    state's arrays in before a phase, :meth:`flush` copies the results
    back after it.  Worker processes map the same segments through the
    fork-inherited context, so a warm pool keeps working across runs
    without re-arming.
    """

    ARRAYS = ("color", "mark", "labels", "phase_of")

    def __init__(self, num_nodes: int) -> None:
        n = int(num_nodes)
        self.num_nodes = n
        self._shms: list = []
        self._closed = False
        try:
            self.color = shm_array(
                (n,), np.int64, np.zeros(n, np.int64), self._shms
            )
            self.mark = shm_array(
                (n,), np.bool_, np.zeros(n, np.bool_), self._shms
            )
            self.labels = shm_array(
                (n,), np.int64, np.zeros(n, np.int64), self._shms
            )
            self.phase_of = shm_array(
                (n,), np.int8, np.zeros(n, np.int8), self._shms
            )
            #: SCC id allocator shared with the workers.
            self.scc_counter = mp.Value("q", 0)
            #: colour allocator shared with the workers.
            self.color_counter = mp.Value("q", 0)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def load(self, state) -> None:
        """Copy ``state``'s mutable arrays + counters into the mirror."""
        if self._closed:
            raise RuntimeError("mirror is closed")
        if state.num_nodes != self.num_nodes:
            raise ValueError(
                f"state has {state.num_nodes} nodes but this mirror was "
                f"sized for {self.num_nodes}"
            )
        self.color[:] = state.color
        self.mark[:] = state.mark
        self.labels[:] = state.labels
        self.phase_of[:] = state.phase_of
        self.scc_counter.value = state.num_sccs
        self.color_counter.value = int(state.color_watermark())

    def flush(self, state) -> None:
        """Copy the mirror (mutated by workers) back into ``state``."""
        if self._closed:
            raise RuntimeError("mirror is closed")
        state.color[:] = self.color
        state.mark[:] = self.mark
        state.labels[:] = self.labels
        state.phase_of[:] = self.phase_of
        state.sync_counters(
            int(self.scc_counter.value), int(self.color_counter.value)
        )

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close and unlink every segment (idempotent, never raises for
        segments that are already gone)."""
        if self._closed:
            return
        self._closed = True
        for shm in self._shms:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._shms.clear()

    def __enter__(self) -> "SharedStateMirror":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def arm_worker_context(
    graph,
    mirror: SharedStateMirror,
    *,
    cost,
    faults=None,
    kernel_backend: Optional[str] = None,
) -> None:
    """Populate :data:`WORKER_CTX` for an imminent pool fork.

    The read-only CSR ``graph`` rides along copy-on-write; the mutable
    arrays and counters come from ``mirror``'s shared segments; the
    kernel backend pins the parent's resolved choice so workers stay
    honest even if the pool ever re-execs instead of forking.
    """
    if kernel_backend is None:
        from ..kernels import get_backend

        kernel_backend = get_backend()
    WORKER_CTX.clear()
    WORKER_CTX.update(
        graph=graph,
        color=mirror.color,
        mark=mirror.mark,
        labels=mirror.labels,
        phase_of=mirror.phase_of,
        scc_counter=mirror.scc_counter,
        cost=cost,
        faults=faults,
        kernel_backend=kernel_backend,
    )


def disarm_worker_context() -> None:
    """Clear :data:`WORKER_CTX` (workers keep their forked copy)."""
    WORKER_CTX.clear()
