"""GIL-free execution: what a supervised worker runs for one unit.

The calibration note for this reproduction says it plainly: "GIL
blocks shared-memory parallel BFS".  Threads cannot run the paper's
algorithms in parallel under CPython, but processes sharing their
mutable state through :mod:`multiprocessing.shared_memory` can — the
``Color``/``mark``/``labels`` arrays live in a shared segment, worker
processes execute Recur-FWBW tasks against them exactly as the
paper's OpenMP threads would, and the disjoint-partition property
(tasks own disjoint colours) provides the same race freedom.

Scope: the task-parallel phase 2 (where the paper's work queue lives).
Phase 1's data-parallel kernels are single large vectorized NumPy
calls, which already release the GIL internally where it matters.

A worker holds no Recur-FWBW body of its own: :func:`exec_unit` runs
the serial bodies (:func:`repro.core.recurfwbw.run_unit`) against a
:class:`WorkerState` — the slice of :class:`~repro.core.state.SCCState`
those bodies touch, backed by the shared mirror and the
master-supervised bookkeeping.  The dispatch loop is the supervisor's
(:mod:`repro.runtime.supervisor`); the shared-memory mirror,
worker-context arming and pool lifecycle live in
:mod:`repro.engine.shm` / :mod:`repro.engine.pool`.

Requires a ``fork`` start method (the read-only CSR graph is inherited
copy-on-write; only the mutable arrays use explicit shared memory).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..engine.shm import WORKER_CTX

__all__ = ["WorkerState", "exec_unit"]


class WorkerState:
    """The state a worker runs the serial task bodies against.

    It keeps the supervised executor's contract:

    * the pivot is the first candidate (deterministic within a task);
    * colour triples are the ones the master pre-allocated per member
      (``member.triple``), so after a failed attempt the master knows
      exactly which colours may have leaked into the shared array
      (:func:`~repro.runtime.supervisor.repair_partition`);
    * SCC ids come from the shared counter;
    * task log entries are collected in :attr:`log` and go back to
      the master.

    The task-site faults fire here: ``mid`` on entry to the SCC commit
    (after the FW/BW recolouring), ``poison`` right after it.
    """

    def __init__(self, members: Sequence) -> None:
        ctx = WORKER_CTX
        self.graph = ctx["graph"]
        self.color: np.ndarray = ctx["color"]
        self.cost = ctx["cost"]
        self.num_nodes = self.color.shape[0]
        self.faults = ctx.get("faults")
        self._ctx = ctx
        self._by_color = {t.color: t for t in members}
        self._live: List = []
        self._pivots: List[int] = []
        #: ``(scc, fw, bw, remain)`` per task, in execution order.
        self.log: List[tuple] = []

    @property
    def profile(self) -> "WorkerState":
        return self  # the bodies log through ``state.profile.log_task``

    def log_task(self, scc: int, fw: int, bw: int, remain: int) -> None:
        self.log.append((scc, fw, bw, remain))

    def pick(self, candidates: np.ndarray, strategy: str) -> int:
        return self.pick_many([candidates], strategy)[0]

    def pick_many(self, candidate_sets, strategy: str) -> List[int]:
        self._pivots = [int(c[0]) for c in candidate_sets]
        return self._pivots

    def alloc_colour_triple(self, skip: int) -> tuple:
        return self.alloc_colour_triples([skip])[0]

    def alloc_colour_triples(self, skips) -> List[tuple]:
        # Members own pairwise-distinct colours, so a partition colour
        # names its member: the live ones, in body order.
        self._live = [self._by_color[int(c)] for c in skips]
        return [t.triple for t in self._live]

    def mark_scc(self, nodes: np.ndarray, phase: int) -> int:
        return self.mark_sccs(nodes, np.array([nodes.size]), phase)

    def mark_sccs(
        self, nodes: np.ndarray, sizes: np.ndarray, phase: int
    ) -> int:
        faults = self.faults
        if faults is not None:
            # "mid": the partitions are recoloured, no SCC committed.
            for t in self._live:
                faults.fire("task", t.seq, stage="mid", attempt=t.attempt)
        counter = self._ctx["scc_counter"]
        with counter.get_lock():
            base = counter.value
            counter.value += len(sizes)
        labels = self._ctx["labels"]
        labels[nodes] = np.repeat(
            np.arange(base, base + len(sizes), dtype=np.int64), sizes
        )
        self._ctx["mark"][nodes] = True
        self.color[nodes] = -1  # DONE_COLOR
        self._ctx["phase_of"][nodes] = phase
        if faults is not None:
            for k, t in enumerate(self._live):
                if faults.poison("task", t.seq, t.attempt):
                    # Corrupt the committed label write: detach the
                    # pivot from its SCC-mates (or merge a singleton
                    # into a foreign SCC) — wrong either way, and only
                    # a label-level verifier can tell.
                    sid = base + k
                    labels[self._pivots[k]] = (
                        sid + 1 if sid == 0 else sid - 1
                    )
        return base


def exec_unit(unit):
    """Run one planned unit (a supervised task, or a batch run of
    them) inside a worker process.

    Returns ``(results, log)``: the per-member ``(children,
    task_cost)`` list aligned with the unit, and the task log entries
    for the master to record.  ``pre`` and ``post`` task-site faults
    fire around the body for every member — "post": SCCs committed,
    the children are lost with the worker.
    """
    from .. import kernels
    from ..core.recurfwbw import run_unit

    members = unit if isinstance(unit, list) else [unit]
    state = WorkerState(members)
    backend = WORKER_CTX.get("kernel_backend")
    if backend is not None:
        # Fork inheritance already carries the parent's choice; setting
        # it explicitly keeps the worker honest even if the pool ever
        # re-execs instead of forking.
        kernels.set_backend(backend)
    faults = state.faults
    if faults is not None:
        for t in members:
            faults.fire("task", t.seq, stage="pre", attempt=t.attempt)
    _, results = run_unit(state, unit)
    if faults is not None:
        for t in members:
            faults.fire("task", t.seq, stage="post", attempt=t.attempt)
    return results, state.log
