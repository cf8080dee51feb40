"""Shared algorithm state: the ``Color`` and ``mark`` arrays.

Section 4.1: the CSR graph is never mutated.  Instead, ``mark`` (an
O(N) boolean array) flags nodes whose SCC has been identified —
"setting the mark value of a node has the same effect as removing the
node" — and ``Color`` (an O(N) integer array) encodes the current
partitioning: nodes of different colours are considered disconnected
even when an edge exists between them.

:class:`SCCState` adds the reproduction's bookkeeping on top: the
output label array, per-node phase attribution (Figure 8), the work
trace, the execution profile, and a seeded RNG for pivot selection.
A state belongs to one run on one thread: the supervised executor's
workers mutate shared-memory mirrors of its arrays, never the object.

Invariant maintained throughout: **a marked node's colour is
``DONE_COLOR`` (-1)**, which no active partition ever uses, so a
traversal that filters by colour equality automatically prunes at
detached nodes without consulting ``mark``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..errors import ReproError
from ..graph import CSRGraph
from ..kernels import sorted_unique
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from ..runtime.metrics import ExecutionProfile

__all__ = [
    "SCCState",
    "StateSnapshot",
    "StateInvariantError",
    "check_complete_labels",
    "skip_colour_triple",
    "DONE_COLOR",
    "PHASE_TRIM",
    "PHASE_TRIM2",
    "PHASE_FWBW",
    "PHASE_RECUR",
    "PHASE_NAMES",
]

#: colour of detached (marked) nodes; never allocated to a partition.
DONE_COLOR = -1

#: Figure 8 phase attribution ids.
PHASE_TRIM = 0
PHASE_TRIM2 = 1
PHASE_FWBW = 2
PHASE_RECUR = 3
PHASE_COLORING = 4  # extension comparators (coloring / MultiStep)
PHASE_NAMES = {
    PHASE_TRIM: "trim",
    PHASE_TRIM2: "trim2",
    PHASE_FWBW: "par_fwbw",
    PHASE_RECUR: "recur_fwbw",
    PHASE_COLORING: "coloring",
}


def skip_colour_triple(
    start: int, skip: int
) -> tuple[tuple[int, int, int], int]:
    """Allocate three consecutive colours from ``start``, skipping ``skip``.

    Returns ``((cfw, cbw, cscc), next_start)``.  Every Recur-FWBW task
    needs three fresh colours distinct from its own partition colour
    ``skip``: the BW transition map ``{c: cbw, cfw: cscc}`` is only
    well-defined when no target colour is also a source (kernel-layer
    contract — a collision would let the traversal re-visit freshly
    recoloured nodes).  Collisions only arise when callers painted
    colours at or above the allocator's watermark by hand; skipping
    costs nothing in the normal pipelines.

    This is the one allocation sequence shared by both executors: the
    serial driver calls it through
    :meth:`SCCState.alloc_colour_triple`, the supervisor's master loop
    on its privately owned counter.
    """
    triple = []
    nxt = start
    while len(triple) < 3:
        if nxt != skip:
            triple.append(nxt)
        nxt += 1
    return (triple[0], triple[1], triple[2]), nxt


class StateInvariantError(ReproError, RuntimeError):
    """Raised when :meth:`SCCState.check_invariants` finds corruption."""

    exit_code = 15


def check_complete_labels(
    labels: np.ndarray, phase_of: np.ndarray, num_sccs: int | None = None
) -> None:
    """The completion half of :meth:`SCCState.check_invariants`, on a
    finished run's arrays: every node carries an SCC label and a phase
    attribution, and the label ids are exactly ``0 .. num_sccs-1``
    (``num_sccs`` defaults to the number of distinct labels)."""
    unresolved = int(np.count_nonzero(labels < 0))
    if unresolved:
        raise StateInvariantError(f"{unresolved} nodes still unresolved")
    if np.any(phase_of < 0):
        raise StateInvariantError("labelled node without phase attribution")
    if labels.size:
        ids = sorted_unique(labels)
        k = ids.size if num_sccs is None else num_sccs
        if ids[0] != 0 or ids[-1] != k - 1 or ids.size != k:
            raise StateInvariantError(
                f"label ids not dense: {ids.size} distinct ids, "
                f"range [{ids[0]}, {ids[-1]}], num_sccs={k}"
            )


@dataclass(frozen=True)
class StateSnapshot:
    """A consistent copy of the mutable arrays and counters.

    The fault-tolerant executor captures one before the task phase so
    it can roll the state back and degrade to the serial driver when
    the process pool is beyond repair (see
    :mod:`repro.runtime.supervisor`).
    """

    color: np.ndarray
    mark: np.ndarray
    labels: np.ndarray
    phase_of: np.ndarray
    next_color: int
    num_sccs: int


class SCCState:
    """Mutable state threaded through one SCC-detection run."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        seed: int | None = 0,
        cost: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        n = graph.num_nodes
        self.graph = graph
        self.color = np.zeros(n, dtype=np.int64)
        self.mark = np.zeros(n, dtype=bool)
        #: SCC id per node; -1 until identified.
        self.labels = np.full(n, -1, dtype=np.int64)
        #: phase id (PHASE_*) that identified each node's SCC.
        self.phase_of = np.full(n, -1, dtype=np.int8)
        self.cost = cost
        self.profile = ExecutionProfile()
        self.rng = np.random.default_rng(seed)
        self._next_color = 1
        self._num_sccs = 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_sccs(self) -> int:
        return self._num_sccs

    @property
    def trace(self):
        return self.profile.trace

    def new_color(self) -> int:
        """Allocate a fresh partition colour."""
        c = self._next_color
        self._next_color += 1
        return c

    def new_colors(self, count: int) -> np.ndarray:
        """Allocate ``count`` consecutive colours."""
        base = self._next_color
        self._next_color += count
        return np.arange(base, base + count, dtype=np.int64)

    def alloc_colour_triple(self, skip: int) -> tuple[int, int, int]:
        """Allocate a task's ``(cfw, cbw, cscc)`` triple, skipping
        ``skip``; see :func:`skip_colour_triple`."""
        triple, self._next_color = skip_colour_triple(
            self._next_color, skip
        )
        return triple

    def alloc_colour_triples(
        self, skips: Iterable[int]
    ) -> list[tuple[int, int, int]]:
        """Allocate one ``(cfw, cbw, cscc)`` triple per entry of
        ``skips``.

        The triples come out of the same sequential
        :func:`skip_colour_triple` chain the per-task
        :meth:`alloc_colour_triple` walks, so a batch of *k* tasks
        consumes exactly the colours *k* sequential calls would — the
        property that keeps the batched phase-2 path bit-identical to
        the per-pivot one.
        """
        out: list[tuple[int, int, int]] = []
        nxt = self._next_color
        for skip in skips:
            triple, nxt = skip_colour_triple(nxt, skip)
            out.append(triple)
        self._next_color = nxt
        return out

    # ------------------------------------------------------------------
    def mark_scc(self, nodes: np.ndarray | Iterable[int], phase: int) -> int:
        """Detach ``nodes`` as one SCC; returns its label."""
        nodes = np.asarray(
            nodes if isinstance(nodes, np.ndarray) else list(nodes),
            dtype=np.int64,
        )
        if nodes.size == 0:
            raise ValueError("an SCC cannot be empty")
        sid = self._num_sccs
        self._num_sccs += 1
        self.labels[nodes] = sid
        self.mark[nodes] = True
        self.color[nodes] = DONE_COLOR
        self.phase_of[nodes] = phase
        return sid

    def mark_sccs(
        self, nodes: np.ndarray, sizes: np.ndarray, phase: int
    ) -> int:
        """Detach several SCCs at once; returns the first label.

        ``nodes`` is the concatenation of the member arrays and
        ``sizes`` the per-SCC lengths (all positive).  SCC *i* of the
        batch receives label ``base + i`` — the ids *k* sequential
        :meth:`mark_scc` calls would have handed out — with one scatter
        per array instead of *k*.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size == 0:
            raise ValueError("mark_sccs needs at least one SCC")
        if (sizes <= 0).any():
            raise ValueError("an SCC cannot be empty")
        if int(sizes.sum()) != nodes.size:
            raise ValueError(
                f"sizes sum to {int(sizes.sum())} but {nodes.size} "
                f"nodes were given"
            )
        base = self._num_sccs
        self._num_sccs += int(sizes.size)
        self.labels[nodes] = np.repeat(
            np.arange(base, base + sizes.size, dtype=np.int64), sizes
        )
        self.mark[nodes] = True
        self.color[nodes] = DONE_COLOR
        self.phase_of[nodes] = phase
        return base

    def mark_singletons(self, nodes: np.ndarray, phase: int) -> None:
        """Detach each node of ``nodes`` as its own size-1 SCC (vectorized)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return
        base = self._num_sccs
        self._num_sccs += int(nodes.size)
        self.labels[nodes] = np.arange(
            base, base + nodes.size, dtype=np.int64
        )
        self.mark[nodes] = True
        self.color[nodes] = DONE_COLOR
        self.phase_of[nodes] = phase

    def mark_pairs(self, a: np.ndarray, b: np.ndarray, phase: int) -> None:
        """Detach each ``(a[i], b[i])`` pair as a size-2 SCC (vectorized)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != b.shape:
            raise ValueError("pair arrays must have equal shape")
        if a.size == 0:
            return
        base = self._num_sccs
        self._num_sccs += int(a.size)
        ids = np.arange(base, base + a.size, dtype=np.int64)
        for arr in (a, b):
            self.labels[arr] = ids
            self.mark[arr] = True
            self.color[arr] = DONE_COLOR
            self.phase_of[arr] = phase

    def color_watermark(self) -> int:
        """The next colour value that would be allocated (no bump)."""
        return self._next_color

    def sync_counters(self, num_sccs: int, next_color: int) -> None:
        """Adopt counter values produced by an external executor
        (the multiprocessing backend runs its own shared counters)."""
        if num_sccs < self._num_sccs or next_color < self._next_color:
            raise ValueError("counters may only move forward")
        self._num_sccs = num_sccs
        self._next_color = next_color

    def pick(self, candidates: np.ndarray, strategy: str) -> int:
        """Pivot selection through the state's seeded RNG."""
        from .pivot import choose_pivot  # local import avoids a cycle

        return choose_pivot(candidates, strategy, self.rng, self.graph)

    def pick_many(self, candidate_sets, strategy: str) -> list[int]:
        """One pivot per candidate set.

        Draws from the RNG in list order — exactly the sequence that
        many :meth:`pick` calls would consume, which keeps the batched
        phase-2 path's pivots bit-identical to the per-pivot path's.
        """
        from .pivot import choose_pivot  # local import avoids a cycle

        return [
            choose_pivot(c, strategy, self.rng, self.graph)
            for c in candidate_sets
        ]

    # ------------------------------------------------------------------
    def active_nodes(self) -> np.ndarray:
        """Unmarked node ids (a full O(N) scan — callers record it)."""
        return np.flatnonzero(~self.mark)

    def unfinished(self) -> int:
        """Count of nodes whose SCC is not yet identified."""
        return int(self.num_nodes - self.mark.sum())

    def check_done(self) -> None:
        """Raise if any node is left without a label (algorithm bug)."""
        missing = int((self.labels < 0).sum())
        if missing:
            raise RuntimeError(
                f"{missing} nodes left unlabelled after SCC detection"
            )

    # ------------------------------------------------------------------
    def rng_state(self) -> dict:
        """JSON-serializable snapshot of the pivot RNG.

        Restoring it with :meth:`set_rng_state` continues the exact
        pivot sequence — the property that makes a checkpointed run
        resume bit-identically to an uninterrupted one.
        """
        return copy.deepcopy(self.rng.bit_generator.state)

    def set_rng_state(self, st: dict) -> None:
        """Restore an RNG snapshot taken by :meth:`rng_state`."""
        self.rng.bit_generator.state = copy.deepcopy(st)

    # ------------------------------------------------------------------
    def snapshot(self) -> StateSnapshot:
        """Copy the mutable arrays + counters (rollback point)."""
        return StateSnapshot(
            color=self.color.copy(),
            mark=self.mark.copy(),
            labels=self.labels.copy(),
            phase_of=self.phase_of.copy(),
            next_color=self._next_color,
            num_sccs=self._num_sccs,
        )

    def restore(self, snap: StateSnapshot) -> None:
        """Roll the state back to ``snap`` (counters may move backward:
        this discards everything a failed executor did)."""
        self.color[:] = snap.color
        self.mark[:] = snap.mark
        self.labels[:] = snap.labels
        self.phase_of[:] = snap.phase_of
        self._next_color = snap.next_color
        self._num_sccs = snap.num_sccs

    # ------------------------------------------------------------------
    def check_invariants(
        self, *, require_complete: bool = True, cross_check: bool = False
    ) -> None:
        """Prove the label state is consistent; raise otherwise.

        Structural checks (O(N) / O(N log N)):

        * ``mark`` and ``color == DONE_COLOR`` agree exactly (the
          module-docstring invariant);
        * every marked node has a label and a phase attribution;
        * no unmarked node has a label;
        * with ``require_complete`` every node is marked and the label
          ids are exactly ``0 .. num_sccs-1`` with no holes.

        With ``cross_check`` the labels are additionally compared
        against an independent Tarjan run (O(N + M)) — the recovery
        path uses this so a degraded or retried run is *proven* to have
        produced the true SCC partition, never assumed.
        """
        detached = self.color == DONE_COLOR
        if not np.array_equal(self.mark, detached):
            bad = int(np.count_nonzero(self.mark != detached))
            raise StateInvariantError(
                f"{bad} nodes where mark and DONE_COLOR disagree"
            )
        if np.any(self.labels[self.mark] < 0):
            raise StateInvariantError("marked node without an SCC label")
        if np.any(self.phase_of[self.mark] < 0):
            raise StateInvariantError("marked node without phase attribution")
        if np.any(self.labels[~self.mark] >= 0):
            raise StateInvariantError("unmarked node carries an SCC label")
        if require_complete:
            # marked <=> labelled by now, so the bare-array check applies
            check_complete_labels(self.labels, self.phase_of, self._num_sccs)
        if cross_check and self.num_nodes:
            from .result import same_partition  # local: avoids a cycle
            from .tarjan import tarjan_scc

            if not same_partition(self.labels, tarjan_scc(self.graph)):
                raise StateInvariantError(
                    "labels disagree with the Tarjan oracle partition"
                )
