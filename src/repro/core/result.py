"""SCC detection results.

Output is an O(N) label array rather than a collection of node sets
(DESIGN.md §5): labels are cheap, comparable across algorithms after
canonicalization, and the histogram / giant-fraction statistics the
paper reports all fall out of one ``bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from ..runtime.metrics import ExecutionProfile

__all__ = ["canonical_labels", "same_partition", "RunReport", "SCCResult"]


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel SCC ids by first node occurrence (order-independent form).

    Two label arrays describe the same partition iff their canonical
    forms are equal.
    """
    labels = np.asarray(labels)
    _, first_pos, inverse = np.unique(
        labels, return_index=True, return_inverse=True
    )
    # rank unique labels by their first occurrence position
    rank = np.empty(first_pos.shape[0], dtype=np.int64)
    rank[np.argsort(first_pos, kind="stable")] = np.arange(
        first_pos.shape[0], dtype=np.int64
    )
    return rank[inverse]


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff two label arrays induce the same node partition."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(canonical_labels(a), canonical_labels(b)))


@dataclass
class RunReport:
    """What a checkpointed, phase-bounded or resumed pipeline run did.

    Attached to :attr:`SCCResult.lifecycle` by
    :meth:`repro.engine.Engine.run` and :meth:`repro.engine.Engine.
    resume` once the final invariant gate has passed.
    """

    #: phases executed by this call, in plan order.
    phases_run: List[str] = field(default_factory=list)
    #: checkpoint files written by this call.
    checkpoints: List[str] = field(default_factory=list)
    #: checkpoint the run resumed from (None for a fresh run).
    resumed_from: Optional[str] = None
    #: first phase the resumed run executed (None: it was complete).
    resumed_phase: Optional[str] = None
    #: the gate also compared the labels against a Tarjan run.
    cross_checked: bool = False


@dataclass
class SCCResult:
    """The outcome of one SCC-detection run."""

    #: SCC id per node.
    labels: np.ndarray
    #: algorithm name ("tarjan", "baseline", "method1", "method2", ...).
    method: str
    #: execution profile with the work trace (None for plain baselines
    #: run without tracing).
    profile: ExecutionProfile | None = None
    #: phase id per node (Figure 8); -1 when not applicable.
    phase_of: np.ndarray | None = None
    #: lifecycle report of a checkpointed or resumed engine run.
    lifecycle: RunReport | None = None
    _sizes: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_sccs(self) -> int:
        return int(self.labels.max() + 1) if self.labels.size else 0

    def sizes(self) -> np.ndarray:
        """SCC sizes indexed by label id (cached)."""
        if self._sizes is None:
            self._sizes = np.bincount(self.labels, minlength=self.num_sccs)
        return self._sizes

    def largest_scc_size(self) -> int:
        sizes = self.sizes()
        return int(sizes.max()) if sizes.size else 0

    def giant_fraction(self) -> float:
        n = self.labels.shape[0]
        return self.largest_scc_size() / n if n else 0.0

    def size_histogram(self) -> Dict[int, int]:
        """``{scc_size: count}`` — the Figure 2 / Figure 9 data."""
        sizes = self.sizes()
        values, counts = np.unique(sizes[sizes > 0], return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def to_sets(self) -> List[Set[int]]:
        """Explicit node sets (small graphs / examples only)."""
        out: Dict[int, Set[int]] = {}
        for node, lab in enumerate(self.labels.tolist()):
            out.setdefault(lab, set()).add(node)
        return list(out.values())

    def simulate(self, threads: int, machine=None) -> float:
        """Simulated execution time of this run at ``threads`` threads.

        Convenience wrapper over
        :meth:`repro.runtime.machine.Machine.simulate`; requires the
        run to have been traced (all library algorithms are).
        """
        if self.profile is None:
            raise ValueError("this result carries no execution profile")
        from ..runtime.machine import Machine

        machine = machine or Machine()
        return machine.simulate(self.profile.trace, threads).total_time

    def speedup_over(self, other: "SCCResult", threads: int, machine=None) -> float:
        """Speedup of this run vs. ``other`` (typically Tarjan's) when
        this run uses ``threads`` threads and ``other`` runs serially."""
        from ..runtime.machine import Machine

        machine = machine or Machine()
        return other.simulate(1, machine) / self.simulate(threads, machine)

    def phase_fractions(self) -> Dict[str, float]:
        """Fraction of nodes identified per phase (Figure 8)."""
        from .state import PHASE_NAMES

        if self.phase_of is None:
            return {}
        n = self.phase_of.shape[0]
        return {
            name: float((self.phase_of == pid).sum()) / n
            for pid, name in PHASE_NAMES.items()
        }
