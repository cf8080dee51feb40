"""Admission control: bounded intake with load shedding and a memory
cost-model check.

The front door of the hardening stack.  Everything the service accepts
it must eventually pay for in worker time and resident memory, and SCC
workloads are wildly heterogeneous per graph (the paper's Table 1
spans two orders of magnitude), so two independent gates run *before*
any work starts:

* **Queue-depth shedding** — :class:`AdmissionController` tracks how
  many admitted requests are queued or in flight.  Past ``max_queue``
  it refuses with :class:`~repro.errors.ServiceOverloadError` (exit
  17) instead of queueing unboundedly: a saturated service answers
  "retry later" in microseconds rather than timing everyone out.
  :meth:`AdmissionController.drain` flips the same gate permanently
  for graceful shutdown (in-flight work finishes, new work sheds).

* **Cost-model refusal** — when the request's graph size is known (an
  already-warm session, an explicit ``nodes``/``edges`` hint, or an
  edge-list file we can cheaply size), the
  :class:`~repro.runtime.cost.MemoryModel` estimates the run's peak
  bytes; estimates above ``memory_budget_bytes`` are refused with
  :class:`~repro.errors.MemoryBudgetError` (exit 18) — a typed "this
  graph does not fit here" beats an OOM kill halfway through loading.

Admission is a context manager::

    with controller.admit(nodes=n, edges=m, backend="supervised"):
        ...   # run; the slot is released on every exit path
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import MemoryBudgetError, ServiceOverloadError
from ..runtime.cost import DEFAULT_MEMORY_MODEL, MemoryModel

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "estimate_edge_list_size",
]

#: rough bytes per text edge-list line ("src dst\n" with ~7-digit ids).
_BYTES_PER_EDGE_LINE = 16.0


def estimate_edge_list_size(path) -> Optional[Tuple[int, int]]:
    """Cheap ``(nodes, edges)`` upper-bound estimate for an edge-list
    file, from its byte size alone (no read).  Gzip files are assumed
    ~4x compressed.  Returns None when the file cannot be stat'ed —
    unknown sizes are admitted and caught later by the RSS governor.
    """
    try:
        size = os.stat(os.fspath(path)).st_size
    except OSError:
        return None
    if str(path).endswith(".gz"):
        size *= 4
    edges = max(1, int(size / _BYTES_PER_EDGE_LINE))
    # Small-world graphs run ~10 edges/node; bounding nodes by edges
    # keeps the estimate conservative for sparse inputs.
    return edges, edges


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounds the admission controller enforces."""

    #: admitted requests allowed to be queued or in flight at once.
    max_queue: int = 16
    #: refuse runs whose estimated peak exceeds this (None = no check).
    memory_budget_bytes: Optional[int] = None
    #: cost model converting graph size into estimated peak bytes.
    memory: MemoryModel = DEFAULT_MEMORY_MODEL

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if (
            self.memory_budget_bytes is not None
            and self.memory_budget_bytes <= 0
        ):
            raise ValueError("memory_budget_bytes must be positive")


class _Ticket:
    """One admitted slot; releases itself on context exit."""

    def __init__(self, controller: "AdmissionController") -> None:
        self._controller = controller
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release()

    def __enter__(self) -> "_Ticket":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class AdmissionController:
    """Thread-safe bounded admission with typed refusal.

    All methods are non-blocking: a request is either admitted (slot
    held until the ticket releases) or refused immediately with a
    typed error — the controller never queues callers itself, it
    *counts* them, which is what lets a reader thread shed a burst
    without stalling behind it.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        *,
        refusal_hook=None,
    ) -> None:
        self.config = config or AdmissionConfig()
        #: optional ``() -> Optional[str]`` asked before every admit;
        #: a non-None reason refuses (the memory governor's veto).
        self.refusal_hook = refusal_hook
        # reentrant: drain() may run in a SIGTERM handler on the thread
        # that holds it (repro serve's and repro batch's main thread).
        self._lock = threading.RLock()
        self._depth = 0
        self._draining = False
        # stats
        self.admitted = 0
        self.shed = 0
        self.rejected_memory = 0
        self.peak_depth = 0

    # -- gates ----------------------------------------------------------
    def check_memory(
        self,
        *,
        nodes: Optional[int] = None,
        edges: Optional[int] = None,
        backend: str = "serial",
        num_workers: int = 0,
    ) -> None:
        """Refuse (typed) when the estimated run does not fit the
        budget; a no-op when no budget or no size estimate is set."""
        budget = self.config.memory_budget_bytes
        if budget is None or nodes is None or edges is None:
            return
        need = self.config.memory.run_bytes(
            int(nodes),
            int(edges),
            backend=backend,
            num_workers=num_workers,
        )
        if need > budget:
            with self._lock:
                self.rejected_memory += 1
            raise MemoryBudgetError(
                f"graph of {nodes} nodes / {edges} edges exceeds the "
                "admission memory budget",
                required_bytes=int(need),
                budget_bytes=int(budget),
            )

    def admit(
        self,
        *,
        nodes: Optional[int] = None,
        edges: Optional[int] = None,
        backend: str = "serial",
        num_workers: int = 0,
    ) -> _Ticket:
        """Admit one request or raise typed; returns the slot ticket."""
        if self.refusal_hook is not None:
            reason = self.refusal_hook()
            if reason is not None:
                with self._lock:
                    self.shed += 1
                raise ServiceOverloadError(
                    f"request refused: {reason}", reason="governor"
                )
        self.check_memory(
            nodes=nodes,
            edges=edges,
            backend=backend,
            num_workers=num_workers,
        )
        with self._lock:
            if self._draining:
                self.shed += 1
                raise ServiceOverloadError(
                    "service is draining; request shed",
                    reason="draining",
                )
            if self._depth >= self.config.max_queue:
                self.shed += 1
                raise ServiceOverloadError(
                    f"request queue full ({self._depth} in flight); "
                    "request shed",
                    reason="overload",
                )
            self._depth += 1
            self.admitted += 1
            self.peak_depth = max(self.peak_depth, self._depth)
        return _Ticket(self)

    def _release(self) -> None:
        with self._lock:
            self._depth -= 1

    # -- lifecycle / introspection --------------------------------------
    def drain(self) -> None:
        """Stop admitting permanently (graceful-shutdown gate)."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def depth(self) -> int:
        """Admitted requests currently queued or in flight."""
        return self._depth

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "depth": self._depth,
                "max_queue": self.config.max_queue,
                "draining": self._draining,
                "admitted": self.admitted,
                "shed": self.shed,
                "rejected_memory": self.rejected_memory,
                "peak_depth": self.peak_depth,
            }
