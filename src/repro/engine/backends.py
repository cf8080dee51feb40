"""The two phase-2 executors: ``serial`` and ``supervised``.

Phase 2 drains the Recur-FWBW work queue (the paper's Sec. 4.3).  Two
drivers do it:

* ``serial`` — the deterministic in-process worklist (default; the
  trace-normative reference every other path is compared against);
* ``supervised`` — worker processes over shared memory under the
  fault-tolerance supervisor (:mod:`repro.runtime.supervisor`):
  per-task timeouts, retry with colour repair, a serial fallback when
  the pool breaks, and post-phase verification.  With
  ``max_task_retries=0`` it is the plain process pool.  Its workers
  run the serial task bodies against a worker-side state
  (:mod:`repro.runtime.mp_backend`).

Both drain the queue one generation at a time in FIFO order, so task
indices and the recorded spawn tree match the plain worklist; both
group a generation with the one batch planner
(:func:`repro.core.recurfwbw.plan_batches`, always under
``BATCH_POLICY``: the small-partition tail is batched by default) and
run each unit through the same task bodies
(:func:`repro.core.recurfwbw.run_unit`), and both raise :class:`~repro.errors.PhaseTimeoutError` once an absolute
``deadline`` passes.  :func:`get_executor` resolves a backend name to its drive
function; :data:`BACKEND_NAMES` lists the names (CLI choices,
validation).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from ..errors import PhaseTimeoutError

__all__ = [
    "BACKEND_NAMES",
    "drive_serial",
    "drive_supervised",
    "get_executor",
]


def drive_serial(
    state,
    initial,
    *,
    queue_k: int = 1,
    phase: str = "recur_fwbw",
    pivot_strategy: str = "random",
    num_workers: int = 1,
    supervisor=None,
    deadline: Optional[float] = None,
    session=None,
) -> int:
    """Drain the queue in-process; returns the number of tasks run.

    ``num_workers``, ``supervisor`` and ``session`` are accepted for a
    uniform driver signature and ignored.
    """
    from ..core.recurfwbw import WorkItem, plan_batches, run_unit
    from ..runtime.trace import Task

    start = time.monotonic()
    tasks: List[Task] = []
    n_batches = n_batched = 0
    # A FIFO worklist visits one generation after another, so draining
    # generation by generation keeps every task index and spawn edge.
    pending = [WorkItem(color=c, nodes=nd) for c, nd in initial]
    while pending:
        generation, pending = pending, []
        for unit in plan_batches(generation):
            if deadline is not None and time.monotonic() >= deadline:
                raise PhaseTimeoutError(phase, time.monotonic() - start)
            members, results = run_unit(
                state, unit, pivot_strategy=pivot_strategy
            )
            if isinstance(unit, list):
                n_batches += 1
                n_batched += len(members)
            for item, (children, task_cost) in zip(members, results):
                idx = len(tasks)
                tasks.append(Task(cost=task_cost, parent=item.parent))
                for ch in children:
                    ch.parent = idx
                pending.extend(children)
    state.trace.task_dag(phase, tasks, queue_k=queue_k)
    state.profile.bump("recur_tasks", len(tasks))
    if n_batches:
        state.profile.bump("phase2_batches", n_batches)
        state.profile.bump("phase2_batched_tasks", n_batched)
    return len(tasks)


def drive_supervised(
    state,
    initial,
    *,
    queue_k: int = 1,
    phase: str = "recur_fwbw",
    pivot_strategy: str = "random",
    num_workers: int = 2,
    supervisor=None,
    deadline: Optional[float] = None,
    session=None,
) -> int:
    """Drain the queue on supervised worker processes (POSIX fork;
    falls back to the serial driver without it).  ``supervisor`` is a
    :class:`~repro.runtime.supervisor.SupervisorConfig`; ``session`` a
    warm :class:`~repro.engine.session.GraphSession` whose mirror and
    pool are reused."""
    from ..runtime.supervisor import run_supervised_recur_phase

    report = run_supervised_recur_phase(
        state,
        initial,
        num_workers=num_workers,
        queue_k=queue_k,
        phase=phase,
        pivot_strategy=pivot_strategy,
        config=supervisor,
        session=session,
        deadline=deadline,
    )
    return report.tasks


_DRIVERS = {"serial": drive_serial, "supervised": drive_supervised}

#: the executor names, registration order.
BACKEND_NAMES = tuple(_DRIVERS)


def get_executor(name: str) -> Callable[..., int]:
    """Resolve a backend name to its drive function."""
    try:
        return _DRIVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {list(BACKEND_NAMES)}"
        ) from None
