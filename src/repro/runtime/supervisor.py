"""Supervised process backend: fault-tolerant phase-2 execution.

This is the one process executor.  ``multiprocessing.Pool`` on its own
is correct but fragile — it silently respawns a crashed worker and
never completes its lost result, so a single worker death or hung task
would wedge the whole run.  The supervisor dispatches each planned
unit (:func:`~repro.core.recurfwbw.plan_batches`) to a worker, which
runs the serial task bodies over shared memory
(:func:`repro.runtime.mp_backend.exec_unit`), so the phase survives:

* **per-task deadlines** — every result wait is bounded; a worker that
  crashes or hangs surfaces as a timeout instead of a deadlock;
* **the run deadline** — an absolute ``deadline`` is checked between
  generations and caps every result wait; on expiry the pool is
  condemned and :class:`~repro.errors.PhaseTimeoutError` (exit 14)
  propagates;
* **liveness checks** — after a deadline expires the pool's worker
  processes are inspected to distinguish *worker death* from *task
  hang*; either way the pool is condemned (a hung worker would keep
  mutating shared memory after we give up on it) and rebuilt;
* **bounded retry with backoff** — failed tasks are repaired and
  re-dispatched up to ``max_task_retries`` times.  Retrying a
  Recur-FWBW task is safe because the supervisor pre-allocates each
  task's colour triple: whatever recolouring a dead attempt leaked
  into shared memory is confined to those three colours and is undone
  by :func:`repair_partition` before the retry (nodes whose SCC commit
  completed stay detached — removing a whole SCC from a partition
  leaves a valid partition).  A failed batch unit fails all its
  members, and each is repaired and retried alone;
* **graceful degradation** — when the retry budget is exhausted (or
  verification fails), the state rolls back to a snapshot taken at
  phase entry and the serial driver finishes the phase;
* **self-verifying recovery** — after the phase, structural label
  invariants are always checked; any run that needed recovery (or ran
  under an armed fault plan) is additionally cross-checked against an
  independent Tarjan run, so recovery is proven, not assumed;
* **guaranteed cleanup** — the shared-memory mirror and pool come from
  :mod:`repro.engine.shm` / :mod:`repro.engine.pool`; ephemeral ones
  are released on every exit path including degradation, warm
  session-owned ones persist for the next run.

Telemetry (retries, timeouts, worker deaths, pool rebuilds,
degradation, recovery wall-time) flows into the run's
:class:`~repro.runtime.metrics.ExecutionProfile` counters and is
summarised in the returned :class:`SupervisorReport`.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.pool import WorkerPool, fork_available
from ..engine.shm import SharedStateMirror, arm_worker_context
from ..errors import PhaseTimeoutError, ReproError
from .faults import FaultPlan
from .mp_backend import exec_unit

__all__ = [
    "SupervisorConfig",
    "SupervisorReport",
    "PoolBrokenError",
    "repair_partition",
    "run_supervised_recur_phase",
]


class PoolBrokenError(ReproError, RuntimeError):
    """The worker pool could not finish the phase within its budgets."""

    exit_code = 16


@dataclass(frozen=True)
class SupervisorConfig:
    """Budgets and policies for the supervised backend."""

    #: per-task result deadline (seconds).
    task_timeout: float = 30.0
    #: how many times one task may fail before the run degrades.
    max_task_retries: int = 2
    #: base of the exponential retry backoff (seconds).
    backoff_base: float = 0.05
    #: extra wait granted to in-flight siblings once a failure is seen.
    grace: float = 0.25
    #: deterministic fault-injection plan (tests/demos only).
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")


@dataclass
class SupervisorReport:
    """What one supervised phase execution observed and did."""

    tasks: int = 0
    retries: int = 0
    timeouts: int = 0
    task_errors: int = 0
    worker_deaths: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    verified: bool = False
    cross_checked: bool = False
    recovery_seconds: float = 0.0


@dataclass
class _STask:
    """A :class:`~repro.core.recurfwbw.WorkItem` plus the master's
    bookkeeping: its dispatch sequence id (what task-site faults
    match) and its pre-allocated colour triple.  Planned and run
    wherever a ``WorkItem`` is; workers receive it as is."""

    seq: int
    color: int
    nodes: Optional[np.ndarray]
    parent: int = -1
    attempt: int = 0
    triple: Tuple[int, int, int] = (0, 0, 0)


def repair_partition(
    color: np.ndarray,
    mark: np.ndarray,
    c: int,
    triple: Tuple[int, int, int],
    nodes: Optional[np.ndarray],
) -> int:
    """Undo the colour damage of a failed task attempt; return #repaired.

    A dead attempt of the task owning colour ``c`` can only have
    recoloured nodes into its pre-allocated ``triple`` (cfw/cbw/cscc).
    Nodes it fully committed are marked and stay detached (their colour
    is forced to ``DONE_COLOR``); every other triple-coloured node is
    returned to ``c``.  The resulting colour class again contains only
    whole SCCs, so re-running FW-BW on it is correct.
    """
    if nodes is not None:
        sel = nodes
        cols = color[sel]
    else:
        sel = None
        cols = color
    hit = (cols == triple[0]) | (cols == triple[1]) | (cols == triple[2])
    idx = np.flatnonzero(hit)
    if sel is not None:
        idx = sel[idx]
    if idx.size == 0:
        return 0
    committed = mark[idx]
    color[idx[committed]] = -1  # DONE_COLOR
    color[idx[~committed]] = c
    return int(idx.size)


def run_supervised_recur_phase(
    state,
    initial: Sequence[Tuple[int, Optional[np.ndarray]]],
    *,
    num_workers: int = 2,
    queue_k: int = 1,
    phase: str = "recur_fwbw",
    pivot_strategy: str = "random",
    config: SupervisorConfig | None = None,
    session=None,
    deadline: Optional[float] = None,
) -> SupervisorReport:
    """Drain the phase-2 queue under supervision; always terminates.

    Recovery semantics are in the module docstring.  On unrecoverable
    pool failure the state is rolled back and the phase re-runs on the
    serial driver, so the caller always receives a completed phase —
    unless ``deadline`` (absolute ``time.monotonic()`` value) passes
    first, which raises :class:`~repro.errors.PhaseTimeoutError`.

    ``session`` optionally supplies a warm
    :class:`~repro.engine.session.GraphSession` whose persistent mirror
    and forked pool are reused across runs.
    """
    cfg = config or SupervisorConfig()
    report = SupervisorReport()
    profile = state.profile
    snap = state.snapshot()

    def _degrade(reason: str) -> None:
        report.degraded = True
        profile.bump("supervisor_degraded")
        with profile.wall_timer("recovery"):
            state.restore(snap)
            from ..engine.backends import drive_serial

            report.tasks = drive_serial(
                state,
                initial,
                queue_k=queue_k,
                phase=phase,
                pivot_strategy=pivot_strategy,
                deadline=deadline,
            )
        profile.bump("supervisor_degrade_" + reason)

    if not fork_available():  # pragma: no cover - non-POSIX only
        _degrade("no_fork")
    else:
        try:
            report.tasks = _run_pool_supervised(
                state,
                initial,
                num_workers,
                queue_k,
                phase,
                cfg,
                report,
                session,
                deadline,
            )
        except PoolBrokenError:
            _degrade("pool_broken")

    # Full verification (density + Tarjan) is only meaningful when the
    # phase resolved everything; a deliberately partial phase (tests
    # seeding a subset) still gets the structural checks.
    complete = state.unfinished() == 0
    cross = complete and (
        cfg.fault_plan is not None or report.degraded or report.retries > 0
    )
    try:
        state.check_invariants(require_complete=complete, cross_check=cross)
    except Exception:
        if report.degraded:
            raise  # serial driver failed verification: a real bug
        # e.g. a poisoned write that completed "successfully" — roll
        # back and redo serially, then re-verify strictly.
        profile.bump("supervisor_verify_failures")
        _degrade("verify_failed")
        state.check_invariants(
            require_complete=complete, cross_check=complete
        )
        cross = complete
    report.verified = True
    report.cross_checked = cross

    report.recovery_seconds = profile.wall_times.get("recovery", 0.0)
    return report


def _supervised_resources(state, num_workers: int, cfg, session):
    """The mirror/pool pair for a supervised run (warm or ephemeral)."""
    from ..kernels import get_backend

    if session is not None:
        mirror, pool = session.executor_resources(
            num_workers=num_workers,
            faults=cfg.fault_plan,
            kernel_backend=get_backend(),
        )
        return mirror, pool, False

    state.graph.in_indptr  # build the transpose before forking
    mirror = SharedStateMirror(state.num_nodes)

    def arm() -> None:
        arm_worker_context(
            state.graph,
            mirror,
            cost=state.cost,
            faults=cfg.fault_plan,
            kernel_backend=get_backend(),
        )

    pool = WorkerPool(num_workers, arm=arm)
    try:
        pool.start()
    except BaseException:
        mirror.close()
        raise
    return mirror, pool, True


def _run_pool_supervised(
    state,
    initial: Sequence[Tuple[int, Optional[np.ndarray]]],
    num_workers: int,
    queue_k: int,
    phase: str,
    cfg: SupervisorConfig,
    report: SupervisorReport,
    session=None,
    deadline: Optional[float] = None,
) -> int:
    """The supervised pool loop; raises :class:`PoolBrokenError` when
    the retry budget is exhausted and
    :class:`~repro.errors.PhaseTimeoutError` past ``deadline``."""
    from ..core.recurfwbw import plan_batches
    from ..core.state import skip_colour_triple
    from .trace import Task

    start = time.monotonic()
    profile = state.profile
    mirror, pool, owns = _supervised_resources(
        state, num_workers, cfg, session
    )
    try:
        mirror.load(state)
        color, mark = mirror.color, mirror.mark
        # The master owns colour allocation so it can repair after any
        # failure; workers get their triples passed in.
        next_color = int(mirror.color_counter.value)

        seq = 0
        tasks: List[Task] = []
        pending: List[_STask] = []
        for c, nd in initial:
            pending.append(_STask(seq=seq, color=c, nodes=nd))
            seq += 1

        n_batches = n_batched = 0
        while pending:
            if deadline is not None and time.monotonic() >= deadline:
                raise PhaseTimeoutError(phase, time.monotonic() - start)
            batch, pending = pending, []
            for t in batch:
                # Skip the task's own colour (the BW transition-map
                # contract; see state.skip_colour_triple) — the same
                # sequence every executor allocates.
                t.triple, next_color = skip_colour_triple(
                    next_color, t.color
                )
            futures = []
            for u in plan_batches(batch):
                futures.append((u, pool.apply_async(exec_unit, (u,))))
                if isinstance(u, list):
                    n_batches += 1
                    n_batched += len(u)

            failed: List[_STask] = []
            broken = False
            for u, fut in futures:
                members = u if isinstance(u, list) else [u]
                if broken:
                    # The pool is condemned; only harvest what already
                    # finished (bounded by the grace window below).
                    if not fut.ready():
                        failed.extend(members)
                        continue
                wait = cfg.task_timeout
                if deadline is not None:
                    wait = min(wait, max(deadline - time.monotonic(), 0.0))
                try:
                    res = fut.get(timeout=wait)
                except mp.TimeoutError:
                    if deadline is not None and time.monotonic() >= deadline:
                        raise PhaseTimeoutError(
                            phase, time.monotonic() - start
                        ) from None
                    report.timeouts += 1
                    profile.bump("supervisor_timeouts")
                    deaths = pool.dead_workers()
                    if deaths:
                        report.worker_deaths += deaths
                        profile.bump("supervisor_worker_deaths", deaths)
                    # A failed batch unit fails all its members; each
                    # is repaired and retried individually below.
                    failed.extend(members)
                    # A hung worker may still mutate shared state later;
                    # a crashed one broke the pool's result plumbing.
                    # Either way this pool cannot be trusted: give the
                    # in-flight siblings a grace window, then rebuild.
                    time.sleep(cfg.grace)
                    broken = True
                    continue
                except PhaseTimeoutError:
                    raise  # a caller's SIGALRM watchdog, not the task
                except Exception:
                    report.task_errors += 1
                    profile.bump("supervisor_task_errors")
                    failed.extend(members)
                    continue
                results, log = res
                for t, (children, task_cost) in zip(members, results):
                    idx = len(tasks)
                    tasks.append(Task(cost=task_cost, parent=t.parent))
                    for ch in children:
                        pending.append(
                            _STask(
                                seq=seq, color=ch.color, nodes=ch.nodes,
                                parent=idx,
                            )
                        )
                        seq += 1
                for entry in log:
                    profile.log_task(*entry)

            if broken:
                pool.rebuild()
                report.pool_rebuilds += 1
                profile.bump("supervisor_pool_rebuilds")

            if failed:
                with profile.wall_timer("recovery"):
                    for t in failed:
                        if t.attempt >= cfg.max_task_retries:
                            raise PoolBrokenError(
                                f"task {t.seq} failed "
                                f"{t.attempt + 1} times; degrading"
                            )
                        repair_partition(
                            color, mark, t.color, t.triple, t.nodes
                        )
                        t.attempt += 1
                        report.retries += 1
                        profile.bump("supervisor_retries")
                        pending.append(t)
                    time.sleep(
                        cfg.backoff_base
                        * (2 ** max(t.attempt - 1 for t in failed))
                    )

        # Publish the master-owned colour watermark, then copy the
        # shared results back into the state.
        mirror.color_counter.value = next_color
        mirror.flush(state)
        state.trace.task_dag(phase, tasks, queue_k=queue_k)
        profile.bump("recur_tasks", len(tasks))
        if n_batches:
            profile.bump("phase2_batches", n_batches)
            profile.bump("phase2_batched_tasks", n_batched)
        return len(tasks)
    except PhaseTimeoutError:
        # Out of budget (the cooperative check above or a caller's
        # SIGALRM watchdog) with tasks possibly still running: a live
        # worker may keep writing the mirror, so condemn the pool the
        # way a task timeout does.  A warm session respawns it.
        pool.terminate()
        raise
    finally:
        if owns:
            pool.terminate()
            mirror.close()
