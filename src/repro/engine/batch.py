"""Load-once / run-many batch serving over warm graph sessions.

A batch is a manifest of jobs — ``(graph source, method, backend,
kernels, seed, options)`` — executed by one :class:`~repro.engine.
engine.Engine` so that every job against the same graph reuses the
same warm session (graph, transpose, shared mirror, forked pool).

**Per-job error isolation** is the contract that makes this a serving
surface rather than a script: one failing job produces an exit record
(the :class:`~repro.errors.ReproError` taxonomy's typed exit code, or
1 for untyped failures) and the batch *continues*; the report carries
every record plus the session amortization stats.  A batch-level
:class:`~repro.runtime.faults.FaultPlan` can inject failures at the
``"job"`` site (index = job position, ``attempt`` = retry attempt) to
prove the isolation under test — a ``crash`` there is downgraded to
``raise`` so chaos drills don't take the whole batch process down.

Three hardening knobs from the service layer also apply per job:

* ``BatchJob.timeout`` bounds one job in wall-clock seconds (SIGALRM
  in the main thread, plus the engine's cooperative phase deadline);
* ``run_batch(..., retry=RetryPolicy(...))`` retries *transient* job
  failures with backoff (``JobRecord.attempts`` records the count);
* SIGTERM/SIGINT during a batch stops admitting jobs: the in-flight
  job finishes, the remainder is marked ``shed`` (exit code 17), and
  the report is still returned — so ``--report`` publishes atomically.

The ``repro batch`` CLI subcommand is a thin wrapper over
:func:`load_manifest` + :func:`run_batch`.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..errors import (
    PhaseTimeoutError,
    ReproError,
    ServiceOverloadError,
    exit_code_for,
)

__all__ = [
    "BatchJob",
    "JobRecord",
    "BatchReport",
    "load_manifest",
    "phase_deadline",
    "run_batch",
]


@contextmanager
def phase_deadline(seconds: Optional[float], phase: str):
    """SIGALRM watchdog bounding one unit of work (same machinery as
    the test suite's deadlock guard); raises
    :class:`~repro.errors.PhaseTimeoutError` labelled ``phase`` on
    expiry.  Bounds one batch job here and one pipeline phase under
    :meth:`Engine.run`'s ``phase_timeout``.  No-op when unavailable
    (non-POSIX or a non-main thread) — the cooperative
    ``ctx['deadline']`` bound still covers the phase-2 executors
    there."""
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _timed_out(signum, frame):
        raise PhaseTimeoutError(phase, seconds)

    old_handler = signal.signal(signal.SIGALRM, _timed_out)
    outer, interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        if outer:
            # an enclosing watchdog kept counting meanwhile: re-arm it
            # with what is left (at once if it expired in here).
            left = outer - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3), interval)


@dataclass(frozen=True)
class BatchJob:
    """One unit of batch work.

    ``graph`` is a surrogate dataset name or an edge-list path (the
    engine deduplicates sessions by source and by fingerprint, so
    repeating a graph across jobs costs one load).  ``options`` carries
    extra method keywords (``queue_k``, ``pivot_strategy``, ...); a key
    that is not one fails the job with ``ValueError`` before it runs.
    """

    graph: str
    method: str = "method2"
    backend: str = "serial"
    kernels: Optional[str] = None
    seed: int = 0
    scale: Optional[float] = None
    workers: int = 2
    on_error: str = "strict"
    #: per-job fault plan string (tests/demos).  ``corrupt`` specs rot
    #: the warm session's arrays before the run (the integrity drill);
    #: any other kind forces the supervised backend, exactly like
    #: ``repro scc --fault-plan``.
    fault_plan: Optional[str] = None
    #: wall-clock budget for this job, seconds (None = unbounded).
    timeout: Optional[float] = None
    #: certification level for the result ("crc", "sample", "full";
    #: None = no certificate) — see :func:`repro.integrity.certify_result`.
    certify: Optional[str] = None
    options: dict = field(default_factory=dict)
    label: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "BatchJob":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(
                f"unknown batch-job key(s) {unknown}; known: {sorted(known)}"
            )
        if "graph" not in d:
            raise ValueError("batch job needs a 'graph' source")
        return cls(**d)

    def describe(self) -> str:
        return self.label or f"{self.method}@{self.graph}[{self.backend}]"


@dataclass
class JobRecord:
    """What one job did (success or typed failure)."""

    index: int
    label: str
    graph: str
    method: str
    backend: str
    ok: bool = False
    #: 0 on success; the ReproError exit code (or 1) on failure.
    exit_code: int = 0
    error: Optional[str] = None
    error_type: Optional[str] = None
    num_sccs: Optional[int] = None
    largest_scc: Optional[int] = None
    giant_fraction: Optional[float] = None
    seconds: float = 0.0
    #: the serving-economics flag: True when every session artifact
    #: (graph, transpose, pool) was reused.
    warm: bool = False
    session_fingerprint: Optional[int] = None
    #: attempts actually made (> 1 when a retry policy re-ran the job).
    attempts: int = 1
    #: True when the job never ran because the batch was interrupted.
    shed: bool = False
    #: the machine-checkable result certificate, when the job asked
    #: for one (see :func:`repro.integrity.certify_result`).
    certificate: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "graph": self.graph,
            "method": self.method,
            "backend": self.backend,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "error": self.error,
            "error_type": self.error_type,
            "num_sccs": self.num_sccs,
            "largest_scc": self.largest_scc,
            "giant_fraction": self.giant_fraction,
            "seconds": self.seconds,
            "warm": self.warm,
            "session_fingerprint": self.session_fingerprint,
            "attempts": self.attempts,
            "shed": self.shed,
            "certificate": self.certificate,
        }


@dataclass
class BatchReport:
    """Everything one batch run observed."""

    records: List[JobRecord] = field(default_factory=list)
    seconds: float = 0.0
    #: per-session setup/amortization stats, keyed by fingerprint hex.
    sessions: dict = field(default_factory=dict)

    @property
    def jobs_total(self) -> int:
        return len(self.records)

    @property
    def jobs_ok(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def jobs_failed(self) -> int:
        return self.jobs_total - self.jobs_ok

    @property
    def jobs_shed(self) -> int:
        return sum(1 for r in self.records if r.shed)

    @property
    def first_failure_code(self) -> int:
        """0 when every job succeeded, else the first failure's code."""
        for r in self.records:
            if not r.ok:
                return r.exit_code
        return 0

    @property
    def certificates_issued(self) -> int:
        return sum(1 for r in self.records if r.certificate is not None)

    @property
    def integrity_failures(self) -> int:
        """Jobs that failed with detected corruption (exit 20)."""
        return sum(
            1
            for r in self.records
            if not r.ok and r.error_type == "IntegrityError"
        )

    def to_dict(self) -> dict:
        return {
            "jobs_total": self.jobs_total,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "jobs_shed": self.jobs_shed,
            "certificates_issued": self.certificates_issued,
            "integrity_failures": self.integrity_failures,
            "seconds": self.seconds,
            "sessions": self.sessions,
            "jobs": [r.to_dict() for r in self.records],
        }

    def write(self, path) -> None:
        """Atomically publish the JSON report."""
        from ..ioutil import atomic_path

        with atomic_path(path, suffix=".json") as tmp:
            with open(tmp, "w") as fh:
                json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")


def load_manifest(path) -> List[BatchJob]:
    """Parse a batch manifest: ``{"jobs": [...]}`` or a bare list."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid manifest JSON ({exc})")
    if isinstance(data, dict):
        data = data.get("jobs")
    if not isinstance(data, list) or not data:
        raise ValueError(
            f"{path}: manifest must be a non-empty job list or "
            "{'jobs': [...]}"
        )
    return [BatchJob.from_dict(obj) for obj in data]


@contextmanager
def _interrupt_guard(stop: threading.Event):
    """SIGTERM/SIGINT -> stop admitting jobs (graceful batch drain).

    Main thread only (signals cannot be installed elsewhere; a batch
    driven from a worker thread relies on its caller's handling).  The
    previous handlers are restored on exit, so nested uses — a batch
    inside the serve daemon's drain window — compose.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _stop(signum, frame):
        stop.set()

    old = {
        sig: signal.signal(sig, _stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        yield
    finally:
        for sig, handler in old.items():
            signal.signal(sig, handler)


def run_batch(
    engine,
    jobs: Sequence[BatchJob],
    *,
    fault_plan=None,
    retry=None,
    progress: Optional[Callable[[JobRecord], None]] = None,
) -> BatchReport:
    """Execute ``jobs`` on ``engine`` with per-job error isolation.

    Every job runs to an explicit :class:`JobRecord`; a failure is
    captured (typed exit code, message), never propagated, and the
    remaining jobs still run.  ``fault_plan`` fires at the ``"job"``
    site before each attempt of each job body (chaos testing of the
    isolation); ``retry`` is an optional :class:`~repro.service.retry.
    RetryPolicy` re-running *transient* job failures with backoff;
    ``progress`` is called with each finished record (the CLI's
    per-line printer).

    A SIGTERM/SIGINT during the batch finishes the in-flight job,
    marks every remaining job ``shed`` (exit code 17), and returns the
    report normally so callers still publish it atomically.
    """
    report = BatchReport()
    t_batch = time.perf_counter()
    stop = threading.Event()
    with _interrupt_guard(stop):
        for index, job in enumerate(jobs):
            rec = JobRecord(
                index=index,
                label=job.describe(),
                graph=job.graph,
                method=job.method,
                backend=job.backend,
            )
            if stop.is_set():
                shed = ServiceOverloadError(
                    "batch interrupted; job shed", reason="draining"
                )
                rec.shed = True
                rec.attempts = 0
                rec.error = str(shed)
                rec.error_type = type(shed).__name__
                rec.exit_code = exit_code_for(shed)
                report.records.append(rec)
                if progress is not None:
                    progress(rec)
                continue
            t0 = time.perf_counter()

            def attempt_job(attempt: int, _index=index, _job=job):
                if fault_plan is not None:
                    # thread_site: a "crash" here must fail the job,
                    # not kill the batch process.
                    fault_plan.fire(
                        "job",
                        _index,
                        stage="pre",
                        attempt=attempt,
                        thread_site=True,
                    )
                with phase_deadline(_job.timeout, f"job[{_index}]"):
                    return _run_job(
                        engine,
                        _job,
                        attempt=attempt,
                        batch_plan=fault_plan,
                        job_index=_index,
                    )

            try:
                if retry is not None:
                    outcome = retry.execute(attempt_job, key=index)
                    rec.attempts = outcome.attempts
                    fingerprint, result, warm, cert = outcome.value
                else:
                    fingerprint, result, warm, cert = attempt_job(0)
                rec.session_fingerprint = fingerprint
                rec.warm = warm
                rec.certificate = cert
                rec.num_sccs = result.num_sccs
                rec.largest_scc = result.largest_scc_size()
                rec.giant_fraction = result.giant_fraction()
                rec.ok = True
            except ReproError as exc:
                rec.error = str(exc)
                rec.error_type = type(exc).__name__
                rec.exit_code = exit_code_for(exc)
                _note_attempts(rec, exc)
            except Exception as exc:  # untyped: still isolated, code 1
                rec.error = str(exc) or type(exc).__name__
                rec.error_type = type(exc).__name__
                rec.exit_code = 1
                _note_attempts(rec, exc)
            rec.seconds = time.perf_counter() - t0
            report.records.append(rec)
            if progress is not None:
                progress(rec)
    report.seconds = time.perf_counter() - t_batch
    report.sessions = {
        f"{sess.fingerprint:#010x}": dict(
            sess.stats.to_dict(), name=sess.name
        )
        for sess in engine.sessions
    }
    return report


def _note_attempts(rec: JobRecord, exc: BaseException) -> None:
    """Copy the attempt count a retry policy stamped on the failure."""
    outcome = getattr(exc, "__retry_outcome__", None)
    if outcome is not None:
        rec.attempts = outcome.attempts


def _run_job(
    engine,
    job: BatchJob,
    attempt: int = 0,
    batch_plan=None,
    job_index: int = 0,
):
    """One job body: resolve the session, run, return the essentials."""
    from ..errors import IntegrityError
    from ..runtime.faults import run_faults
    from .engine import check_method_options

    check_method_options(job.method, job.options)
    session = engine.load(
        job.graph, scale=job.scale, seed=None, on_error=job.on_error
    )
    # job-carried specs target *this* job regardless of site/index; the
    # batch-level --fault-plan's "job"-site corruptions pick their job
    # by manifest position, and its "phase"-site ones ride into every
    # job's run.
    faults = run_faults(
        job.fault_plan, attempt, plan=batch_plan, site="job", index=job_index
    )
    faults.corrupt(session)
    runs_before = session.stats.runs
    warm_before = session.stats.warm_runs

    def execute():
        return engine.run(
            session,
            method=job.method,
            backend=faults.backend or job.backend,
            num_workers=job.workers,
            seed=job.seed,
            supervisor=faults.supervisor,
            # cooperative twin of the SIGALRM job guard: enforced at
            # phase boundaries even off the main thread.
            deadline=job.timeout,
            fault_plan=faults.phase_plan,
            **job.options,
        )

    try:
        if job.kernels is not None:
            from ..kernels import use_backend

            with use_backend(job.kernels):
                result = execute()
        else:
            result = execute()
        certificate = None
        if job.certify:
            from ..integrity import certify_result

            certificate = certify_result(
                session.graph,
                result.labels,
                level=job.certify,
                seed=job.seed,
            )
    except IntegrityError:
        # detected corruption: evict the rotten session so a retry —
        # or the next job against this graph — rebuilds from source.
        engine.quarantine(session.fingerprint)
        raise
    warm = (
        session.stats.runs == runs_before + 1
        and session.stats.warm_runs == warm_before + 1
    )
    return session.fingerprint, result, warm, certificate
