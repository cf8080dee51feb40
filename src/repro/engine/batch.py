"""Load-once / run-many batch serving over warm graph sessions.

A batch is a manifest of jobs — ``(graph source, method, backend,
kernels, seed, options)`` — served by one :class:`~repro.engine.engine.
Engine`, so every job against the same graph reuses the same warm
session (graph, transpose, shared mirror, forked pool).

:func:`run_batch` is an in-process client of the serve pipeline: each
job becomes one ``run`` request to an :class:`~repro.service.server.
SCCService` over the caller's engine, so a job gets its check,
admission, retries, circuit breakers (the supervised -> serial
ladder), fault slice, certificate, quarantine and typed error exactly
where a ``repro serve`` request does.  This module keeps only what is
batch-shaped: the manifest, the per-job ``kernels`` pin, and the
:class:`JobRecord` / :class:`BatchReport` format.

**Per-job error isolation**: one failing job produces an exit record
(the :class:`~repro.errors.ReproError` taxonomy's typed exit code, or
1 for untyped failures) and the batch *continues*; the report carries
every record plus the session amortization stats.  A batch-level
:class:`~repro.runtime.faults.FaultPlan` injects at the service's
``"request"`` site, whose index is the request's sequence number —
the job's manifest position — and whose ``attempt`` is the retry
attempt; a ``crash`` there is downgraded to ``raise`` so chaos drills
don't take the whole batch process down.

The serving guarantees carry over per job:

* ``BatchJob.timeout`` is the request's ``deadline``: one wall-clock
  budget across every retry, enforced by :meth:`Engine.run` itself;
* ``run_batch(..., retry=RetryPolicy(...))`` retries *transient* job
  failures with backoff (``JobRecord.attempts`` records the count);
* SIGTERM/SIGINT during a batch drains the service (main thread only):
  the job running on the engine finishes, the remainder — a job still
  backing off between attempts included — is shed typed (exit code
  17), and the report is still returned, so ``--output`` publishes
  atomically.

The ``repro batch`` CLI subcommand is a thin wrapper over
:func:`load_manifest` + :func:`run_batch`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

__all__ = [
    "BatchJob",
    "JobRecord",
    "BatchReport",
    "load_manifest",
    "run_batch",
]


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
    #: wall-clock budget for this job in seconds, one across all its
    #: retries: the request's ``deadline`` (None = unbounded).
    timeout: Optional[float] = None
    #: certification level for the result ("crc", "sample", "full";
    #: None = no certificate) — see :func:`repro.integrity.certify_result`.
    certify: Optional[str] = None
    options: dict = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        # the pin is applied around the request, outside the service,
        # so a bad tier is refused here rather than half-way through.
        from ..kernels.registry import BACKEND_CHOICES

        if self.kernels is not None and self.kernels not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown kernel backend {self.kernels!r}; "
                f"choose from {BACKEND_CHOICES}"
            )

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

    def to_request(self) -> dict:
        """This job as a serve ``run`` request."""
        return {
            "op": "run",
            "graph": self.graph,
            "scale": self.scale,
            "on_error": self.on_error,
            "method": self.method,
            "backend": self.backend,
            "workers": self.workers,
            "seed": self.seed,
            "deadline": self.timeout,
            "options": self.options,
            "fault_plan": self.fault_plan,
            "certify": self.certify,
        }


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
    #: the executor that produced the answer: ``backend``, or where the
    #: circuit breakers' supervised -> serial ladder sent the job (or
    #: ``"supervised"`` when its own fault plan arms task faults).
    #: None when the job did not complete.
    backend_used: Optional[str] = None

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
            "backend_used": self.backend_used,
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
    jobs = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise ValueError(
                f"{path}: job {i} must be a JSON object, "
                f"not {type(obj).__name__}"
            )
        try:
            jobs.append(BatchJob.from_dict(obj))
        except ValueError as exc:
            raise ValueError(f"{path}: job {i}: {exc}") from None
    return jobs


def run_batch(
    engine,
    jobs: Sequence[BatchJob],
    *,
    fault_plan=None,
    retry=None,
    progress: Optional[Callable[[JobRecord], None]] = None,
) -> BatchReport:
    """Serve ``jobs`` on ``engine``, one ``run`` request each, with
    per-job error isolation.

    Every job runs to an explicit :class:`JobRecord`; a failure is
    captured (typed exit code, message), never propagated, and the
    remaining jobs still run.  ``fault_plan`` is the service's plan:
    its ``"request"``-site specs pick their job by manifest position
    (chaos testing of the isolation).  ``retry`` is an optional
    :class:`~repro.service.retry.RetryPolicy` re-running *transient*
    job failures with backoff (default: one attempt).  ``progress`` is
    called with each finished record (the CLI's per-line printer).

    A SIGTERM/SIGINT during the batch drains the service: the job
    running on the engine finishes, every later one is shed (exit code
    17), and the report returns normally so callers still publish it
    atomically.  The engine stays the caller's; the batch never
    closes it.
    """
    from ..kernels import use_backend
    from ..service.retry import RetryPolicy
    from ..service.server import SCCService, ServiceConfig, _drain_signals

    service = SCCService(
        ServiceConfig(retry=retry or RetryPolicy(max_attempts=1)),
        engine=engine,
        fault_plan=fault_plan,
    )
    report = BatchReport()
    t_batch = time.perf_counter()
    with _drain_signals(service, threading.Event()):
        for index, job in enumerate(jobs):
            t0 = time.perf_counter()
            with use_backend(job.kernels) if job.kernels else nullcontext():
                response = service.handle(job.to_request())
            ok, shed = response["ok"], response.get("shed", False)
            rec = JobRecord(
                index=index,
                label=job.describe(),
                graph=job.graph,
                method=job.method,
                backend=job.backend,
                ok=ok,
                exit_code=0 if ok else response["exit_code"],
                error=response.get("error"),
                error_type=response.get("error_type"),
                num_sccs=response.get("num_sccs"),
                largest_scc=response.get("largest_scc"),
                giant_fraction=response.get("giant_fraction"),
                seconds=time.perf_counter() - t0,
                warm=response.get("warm", False),
                session_fingerprint=response.get("session_fingerprint"),
                # a job refused by the check still counts one attempt;
                # one shed before its first never started.
                attempts=max(response["attempts"], 0 if shed else 1),
                shed=shed,
                certificate=response.get("certificate"),
                backend_used=response.get("backend_used"),
            )
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
