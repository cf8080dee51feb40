"""The ``repro serve`` daemon: a hardened long-running serving front.

Requests are JSON objects, one per line (stdin/stdout by default, or
one request per connection on a Unix socket)::

    {"op": "run", "graph": "wiki", "scale": 0.1, "method": "method2",
     "backend": "supervised", "deadline": 5.0, "id": "r1"}
    {"op": "update", "graph": "wiki", "scale": 0.1,
     "inserts": [[0, 7], [7, 0]], "deletes": [[3, 4]], "id": "u1"}
    {"op": "analysis", "graph": "wiki", "scale": 0.1, "kind": "bowtie"}
    {"op": "stream", "action": "attach", "graph": "wiki",
     "source": "tail:/var/feed.txt"}
    {"op": "health"}
    {"op": "stats"}
    {"op": "shutdown"}

``run``, ``update`` and ``analysis`` requests flow through one
pipeline (:meth:`SCCService._serve`), in order:

1. **check** — the request's keys against its op's row of
   :data:`OP_KEYS`, plus the op's own validation (method options,
   edge pairs, analysis kind), before anything is spent;
2. **admit** (:mod:`repro.service.govern`) — queue-depth shedding,
   cost-model memory refusal, and the memory governor's RSS veto;
3. **journal** ``accepted`` — from here the request must complete or
   shed;
4. **attempt** — ``run`` only: the retry policy
   (:mod:`repro.service.retry`) re-runs transient failures with
   deterministic backoff; every attempt resolves its backend through
   the circuit breakers (supervised -> serial under failure), fires
   the daemon plan's request-site fault, and hands on only the
   *remaining* deadline, so retries never extend a request past it.
   ``update`` and ``analysis`` get exactly one attempt;
5. **route** — to the worker fleet when it is up
   (:mod:`repro.service.workers`), else to the local dispatch
   (:meth:`EngineHost.dispatch`): engine turnstile, session load, the
   request's fault slice, and one plain handler per op over (engine,
   session, request);
6. **journal** ``completed`` or ``shed``;
7. **respond**.

Responses carry ``labels_crc32`` — the CRC of the canonical label
array — so clients (and the chaos tests) can verify bit-identical
results against an independent cold serial run without shipping the
full label vector.

**Graceful drain**: SIGTERM/SIGINT (or ``{"op": "shutdown"}``) stops
admission, lets in-flight requests finish, sheds everything queued
with typed :class:`~repro.errors.ServiceOverloadError` responses, and
atomically writes a final stats report before exiting 0.

**Sharded tier**: with ``worker_processes > 1`` (``repro serve
--workers N``) the route step sends admitted requests to N forked
workers, each running the same local dispatch over its own engine,
with warm-session affinity, crash failover replayed from the request
journal (:mod:`repro.service.journal`), and a two-phase drain that
merges every shard's stats into the final report; see DESIGN.md §12.
"""

from __future__ import annotations

import json
import queue
import signal
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import (
    IntegrityError,
    PhaseTimeoutError,
    ServiceOverloadError,
    exit_code_for,
)
from ..integrity.certify import certify_level
from ..ioutil import crc32_chunks
from ..runtime.faults import run_faults
from .govern import (
    AdmissionConfig,
    AdmissionController,
    estimate_edge_list_size,
)
from .governor import GovernorConfig, MemoryGovernor
from .retry import BackendBreakers, RetryPolicy, classify_failure

__all__ = [
    "ServiceConfig",
    "EngineHost",
    "SCCService",
    "serve_stdin",
    "serve_socket",
]

#: request keys each op may carry.  A ``run``'s ``options`` may name
#: only method keywords (:func:`repro.engine.engine.check_method_options`);
#: ``update`` streams edge mutations into a mutable warm session
#: (DESIGN.md §15); ``analysis`` runs the structure suite over the
#: session's *current* labels; ``stream`` attaches a live edge feed
#: (:mod:`repro.ingest`, DESIGN.md §16).
OP_KEYS = {
    "run": frozenset(
        "op id graph scale on_error method backend workers seed deadline "
        "options nodes edges fault_plan certify".split()
    ),
    "update": frozenset(
        "op id graph scale on_error inserts deletes compact nodes "
        "edges".split()
    ),
    "analysis": frozenset(
        "op id graph scale on_error kind samples seed".split()
    ),
    "stream": frozenset(
        "op id graph scale on_error action name source checkpoint "
        "batch_edges batch_age max_batches dedup_window degrade_log_ratio "
        "max_reconnects read_timeout stall_timeout stall_seconds "
        "fault_plan".split()
    ),
}

#: analysis kinds the ``analysis`` op accepts.
ANALYSIS_KINDS = ("summary", "histogram", "bowtie", "clustering")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one :class:`SCCService` enforces."""

    backend: str = "serial"
    workers: int = 2
    max_sessions: int = 8
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    governor: Optional[GovernorConfig] = None
    #: default per-request deadline, seconds (None = unbounded).
    default_deadline: Optional[float] = None
    #: forked engine workers behind the front (<= 1 = in-process path).
    worker_processes: int = 1
    #: seconds between worker heartbeats (sharded tier only).
    heartbeat_interval: float = 0.5
    #: respawns allowed per worker slot before it is lost for good.
    max_worker_restarts: int = 3
    #: crash-safe request journal path (None = no journal).
    journal_path: Optional[str] = None
    #: block-CRC sidecars over warm session arrays (repro.integrity).
    checksums: bool = True
    #: response to detected corruption: ``"quarantine"`` evicts the
    #: session and retries from source; ``"fail"`` answers exit 20.
    on_corruption: str = "quarantine"
    #: fraction of completed requests re-executed on the serial
    #: reference path by the background auditor (0 = off).
    audit_rate: float = 0.0
    #: seed for the auditor's deterministic request sample.
    audit_seed: int = 0
    #: delta-log compaction ratio for mutable sessions (None = the
    #: graph layer's default, :data:`repro.graph.DEFAULT_COMPACT_RATIO`).
    compact_ratio: Optional[float] = None

    def shard(self) -> "ServiceConfig":
        """The per-worker slice of this config.

        Each forked worker builds its :class:`EngineHost` from this:
        single-engine (no nested tier, no journal — the front owns the
        ledger), and with the session cache and the governor's memory
        limits divided by the fleet size so N workers together respect
        the *one* budget the operator configured.
        """
        import dataclasses

        n = max(1, self.worker_processes)
        governor = self.governor
        if governor is not None:
            governor = dataclasses.replace(
                governor,
                soft_limit_bytes=(
                    governor.soft_limit_bytes // n
                    if governor.soft_limit_bytes is not None
                    else None
                ),
                hard_limit_bytes=(
                    governor.hard_limit_bytes // n
                    if governor.hard_limit_bytes is not None
                    else None
                ),
            )
        return dataclasses.replace(
            self,
            worker_processes=1,
            journal_path=None,
            max_sessions=max(1, self.max_sessions // n),
            governor=governor,
            # the front audits end-to-end (it sees the final CRCs).
            audit_rate=0.0,
        )


def _edge_pairs(raw, what: str) -> list:
    """Validate a request's edge list into ``(u, v)`` int pairs."""
    pairs = []
    for item in raw or ():
        try:
            u, v = item
            pairs.append((int(u), int(v)))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"bad {what} entry {item!r}: need [u, v] integer pairs"
            ) from exc
    return pairs


def error_response(request: dict, exc: Exception) -> dict:
    """The typed ``ok: false`` answer for one failed request."""
    outcome = getattr(exc, "__retry_outcome__", None)
    error_type = type(exc).__name__
    exit_code = exit_code_for(exc)
    message = str(exc) or error_type
    remote = getattr(exc, "response", None)
    if isinstance(remote, dict) and "error_type" in remote:
        # a worker's typed failure: surface the original taxonomy,
        # not the RemoteRequestError envelope it crossed the pipe in.
        error_type = remote["error_type"]
        exit_code = int(remote.get("exit_code", exit_code))
        message = remote.get("error", message)
    return {
        "op": request.get("op", "run"),
        "id": request.get("id"),
        "ok": False,
        "shed": isinstance(exc, ServiceOverloadError),
        "error": message,
        "error_type": error_type,
        "exit_code": exit_code,
        "transient": classify_failure(exc) == "transient",
        "attempts": outcome.attempts if outcome is not None else 0,
    }


# ---------------------------------------------------------------------------
# Op handlers: plain functions over (engine, session, request, faults)
# ---------------------------------------------------------------------------
def _run(engine, session, request: dict, faults) -> dict:
    runs_before = session.stats.runs
    warm_before = session.stats.warm_runs
    # read inside the turnstile: an update committing once the turn
    # ends must not restamp this run's answer.
    version = session.version
    result = engine.run(
        session,
        method=request.get("method", "method2"),
        backend=request.get("backend"),
        num_workers=request.get("workers"),
        seed=request.get("seed", 0),
        supervisor=faults.supervisor,
        deadline=request.get("deadline"),
        fault_plan=faults.phase_plan,
        **(request.get("options") or {}),
    )
    certificate = None
    level = certify_level(request.get("certify"))
    if level is None:
        crc = crc32_chunks(result.labels.tobytes())
    else:
        from ..integrity import certify_result

        # the session's ledger skips the proofs this graph version
        # already holds for these labels; the certificate is the same.
        certificate = certify_result(
            session.graph,
            result.labels,
            level=level,
            seed=int(request.get("seed", 0) or 0),
            ledger=session.proofs,
        )
        crc = certificate["labels_crc32"]
        # pin the certificate to the exact graph state it proves:
        # mutable sessions advance this per applied update batch.
        certificate["graph_version"] = version
    response = {
        "op": "run",
        "ok": True,
        "graph": request["graph"],
        "method": request.get("method", "method2"),
        "num_sccs": result.num_sccs,
        "largest_scc": result.largest_scc_size(),
        "giant_fraction": result.giant_fraction(),
        "labels_crc32": crc,
        "session_fingerprint": session.fingerprint,
        "graph_version": version,
    }
    if certificate is not None:
        response["certificate"] = certificate
    response["warm"] = (
        session.stats.runs == runs_before + 1
        and session.stats.warm_runs == warm_before + 1
    )
    return response


def _update(engine, session, request: dict, faults) -> dict:
    if request.get("compact"):
        # explicit degrade-to-snapshot: fold the delta log now (a
        # streaming consumer over its compaction-debt budget sends it).
        report = engine.compact(session)
    else:
        report = engine.update(
            session,
            _edge_pairs(request.get("inserts"), "inserts"),
            _edge_pairs(request.get("deletes"), "deletes"),
        )
    return {
        "op": "update",
        "ok": True,
        "graph": request["graph"],
        "graph_version": report.version,
        "applied": report.applied,
        "changed": report.changed,
        "compacted": report.compacted,
        "inserts": report.inserts,
        "deletes": report.deletes,
        "num_sccs": report.num_components,
        "labels_crc32": report.labels_crc32,
        "session_fingerprint": report.fingerprint,
        "stats": report.stats,
        "log_ratio": report.log_ratio,
    }


def _analysis(engine, session, request: dict, faults) -> dict:
    """One structure analysis over the session's current labels — the
    live, incrementally maintained ones on a mutable session (its
    ``graph_version`` names the update epoch); a cold session pays one
    full detection first."""
    import dataclasses

    import numpy as np

    from .. import analysis
    from ..core.result import canonical_labels

    if session.dynamic is not None:
        labels = canonical_labels(
            np.ascontiguousarray(session.dynamic.labels, dtype=np.int64)
        )
    else:
        labels = engine.run(session).labels
    kind = request.get("kind", "summary")
    if kind == "summary":
        result = dataclasses.asdict(analysis.summarize_scc_structure(labels))
    elif kind == "histogram":
        hist = analysis.size_histogram(labels)
        result = {
            "sizes": {str(k): int(v) for k, v in sorted(hist.items())},
            "giant_fraction": analysis.giant_fraction(labels),
        }
    elif kind == "bowtie":
        tie = analysis.bowtie_decomposition(session.graph, labels)
        result = dict(
            tie.fractions(),
            counts={
                "core": tie.core,
                "in": tie.inset,
                "out": tie.outset,
                "other": tie.other,
            },
        )
    else:  # clustering
        result = {
            "average_clustering": analysis.average_clustering(
                session.graph,
                samples=int(request.get("samples", 200)),
                rng=int(request.get("seed", 0)),
            )
        }
    return {
        "op": "analysis",
        "ok": True,
        "kind": kind,
        "graph": request["graph"],
        "graph_version": session.version,
        "num_sccs": int(labels.max()) + 1 if labels.size else 0,
        "result": result,
    }


_HANDLERS = {"run": _run, "update": _update, "analysis": _analysis}


class EngineHost:
    """One engine behind a turnstile: where every op attempt executes.

    The in-process service is one (:class:`SCCService` extends it);
    each forked worker of the sharded tier is another, driven by the
    front over a pipe.  :meth:`dispatch` serializes engine access
    (warm sessions are not thread-safe; waiters shed on drain), loads
    the session, applies the request's fault slice and calls its op's
    handler.  Detected corruption quarantines the session (or, with
    ``on_corruption="fail"``, turns the failure permanent), and every
    completed op ends with the memory governor's pressure relief.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        engine=None,
        fault_plan=None,
        clock=time.monotonic,
    ) -> None:
        from ..engine.engine import Engine

        self.config = cfg = config or ServiceConfig()
        if cfg.on_corruption not in ("quarantine", "fail"):
            raise ValueError(
                f"on_corruption must be 'quarantine' or 'fail', "
                f"got {cfg.on_corruption!r}"
            )
        self.engine = engine or Engine(
            backend=cfg.backend,
            num_workers=cfg.workers,
            max_sessions=cfg.max_sessions,
            integrity=cfg.checksums,
            compact_ratio=cfg.compact_ratio,
        )
        self.governor = (
            MemoryGovernor(self.engine, cfg.governor, clock=clock)
            if cfg.governor is not None
            else None
        )
        #: daemon-level chaos plan; its "request"-site specs match the
        #: request's sequence number (counted before the check).
        self.fault_plan = fault_plan
        self._cond = threading.Condition()
        self._active = False
        self._shedding = False
        self.integrity_detected = 0
        self.integrity_quarantines = 0

    @contextmanager
    def _engine_turn(self):
        """Serialize engine access; queued waiters shed on drain."""
        with self._cond:
            while self._active and not self._shedding:
                self._cond.wait(0.05)
            if self._shedding:
                raise ServiceOverloadError(
                    "service draining; queued request shed",
                    reason="draining",
                )
            self._active = True
        try:
            yield
        finally:
            with self._cond:
                self._active = False
                self._cond.notify_all()

    def dispatch(self, request: dict, seq: int = 0, attempt: int = 0) -> dict:
        """Execute one attempt of a checked request on this engine."""
        with self._engine_turn():
            session = self.engine.load(
                request["graph"],
                scale=request.get("scale"),
                seed=None,
                on_error=request.get("on_error", "strict"),
            )
            try:
                faults = run_faults(
                    request.get("fault_plan"),
                    attempt,
                    plan=self.fault_plan,
                    index=seq,
                )
                faults.corrupt(session)
                response = _HANDLERS[request.get("op", "run")](
                    self.engine, session, request, faults
                )
            except IntegrityError as exc:
                # corruption (or a failed certificate) caught before any
                # response: quarantine the rotten session so a retry
                # rebuilds from source, or fail typed when the operator
                # asked for loud failures.
                self.integrity_detected += 1
                if self.config.on_corruption == "quarantine":
                    if self.engine.quarantine(session.fingerprint):
                        self.integrity_quarantines += 1
                else:
                    exc.transient_hint = False
                raise
        if self.governor is not None:
            self.governor.relieve()
        return response

    def stats(self) -> dict:
        """The engine-side slice of the stats: sessions, integrity,
        governor."""
        sessions = self.engine.sessions
        return {
            "integrity": {
                "checksums": self.config.checksums,
                "on_corruption": self.config.on_corruption,
                "detected": self.integrity_detected,
                "quarantines": self.integrity_quarantines,
                "engine_quarantines": self.engine.quarantines,
                "verifications": sum(
                    s.stats.integrity_verifications for s in sessions
                ),
            },
            "governor": (
                self.governor.to_dict() if self.governor else None
            ),
            "sessions": {
                f"{s.fingerprint:#010x}": dict(
                    s.stats.to_dict(),
                    name=s.name,
                    estimated_bytes=s.estimated_bytes(),
                )
                for s in sessions
            },
        }

    def close(self) -> None:
        self.engine.close()


class SCCService(EngineHost):
    """The hardened serving core (transport-agnostic).

    :meth:`handle` maps one request dict to one response dict and is
    safe to call from many threads at once: admission bounds how many
    requests may wait, the engine turnstile serializes engine access,
    and :meth:`drain` sheds the waiters while the in-flight request
    finishes.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        engine=None,
        fault_plan=None,
        clock=time.monotonic,
    ) -> None:
        super().__init__(
            config, engine=engine, fault_plan=fault_plan, clock=clock
        )
        cfg = self.config
        self.admission = AdmissionController(
            cfg.admission,
            refusal_hook=(
                self.governor.refusal if self.governor else None
            ),
        )
        self.breakers = BackendBreakers(
            threshold=cfg.breaker_threshold,
            cooldown=cfg.breaker_cooldown,
            clock=clock,
        )
        # validated before the journal opens and the workers fork
        self.auditor = None
        if cfg.audit_rate > 0:
            from ..integrity import SelfAuditor

            self.auditor = SelfAuditor(
                rate=cfg.audit_rate,
                seed=cfg.audit_seed,
                on_mismatch=self._on_audit_mismatch,
            )
        self.journal = None
        if cfg.journal_path:
            from .journal import RequestJournal

            self.journal = RequestJournal(cfg.journal_path)
        self.supervisor = None
        if cfg.worker_processes > 1:
            from ..engine.pool import fork_available

            if fork_available():
                from .workers import WorkerSupervisor

                self.supervisor = WorkerSupervisor(
                    cfg,
                    journal=self.journal,
                    on_worker_failure=(
                        lambda backend, worker: self.breakers.record(
                            backend, ok=False
                        )
                    ),
                ).start()
        #: attached live edge feeds, by name (``stream`` op registry).
        self.streams: dict = {}
        # reentrant, like the admission lock: drain() may run in a
        # SIGTERM handler on the thread that holds it.
        self._streams_lock = threading.RLock()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._started = clock()
        self._clock = clock
        # stats
        self.requests = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.retried = 0
        self.degraded_runs = 0
        self.transport_errors = 0
        self.certificates_issued = 0
        self.updates = 0
        self.updates_applied = 0

    # -- lifecycle ------------------------------------------------------
    def drain(self) -> None:
        """Phase 1 of the drain: stop intake everywhere.

        Admission stops admitting, queued turnstile waiters shed, and
        the worker tier refuses new dispatches; in-flight work — local
        or already on a worker — finishes (phase 2, :meth:`close`).
        """
        with self._streams_lock:
            feeds = list(self.streams.values())
        for feed in feeds:
            feed.consumer.stop()
        self.admission.drain()
        if self.supervisor is not None:
            self.supervisor.begin_drain()
        with self._cond:
            self._shedding = True
            self._cond.notify_all()

    @property
    def draining(self) -> bool:
        return self.admission.draining

    def close(self) -> None:
        """Phase 2: drain the worker fleet, then release everything."""
        with self._streams_lock:
            feeds = list(self.streams.values())
            self.streams.clear()
        for feed in feeds:
            feed.consumer.stop()
            feed.thread.join(timeout=10.0)
            feed.source.close()
        if self.supervisor is not None:
            self.supervisor.stop()
        if self.auditor is not None:
            self.auditor.stop()
        super().close()
        if self.journal is not None:
            self.journal.close()

    def _on_audit_mismatch(self, record, reference_crc: int) -> None:
        """An audited request's reference replay disagreed: the served
        answer was wrong and nothing upstream noticed.  Quarantine the
        session the answer came from (in-process topology; a sharded
        worker's session is out of the front engine's reach, which the
        no-op quarantine tolerates) and mark the serving backend
        suspect so the breakers steer the next requests away."""
        self.integrity_detected += 1
        if (
            record.fingerprint is not None
            and self.config.on_corruption == "quarantine"
        ):
            try:
                with self._engine_turn():
                    if self.engine.quarantine(record.fingerprint):
                        self.integrity_quarantines += 1
            except ServiceOverloadError:
                pass  # draining: the sessions die with the service.
        if record.backend_used:
            self.breakers.record(record.backend_used, ok=False)

    def __enter__(self) -> "SCCService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request handling ----------------------------------------------
    def handle(self, request: dict) -> dict:
        """One request dict in, one response dict out (never raises)."""
        op = request.get("op", "run")
        try:
            if op in _HANDLERS:
                return self._serve(request)
            if op == "stream":
                return self._handle_stream(request)
            if op == "health":
                return self._handle_health(request)
            if op == "stats":
                return dict(
                    self.stats(), op="stats", id=request.get("id"), ok=True
                )
            if op == "shutdown":
                self.drain()
                return {
                    "op": "shutdown",
                    "id": request.get("id"),
                    "ok": True,
                    "draining": True,
                }
            raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # the transport must always answer
            return self._error_response(request, exc)

    def _handle_health(self, request: dict) -> dict:
        return {
            "op": "health",
            "id": request.get("id"),
            "ok": True,
            "status": "draining" if self.draining else "serving",
            "uptime_seconds": self._clock() - self._started,
            "queue_depth": self.admission.depth,
            "sessions": len(self.engine.sessions),
            "rss_bytes": (
                self.governor.sample() if self.governor else None
            ),
        }

    def _size_hint(self, request: dict):
        """Best-effort ``(nodes, edges)`` for the admission cost check."""
        if request.get("nodes") is not None and request.get("edges") is not None:
            return int(request["nodes"]), int(request["edges"])
        source = request.get("graph", "")
        from ..generators import DATASETS

        if source and source not in DATASETS:
            return estimate_edge_list_size(source) or (None, None)
        return None, None

    @staticmethod
    def _check(request: dict) -> None:
        """Pipeline step 1: refuse a malformed request up front."""
        op = request.get("op", "run")
        unknown = sorted(set(request) - OP_KEYS[op])
        if unknown:
            raise ValueError(
                f"unknown request key(s) {unknown}; "
                f"known: {sorted(OP_KEYS[op])}"
            )
        if op == "stream":
            return
        if not request.get("graph"):
            raise ValueError(f"{op} request needs a 'graph' source")
        if op == "run":
            from ..engine.engine import check_method_options

            check_method_options(
                request.get("method", "method2"), request.get("options")
            )
            certify_level(request.get("certify"))
        elif op == "update":
            _edge_pairs(request.get("inserts"), "inserts")
            _edge_pairs(request.get("deletes"), "deletes")
        elif request.get("kind", "summary") not in ANALYSIS_KINDS:
            raise ValueError(
                f"unknown analysis kind {request.get('kind')!r}; "
                f"known: {list(ANALYSIS_KINDS)}"
            )

    def _serve(self, request: dict) -> dict:
        """One ``run``/``update``/``analysis`` request, start to finish
        (the pipeline of the module docstring).  The request is
        numbered before its check, so a refused one still takes its
        sequence number (a batch job's is its manifest position)."""
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
        self._check(request)
        op = request.get("op", "run")
        cfg = self.config
        self.requests += 1
        if op == "update":
            self.updates += 1
        backend, workers = cfg.backend, 1
        if op == "run":
            backend = request.get("backend", cfg.backend)
            workers = int(request.get("workers", cfg.workers))
        t0 = time.perf_counter()
        journaled = False
        try:
            nodes, edges = self._size_hint(request)
            with self.admission.admit(
                nodes=nodes,
                edges=edges,
                backend=backend,
                num_workers=workers,
            ):
                # Past admission the request is *accepted*: from here
                # it must complete or shed — the journal's invariant.
                if self.journal is not None:
                    self.journal.accepted(seq, request)
                    journaled = True
                if op == "run":
                    response = self._attempts(request, seq, workers)
                else:
                    response = self._route(request, seq, 0, None)
            self.completed += 1
            if response.get("applied"):
                self.updates_applied += 1
            if journaled:
                self.journal.completed(
                    seq,
                    ok=True,
                    labels_crc32=response.get("labels_crc32"),
                    version=(
                        response.get("graph_version")
                        if op == "update"
                        else None
                    ),
                )
            if response.get("certificate") is not None:
                self.certificates_issued += 1
            if op == "run" and self.auditor is not None:
                # the reference replay must be clean: strip the chaos
                # drill, keep everything that shapes the answer.
                self.auditor.maybe_submit(
                    seq,
                    {
                        k: v
                        for k, v in request.items()
                        if k not in ("fault_plan", "certify", "id")
                    },
                    response.get("labels_crc32"),
                    backend_used=response.get("backend_used"),
                    fingerprint=response.get("session_fingerprint"),
                )
            response["id"] = request.get("id")
        except Exception as exc:
            response = self._error_response(request, exc)
            if journaled:
                if response["shed"]:
                    self.journal.shed(
                        seq, reason=getattr(exc, "reason", "overload")
                    )
                else:
                    self.journal.completed(
                        seq, ok=False, error_type=response["error_type"]
                    )
        response["seconds"] = time.perf_counter() - t0
        return response

    def _attempts(self, request: dict, seq: int, workers: int) -> dict:
        """Pipeline step 4 for ``run``: retries, breakers, deadline."""
        cfg = self.config
        # task-kernel faults in the request's own plan need the
        # supervised executor: the breakers steer from there.
        requested = run_faults(request.get("fault_plan")).backend or (
            request.get("backend", cfg.backend)
        )
        budget = request.get("deadline", cfg.default_deadline)
        expiry = (
            time.monotonic() + float(budget) if budget is not None else None
        )
        used = [requested]

        def attempt(n: int) -> dict:
            backend = used[0] = self.breakers.resolve(requested)
            if self.fault_plan is not None:
                self.fault_plan.fire(
                    "request", seq, stage="pre", attempt=n, thread_site=True
                )
            remaining = None
            if expiry is not None:
                remaining = expiry - time.monotonic()
                if remaining <= 0:
                    raise PhaseTimeoutError("request", float(budget))
            forward = dict(
                request, backend=backend, workers=workers, deadline=remaining
            )
            return self._route(forward, seq, n, remaining)

        def on_failure(exc: BaseException, n: int) -> None:
            # Only infra failures are backend-health signals; a typo'd
            # method or corrupt file says nothing about the pool.
            if classify_failure(exc) == "transient":
                self.breakers.record(used[0], ok=False)

        outcome = cfg.retry.execute(attempt, key=seq, on_failure=on_failure)
        backend = used[0]
        self.breakers.record(backend, ok=True)
        if outcome.attempts > 1:
            self.retried += 1
        if backend != requested:
            self.degraded_runs += 1
        return dict(
            outcome.value,
            backend_requested=requested,
            backend_used=backend,
            attempts=outcome.attempts,
            backoff_seconds=outcome.backoff_seconds,
            retried_errors=outcome.errors,
        )

    def _route(
        self, forward: dict, seq: int, attempt: int, budget: Optional[float]
    ) -> dict:
        """Pipeline step 5: the worker fleet while it is up, else the
        local dispatch — N=1, fork unavailable, or the whole fleet
        lost: the in-process engine is the floor.  A worker's ``ok:
        false`` re-raises typed (its transient/permanent verdict
        crossing the pipe); a worker dying mid-request is replayed by
        the supervisor underneath and only surfaces as a transient
        :class:`~repro.errors.WorkerLostError` once replay is spent."""
        if self.supervisor is None or not self.supervisor.available:
            return self.dispatch(forward, seq, attempt)
        response = self.supervisor.execute(
            forward, seq, budget=budget, attempt=attempt
        )
        if response.get("ok", False):
            return response
        if response.get("shed"):
            raise ServiceOverloadError(
                response.get("error", "worker shed the request"),
                reason="worker-overload",
            )
        from .workers import RemoteRequestError

        raise RemoteRequestError(response)

    # -- stream op: live edge feeds over mutable sessions ----------------
    def _handle_stream(self, request: dict) -> dict:
        """Attach / inspect / detach a live edge feed.

        ``attach`` spawns a consumer thread that pulls the named
        source, batches edits, and drives them through the service's
        own request pipeline as ``update`` requests — so every applied
        batch pays admission, lands a journal stamp, and (on the
        sharded tier) pins to the worker owning the mutable session,
        exactly like a client-sent update.  ``status`` reports the
        consumer's counters and freshness lag; ``detach`` stops the
        feed and returns the final stats.  Feeds are stopped
        automatically on drain.
        """
        self._check(request)
        action = request.get("action", "status")
        self.requests += 1
        if action == "attach":
            response = self._stream_attach(request)
        elif action == "status":
            response = self._stream_status(request)
        elif action == "detach":
            response = self._stream_detach(request)
        else:
            raise ValueError(
                f"unknown stream action {action!r}; "
                f"known: ['attach', 'detach', 'status']"
            )
        self.completed += 1
        return response

    def _stream_attach(self, request: dict) -> dict:
        from ..ingest.checkpoint import StreamCheckpoint
        from ..ingest.consumer import RequestApplier, StreamConsumer
        from ..ingest.sources import open_source
        from ..runtime.faults import retarget

        if not request.get("graph"):
            raise ValueError("stream attach needs a 'graph' source")
        if not request.get("source"):
            raise ValueError(
                "stream attach needs a 'source' feed spec "
                "(tail:<path>, tail-once:<path>, socket:<path>, "
                "tcp:<host>:<port>)"
            )
        name = str(request.get("name") or request["graph"])
        source_kwargs = {
            # per-feed chaos: network kinds fire inside the source.
            "fault_plan": (
                retarget(
                    request["fault_plan"],
                    "stream",
                    hang_seconds=request.get("stall_seconds"),
                )
                if request.get("fault_plan")
                else None
            ),
        }
        if request.get("max_reconnects") is not None:
            source_kwargs["max_reconnects"] = int(request["max_reconnects"])
        if request.get("read_timeout") is not None:
            source_kwargs["read_timeout"] = float(request["read_timeout"])
        if request.get("stall_timeout") is not None:
            source_kwargs["stall_timeout"] = float(request["stall_timeout"])
        source = open_source(str(request["source"]), **source_kwargs)
        checkpoint = (
            StreamCheckpoint(request["checkpoint"])
            if request.get("checkpoint")
            else None
        )
        applier = RequestApplier(
            self.handle,
            request["graph"],
            request.get("scale"),
            request.get("on_error"),
        )
        try:
            consumer = StreamConsumer(
                source,
                applier,
                on_error=request.get("on_error", "skip"),
                dedup_window=int(request.get("dedup_window", 1024)),
                checkpoint=checkpoint,
                batch_edges=int(request.get("batch_edges", 512)),
                batch_age=float(request.get("batch_age", 0.5)),
                degrade_log_ratio=request.get("degrade_log_ratio"),
                max_batches=request.get("max_batches"),
            )
        except Exception:
            source.close()
            raise
        feed = _StreamFeed(name, source, consumer)
        with self._streams_lock:
            if name in self.streams:
                source.close()
                raise ValueError(f"stream {name!r} is already attached")
            self.streams[name] = feed
        feed.thread.start()
        return {
            "op": "stream",
            "id": request.get("id"),
            "ok": True,
            "action": "attach",
            "name": name,
            "graph": request["graph"],
            "source": source.describe(),
            "resumed": consumer.resumed,
        }

    def _stream_get(self, request: dict):
        name = request.get("name") or request.get("graph")
        if not name:
            raise ValueError("stream request needs a 'name' (or 'graph')")
        with self._streams_lock:
            feed = self.streams.get(str(name))
            known = sorted(self.streams)
        if feed is None:
            raise ValueError(
                f"no attached stream {name!r}; attached: {known}"
            )
        return feed

    def _stream_status(self, request: dict) -> dict:
        feed = self._stream_get(request)
        return {
            "op": "stream",
            "id": request.get("id"),
            "ok": True,
            "action": "status",
            "name": feed.name,
            "alive": feed.thread.is_alive(),
            "error": feed.error_text(),
            "stats": feed.consumer.stats(),
        }

    def _stream_detach(self, request: dict) -> dict:
        feed = self._stream_get(request)
        feed.consumer.stop()
        feed.thread.join(timeout=30.0)
        feed.source.close()
        with self._streams_lock:
            self.streams.pop(feed.name, None)
        return {
            "op": "stream",
            "id": request.get("id"),
            "ok": True,
            "action": "detach",
            "name": feed.name,
            "error": feed.error_text(),
            "stats": feed.consumer.stats(),
        }

    def _error_response(self, request: dict, exc: Exception) -> dict:
        response = error_response(request, exc)
        if response["shed"]:
            self.shed += 1
        else:
            self.failed += 1
        return response

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        stats = super().stats()
        stats["integrity"].update(
            certificates_issued=self.certificates_issued,
            audit=self.auditor.to_dict() if self.auditor else None,
        )
        stats.update(
            requests=self.requests,
            completed=self.completed,
            failed=self.failed,
            shed=self.shed,
            retried=self.retried,
            degraded_runs=self.degraded_runs,
            transport_errors=self.transport_errors,
            updates=self.updates,
            updates_applied=self.updates_applied,
            uptime_seconds=self._clock() - self._started,
            admission=self.admission.to_dict(),
            breakers=self.breakers.to_dict(),
            streams={
                feed.name: {
                    "alive": feed.thread.is_alive(),
                    "error": feed.error_text(),
                    "stats": feed.consumer.stats(),
                }
                for feed in list(self.streams.values())
            },
            workers=(
                self.supervisor.to_dict() if self.supervisor else None
            ),
            journal=self.journal.reconcile() if self.journal else None,
        )
        return stats

    def note_transport_error(self) -> None:
        """Record a client that vanished mid-read/mid-response."""
        self.transport_errors += 1

    def write_report(self, path) -> None:
        """Atomically publish the final stats report (drain epilogue).

        With a worker fleet, fresh per-worker snapshots are pulled
        first so the merged report covers every shard, not just the
        front."""
        from ..ioutil import atomic_path

        if self.supervisor is not None:
            try:
                self.supervisor.collect_stats()
            except Exception:
                pass
        if self.auditor is not None:
            # let queued audits land so the report tells the truth.
            self.auditor.drain(timeout=10.0)
        with atomic_path(path, suffix=".json") as tmp:
            with open(tmp, "w") as fh:
                json.dump(self.stats(), fh, indent=2, sort_keys=True)
                fh.write("\n")


class _StreamFeed:
    """One attached live feed: its source, consumer, and thread."""

    def __init__(self, name, source, consumer) -> None:
        self.name = name
        self.source = source
        self.consumer = consumer
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._run, name=f"stream-{name}", daemon=True
        )

    def _run(self) -> None:
        try:
            self.consumer.run()
        except BaseException as exc:  # surfaced via status/detach
            self.error = exc
        finally:
            self.source.close()

    def error_text(self) -> Optional[str]:
        if self.error is None:
            return None
        return f"{type(self.error).__name__}: {self.error}"


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------
@contextmanager
def _drain_signals(service: "SCCService", stop: threading.Event):
    """SIGTERM/SIGINT -> drain + stop (main thread only; no-op else)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _drain(signum, frame):
        service.drain()
        stop.set()

    old = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        old[sig] = signal.signal(sig, _drain)
    try:
        yield
    finally:
        for sig, handler in old.items():
            signal.signal(sig, handler)


class _Handlers:
    """The request-handler threads a transport has started and that
    are still running.  A finished handler drops out, so a long-lived
    daemon holds only its in-flight threads; :meth:`join` waits for
    those at drain."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: set = set()

    def start(self, target) -> None:
        def run() -> None:
            try:
                target()
            finally:
                with self._lock:
                    self._live.discard(threading.current_thread())

        t = threading.Thread(target=run)
        with self._lock:
            self._live.add(t)
        t.start()

    def join(self) -> None:
        with self._lock:
            live = list(self._live)
        for t in live:
            t.join()


def _respond(out_stream, lock: threading.Lock, response: dict) -> None:
    line = json.dumps(response, sort_keys=True)
    with lock:
        out_stream.write(line + "\n")
        out_stream.flush()


def _bad_request(error: str, error_type: str = "ValueError") -> dict:
    """A transport-level refusal: the line never became a request."""
    return {
        "ok": False,
        "error": error,
        "error_type": error_type,
        "exit_code": 1,
    }


def _send_line(conn, response: dict) -> None:
    conn.sendall((json.dumps(response, sort_keys=True) + "\n").encode())


def serve_stdin(
    service: SCCService,
    *,
    in_stream,
    out_stream,
    max_requests: Optional[int] = None,
    report_path=None,
) -> int:
    """Serve line-delimited JSON requests until EOF/shutdown/SIGTERM.

    ``run`` requests are dispatched to their own thread (admission —
    not the thread count — bounds concurrency; excess sheds typed);
    control requests answer inline.  ``max_requests`` drains after
    dispatching that many run requests (CI smokes).  Returns the
    process exit code.
    """
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def _read() -> None:
        try:
            for raw in in_stream:
                lines.put(raw)
        finally:
            lines.put(None)

    threading.Thread(target=_read, daemon=True).start()
    stop = threading.Event()
    out_lock = threading.Lock()
    handlers = _Handlers()
    dispatched = 0
    with _drain_signals(service, stop):
        eof = False
        while not eof and not stop.is_set():
            try:
                raw = lines.get(timeout=0.1)
            except queue.Empty:
                continue
            if raw is None:
                eof = True
                break
            raw = raw.strip()
            if not raw:
                continue
            try:
                request = json.loads(raw)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                _respond(
                    out_stream, out_lock, _bad_request(f"bad request JSON: {exc}")
                )
                continue
            op = request.get("op", "run")
            if op != "run":
                _respond(out_stream, out_lock, service.handle(request))
                if op == "shutdown":
                    stop.set()
                    break
                continue
            handlers.start(
                lambda r=request: _respond(
                    out_stream, out_lock, service.handle(r)
                )
            )
            dispatched += 1
            if max_requests is not None and dispatched >= max_requests:
                break
        # Drain.  On a signal/shutdown exit, shed first so queued
        # waiters fail fast and only in-flight work finishes; on a
        # normal exit (EOF, max_requests), let every dispatched
        # request complete before closing admission — those were
        # promised service.  Then anything still buffered on the wire
        # is answered with a typed shed response; when the stream
        # hasn't hit EOF yet, wait briefly for in-transit lines so
        # none go unanswered.
        if stop.is_set():
            service.drain()
        handlers.join()
        service.drain()
        while True:
            try:
                raw = (
                    lines.get_nowait()
                    if eof
                    else lines.get(timeout=0.25)
                )
            except queue.Empty:
                break
            if raw is None:
                break
            if not raw.strip():
                continue
            try:
                request = json.loads(raw)
            except ValueError:
                continue
            if request.get("op", "run") == "run":
                _respond(out_stream, out_lock, service.handle(request))
        if report_path is not None:
            service.write_report(report_path)
    return 0


def _read_request_line(
    conn, max_line_bytes: int
) -> Tuple[Optional[bytes], Optional[str]]:
    """Read one newline-terminated request under a byte cap.

    Returns ``(line, None)`` on success and ``(None, reason)`` when
    the client closed early or exceeded the cap.  The per-connection
    ``settimeout`` (set by the caller) bounds every ``recv``, so a
    slow-loris client dribbling bytes forever raises
    ``socket.timeout`` instead of pinning the handler thread.
    """
    buf = bytearray()
    while True:
        chunk = conn.recv(4096)
        if not chunk:
            return None, "client closed before newline"
        buf += chunk
        i = buf.find(b"\n")
        if i >= 0:
            return bytes(buf[: i + 1]), None
        if len(buf) > max_line_bytes:
            return None, (
                f"request line exceeds {max_line_bytes} bytes"
            )


def serve_socket(
    service: SCCService,
    path,
    *,
    max_requests: Optional[int] = None,
    report_path=None,
    read_deadline: float = 30.0,
    max_line_bytes: int = 1 << 20,
) -> int:
    """Serve one JSON request per Unix-socket connection.

    Each connection sends one newline-terminated JSON request and
    receives one JSON response line.  SIGTERM/SIGINT (or a
    ``shutdown`` request) drains exactly like the stdin transport.

    Connections are hardened against hostile or broken clients: a
    client must deliver its newline within ``read_deadline`` seconds
    and ``max_line_bytes`` bytes, or the connection is dropped (a
    typed error is answered for an over-length line) and counted in
    ``transport_errors`` — a slow-loris holding bytes back can pin at
    most one handler thread for one deadline, never the accept loop.
    """
    import os

    path = os.fspath(path)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    stop = threading.Event()
    handlers = _Handlers()
    handled = 0
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as server:
        server.bind(path)
        server.listen(16)
        server.settimeout(0.1)
        with _drain_signals(service, stop):
            while not stop.is_set():
                if max_requests is not None and handled >= max_requests:
                    break
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    # A transient accept failure (EMFILE, a client that
                    # reset mid-handshake) must not kill the loop; only
                    # a drain-time close of the listener ends serving.
                    if stop.is_set():
                        break
                    service.note_transport_error()
                    time.sleep(0.05)
                    continue
                handled += 1

                def _serve_conn(conn=conn) -> None:
                    # Three independently-guarded stages: a client that
                    # disconnects mid-read or mid-response (EPIPE,
                    # ECONNRESET) costs exactly its own request; the
                    # accept loop never sees the failure.
                    with conn:
                        try:
                            conn.settimeout(read_deadline)
                            data, refused = _read_request_line(
                                conn, max_line_bytes
                            )
                        except OSError:
                            # socket.timeout included: a slow-loris whose
                            # deadline expired before the newline.  Drop,
                            # count, move on.
                            service.note_transport_error()
                            return
                        if data is None:
                            service.note_transport_error()
                            try:
                                _send_line(
                                    conn, _bad_request(f"bad request: {refused}")
                                )
                            except OSError:
                                pass
                            return
                        try:
                            request = json.loads(data)
                            if not isinstance(request, dict):
                                raise ValueError(
                                    "request must be a JSON object"
                                )
                            response = service.handle(request)
                            if request.get("op") == "shutdown":
                                stop.set()
                        except Exception as exc:
                            response = _bad_request(
                                f"bad request: {exc}", type(exc).__name__
                            )
                        try:
                            _send_line(conn, response)
                        except OSError:
                            # the response is shed; the work (and its
                            # journal record) already completed.
                            service.note_transport_error()

                handlers.start(_serve_conn)
            service.drain()
            handlers.join()
            if report_path is not None:
                service.write_report(report_path)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return 0
