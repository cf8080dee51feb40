"""The ``repro serve`` daemon: a hardened long-running serving front.

Requests are JSON objects, one per line (stdin/stdout by default, or
one request per connection on a Unix socket)::

    {"op": "run", "graph": "wiki", "scale": 0.1, "method": "method2",
     "backend": "supervised", "deadline": 5.0, "id": "r1"}
    {"op": "update", "graph": "wiki", "scale": 0.1,
     "inserts": [[0, 7], [7, 0]], "deletes": [[3, 4]], "id": "u1"}
    {"op": "health"}
    {"op": "stats"}
    {"op": "shutdown"}

Every ``run`` request flows through the full hardening stack, in
order:

1. **admission** (:mod:`repro.service.govern`) — queue-depth shedding,
   cost-model memory refusal, and the memory governor's RSS veto, all
   *before* any work starts;
2. **deadline** — the per-request budget is converted to an absolute
   expiry at admission and the *remaining* budget is propagated into
   the engine's phase deadlines on every attempt, so retries never
   extend a request past its deadline;
3. **retry** (:mod:`repro.service.retry`) — transient failures
   (broken pool, phase timeout, injected chaos) back off and retry;
   permanent ones (bad input) fail fast with their typed exit code;
4. **circuit breaker** — consecutive transient failures on a backend
   trip its breaker, and subsequent requests degrade down the one
   supervised -> serial ladder until the cooldown probe heals it;
5. **governor** (:mod:`repro.service.governor`) — RSS sampled per
   request; pressure evicts warm pools/sessions, hard-limit overshoot
   refuses admission.

Responses carry ``labels_crc32`` — the CRC of the canonical label
array — so clients (and the chaos tests) can verify bit-identical
results against an independent cold serial run without shipping the
full label vector.

**Graceful drain**: SIGTERM/SIGINT (or ``{"op": "shutdown"}``) stops
admission, lets in-flight requests finish, sheds everything queued
with typed :class:`~repro.errors.ServiceOverloadError` responses, and
atomically writes a final stats report before exiting 0.

**Sharded tier**: with ``worker_processes > 1`` (``repro serve
--workers N``) the same front fans admitted requests out to N forked
engine workers (:mod:`repro.service.workers`) with warm-session
affinity, crash failover replayed from a request journal
(:mod:`repro.service.journal`), and a two-phase drain that merges
every shard's stats into the final report; see DESIGN.md §12.
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
    ReproError,
    ServiceOverloadError,
    exit_code_for,
)
from ..ioutil import crc32_chunks
from .govern import (
    AdmissionConfig,
    AdmissionController,
    estimate_edge_list_size,
)
from .governor import GovernorConfig, MemoryGovernor
from .retry import BackendBreakers, RetryPolicy, classify_failure

__all__ = [
    "ServiceConfig",
    "SCCService",
    "serve_stdin",
    "serve_socket",
]

#: request keys a ``run`` request may carry; ``options`` may name only
#: method keywords (:func:`repro.engine.engine.check_method_options`).
_RUN_KEYS = frozenset(
    (
        "op",
        "id",
        "graph",
        "method",
        "backend",
        "workers",
        "seed",
        "scale",
        "on_error",
        "deadline",
        "options",
        "nodes",
        "edges",
        "fault_plan",
        "certify",
    )
)

#: request keys an ``update`` request may carry.  Updates are streamed
#: edge mutations against a (promoted-to-)mutable warm session; see
#: :meth:`repro.engine.Engine.update` and DESIGN.md §15.
_UPDATE_KEYS = frozenset(
    (
        "op",
        "id",
        "graph",
        "scale",
        "on_error",
        "inserts",
        "deletes",
        "compact",
        "compact_ratio",
        "damage_threshold",
        "nodes",
        "edges",
    )
)

#: request keys a ``stream`` request may carry.  Streams attach a live
#: edge feed to a warm mutable session; see :mod:`repro.ingest` and
#: DESIGN.md §16.
_STREAM_KEYS = frozenset(
    (
        "op",
        "id",
        "action",
        "name",
        "graph",
        "scale",
        "on_error",
        "source",
        "checkpoint",
        "batch_edges",
        "batch_age",
        "max_batches",
        "dedup_window",
        "degrade_log_ratio",
        "max_reconnects",
        "read_timeout",
        "stall_timeout",
        "stall_seconds",
        "fault_plan",
    )
)

#: request keys an ``analysis`` request may carry.  Analyses run the
#: structure suite (bow-tie, SCC histograms, clustering) over the
#: session's *current* labels — live-maintained when a stream feeds it.
_ANALYSIS_KEYS = frozenset(
    (
        "op",
        "id",
        "graph",
        "scale",
        "on_error",
        "kind",
        "samples",
        "seed",
    )
)

#: analysis kinds the ``analysis`` op accepts.
ANALYSIS_KINDS = ("summary", "histogram", "bowtie", "clustering")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one :class:`SCCService` enforces."""

    backend: str = "serial"
    workers: int = 2
    max_sessions: int = 8
    canonical: bool = True
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
    #: component-size fraction past which an intra-SCC delete falls
    #: back to a full rebuild (None = the engine's default).
    damage_threshold: Optional[float] = None

    def shard(self) -> "ServiceConfig":
        """The per-worker slice of this config.

        Each forked worker runs its own :class:`SCCService` built from
        this: single-engine (no nested tier, no journal — the front
        owns the ledger), and with the session cache and the governor's
        memory limits divided by the fleet size so N workers together
        respect the *one* budget the operator configured.
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
            # the front audits end-to-end (it sees the final CRCs);
            # workers auditing their own answers would double the cost
            # without widening coverage.
            audit_rate=0.0,
        )


class SCCService:
    """The hardened serving core (transport-agnostic).

    :meth:`handle` maps one request dict to one response dict and is
    safe to call from many threads at once: admission bounds how many
    requests may wait, the internal turnstile serializes engine access
    (warm sessions are not thread-safe), and :meth:`drain` sheds the
    waiters while the in-flight request finishes.
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
            canonical=cfg.canonical,
            max_sessions=cfg.max_sessions,
            integrity=cfg.checksums,
        )
        self.governor = (
            MemoryGovernor(self.engine, cfg.governor, clock=clock)
            if cfg.governor is not None
            else None
        )
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
        #: service-level chaos channel, fired at the "request" site
        #: with the request's admission sequence number as the index.
        self.fault_plan = fault_plan
        self.journal = None
        if cfg.journal_path:
            from .journal import RequestJournal

            self.journal = RequestJournal(cfg.journal_path)
        self.supervisor = None
        if cfg.worker_processes > 1:
            from ..engine.pool import fork_available

            if fork_available():
                from .workers import WorkerSupervisor, WorkerTierConfig

                tier = WorkerTierConfig(
                    num_workers=cfg.worker_processes,
                    heartbeat_interval=cfg.heartbeat_interval,
                    max_worker_restarts=cfg.max_worker_restarts,
                )
                self.supervisor = WorkerSupervisor(
                    cfg.shard(),
                    tier,
                    journal=self.journal,
                    on_worker_failure=(
                        lambda backend, worker: self.breakers.record(
                            backend, ok=False
                        )
                    ),
                ).start()
        #: attached live edge feeds, by name (``stream`` op registry).
        self.streams: dict = {}
        self._streams_lock = threading.Lock()
        self._seq = 0
        self._seq_lock = threading.Lock()
        # engine turnstile: one request runs at a time; waiters are
        # shed on drain.
        self._cond = threading.Condition()
        self._active = False
        self._shedding = False
        self._started = clock()
        self._clock = clock
        self.auditor = None
        if cfg.audit_rate > 0:
            from ..integrity import SelfAuditor

            self.auditor = SelfAuditor(
                rate=cfg.audit_rate,
                seed=cfg.audit_seed,
                on_mismatch=self._on_audit_mismatch,
            )
        # stats
        self.requests = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.retried = 0
        self.degraded_runs = 0
        self.transport_errors = 0
        self.integrity_detected = 0
        self.integrity_quarantines = 0
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
        self.engine.close()
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

    # -- request handling ----------------------------------------------
    def handle(self, request: dict) -> dict:
        """One request dict in, one response dict out (never raises)."""
        op = request.get("op", "run")
        try:
            if op == "run":
                return self._handle_run(request)
            if op == "update":
                return self._handle_update(request)
            if op == "stream":
                return self._handle_stream(request)
            if op == "analysis":
                return self._handle_analysis(request)
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
            return self._error_response(
                request, ValueError(f"unknown op {op!r}")
            )
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

    def _handle_run(self, request: dict) -> dict:
        unknown = sorted(set(request) - _RUN_KEYS)
        if unknown:
            return self._error_response(
                request,
                ValueError(
                    f"unknown request key(s) {unknown}; "
                    f"known: {sorted(_RUN_KEYS)}"
                ),
            )
        if not request.get("graph"):
            return self._error_response(
                request, ValueError("run request needs a 'graph' source")
            )
        from ..engine.engine import check_method_options

        try:
            check_method_options(
                request.get("method", "method2"), request.get("options")
            )
        except ValueError as exc:
            return self._error_response(request, exc)
        self.requests += 1
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
        requested = request.get("backend", self.config.backend)
        workers = int(request.get("workers", self.config.workers))
        budget = request.get("deadline", self.config.default_deadline)
        t0 = time.perf_counter()
        journaled = False
        try:
            nodes, edges = self._size_hint(request)
            with self.admission.admit(
                nodes=nodes,
                edges=edges,
                backend=requested,
                num_workers=workers,
            ):
                # Past admission the request is *accepted*: from here
                # it must complete or shed — the journal's invariant.
                if self.journal is not None:
                    self.journal.accepted(seq, request)
                    journaled = True
                if (
                    self.supervisor is not None
                    and self.supervisor.available
                ):
                    response = self._execute_sharded(
                        request, seq, requested, budget
                    )
                else:
                    # N=1, fork unavailable, or the whole fleet lost:
                    # the in-process single-engine path is the floor.
                    response = self._execute(
                        request, seq, requested, workers, budget
                    )
            self.completed += 1
            if journaled:
                self.journal.completed(
                    seq,
                    ok=True,
                    labels_crc32=response.get("labels_crc32"),
                )
            if response.get("certificate") is not None:
                self.certificates_issued += 1
            if self.auditor is not None and response.get("ok"):
                # the reference replay must be clean: strip the chaos
                # drill, keep everything that shapes the answer.
                audit_req = {
                    k: v
                    for k, v in request.items()
                    if k in _RUN_KEYS
                    and k not in ("fault_plan", "certify", "id")
                }
                self.auditor.maybe_submit(
                    seq,
                    audit_req,
                    response.get("labels_crc32"),
                    backend_used=response.get("backend_used"),
                    fingerprint=response.get("session_fingerprint"),
                )
            response["seconds"] = time.perf_counter() - t0
            return response
        except Exception as exc:
            resp = self._error_response(request, exc)
            if journaled:
                if resp.get("shed"):
                    self.journal.shed(
                        seq,
                        reason=getattr(exc, "reason", "overload"),
                    )
                else:
                    self.journal.completed(
                        seq,
                        ok=False,
                        error_type=resp.get("error_type"),
                    )
            resp["seconds"] = time.perf_counter() - t0
            return resp

    @staticmethod
    def _edge_pairs(raw, what: str) -> list:
        """Validate a request's edge list into ``(u, v)`` int pairs."""
        pairs = []
        for item in raw or ():
            try:
                u, v = item
                pairs.append((int(u), int(v)))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"bad {what} entry {item!r}: "
                    "need [u, v] integer pairs"
                ) from exc
        return pairs

    def _handle_update(self, request: dict) -> dict:
        """One streamed edge-update batch against a mutable session.

        Flows through the same admission gate and journal lifecycle as
        a ``run`` (accepted -> completed/shed); on the sharded tier the
        batch is pinned to the worker that owns the graph's mutable
        session (see :mod:`repro.service.workers`).  The response's
        ``graph_version`` and ``labels_crc32`` name the exact post-
        update state — the CRC is bit-comparable to a from-scratch
        run's canonical labels.
        """
        unknown = sorted(set(request) - _UPDATE_KEYS)
        if unknown:
            return self._error_response(
                request,
                ValueError(
                    f"unknown request key(s) {unknown}; "
                    f"known: {sorted(_UPDATE_KEYS)}"
                ),
            )
        if not request.get("graph"):
            return self._error_response(
                request,
                ValueError("update request needs a 'graph' source"),
            )
        try:
            inserts = self._edge_pairs(request.get("inserts"), "inserts")
            deletes = self._edge_pairs(request.get("deletes"), "deletes")
        except ValueError as exc:
            return self._error_response(request, exc)
        self.requests += 1
        self.updates += 1
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
        t0 = time.perf_counter()
        journaled = False
        try:
            nodes, edges = self._size_hint(request)
            with self.admission.admit(
                nodes=nodes,
                edges=edges,
                backend=self.config.backend,
                num_workers=1,
            ):
                if self.journal is not None:
                    self.journal.accepted(seq, request)
                    journaled = True
                if (
                    self.supervisor is not None
                    and self.supervisor.available
                ):
                    response = self._execute_update_sharded(request, seq)
                else:
                    response = self._execute_update(
                        request, inserts, deletes
                    )
            self.completed += 1
            if response.get("applied"):
                self.updates_applied += 1
            if journaled:
                self.journal.completed(
                    seq,
                    ok=True,
                    labels_crc32=response.get("labels_crc32"),
                    version=response.get("graph_version"),
                )
            response["seconds"] = time.perf_counter() - t0
            return response
        except Exception as exc:
            resp = self._error_response(request, exc)
            if journaled:
                if resp.get("shed"):
                    self.journal.shed(
                        seq,
                        reason=getattr(exc, "reason", "overload"),
                    )
                else:
                    self.journal.completed(
                        seq,
                        ok=False,
                        error_type=resp.get("error_type"),
                    )
            resp["seconds"] = time.perf_counter() - t0
            return resp

    def _execute_update(
        self, request: dict, inserts: list, deletes: list
    ) -> dict:
        with self._engine_turn():
            session = self.engine.load(
                request["graph"],
                scale=request.get("scale"),
                seed=None,
                on_error=request.get("on_error", "strict"),
            )
            try:
                if request.get("compact"):
                    # explicit degrade-to-snapshot: fold the delta log
                    # now (a streaming consumer over its compaction-
                    # debt budget sends this).
                    report = self.engine.compact(session)
                else:
                    report = self.engine.update(
                        session,
                        inserts,
                        deletes,
                        compact_ratio=request.get(
                            "compact_ratio", self.config.compact_ratio
                        ),
                        damage_threshold=request.get(
                            "damage_threshold", self.config.damage_threshold
                        ),
                    )
            except IntegrityError:
                self.integrity_detected += 1
                if self.config.on_corruption == "quarantine":
                    if self.engine.quarantine(session.fingerprint):
                        self.integrity_quarantines += 1
                raise
        return {
            "op": "update",
            "id": request.get("id"),
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

    def _execute_update_sharded(self, request: dict, seq: int) -> dict:
        from .workers import RemoteRequestError

        forward = {k: v for k, v in request.items() if k in _UPDATE_KEYS}
        response = self.supervisor.execute(forward, seq, budget=None)
        if not response.get("ok", False):
            if response.get("shed"):
                raise ServiceOverloadError(
                    response.get("error", "worker shed the update"),
                    reason="worker-overload",
                )
            raise RemoteRequestError(response)
        response = dict(response)
        response["id"] = request.get("id")
        return response

    # -- stream op: live edge feeds over mutable sessions ----------------
    def _handle_stream(self, request: dict) -> dict:
        """Attach / inspect / detach a live edge feed.

        ``attach`` spawns a consumer thread that pulls the named
        source, batches edits, and drives them through the service's
        own ``update`` path — so every applied batch pays admission,
        lands a journal stamp, and (on the sharded tier) pins to the
        worker owning the mutable session, exactly like a client-sent
        update.  ``status`` reports the consumer's counters and
        freshness lag; ``detach`` stops the feed and returns the final
        stats.  Feeds are stopped automatically on drain.
        """
        unknown = sorted(set(request) - _STREAM_KEYS)
        if unknown:
            return self._error_response(
                request,
                ValueError(
                    f"unknown request key(s) {unknown}; "
                    f"known: {sorted(_STREAM_KEYS)}"
                ),
            )
        action = request.get("action", "status")
        self.requests += 1
        try:
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
        except Exception as exc:
            return self._error_response(request, exc)
        self.completed += 1
        return response

    def _stream_fault_plan(self, request: dict):
        """Per-feed chaos: network-kind specs retargeted at the
        source's ``"stream"`` site, with the drill's stall duration."""
        if not request.get("fault_plan"):
            return None
        import dataclasses

        from ..runtime.faults import NETWORK_KINDS, FaultPlan

        plan = FaultPlan.parse(request["fault_plan"])
        stall = float(request.get("stall_seconds") or 0.0)
        specs = []
        for spec in plan.specs:
            if spec.kind in NETWORK_KINDS:
                spec = dataclasses.replace(
                    spec,
                    site="stream",
                    hang_seconds=(stall or spec.hang_seconds),
                )
            specs.append(spec)
        return FaultPlan(specs)

    def _stream_attach(self, request: dict) -> dict:
        from ..ingest.checkpoint import StreamCheckpoint
        from ..ingest.consumer import StreamConsumer
        from ..ingest.sources import open_source

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
            "fault_plan": self._stream_fault_plan(request),
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
        applier = _ServiceApplier(self, request)
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
        feed = _StreamFeed(name, request, source, consumer)
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
        if feed is None:
            with self._streams_lock:
                known = sorted(self.streams)
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

    # -- analysis op: structure suite over the live session --------------
    def _handle_analysis(self, request: dict) -> dict:
        """Run one structure analysis over a session's current labels.

        On a stream-fed mutable session the labels are the live
        incrementally-maintained ones — the response's
        ``graph_version`` says exactly which update epoch the numbers
        describe.  A cold session pays one full detection first.
        """
        unknown = sorted(set(request) - _ANALYSIS_KEYS)
        if unknown:
            return self._error_response(
                request,
                ValueError(
                    f"unknown request key(s) {unknown}; "
                    f"known: {sorted(_ANALYSIS_KEYS)}"
                ),
            )
        if not request.get("graph"):
            return self._error_response(
                request, ValueError("analysis request needs a 'graph'")
            )
        kind = request.get("kind", "summary")
        if kind not in ANALYSIS_KINDS:
            return self._error_response(
                request,
                ValueError(
                    f"unknown analysis kind {kind!r}; "
                    f"known: {list(ANALYSIS_KINDS)}"
                ),
            )
        self.requests += 1
        t0 = time.perf_counter()
        try:
            with self.admission.admit(
                backend=self.config.backend, num_workers=1
            ):
                with self._engine_turn():
                    result, version, num_sccs = self._execute_analysis(
                        request, kind
                    )
        except Exception as exc:
            resp = self._error_response(request, exc)
            resp["seconds"] = time.perf_counter() - t0
            return resp
        self.completed += 1
        return {
            "op": "analysis",
            "id": request.get("id"),
            "ok": True,
            "kind": kind,
            "graph": request["graph"],
            "graph_version": version,
            "num_sccs": num_sccs,
            "result": result,
            "seconds": time.perf_counter() - t0,
        }

    def _execute_analysis(self, request: dict, kind: str):
        import dataclasses

        import numpy as np

        from .. import analysis
        from ..core.result import canonical_labels

        session = self.engine.load(
            request["graph"],
            scale=request.get("scale"),
            seed=None,
            on_error=request.get("on_error", "strict"),
        )
        if session.dynamic is not None:
            labels = canonical_labels(
                np.ascontiguousarray(
                    session.dynamic.labels, dtype=np.int64
                )
            )
        else:
            labels = self.engine.run(session).labels
        num_sccs = int(labels.max()) + 1 if labels.size else 0
        if kind == "summary":
            summary = analysis.summarize_scc_structure(labels)
            result = dataclasses.asdict(summary)
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
        return result, session.version, num_sccs

    def _execute(
        self,
        request: dict,
        seq: int,
        requested: str,
        workers: int,
        budget: Optional[float],
    ) -> dict:
        expiry = (
            time.monotonic() + float(budget) if budget is not None else None
        )
        supervisor = None
        corrupt_specs: tuple = ()
        if request.get("fault_plan"):
            # per-request chaos drill, exactly like a batch job's
            # fault_plan field.  ``corrupt`` specs rot the warm arrays
            # right here (detection is the integrity tier's job, no
            # supervised backend needed); anything else still forces
            # the supervised backend.
            from ..runtime.faults import FaultPlan
            from ..runtime.supervisor import SupervisorConfig

            plan = FaultPlan.parse(request["fault_plan"])
            corrupt_specs = tuple(
                s for s in plan.specs if s.kind == "corrupt"
            )
            rest = [s for s in plan.specs if s.kind != "corrupt"]
            if rest:
                requested = "supervised"
                supervisor = SupervisorConfig(fault_plan=FaultPlan(rest))
        used = [requested]

        def corrupt_session(session, attempt: int) -> None:
            """Apply armed bit flips to the warm session's arrays.

            Request-carried ``corrupt`` specs target *this* request
            regardless of their site/index (``times`` still bounds the
            attempts hit, so the default 1 rots the first attempt and
            lets the retry's rebuilt session through); the service
            plan's specs match the ``"request"`` site by admission
            sequence as usual.  ``"phase"``-site specs are not applied
            here — they ride into :meth:`Engine.run` to fire at exact
            phase boundaries.
            """
            from ..runtime.faults import apply_corruption

            armed = [
                s
                for s in corrupt_specs
                if s.site != "phase" and attempt < s.times
            ]
            if self.fault_plan is not None:
                armed.extend(
                    self.fault_plan.corruptions("request", seq, attempt)
                )
            for spec in armed:
                if spec.array in ("labels", "color"):
                    continue  # run-owned state: use a "phase" plan.
                if spec.array in ("in_indptr", "in_indices"):
                    session.ensure_transpose()
                elif spec.array in ("out_degrees", "in_degrees"):
                    session.effective_degrees()
                apply_corruption(
                    session.integrity_arrays()[spec.array], spec
                )

        def phase_fault_plan(attempt: int):
            """The boundary-timed slice of the drill for this attempt
            (``times``-gated like the direct flips above).  Service-
            level "phase"-site corrupt specs (from ``--fault-plan``)
            hit every request's run the same way."""
            armed = [
                s
                for s in corrupt_specs
                if s.site == "phase" and attempt < s.times
            ]
            if self.fault_plan is not None:
                armed.extend(
                    s
                    for s in self.fault_plan.specs
                    if s.kind == "corrupt"
                    and s.site == "phase"
                    and attempt < s.times
                )
            if not armed:
                return None
            from ..runtime.faults import FaultPlan

            return FaultPlan(armed)

        def attempt_fn(attempt: int):
            backend = self.breakers.resolve(requested)
            used[0] = backend
            if self.fault_plan is not None:
                self.fault_plan.fire(
                    "request",
                    seq,
                    stage="pre",
                    attempt=attempt,
                    thread_site=True,
                )
            remaining = None
            if expiry is not None:
                remaining = expiry - time.monotonic()
                if remaining <= 0:
                    raise PhaseTimeoutError("request", float(budget))
            with self._engine_turn():
                session = self.engine.load(
                    request["graph"],
                    scale=request.get("scale"),
                    seed=None,
                    on_error=request.get("on_error", "strict"),
                )
                corrupt_session(session, attempt)
                runs_before = session.stats.runs
                warm_before = session.stats.warm_runs
                # read inside the turnstile: an update committing once
                # the turn ends must not restamp this run's answer.
                version = session.version
                try:
                    result = self.engine.run(
                        session,
                        method=request.get("method", "method2"),
                        backend=backend,
                        num_workers=workers,
                        seed=request.get("seed", 0),
                        supervisor=supervisor,
                        deadline=remaining,
                        fault_plan=phase_fault_plan(attempt),
                        **(request.get("options") or {}),
                    )
                    certificate = None
                    if request.get("certify"):
                        from ..integrity import certify_result

                        level = request["certify"]
                        certificate = certify_result(
                            session.graph,
                            result.labels,
                            level=(
                                "sample" if level is True else str(level)
                            ),
                            seed=int(request.get("seed", 0) or 0),
                        )
                        # pin the certificate to the exact graph state
                        # it proves: mutable sessions advance this per
                        # applied update batch.
                        certificate["graph_version"] = version
                except IntegrityError as exc:
                    # corruption (or a failed certificate) caught
                    # before any response: quarantine the rotten
                    # session so the retry rebuilds from source, or
                    # fail the request typed when the operator asked
                    # for loud failures.
                    self.integrity_detected += 1
                    if self.config.on_corruption == "quarantine":
                        if self.engine.quarantine(session.fingerprint):
                            self.integrity_quarantines += 1
                    else:
                        exc.transient_hint = False
                    raise
                warm = (
                    session.stats.runs == runs_before + 1
                    and session.stats.warm_runs == warm_before + 1
                )
            return backend, session, result, warm, certificate, version

        def on_failure(exc: BaseException, attempt: int) -> None:
            # Only infra failures are backend-health signals; a typo'd
            # method or corrupt file says nothing about the pool.
            if classify_failure(exc) == "transient":
                self.breakers.record(used[0], ok=False)

        outcome = self.config.retry.execute(
            attempt_fn, key=seq, on_failure=on_failure
        )
        backend, session, result, warm, certificate, version = (
            outcome.value
        )
        self.breakers.record(backend, ok=True)
        if outcome.attempts > 1:
            self.retried += 1
        if backend != requested:
            self.degraded_runs += 1
        if self.governor is not None:
            self.governor.relieve()
        response = {
            "op": "run",
            "id": request.get("id"),
            "ok": True,
            "graph": request["graph"],
            "method": request.get("method", "method2"),
            "backend_requested": requested,
            "backend_used": backend,
            "num_sccs": result.num_sccs,
            "largest_scc": result.largest_scc_size(),
            "giant_fraction": result.giant_fraction(),
            "labels_crc32": crc32_chunks(result.labels.tobytes()),
            "warm": warm,
            "attempts": outcome.attempts,
            "backoff_seconds": outcome.backoff_seconds,
            "retried_errors": outcome.errors,
            "session_fingerprint": session.fingerprint,
            "graph_version": version,
        }
        if certificate is not None:
            response["certificate"] = certificate
        return response

    def _execute_sharded(
        self,
        request: dict,
        seq: int,
        requested: str,
        budget: Optional[float],
    ) -> dict:
        """Run one request on the worker fleet, front retry included.

        The front's breakers and retry policy wrap the *dispatch*: a
        worker answering ``ok: false`` re-raises typed (the worker-side
        verdict crossing the pipe as ``transient_hint``), a worker
        dying mid-request is replayed by the supervisor underneath and
        only surfaces here as :class:`~repro.errors.WorkerLostError`
        once replay is exhausted — which is transient, because the
        respawned worker can serve the next attempt.
        """
        from .workers import RemoteRequestError

        expiry = (
            time.monotonic() + float(budget) if budget is not None else None
        )
        used = [requested]

        def attempt_fn(attempt: int):
            backend = self.breakers.resolve(requested)
            used[0] = backend
            if self.fault_plan is not None:
                self.fault_plan.fire(
                    "request",
                    seq,
                    stage="pre",
                    attempt=attempt,
                    thread_site=True,
                )
            remaining = None
            if expiry is not None:
                remaining = expiry - time.monotonic()
                if remaining <= 0:
                    raise PhaseTimeoutError("request", float(budget))
            forward = {
                k: v for k, v in request.items() if k in _RUN_KEYS
            }
            forward["backend"] = backend
            if remaining is not None:
                forward["deadline"] = remaining
            response = self.supervisor.execute(
                forward, seq, budget=remaining
            )
            if not response.get("ok", False):
                if response.get("shed"):
                    raise ServiceOverloadError(
                        response.get("error", "worker shed the request"),
                        reason="worker-overload",
                    )
                raise RemoteRequestError(response)
            return response

        def on_failure(exc: BaseException, attempt: int) -> None:
            if classify_failure(exc) == "transient":
                self.breakers.record(used[0], ok=False)

        outcome = self.config.retry.execute(
            attempt_fn, key=seq, on_failure=on_failure
        )
        response = dict(outcome.value)
        backend = used[0]
        self.breakers.record(backend, ok=True)
        if outcome.attempts > 1:
            self.retried += 1
        if backend != requested:
            self.degraded_runs += 1
        if self.governor is not None:
            self.governor.relieve()
        response["id"] = request.get("id")
        response["backend_requested"] = requested
        response["front_attempts"] = outcome.attempts
        return response

    def _error_response(self, request: dict, exc: Exception) -> dict:
        shed = isinstance(exc, ServiceOverloadError)
        if shed:
            self.shed += 1
        else:
            self.failed += 1
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
            "shed": shed,
            "error": message,
            "error_type": error_type,
            "exit_code": exit_code,
            "transient": classify_failure(exc) == "transient",
            "attempts": outcome.attempts if outcome is not None else 0,
        }

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        sessions = {
            f"{s.fingerprint:#010x}": dict(
                s.stats.to_dict(),
                name=s.name,
                estimated_bytes=s.estimated_bytes(),
            )
            for s in self.engine.sessions
        }
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "retried": self.retried,
            "degraded_runs": self.degraded_runs,
            "transport_errors": self.transport_errors,
            "updates": self.updates,
            "updates_applied": self.updates_applied,
            "uptime_seconds": self._clock() - self._started,
            "admission": self.admission.to_dict(),
            "integrity": {
                "checksums": self.config.checksums,
                "on_corruption": self.config.on_corruption,
                "detected": self.integrity_detected,
                "quarantines": self.integrity_quarantines,
                "engine_quarantines": self.engine.quarantines,
                "certificates_issued": self.certificates_issued,
                "verifications": sum(
                    s.stats.integrity_verifications
                    for s in self.engine.sessions
                ),
                "audit": (
                    self.auditor.to_dict() if self.auditor else None
                ),
            },
            "breakers": self.breakers.to_dict(),
            "governor": (
                self.governor.to_dict() if self.governor else None
            ),
            "sessions": sessions,
            "streams": {
                feed.name: {
                    "alive": feed.thread.is_alive(),
                    "error": feed.error_text(),
                    "stats": feed.consumer.stats(),
                }
                for feed in list(self.streams.values())
            },
            "workers": (
                self.supervisor.to_dict() if self.supervisor else None
            ),
            "journal": (
                self.journal.reconcile() if self.journal else None
            ),
        }

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

    def __init__(self, name, request, source, consumer) -> None:
        self.name = name
        self.request = dict(request)
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


class _ServiceApplier:
    """Consumer-side applier that drives the service's own ``update``
    path, so streamed batches pay admission, land journal stamps, and
    pin to the owning sharded worker exactly like client updates."""

    def __init__(self, service: "SCCService", request: dict) -> None:
        self.service = service
        self.graph = request["graph"]
        self.scale = request.get("scale")
        self.on_error = request.get("on_error")

    def _request(self, **fields) -> dict:
        req = {"op": "update", "graph": self.graph}
        if self.scale is not None:
            req["scale"] = self.scale
        if self.on_error is not None:
            req["on_error"] = self.on_error
        req.update(fields)
        return req

    def apply_batch(self, inserts, deletes) -> dict:
        return self.service.handle(
            self._request(
                inserts=[list(e) for e in inserts],
                deletes=[list(e) for e in deletes],
            )
        )

    def compact(self) -> dict:
        return self.service.handle(self._request(compact=True))


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


def _respond(out_stream, lock: threading.Lock, response: dict) -> None:
    line = json.dumps(response, sort_keys=True)
    with lock:
        out_stream.write(line + "\n")
        out_stream.flush()


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
    workers: list = []
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
                    out_stream,
                    out_lock,
                    {
                        "ok": False,
                        "error": f"bad request JSON: {exc}",
                        "error_type": "ValueError",
                        "exit_code": 1,
                    },
                )
                continue
            op = request.get("op", "run")
            if op == "shutdown":
                _respond(out_stream, out_lock, service.handle(request))
                stop.set()
                break
            if op != "run":
                _respond(out_stream, out_lock, service.handle(request))
                continue
            t = threading.Thread(
                target=lambda r=request: _respond(
                    out_stream, out_lock, service.handle(r)
                )
            )
            t.start()
            workers.append(t)
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
        for t in workers:
            t.join()
        workers.clear()
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
    out_lock = threading.Lock()  # per-connection streams; lock unused
    workers: list = []
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
                        except socket.timeout:
                            # slow-loris: deadline expired before the
                            # newline arrived.  Drop, count, move on.
                            service.note_transport_error()
                            return
                        except OSError:
                            service.note_transport_error()
                            return
                        if data is None:
                            service.note_transport_error()
                            try:
                                conn.sendall(
                                    (
                                        json.dumps(
                                            {
                                                "ok": False,
                                                "error": (
                                                    f"bad request: {refused}"
                                                ),
                                                "error_type": "ValueError",
                                                "exit_code": 1,
                                            },
                                            sort_keys=True,
                                        )
                                        + "\n"
                                    ).encode()
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
                            response = {
                                "ok": False,
                                "error": f"bad request: {exc}",
                                "error_type": type(exc).__name__,
                                "exit_code": 1,
                            }
                        try:
                            conn.sendall(
                                (
                                    json.dumps(response, sort_keys=True)
                                    + "\n"
                                ).encode()
                            )
                        except OSError:
                            # the response is shed; the work (and its
                            # journal record) already completed.
                            service.note_transport_error()

                t = threading.Thread(target=_serve_conn)
                t.start()
                workers.append(t)
            service.drain()
            for t in workers:
                t.join()
            if report_path is not None:
                service.write_report(report_path)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return 0
