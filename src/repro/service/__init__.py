"""Service hardening layer over the execution engine.

Four cooperating guards keep a long-running ``repro serve`` daemon
healthy under bursty, faulty, memory-hungry load (DESIGN.md §11):

* :mod:`repro.service.govern` — admission control: a bounded request
  queue that sheds typed overload errors, plus a cost-model memory
  gate that refuses graphs the budget cannot fit;
* :mod:`repro.service.retry` — a reusable retry policy (exponential
  backoff, deterministic jitter, transient-vs-permanent failure
  classification) and per-backend circuit breakers that degrade down
  the executor ladder;
* :mod:`repro.service.governor` — an RSS memory governor that evicts
  warm pools/sessions under pressure and refuses admission before the
  OOM killer fires;
* :mod:`repro.service.server` — the transports and the
  :class:`~repro.service.server.SCCService` core wiring them all
  around one :class:`~repro.engine.Engine`.

Two more modules extend the daemon across processes (DESIGN.md §12):

* :mod:`repro.service.journal` — the crash-safe request journal whose
  accepted = completed + shed ledger survives worker (and front)
  crashes;
* :mod:`repro.service.workers` — the sharded serving tier: consistent-
  hash routing to forked engine workers, heartbeat supervision,
  bounded respawn, and in-flight replay.

The server and workers modules (and through them the engine) import
lazily, so ``from repro.service import RetryPolicy`` stays cheap.
"""

from .govern import (
    AdmissionConfig,
    AdmissionController,
    estimate_edge_list_size,
)
from .governor import GovernorConfig, MemoryGovernor, rss_bytes
from .retry import (
    PERMANENT,
    TRANSIENT,
    BackendBreakers,
    CircuitBreaker,
    RetryOutcome,
    RetryPolicy,
    classify_failure,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "estimate_edge_list_size",
    "GovernorConfig",
    "MemoryGovernor",
    "rss_bytes",
    "TRANSIENT",
    "PERMANENT",
    "classify_failure",
    "RetryPolicy",
    "RetryOutcome",
    "CircuitBreaker",
    "BackendBreakers",
    "ServiceConfig",
    "SCCService",
    "serve_stdin",
    "serve_socket",
    "RequestJournal",
    "JournalRecovery",
    "scan_journal",
    "WorkerSupervisor",
    "HashRing",
    "routing_fingerprint",
    "RemoteRequestError",
]

_LAZY = {
    "ServiceConfig": "server",
    "SCCService": "server",
    "serve_stdin": "server",
    "serve_socket": "server",
    "RequestJournal": "journal",
    "JournalRecovery": "journal",
    "scan_journal": "journal",
    "WorkerSupervisor": "workers",
    "HashRing": "workers",
    "routing_fingerprint": "workers",
    "RemoteRequestError": "workers",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is not None:
        import importlib

        return getattr(
            importlib.import_module(f".{module}", __name__), name
        )
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
