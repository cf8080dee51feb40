"""Unified execution engine: backends, warm sessions, batch serving.

This package is the single construction path for phase-2 executors and
the load-once/run-many serving surface above them:

* :mod:`repro.engine.shm` — shared-memory mirrors of SCC state and the
  fork-inherited worker context (deduplicated from the process
  executors);
* :mod:`repro.engine.pool` — the one worker-pool lifecycle (fork,
  liveness, rebuild, teardown);
* :mod:`repro.engine.backends` — the two phase-2 drive functions
  (serial / supervised) and the :data:`BACKEND_NAMES` registry;
* :mod:`repro.engine.session` — :class:`GraphSession`: one graph,
  loaded once, with cached transpose/degrees/validation and a warm
  worker pool;
* :mod:`repro.engine.engine` — :class:`Engine`: fingerprint-keyed
  session cache plus ``run()`` / ``run_many()`` / ``update()``;
* :mod:`repro.engine.dynamic` — :class:`DynamicSCC`: incremental SCC
  maintenance over a mutable :class:`~repro.graph.delta.DeltaCSR`
  overlay (streaming edge inserts/deletes);
* :mod:`repro.engine.batch` — manifest parsing and per-job-isolated
  batch execution behind ``repro batch``, each job one in-process
  serve ``run`` request.
"""

from .backends import BACKEND_NAMES, get_executor
from .batch import BatchJob, BatchReport, JobRecord, load_manifest, run_batch
from .pool import WorkerPool, fork_available
from .session import GraphSession, SessionStats, graph_fingerprint
from .shm import (
    SharedStateMirror,
    arm_worker_context,
    disarm_worker_context,
    shm_array,
)


def __getattr__(name: str):
    # Engine pulls in repro.core, which (through the method pipelines)
    # reaches back into repro.runtime — the package that imports this
    # one at load time.  Resolving Engine lazily keeps the import graph
    # acyclic; every other symbol here is cycle-safe.
    if name == "Engine":
        from .engine import Engine

        return Engine
    if name == "UpdateReport":
        from .engine import UpdateReport

        return UpdateReport
    if name in ("DynamicSCC", "DynamicStats"):
        from . import dynamic

        return getattr(dynamic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BACKEND_NAMES",
    "get_executor",
    "BatchJob",
    "BatchReport",
    "JobRecord",
    "load_manifest",
    "run_batch",
    "Engine",
    "UpdateReport",
    "DynamicSCC",
    "DynamicStats",
    "WorkerPool",
    "fork_available",
    "GraphSession",
    "SessionStats",
    "graph_fingerprint",
    "SharedStateMirror",
    "arm_worker_context",
    "disarm_worker_context",
    "shm_array",
]
