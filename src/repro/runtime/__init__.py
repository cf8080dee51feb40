"""Parallel-runtime substrate: the simulated multicore machine.

The paper evaluates on a 2-socket, 16-core, 32-hardware-thread Xeon
with OpenMP.  This package substitutes for that hardware (DESIGN.md §2):
algorithms record their parallel structure into a
:class:`~repro.runtime.trace.WorkTrace`, and
:class:`~repro.runtime.machine.Machine` replays the trace on a
configurable machine model — per-socket/SMT throughput, barrier costs,
and a discrete-event simulation of the two-level work queue
(:mod:`repro.runtime.scheduler`).  Phase 2 really runs on the serial
worklist or on supervised worker processes (:mod:`repro.runtime.
supervisor`; the GIL forbids a threaded speedup).
"""

from .cost import CostModel, DEFAULT_COST_MODEL
from .trace import (
    ParallelForRecord,
    SequentialRecord,
    Task,
    TaskDAGRecord,
    WorkTrace,
    STANDARD_THREAD_COUNTS,
    static_chunk_maxima,
)
from .machine import Machine, MachineConfig, SimResult, PAPER_MACHINE
from .scheduler import QueueStats, simulate_task_dag
from .metrics import ExecutionProfile, TaskLogEntry
from .serialize import save_trace, load_trace, trace_to_dict, trace_from_dict
from .faults import FaultInjected, FaultPlan, FaultSpec
from .supervisor import (
    PoolBrokenError,
    SupervisorConfig,
    SupervisorReport,
    run_supervised_recur_phase,
)
from .lifecycle import latest_checkpoint, load_checkpoint

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "ParallelForRecord",
    "SequentialRecord",
    "Task",
    "TaskDAGRecord",
    "WorkTrace",
    "STANDARD_THREAD_COUNTS",
    "static_chunk_maxima",
    "Machine",
    "MachineConfig",
    "SimResult",
    "PAPER_MACHINE",
    "QueueStats",
    "simulate_task_dag",
    "ExecutionProfile",
    "TaskLogEntry",
    "save_trace",
    "load_trace",
    "trace_to_dict",
    "trace_from_dict",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "PoolBrokenError",
    "SupervisorConfig",
    "SupervisorReport",
    "run_supervised_recur_phase",
    "latest_checkpoint",
    "load_checkpoint",
]
