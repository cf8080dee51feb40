"""Method 1: two-phase parallelization (Algorithm 6).

Phase 1 (data-level parallelism): Par-Trim, then Par-FWBW — all
threads cooperate on the same partition via parallel BFS until the
giant SCC is found — then Par-Trim again, because removing the giant
SCC exposes fresh trimming opportunities.  Phase 2 (task-level
parallelism): the conventional Recur-FWBW over the work queue (K = 1),
seeded by a scan of the surviving colour partitions (Section 4.2's
deferred set construction).

The pipeline is defined once, as a phase plan (:mod:`repro.core.phases`):
:func:`method1_scc` runs it straight through, while
:meth:`repro.engine.Engine.run` runs the same plan with optional
checkpoints at every phase boundary.
"""

from __future__ import annotations

from typing import List

from ..graph import CSRGraph
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from .parfwbw import par_fwbw
from .phases import PhaseSpec, run_plan
from .recurfwbw import collect_color_sets, run_recur_phase
from .result import SCCResult
from .state import SCCState
from .trim import par_trim

__all__ = ["method1_scc", "method1_phases"]


def method1_phases(
    *,
    giant_threshold: float = 0.01,
    max_fwbw_trials: int = 5,
    pivot_strategy: str = "random",
    pivot_repr: str = "hybrid",
    bfs_kernel: str = "level",
    queue_k: int = 1,
    backend: str = "serial",
    num_threads: int = 4,
    supervisor=None,
) -> List[PhaseSpec]:
    """The Algorithm 6 pipeline as a checkpointable phase plan."""

    def trim(state: SCCState, ctx) -> None:
        par_trim(state)

    def fwbw(state: SCCState, ctx) -> None:
        par_fwbw(
            state,
            0,
            giant_threshold=giant_threshold,
            max_trials=max_fwbw_trials,
            pivot_strategy=pivot_strategy,
            bfs_kernel=bfs_kernel,
        )

    def collect(state: SCCState, ctx) -> None:
        initial = collect_color_sets(state, phase="recur_fwbw")
        if pivot_repr == "scan":
            initial = [(c, None) for c, _ in initial]
        ctx["queue"] = initial

    def recur(state: SCCState, ctx) -> None:
        run_recur_phase(
            state,
            ctx["queue"],
            queue_k=queue_k,
            pivot_strategy=pivot_strategy,
            backend=backend,
            num_threads=num_threads,
            supervisor=supervisor,
            deadline=ctx.get("deadline"),
            session=ctx.get("session"),
        )

    return [
        PhaseSpec("par_trim_1", "par_trim", trim),
        PhaseSpec("par_fwbw", "par_fwbw", fwbw),
        PhaseSpec("par_trim_2", "par_trim", trim),
        PhaseSpec("collect_queue", "recur_fwbw", collect),
        PhaseSpec("recur_fwbw", "recur_fwbw", recur),
    ]


def method1_scc(
    g: CSRGraph,
    *,
    seed: int | None = 0,
    cost: CostModel = DEFAULT_COST_MODEL,
    **kwargs,
) -> SCCResult:
    """Algorithm 6.  See :func:`repro.core.api.strongly_connected_components`."""
    state = SCCState(g, seed=seed, cost=cost)
    run_plan(state, method1_phases(**kwargs))
    state.check_done()
    return SCCResult(
        labels=state.labels,
        method="method1",
        profile=state.profile,
        phase_of=state.phase_of,
    )
