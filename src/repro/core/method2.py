"""Method 2: the full pipeline (Algorithm 9).

Par-Trim, Par-FWBW (giant SCC), Par-Trim' (Trim, then Trim2 once, then
Trim again — Trim2 is costlier, so it runs a single time between two
ordinary trims), Par-WCC (each weakly connected component of the
shattered remainder becomes its own work item), then Recur-FWBW with
K = 8 — Method 2 generates enough task parallelism that larger fetch
batches pay off (Section 4.3).

Like Method 1, the pipeline is a phase plan (:mod:`repro.core.phases`)
shared between the plain runner and :meth:`repro.engine.Engine.run`.
"""

from __future__ import annotations

from typing import List

from ..graph import CSRGraph
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from .parfwbw import par_fwbw
from .phases import PhaseSpec, run_plan
from .recurfwbw import run_recur_phase
from .result import SCCResult
from .state import SCCState
from .trim import par_trim
from .trim2 import par_trim2
from .wcc import par_wcc

__all__ = ["method2_scc", "method2_phases"]


def method2_phases(
    *,
    giant_threshold: float = 0.01,
    max_fwbw_trials: int = 5,
    pivot_strategy: str = "random",
    pivot_repr: str = "hybrid",
    bfs_kernel: str = "level",
    queue_k: int = 8,
    use_trim2: bool = True,
    wcc_directions: str = "both",
    wcc_compress: bool = True,
    backend: str = "serial",
    num_threads: int = 4,
    supervisor=None,
) -> List[PhaseSpec]:
    """The Algorithm 9 pipeline as a checkpointable phase plan.

    ``use_trim2=False`` drops the Par-Trim2 step (the Section 3.4
    ablation: expect the WCC step to slow down on chain-heavy graphs).
    ``wcc_compress=False`` disables WCC pointer jumping, reproducing
    the paper's slow-convergence behaviour on high-diameter graphs.
    """

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

    def trim2(state: SCCState, ctx) -> None:
        par_trim2(state)

    def wcc(state: SCCState, ctx) -> None:
        items = par_wcc(
            state, directions=wcc_directions, compress=wcc_compress
        )
        if pivot_repr == "scan":
            items = [(c, None) for c, _ in items]
        ctx["queue"] = items

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

    plan = [
        PhaseSpec("par_trim_1", "par_trim", trim),
        PhaseSpec("par_fwbw", "par_fwbw", fwbw),
        # Par-Trim' = Trim, Trim2 (once), Trim.
        PhaseSpec("par_trim_2", "par_trim", trim),
    ]
    if use_trim2:
        plan.append(PhaseSpec("par_trim2", "par_trim2", trim2))
        plan.append(PhaseSpec("par_trim_3", "par_trim", trim))
    plan.append(PhaseSpec("par_wcc", "par_wcc", wcc))
    plan.append(PhaseSpec("recur_fwbw", "recur_fwbw", recur))
    return plan


def method2_scc(
    g: CSRGraph,
    *,
    seed: int | None = 0,
    cost: CostModel = DEFAULT_COST_MODEL,
    **kwargs,
) -> SCCResult:
    """Algorithm 9.  See :func:`repro.core.api.strongly_connected_components`."""
    state = SCCState(g, seed=seed, cost=cost)
    run_plan(state, method2_phases(**kwargs))
    state.check_done()
    return SCCResult(
        labels=state.labels,
        method="method2",
        profile=state.profile,
        phase_of=state.phase_of,
    )
