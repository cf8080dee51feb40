"""Public API: one entry point for every SCC algorithm in the library."""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..graph import CSRGraph
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from ..runtime.metrics import ExecutionProfile
from ..runtime.trace import WorkTrace
from .baseline import baseline_scc
from .coloring import coloring_scc
from .fleischer import fwbw_scc
from .gabow import gabow_scc
from .kosaraju import kosaraju_scc
from .method1 import method1_scc
from .method2 import method2_scc
from .multistep import multistep_scc
from .result import SCCResult
from .tarjan import tarjan_scc

__all__ = ["strongly_connected_components", "METHODS"]


def _sequential(
    fn: Callable[..., np.ndarray], name: str
) -> Callable[..., SCCResult]:
    def run(g: CSRGraph, *, cost: CostModel = DEFAULT_COST_MODEL, **kwargs) -> SCCResult:
        profile = ExecutionProfile()
        with profile.wall_timer(name):
            labels = fn(g, trace=profile.trace, phase=name, cost=cost)
        return SCCResult(labels=labels, method=name, profile=profile)

    return run


#: method name -> runner.  The three paper algorithms accept the full
#: keyword set (seed, giant_threshold, pivot options, backend, ...);
#: the sequential baselines accept only ``cost``.
METHODS: Dict[str, Callable[..., SCCResult]] = {
    "tarjan": _sequential(tarjan_scc, "tarjan"),
    "kosaraju": _sequential(kosaraju_scc, "kosaraju"),
    "gabow": _sequential(gabow_scc, "gabow"),
    "baseline": baseline_scc,
    "method1": method1_scc,
    "method2": method2_scc,
    # extension comparators (not in the paper's evaluation):
    "fwbw": fwbw_scc,  # Fleischer et al. 2000: no Trim at all
    "coloring": coloring_scc,  # Orzan-style colour propagation
    "multistep": multistep_scc,  # Slota et al. 2014 follow-on
}


def strongly_connected_components(
    g: CSRGraph, method: str = "method2", **kwargs
) -> SCCResult:
    """Detect the strongly connected components of ``g``.

    Parameters
    ----------
    g:
        The input digraph (never mutated).
    method:
        ``"tarjan"`` — the optimal sequential algorithm (the paper's
        speedup denominator); ``"kosaraju"`` — sequential cross-check;
        ``"baseline"`` — parallel-Trim + recursive FW-BW (Algorithm 3);
        ``"method1"`` — two-phase parallelization (Algorithm 6);
        ``"method2"`` — + Trim2 + Par-WCC (Algorithm 9, the paper's
        best and this library's default).
    **kwargs:
        Per-method options.  Common ones for the parallel methods:

        ``seed`` (int): RNG seed for pivot selection.
        ``giant_threshold`` (float, default 0.01): fraction of nodes an
        SCC must cover for phase 1 to stop (Section 3.2's "say 1%").
        ``max_fwbw_trials`` (int, default 5): phase-1 pivot budget.
        ``pivot_strategy`` (str): "random" (paper), "maxdegree", "first".
        ``pivot_repr`` (str): "hybrid" (paper's set+colour scheme) or
        "scan" (colour array only — the ~10x-slower ablation).
        ``queue_k`` (int): work-queue batch size (paper: 1 for
        baseline/method1, 8 for method2).
        ``backend`` (str): the phase-2 executor — "serial" (default;
        the deterministic worklist) or "supervised" (GIL-free worker
        processes over shared memory with per-task timeouts, retry
        and a serial fallback; POSIX fork, serial without it).
        ``num_threads`` sets its worker count and ``supervisor`` (a
        :class:`~repro.runtime.supervisor.SupervisorConfig`) its
        budgets.
        ``bfs_kernel`` (str): "level" (paper) or "dobfs"
        (direction-optimizing forward pass) for methods 1/2.
        ``cost`` (CostModel): work-unit accounting constants.

    Returns
    -------
    SCCResult
        Labels plus the execution profile, whose
        :class:`~repro.runtime.trace.WorkTrace` can be replayed on a
        :class:`~repro.runtime.machine.Machine` to obtain simulated
        times at any thread count::

            result = strongly_connected_components(g, "method2")
            machine = Machine()
            t32 = machine.simulate(result.profile.trace, threads=32)
    """
    try:
        runner = METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(METHODS)}"
        ) from None
    return runner(g, **kwargs)
