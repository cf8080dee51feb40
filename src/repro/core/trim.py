"""Par-Trim: parallel iterative removal of size-1 SCCs (Algorithm 4).

A node whose in-degree or out-degree is zero *within its current
partition* (same colour, not yet detached) cannot lie on a cycle, so it
is a trivial SCC.  Trimming one node can expose another (Figure 1(b)'s
``c``, then ``b``, then ``a``), so the step iterates to a fixed point.

Two implementations:

* :func:`par_trim` — production version.  Effective degrees are
  computed once with a vectorized edge sweep, then maintained
  *incrementally*: each trimmed node decrements its still-attached
  neighbours' counters, and only nodes whose counter reaches zero are
  re-examined.  Total work is O(edges incident to trimmed nodes) after
  the first sweep.
* :func:`par_trim_rescan` — the paper's Algorithm 4 as literally
  written: every iteration rescans every remaining node.  Kept for the
  equivalence tests and the incremental-vs-rescan ablation bench.

Both record one parallel-for per iteration; the first sweep is the
big data-parallel region that gives Par-Trim its Figure 7 scaling.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..kernels import effective_degrees_arrays, sorted_unique, trim_decrement
from .state import PHASE_TRIM, SCCState

__all__ = [
    "effective_degrees",
    "trim_candidates",
    "par_trim",
    "par_trim_rescan",
]


def effective_degrees(
    state: SCCState, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Colour-restricted (out, in) degrees of ``nodes``.

    Counts only neighbours with the same colour; by the DONE_COLOR
    invariant (state.py) that also excludes detached nodes.  Returns
    dense arrays (valid only at ``nodes``) plus the number of adjacency
    entries scanned (for work accounting).  Dispatched through the
    kernel layer — this is Par-Trim's big data-parallel region.

    ``nodes`` holds distinct ids.  When it covers every node and every
    node carries one colour — the state each first Par-Trim starts
    from — every adjacency entry counts, so the degrees are the CSR row
    lengths and the same entries are reported scanned.
    """
    g = state.graph
    color = state.color
    if nodes.size == g.num_nodes and (
        nodes.size == 0 or color.min() == color.max()
    ):
        return (
            np.diff(g.indptr),
            np.diff(g.in_indptr),
            int(g.indptr[-1] + g.in_indptr[-1]),
        )
    return effective_degrees_arrays(
        g.indptr, g.indices, g.in_indptr, g.in_indices, nodes, color
    )


def trim_candidates(
    eff_out: np.ndarray, eff_in: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Nodes of ``nodes`` with zero effective in- or out-degree."""
    return nodes[(eff_out[nodes] == 0) | (eff_in[nodes] == 0)]




def par_trim(
    state: SCCState,
    *,
    phase: str = "par_trim",
    restrict: np.ndarray | None = None,
) -> int:
    """Trim size-1 SCCs to a fixed point; returns the number trimmed.

    ``restrict`` (bool mask) optionally limits trimming to a node
    subset (tests only — the algorithms always trim globally).
    """
    g, color, mark = state.graph, state.color, state.mark
    cost = state.cost
    if restrict is None:
        active = np.flatnonzero(~mark)
    else:
        active = np.flatnonzero(~mark & restrict)
    # The initial full sweep: degree counting over every active node.
    eff_out, eff_in, scanned = effective_degrees(state, active)
    state.trace.parallel_for(
        phase,
        work=cost.stream(nodes=2 * active.size, edges=scanned),
        items=int(active.size),
        schedule="dynamic",
    )
    cand = trim_candidates(eff_out, eff_in, active)
    trimmed = 0
    iterations = 0
    while cand.size:
        iterations += 1
        trimmed += int(cand.size)
        old_colors = color[cand].copy()
        state.mark_singletons(cand, PHASE_TRIM)
        # Decrement still-attached neighbours' counters.
        touched_parts = []
        iter_scanned = 0
        for indptr, indices, eff in (
            (g.indptr, g.indices, eff_in),  # out-edge u->v lowers in(v)
            (g.in_indptr, g.in_indices, eff_out),
        ):
            # A neighbour is decremented iff it still carries the colour
            # the trimmed node had (marked neighbours carry DONE_COLOR).
            hit, scanned = trim_decrement(
                indptr, indices, cand, old_colors, color, eff
            )
            iter_scanned += scanned
            if hit.size:
                touched_parts.append(hit)
        if touched_parts:
            touched = sorted_unique(np.concatenate(touched_parts))
            touched = touched[~mark[touched]]
            if restrict is not None:
                touched = touched[restrict[touched]]
        else:
            touched = np.empty(0, dtype=np.int64)
        state.trace.parallel_for(
            phase,
            work=cost.stream(nodes=cand.size, edges=iter_scanned),
            items=int(cand.size),
            schedule="dynamic",
        )
        cand = trim_candidates(eff_out, eff_in, touched)
    state.profile.bump("trim_invocations")
    state.profile.bump("trim_iterations", iterations)
    state.profile.bump("trimmed_nodes", trimmed)
    return trimmed


def par_trim_rescan(
    state: SCCState,
    *,
    phase: str = "par_trim",
    restrict: np.ndarray | None = None,
) -> int:
    """Algorithm 4 verbatim: full rescan every iteration (ablation)."""
    mark = state.mark
    cost = state.cost
    trimmed = 0
    iterations = 0
    while True:
        if restrict is None:
            active = np.flatnonzero(~mark)
        else:
            active = np.flatnonzero(~mark & restrict)
        if active.size == 0:
            break
        eff_out, eff_in, scanned = effective_degrees(state, active)
        state.trace.parallel_for(
            phase,
            work=cost.stream(nodes=2 * active.size, edges=scanned),
            items=int(active.size),
            schedule="dynamic",
        )
        cand = trim_candidates(eff_out, eff_in, active)
        if cand.size == 0:
            break
        iterations += 1
        trimmed += int(cand.size)
        state.mark_singletons(cand, PHASE_TRIM)
    state.profile.bump("trim_invocations")
    state.profile.bump("trim_iterations", iterations)
    state.profile.bump("trimmed_nodes", trimmed)
    return trimmed
