"""Coloring-based parallel SCC detection (Orzan / MultiStep comparator).

The paper's related work compares against FW-BW-style decompositions;
the other major parallel SCC family is *coloring* (Orzan 2004; used as
the tail phase of Slota et al.'s MultiStep, IPDPS 2014 — work that
directly follows this paper).  Implemented here as an extension
comparator:

repeat until every node is detached:
  1. every active node's colour starts as its own id;
  2. propagate the **maximum** colour along out-edges to a fixed point
     (data-parallel ``np.maximum`` relaxations);
  3. every node that kept its own colour is a *root*; the SCC of root
     ``r`` is the set of nodes backward-reachable from ``r`` through
     nodes coloured ``r`` — computed for ALL roots simultaneously with
     one multi-source reverse BFS (colour equality confines each
     search to its own region);
  4. detach the found SCCs and repeat on what is left.

Coloring shines when there are many medium SCCs (it finds one SCC per
root per round, thousands at a time) and struggles when one giant SCC
forces whole-graph propagation rounds — the mirror image of FW-BW's
trade-offs, which is what makes it an interesting comparator for the
Figure 6-style benches (``benchmarks/bench_ext_comparators.py``).
"""

from __future__ import annotations

import numpy as np

from ..graph import CSRGraph
from ..kernels import sorted_unique
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from ..traversal.frontier import expand_frontier
from .result import SCCResult
from .state import PHASE_COLORING, SCCState
from .trim import par_trim

__all__ = ["coloring_scc", "color_propagation_round"]


def color_propagation_round(
    state: SCCState, active: np.ndarray, *, phase: str
) -> tuple[np.ndarray, int]:
    """One coloring round: max-propagation + SCC extraction.

    Returns ``(colors, iterations)`` where ``colors[v]`` is the final
    propagated colour of each active node (its SCC root candidate).
    Marks every discovered SCC in ``state``.
    """
    g, cost = state.graph, state.cost
    n = g.num_nodes

    # Edge list among active nodes (both endpoints active).
    targets, sources = expand_frontier(
        g.indptr, g.indices, active, return_sources=True
    )
    is_active = np.zeros(n, dtype=bool)
    is_active[active] = True
    keep = is_active[targets]
    u, v = sources[keep], targets[keep]

    colors = np.full(n, -1, dtype=np.int64)
    colors[active] = active  # own id
    iterations = 0
    while True:
        iterations += 1
        before = colors[active].copy()
        # forward max-propagation: colour flows along u -> v
        np.maximum.at(colors, v, colors[u])
        state.trace.parallel_for(
            phase,
            work=cost.stream(nodes=active.size, edges=u.size),
            items=int(active.size),
            schedule="dynamic",
        )
        if np.array_equal(before, colors[active]):
            break

    # Roots kept their own colour.  Multi-source reverse BFS: node w is
    # absorbed into root r's SCC iff w is coloured r and reaches r
    # (equivalently r reaches w backwards) through colour-r nodes.
    in_scc = np.zeros(n, dtype=bool)
    roots = active[colors[active] == active]
    in_scc[roots] = True
    frontier = roots
    while frontier.size:
        t, s = expand_frontier(
            g.in_indptr, g.in_indices, frontier, return_sources=True
        )
        state.trace.parallel_for(
            phase,
            work=cost.bfs(nodes=frontier.size, edges=t.size),
            items=int(frontier.size),
        )
        if t.size == 0:
            break
        ok = (~in_scc[t]) & (colors[t] == colors[s]) & is_active[t]
        nxt = sorted_unique(t[ok])
        if nxt.size == 0:
            break
        in_scc[nxt] = True
        frontier = nxt

    # Detach: group SCC members by their root colour.
    members = active[in_scc[active]]
    root_of = colors[members]
    order = np.argsort(root_of, kind="stable")
    members = members[order]
    root_sorted = root_of[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], root_sorted[1:] != root_sorted[:-1]))
    )
    groups = np.split(members, boundaries[1:])
    for grp in groups:
        state.mark_scc(grp, PHASE_COLORING)
    state.trace.parallel_for(
        phase,
        work=cost.stream(nodes=members.size),
        items=max(len(groups), 1),
    )
    return colors, iterations


def coloring_scc(
    g: CSRGraph,
    *,
    seed: int | None = 0,
    cost: CostModel = DEFAULT_COST_MODEL,
    use_trim: bool = True,
    max_rounds: int | None = None,
) -> SCCResult:
    """Detect SCCs by iterated colour propagation.

    ``use_trim`` runs Par-Trim between rounds (as MultiStep does);
    ``max_rounds`` bounds the outer loop (None = until done).
    """
    state = SCCState(g, seed=seed, cost=cost)
    rounds = 0
    with state.profile.wall_timer("coloring"):
        if use_trim:
            par_trim(state)
        while True:
            active = np.flatnonzero(~state.mark)
            state.trace.parallel_for(
                "coloring",
                work=cost.stream(nodes=g.num_nodes),
                items=g.num_nodes,
                schedule="static",
            )
            if active.size == 0:
                break
            if max_rounds is not None and rounds >= max_rounds:
                raise RuntimeError(
                    f"coloring did not converge in {max_rounds} rounds"
                )
            rounds += 1
            color_propagation_round(state, active, phase="coloring")
            if use_trim:
                par_trim(state)
    state.profile.bump("coloring_rounds", rounds)
    state.check_done()
    return SCCResult(
        labels=state.labels,
        method="coloring",
        profile=state.profile,
        phase_of=state.phase_of,
    )
