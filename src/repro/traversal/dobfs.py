"""Direction-optimizing BFS (Beamer, Asanović, Patterson [10]).

Section 4.2 notes that post-Graph500 BFS improvements "may improve our
performance results even further"; direction optimization is the main
one.  When the frontier grows large (as it does after 2-3 levels on a
small-world graph), switching from top-down edge expansion to a
bottom-up sweep — every unvisited node checks whether *any* parent is
in the frontier and stops at the first hit — skips the bulk of the
edge scans.  Provided as an optional kernel for the Par-FWBW forward
pass and benchmarked against the level-synchronous BFS.
"""

from __future__ import annotations

import numpy as np

from ..kernels import sorted_unique
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from ..runtime.trace import WorkTrace
from .bfs import BFSResult
from .frontier import expand_frontier

__all__ = ["direction_optimizing_bfs"]


def direction_optimizing_bfs(
    g,
    source: int,
    *,
    direction: str = "out",
    allowed: np.ndarray | None = None,
    alpha: float = 15.0,
    trace: WorkTrace | None = None,
    phase: str = "dobfs",
    cost: CostModel = DEFAULT_COST_MODEL,
) -> tuple[np.ndarray, BFSResult]:
    """Reachability mask via hybrid top-down / bottom-up BFS.

    Heuristic (Beamer et al.): go bottom-up when the frontier's
    out-edge count exceeds ``1/alpha`` of the edges incident to
    unvisited nodes.  The bottom-up sweep scans the *reverse* adjacency
    of every unvisited candidate, breaking at the first frontier
    parent; its savings come from those early exits.

    Returns the same ``(mask, BFSResult)`` shape as
    :func:`~repro.traversal.bfs.bfs_mask`; ``edges_scanned`` counts the
    entries actually inspected (including early-exited rows), which is
    what the comparison bench reports.
    """
    if direction == "out":
        fwd_ptr, fwd_idx = g.indptr, g.indices
        rev_ptr, rev_idx = g.in_indptr, g.in_indices
    elif direction == "in":
        fwd_ptr, fwd_idx = g.in_indptr, g.in_indices
        rev_ptr, rev_idx = g.indptr, g.indices
    else:
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")

    n = g.num_nodes
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    in_frontier = np.zeros(n, dtype=bool)
    frontier = np.array([source], dtype=np.int64)
    levels = 0
    edges = 0
    nodes_visited = 1
    candidates = (
        allowed.copy() if allowed is not None else np.ones(n, dtype=bool)
    )
    candidates[source] = False

    while frontier.size:
        frontier_degree = int(
            (fwd_ptr[frontier + 1] - fwd_ptr[frontier]).sum()
        )
        unvisited = np.flatnonzero(candidates)
        unvisited_degree = int(
            (rev_ptr[unvisited + 1] - rev_ptr[unvisited]).sum()
        )
        bottom_up = frontier_degree * alpha > unvisited_degree

        if bottom_up:
            in_frontier[:] = False
            in_frontier[frontier] = True
            next_nodes: list[int] = []
            scanned = 0
            # Per-candidate early-exit scan of reverse adjacency.
            for u in unvisited:
                row = rev_idx[rev_ptr[u] : rev_ptr[u + 1]]
                hit = in_frontier[row]
                k = int(np.argmax(hit)) if row.shape[0] else 0
                if row.shape[0] and hit[k]:
                    scanned += k + 1
                    next_nodes.append(int(u))
                else:
                    scanned += int(row.shape[0])
            new_frontier = np.array(next_nodes, dtype=np.int64)
        else:
            targets = expand_frontier(fwd_ptr, fwd_idx, frontier)
            scanned = int(targets.size)
            ok = candidates[targets]
            new_frontier = sorted_unique(targets[ok])

        edges += scanned
        if trace is not None:
            trace.parallel_for(
                phase,
                work=cost.bfs(
                    nodes=(unvisited.size if bottom_up else frontier.size),
                    edges=scanned,
                ),
                items=int(unvisited.size if bottom_up else frontier.size),
            )
        if new_frontier.size == 0:
            break
        visited[new_frontier] = True
        candidates[new_frontier] = False
        frontier = new_frontier
        nodes_visited += int(frontier.size)
        levels += 1

    return visited, BFSResult(
        levels=levels, edges_scanned=edges, nodes_visited=nodes_visited
    )
