"""Level-synchronous breadth-first search kernels.

These are the "efficient implementation of the breadth-first search
order graph traversal" the paper uses for the phase-1 reachability
computations (Section 4.2, citing [15, 10]).  On small-world graphs a
BFS has few levels with very large frontiers, so each level is one
wide data-parallel region — exactly what the trace records.

Three entry points:

* :func:`bfs_levels` — plain distance-labelled BFS (analysis use).
* :func:`bfs_mask` — reachability restricted by colour/mark filters.
* :func:`bfs_color_transform` — the Algorithm 5 traversal: visit nodes
  whose colour is in a transition map and recolour them on visit,
  pruning everywhere else.  Used by Par-FWBW for both the FW pass
  (``{c: cfw}``) and the BW pass (``{c: cbw, cfw: cscc}``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..kernels import bfs_level_transform, dedup_sorted, sorted_unique
from ..kernels.reference import DEDUP_DENSITY_DIVISOR
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from ..runtime.trace import WorkTrace
from .frontier import expand_frontier

__all__ = [
    "BFSResult",
    "bfs_levels",
    "bfs_mask",
    "bfs_color_transform",
    "dense_frontier",
]


@dataclass
class BFSResult:
    """Outcome of one BFS traversal."""

    #: number of levels (== eccentricity of the source within the
    #: visited region).
    levels: int
    #: total adjacency entries scanned.
    edges_scanned: int
    #: nodes visited (including the source).
    nodes_visited: int
    #: per transition target colour: the nodes recoloured to it
    #: (only for :func:`bfs_color_transform`).
    recolored: Dict[int, np.ndarray] = field(default_factory=dict)


def _graph_arrays(g, direction: str) -> tuple[np.ndarray, np.ndarray]:
    if direction == "out":
        return g.indptr, g.indices
    if direction == "in":
        return g.in_indptr, g.in_indices
    raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")


def bfs_levels(g, source: int, *, direction: str = "out") -> np.ndarray:
    """Distance from ``source`` to every node (-1 when unreachable)."""
    indptr, indices = _graph_arrays(g, direction)
    n = g.num_nodes
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        targets = expand_frontier(indptr, indices, frontier)
        targets = targets[dist[targets] == -1]
        if targets.size == 0:
            break
        dist[targets] = level
        frontier = dedup_sorted(targets, n)
    return dist


def dense_frontier(targets: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """The sorted new frontier of one dense BFS level.

    Scatters ``targets`` into a fresh flag array, clears every
    ``blocked`` entry, and reads the rest back with ``flatnonzero``:
    O(n + k), with no gather over the targets and no sort.
    """
    flags = np.zeros(blocked.size, dtype=bool)
    flags[targets] = True
    np.greater(flags, blocked, out=flags)  # flag and not blocked
    return np.flatnonzero(flags)


def bfs_mask(
    g,
    sources: np.ndarray | int,
    *,
    direction: str = "out",
    allowed: np.ndarray | None = None,
    trace: WorkTrace | None = None,
    phase: str = "bfs",
    cost: CostModel = DEFAULT_COST_MODEL,
) -> tuple[np.ndarray, BFSResult]:
    """Reachability mask from ``sources`` through ``allowed`` nodes.

    ``allowed`` (bool mask or None) gates which nodes may be visited;
    sources are visited unconditionally.  Each level is recorded into
    ``trace`` as a dynamic parallel-for.

    One ``blocked`` mask — visited nodes plus every node outside
    ``allowed`` — filters each level.  A level with more than
    ``n / DEDUP_DENSITY_DIVISOR`` targets takes
    :func:`dense_frontier`; a sparser one gathers ``blocked`` over its
    targets and sorts the survivors.
    """
    indptr, indices = _graph_arrays(g, direction)
    n = g.num_nodes
    start = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if allowed is None:
        blocked = np.zeros(n, dtype=bool)
    else:
        blocked = np.logical_not(allowed)
    blocked[start] = True
    frontier = start
    dense = n // DEDUP_DENSITY_DIVISOR
    levels = 0
    edges = 0
    nodes_visited = int(frontier.size)
    while frontier.size:
        targets = expand_frontier(indptr, indices, frontier)
        scanned = int(targets.size)
        edges += scanned
        if trace is not None:
            trace.parallel_for(
                phase,
                work=cost.bfs(nodes=frontier.size, edges=scanned),
                items=int(frontier.size),
            )
        if scanned == 0:
            break
        if scanned > dense:
            frontier = dense_frontier(targets, blocked)
        else:
            frontier = sorted_unique(targets[~blocked[targets]])
        if frontier.size == 0:
            break
        blocked[frontier] = True
        nodes_visited += int(frontier.size)
        levels += 1
    if allowed is None:
        visited = blocked
    else:
        # reached nodes are all allowed; sources may not be.
        visited = np.logical_and(blocked, allowed)
        visited[start] = True
    return visited, BFSResult(
        levels=levels, edges_scanned=edges, nodes_visited=nodes_visited
    )


def bfs_color_transform(
    g,
    pivot: int,
    transitions: Dict[int, int],
    color: np.ndarray,
    *,
    direction: str = "out",
    trace: WorkTrace | None = None,
    phase: str = "par_fwbw",
    cost: CostModel = DEFAULT_COST_MODEL,
) -> BFSResult:
    """Algorithm 5's pruned traversal with on-visit recolouring.

    Starting at ``pivot`` (recoloured first), traverse ``direction``
    edges; a node is visited iff its current colour is a key of
    ``transitions``, upon which it is recoloured to the mapped value
    and traversal continues through it; any other colour prunes the
    traversal.  Returns the nodes recoloured per target colour —
    the BW pass reads its SCC set straight out of
    ``result.recolored[cscc]``.
    """
    indptr, indices = _graph_arrays(g, direction)
    collected: Dict[int, List[np.ndarray]] = {
        new: [] for new in transitions.values()
    }
    pivot_color = int(color[pivot])
    if pivot_color not in transitions:
        raise ValueError(
            f"pivot colour {pivot_color} not in transition map {transitions}"
        )
    new_pivot_color = transitions[pivot_color]
    color[pivot] = new_pivot_color
    collected[new_pivot_color].append(np.array([pivot], dtype=np.int64))
    frontier = np.array([pivot], dtype=np.int64)
    levels = 0
    edges = 0
    nodes_visited = 1
    while frontier.size:
        hits, scanned = bfs_level_transform(
            indptr, indices, frontier, color, transitions
        )
        edges += scanned
        if trace is not None:
            trace.parallel_for(
                phase,
                work=cost.bfs(nodes=frontier.size, edges=scanned),
                items=int(frontier.size),
            )
        if scanned == 0:
            break
        next_parts: List[np.ndarray] = []
        for new, hit in zip(transitions.values(), hits):
            if hit.size == 0:
                continue
            collected[new].append(hit)
            next_parts.append(hit)
        if not next_parts:
            break
        frontier = np.concatenate(next_parts)
        nodes_visited += int(frontier.size)
        levels += 1
    recolored = {
        new: (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=np.int64)
        )
        for new, parts in collected.items()
    }
    return BFSResult(
        levels=levels,
        edges_scanned=edges,
        nodes_visited=nodes_visited,
        recolored=recolored,
    )
