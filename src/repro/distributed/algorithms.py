"""Distributed FW-BW-Trim: Method 1 in a BSP message-passing setting.

The paper's closing claim is that the extensions "can be easily
implemented in such an environment as they only require data from
direct neighbors."  This module substantiates that: every phase-1
kernel is re-expressed as BSP supersteps whose only remote reads are
one-hop neighbour state —

* **dist_trim** — the degree sweep reads neighbour colours: every cut
  edge costs one message per sweep; subsequent incremental rounds only
  exchange the trimmed frontier's cut edges.
* **dist_bfs_reach** — level-synchronous BFS; each level's frontier
  expansion sends every cut edge it touches to the target's owner.
* **dist_wcc** — hook-and-compress label propagation; each iteration
  exchanges labels over active cut edges.
* **phase 2** — each work item (colour partition) is an independent
  sequential FW-BW chain (spawned children inherit their parent's
  partition), so items are LPT-scheduled onto ranks whole; the only
  communication is shipping each item's node set to its assignee.

Work/messages are attributed by node ownership while the computation
itself runs on the global arrays (the same substitution as the
shared-memory runtime, DESIGN.md §2): the algorithm executed is
identical, and what the cluster model needs — per-rank work and cut
traffic per superstep — is counted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.recurfwbw import collect_color_sets, run_recur_phase
from ..core.state import PHASE_FWBW, PHASE_TRIM, SCCState
from ..core.trim import effective_degrees, trim_candidates
from ..graph import CSRGraph
from ..kernels import sorted_unique
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from ..runtime.trace import TaskDAGRecord
from ..traversal.frontier import expand_frontier
from .cluster import DistTrace
from .partition import Partition

__all__ = [
    "dist_bfs_reach",
    "dist_trim",
    "dist_wcc",
    "distributed_method1",
    "DistributedResult",
]


def _per_rank(owner: np.ndarray, nodes: np.ndarray, weights, num_ranks: int):
    """Sum ``weights`` per owning rank of ``nodes``."""
    return np.bincount(
        owner[nodes], weights=weights, minlength=num_ranks
    ).astype(np.float64)


def _cut_sent(
    owner: np.ndarray, src: np.ndarray, dst: np.ndarray, num_ranks: int
) -> np.ndarray:
    """Messages sent per rank for the touched edges (cut edges only)."""
    cross = owner[src] != owner[dst]
    return np.bincount(
        owner[src[cross]], minlength=num_ranks
    ).astype(np.float64)


def dist_bfs_reach(
    state: SCCState,
    part: Partition,
    dtrace: DistTrace,
    pivot: int,
    transitions: Dict[int, int],
    *,
    direction: str = "out",
    phase: str = "par_fwbw",
) -> Dict[int, np.ndarray]:
    """Distributed Algorithm-5 traversal (colour-transforming BFS).

    Mirrors :func:`repro.traversal.bfs.bfs_color_transform`, recording
    one superstep per level: per-rank work = adjacency scanned from
    locally owned frontier nodes; messages = cut edges touched.
    Returns the recoloured node sets per target colour.
    """
    g, color, cost = state.graph, state.color, state.cost
    owner = part.owner
    if direction == "out":
        indptr, indices = g.indptr, g.indices
    elif direction == "in":
        indptr, indices = g.in_indptr, g.in_indices
    else:
        raise ValueError(f"bad direction {direction!r}")

    collected: Dict[int, List[np.ndarray]] = {
        new: [] for new in transitions.values()
    }
    pivot_color = int(color[pivot])
    if pivot_color not in transitions:
        raise ValueError("pivot colour not in transition map")
    new_pivot = transitions[pivot_color]
    color[pivot] = new_pivot
    collected[new_pivot].append(np.array([pivot], dtype=np.int64))
    frontier = np.array([pivot], dtype=np.int64)
    while frontier.size:
        targets, sources = expand_frontier(
            indptr, indices, frontier, return_sources=True
        )
        deg = indptr[frontier + 1] - indptr[frontier]
        work = _per_rank(
            owner, frontier, cost.bfs(nodes=1) + cost.bfs(edges=1) * deg,
            part.num_ranks,
        )
        sent = _cut_sent(owner, sources, targets, part.num_ranks)
        dtrace.superstep(phase, work, sent)
        if targets.size == 0:
            break
        tc = color[targets]
        next_parts: List[np.ndarray] = []
        for old, new in transitions.items():
            hit = sorted_unique(targets[tc == old])
            if hit.size:
                color[hit] = new
                collected[new].append(hit)
                next_parts.append(hit)
        if not next_parts:
            break
        frontier = np.concatenate(next_parts)
    return {
        new: (
            np.concatenate(parts) if parts else np.empty(0, np.int64)
        )
        for new, parts in collected.items()
    }


def dist_trim(
    state: SCCState,
    part: Partition,
    dtrace: DistTrace,
    *,
    phase: str = "par_trim",
) -> int:
    """Distributed Par-Trim (incremental, per-iteration supersteps)."""
    g, color, mark, cost = state.graph, state.color, state.mark, state.cost
    owner = part.owner
    active = np.flatnonzero(~mark)
    eff_out, eff_in, _ = effective_degrees(state, active)
    deg = (
        g.indptr[active + 1]
        - g.indptr[active]
        + g.in_indptr[active + 1]
        - g.in_indptr[active]
    )
    # The degree sweep reads every neighbour's colour: cut edges of the
    # active set are exchanged once.
    t_out, s_out = expand_frontier(
        g.indptr, g.indices, active, return_sources=True
    )
    work = _per_rank(
        owner, active, cost.stream(nodes=2) + cost.stream(edges=1) * deg,
        part.num_ranks,
    )
    sent = _cut_sent(owner, s_out, t_out, part.num_ranks)
    dtrace.superstep(phase, work, 2.0 * sent)  # out + in exchanges
    cand = trim_candidates(eff_out, eff_in, active)
    trimmed = 0
    while cand.size:
        trimmed += int(cand.size)
        old_colors = color[cand].copy()
        state.mark_singletons(cand, PHASE_TRIM)
        touched_parts = []
        step_sent = np.zeros(part.num_ranks, dtype=np.float64)
        step_work = np.zeros(part.num_ranks, dtype=np.float64)
        for indptr, indices, eff in (
            (g.indptr, g.indices, eff_in),
            (g.in_indptr, g.in_indices, eff_out),
        ):
            targets, sources = expand_frontier(
                indptr, indices, cand, return_sources=True
            )
            if targets.size == 0:
                continue
            src_pos = np.searchsorted(cand, sources)
            valid = color[targets] == old_colors[src_pos]
            hit = targets[valid]
            np.subtract.at(eff, hit, 1)
            touched_parts.append(hit)
            step_sent += _cut_sent(owner, sources, targets, part.num_ranks)
            step_work += _per_rank(
                owner,
                sources,
                np.full(sources.shape[0], cost.stream(edges=1)),
                part.num_ranks,
            )
        dtrace.superstep(phase, step_work, step_sent)
        if touched_parts:
            touched = sorted_unique(np.concatenate(touched_parts))
            touched = touched[~mark[touched]]
        else:
            touched = np.empty(0, dtype=np.int64)
        cand = trim_candidates(eff_out, eff_in, touched)
    state.profile.bump("trimmed_nodes", trimmed)
    return trimmed


def dist_wcc(
    state: SCCState,
    part: Partition,
    dtrace: DistTrace,
    *,
    phase: str = "par_wcc",
) -> List[Tuple[int, np.ndarray]]:
    """Distributed Par-WCC: label exchange over active cut edges."""
    g, color, mark, cost = state.graph, state.color, state.mark, state.cost
    owner = part.owner
    active = np.flatnonzero(~mark)
    if active.size == 0:
        return []
    targets, sources = expand_frontier(
        g.indptr, g.indices, active, return_sources=True
    )
    valid = color[targets] == color[sources]
    u, v = sources[valid], targets[valid]
    sent_per_iter = _cut_sent(owner, u, v, part.num_ranks) + _cut_sent(
        owner, v, u, part.num_ranks
    )
    work_per_iter = _per_rank(
        owner, u, np.full(u.shape[0], 2 * cost.stream(edges=1)),
        part.num_ranks,
    ) + _per_rank(
        owner,
        active,
        np.full(active.shape[0], 2 * cost.stream(nodes=1)),
        part.num_ranks,
    )
    wcc = np.arange(g.num_nodes, dtype=np.int64)
    while True:
        before = wcc[active].copy()
        np.minimum.at(wcc, u, wcc[v])
        np.minimum.at(wcc, v, wcc[u])
        wcc[active] = wcc[wcc[active]]
        dtrace.superstep(phase, work_per_iter, sent_per_iter)
        if np.array_equal(before, wcc[active]):
            break
    while True:
        jumped = wcc[wcc[active]]
        if np.array_equal(jumped, wcc[active]):
            break
        wcc[active] = jumped
    labels = wcc[active]
    roots, inverse = np.unique(labels, return_inverse=True)
    colors = state.new_colors(roots.size)
    color[active] = colors[inverse]
    order = np.argsort(inverse, kind="stable")
    boundaries = np.searchsorted(inverse[order], np.arange(roots.size))
    grouped = np.split(active[order], boundaries[1:])
    return [(int(colors[i]), grouped[i]) for i in range(roots.size)]


@dataclass
class DistributedResult:
    """Outcome of a distributed run: labels + the BSP trace."""

    labels: np.ndarray
    dtrace: DistTrace
    num_sccs: int
    #: per-rank phase-2 work after LPT assignment (diagnostics).
    phase2_rank_work: np.ndarray


def distributed_method1(
    g: CSRGraph,
    part: Partition,
    *,
    seed: int | None = 0,
    cost: CostModel = DEFAULT_COST_MODEL,
    giant_threshold: float = 0.01,
    max_fwbw_trials: int = 5,
    use_wcc: bool = True,
    pivot_strategy: str = "maxdegree",
) -> DistributedResult:
    """Method 1 (optionally + Par-WCC, i.e. Method 2's splitter) as BSP.

    Phase 1 runs the distributed kernels above; phase 2 LPT-schedules
    whole work items onto ranks (an item's recursive children never
    leave its rank, so intra-item communication is zero and the only
    cost is shipping each item's node ids to its assignee).
    """
    state = SCCState(g, seed=seed, cost=cost)
    dtrace = DistTrace(part.num_ranks)
    owner = part.owner

    dist_trim(state, part, dtrace)
    # giant-SCC hunt
    current = 0
    for _ in range(max_fwbw_trials):
        candidates = np.flatnonzero(state.color == current)
        if candidates.size == 0:
            break
        pivot = state.pick(candidates, pivot_strategy)
        cfw = state.new_color()
        cbw = state.new_color()
        cscc = state.new_color()
        fw = dist_bfs_reach(
            state, part, dtrace, pivot, {current: cfw}, direction="out"
        )
        bw = dist_bfs_reach(
            state,
            part,
            dtrace,
            pivot,
            {current: cbw, cfw: cscc},
            direction="in",
        )
        scc_nodes = bw[cscc]
        state.mark_scc(scc_nodes, PHASE_FWBW)
        if scc_nodes.size >= max(1, int(np.ceil(giant_threshold * g.num_nodes))):
            break
        sizes = {
            current: candidates.size
            - scc_nodes.size
            - (fw[cfw].size - scc_nodes.size)
            - bw[cbw].size,
            cfw: fw[cfw].size - scc_nodes.size,
            cbw: bw[cbw].size,
        }
        current = max(sizes, key=lambda k: sizes[k])
    dist_trim(state, part, dtrace)

    if use_wcc:
        items = dist_wcc(state, part, dtrace)
    else:
        items = collect_color_sets(state)

    # Phase 2: run the recursive FW-BW serially for correctness and the
    # per-item subtree costs, then LPT-assign items to ranks.
    before_records = len(state.trace.records)
    run_recur_phase(state, items, queue_k=1)
    rec = [
        r
        for r in state.trace.records[before_records:]
        if isinstance(r, TaskDAGRecord)
    ][0]
    # subtree cost per root (items appear as roots in spawn order)
    subtree = np.array([t.cost for t in rec.tasks], dtype=np.float64)
    root_of = np.empty(len(rec.tasks), dtype=np.int64)
    for i, t in enumerate(rec.tasks):
        root_of[i] = i if t.parent == -1 else root_of[t.parent]
    root_ids = np.flatnonzero(
        np.array([t.parent == -1 for t in rec.tasks])
    )
    root_cost = {
        int(r): float(subtree[root_of == r].sum()) for r in root_ids
    }
    # LPT assignment
    rank_work = np.zeros(part.num_ranks, dtype=np.float64)
    rank_sent = np.zeros(part.num_ranks, dtype=np.float64)
    items_sorted = sorted(
        zip(root_ids.tolist(), items), key=lambda x: -root_cost[x[0]]
    )
    for root, (color_value, nodes) in items_sorted:
        r = int(np.argmin(rank_work))
        rank_work[r] += root_cost[root]
        if nodes is not None and nodes.size:
            # ship ids owned elsewhere to the assignee
            rank_sent += np.bincount(
                owner[nodes][owner[nodes] != r],
                minlength=part.num_ranks,
            )
    dtrace.superstep("recur_fwbw", rank_work, rank_sent)

    state.check_done()
    return DistributedResult(
        labels=state.labels,
        dtrace=dtrace,
        num_sccs=state.num_sccs,
        phase2_rank_work=rank_work,
    )
