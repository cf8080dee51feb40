"""Tuned pure-NumPy kernels: the accelerated backend's no-numba tier.

When the ``numba`` backend is requested but numba is not importable,
these implementations take over the slots where vectorization genuinely
beats the reference (frontier-density-adaptive dedup, a
level-synchronous rewrite of the phase-2 DFS, repeat-based colour
matching in the Trim decrement).  Kernels with no better pure-NumPy
formulation — the WCC hook round, whose sequential ``minimum.at``
semantics are load-bearing for trace invariance, the Trim2 pattern
match, and the merged-view ``delta_expand_frontier`` of the dynamic
maintainer, whose argsort-grouped reference beat a sort-free scatter
variant on both small and all-node frontiers — simply keep the
reference implementation via the registry's per-kernel fallback
rule.

Every function here is parity-tested against
:mod:`repro.kernels.reference`: identical sorted output arrays,
identical scanned-edge counts.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import reference
from .registry import register

__all__ = [
    "bfs_level_transform",
    "trim_decrement",
    "dfs_collect_colored",
    "ms_expand_frontier",
    "ms_fwbw_intersect",
]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_U64 = np.empty(0, dtype=np.uint64)

#: below this many decremented entries ``np.subtract.at`` beats paying
#: for a length-n ``bincount`` allocation.
_BINCOUNT_CUTOFF = 1024


@register("bfs_level_transform", "numba")
def bfs_level_transform(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    color: np.ndarray,
    olds: np.ndarray,
    news: np.ndarray,
) -> Tuple[list, int]:
    """Reference semantics with dedup-before-gather.

    Dense BFS levels on small-world graphs produce target batches that
    are mostly duplicates.  Deduplicating *first* (density-adaptive:
    O(n + k) flag-array against the reference's O(k log k) sorts) means
    the colour gather, the per-transition compares and the extractions
    all run over at most ``n`` unique nodes instead of ``k`` raw
    adjacency entries.  The reference snapshots target colours before
    recolouring, so filtering the deduplicated set by colour yields
    exactly its sorted unique hit arrays.
    """
    num_nodes = indptr.shape[0] - 1
    targets = reference.expand_frontier(indptr, indices, frontier)
    scanned = int(targets.size)
    if scanned == 0:
        return [_EMPTY for _ in range(len(olds))], 0
    uniq = reference.dedup_sorted(targets, num_nodes)
    tc = color[uniq]
    hits = []
    for old, new in zip(olds, news):
        hit = uniq[tc == old]
        if hit.size:
            color[hit] = new
        else:
            hit = _EMPTY
        hits.append(hit)
    return hits, scanned


@register("trim_decrement", "numba")
def trim_decrement(
    indptr: np.ndarray,
    indices: np.ndarray,
    cand: np.ndarray,
    old_colors: np.ndarray,
    color: np.ndarray,
    eff: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Reference semantics, minus the per-edge binary search.

    The reference recovers each edge's source position with
    ``searchsorted`` (O(E log k)); repeating ``old_colors`` by the
    source degree pairs edges with their trimmed-node colour in O(E).
    Large decrement batches swap ``np.subtract.at`` (slow scalar
    scatter) for an equivalent ``bincount`` subtraction.
    """
    counts = reference.segment_counts(indptr, cand)
    targets = reference.expand_frontier(indptr, indices, cand)
    scanned = int(targets.size)
    if scanned == 0:
        return _EMPTY, 0
    valid = color[targets] == np.repeat(old_colors, counts)
    hit = targets[valid]
    if hit.size >= _BINCOUNT_CUTOFF:
        eff -= np.bincount(hit, minlength=eff.shape[0])
    else:
        np.subtract.at(eff, hit, 1)
    return hit, scanned


@register("dfs_collect_colored", "numba")
def dfs_collect_colored(
    indptr: np.ndarray,
    indices: np.ndarray,
    pivot: int,
    olds: np.ndarray,
    news: np.ndarray,
    color: np.ndarray,
) -> Tuple[list, int]:
    """Level-synchronous rewrite of the phase-2 colour-collecting DFS.

    A traversal's visited sets (and hence the sorted output contract,
    the per-new-colour partition, and the total adjacency entries
    scanned — each visited node is expanded exactly once) are
    independent of visit order, so the interpreted per-edge stack loop
    can be replaced wholesale by wide vectorized frontier expansions
    with adaptive dedup.  On 1M-edge partitions this is the difference
    between interpreter-bound and memory-bound.
    """
    num_nodes = indptr.shape[0] - 1
    trans = list(zip(olds.tolist(), news.tolist()))
    collected: dict[int, list] = {int(nw): [] for nw in news}
    pivot = int(pivot)
    new_pivot = dict(trans)[int(color[pivot])]
    color[pivot] = new_pivot
    pivot_arr = np.array([pivot], dtype=np.int64)
    collected[new_pivot].append(pivot_arr)
    frontier = pivot_arr
    edges = 0
    while frontier.size:
        targets = reference.expand_frontier(indptr, indices, frontier)
        edges += int(targets.size)
        if targets.size == 0:
            break
        tc = color[targets]
        next_parts = []
        for old, new in trans:
            hit = targets[tc == old]
            if hit.size == 0:
                continue
            hit = reference.dedup_sorted(hit, num_nodes)
            color[hit] = new
            collected[new].append(hit)
            next_parts.append(hit)
        if not next_parts:
            break
        frontier = np.concatenate(next_parts)
    parts = []
    seen: dict[int, np.ndarray] = {}
    for nw in news.tolist():
        nw = int(nw)
        if nw not in seen:
            chunks = collected[nw]
            seen[nw] = (
                np.sort(np.concatenate(chunks)) if chunks else _EMPTY
            )
        parts.append(seen[nw])
    return parts, edges


@register("ms_expand_frontier", "numba")
def ms_expand_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    frontier_bits: np.ndarray,
    visited: np.ndarray,
    color: np.ndarray,
    wave_colors: np.ndarray,
    wave_masks: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Reference semantics, filtering by ``visited`` first.

    On a dense level most adjacency entries land on targets that
    already carry the propagated lanes.  Each entry's bits are masked
    with ``~visited[target]`` before anything else and emptied entries
    are dropped, so the colour binary search and the per-target merge
    only see bits that can still be gained.  This is exact because
    ``visited`` is read once here and written once at the end
    (snapshot semantics) and ``(OR_s e_s) & ~v == OR_s (e_s & ~v)``.

    The surviving (target, bits) pairs merge by density, like
    :func:`reference.dedup_sorted`: more than
    ``n / DEDUP_DENSITY_DIVISOR`` entries OR into a length-``n``
    accumulator read back by its non-zero slots (O(n + k)); fewer are
    stable-sorted and folded with ``bitwise_or.reduceat``
    (O(k log k)).  The per-target OR is order-insensitive, so both
    give the reference's sorted nodes and merged bits.  The switch is
    conservative for this merge: on NumPy 2.4 the accumulator already
    wins from about ``n / 32`` entries and is ~3.5x faster than the
    sort at ``n / 8``.  The margin is kept because NumPy releases
    before 1.25 have a slower ``ufunc.at``; they were not measured, so
    whether ``n / 8`` still pays off there is unverified.

    Index extraction uses ``(mask).nonzero()[0]`` on boolean masks:
    ``flatnonzero`` adds microseconds of wrapper cost to the phase-2
    tail's many tiny levels, and a ``uint64`` operand takes NumPy's
    slow non-boolean scan on the large ones.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    if frontier.size == 0:
        return _EMPTY, _EMPTY_U64, 0
    counts = reference.segment_counts(indptr, frontier)
    targets = reference.expand_frontier(indptr, indices, frontier)
    scanned = int(targets.size)
    if scanned == 0:
        return _EMPTY, _EMPTY_U64, 0
    bits = np.repeat(frontier_bits, counts)
    bits &= ~visited[targets]
    keep = (bits != 0).nonzero()[0]
    targets = targets[keep]
    bits = bits[keep]
    tc = color[targets]
    pos = np.searchsorted(wave_colors, tc)
    np.minimum(pos, wave_colors.size - 1, out=pos)
    bits &= wave_masks[pos]
    live = ((wave_colors[pos] == tc) & (bits != 0)).nonzero()[0]
    if live.size == 0:
        return _EMPTY, _EMPTY_U64, scanned
    targets = targets[live]
    bits = bits[live]
    num_nodes = indptr.shape[0] - 1
    if live.size > num_nodes // reference.DEDUP_DENSITY_DIVISOR:
        acc = np.zeros(num_nodes, dtype=np.uint64)
        np.bitwise_or.at(acc, targets, bits)
        nxt = (acc != 0).nonzero()[0]
        nbits = acc[nxt]
    else:
        order = np.argsort(targets, kind="stable")
        ts = targets[order]
        boundary = np.empty(ts.size, dtype=bool)
        boundary[0] = True
        np.not_equal(ts[1:], ts[:-1], out=boundary[1:])
        starts = boundary.nonzero()[0]
        nxt = ts[starts]
        nbits = np.bitwise_or.reduceat(bits[order], starts)
    visited[nxt] |= nbits
    return nxt, nbits, scanned


@register("ms_fwbw_intersect", "numba")
def ms_fwbw_intersect(
    nodes: np.ndarray,
    bits: np.ndarray,
    fw_visited: np.ndarray,
    bw_visited: np.ndarray,
) -> np.ndarray:
    """Reference semantics with the branch masks fused.

    Same packed-``uint64`` bit algebra as the reference (including the
    lowest-set-bit tie-break ``claim & (~claim + 1)``); the only
    change is computing the direction tests once and combining them
    in place, which halves the temporaries on large batches.
    """
    f = fw_visited[nodes]
    w = bw_visited[nodes]
    claim = f & w
    f &= bits
    w &= bits
    cat = np.full(nodes.shape[0], reference.MS_UNREACHED, dtype=np.uint8)
    cat[f != 0] = reference.MS_FW_ONLY
    cat[(w != 0) & (f == 0)] = reference.MS_BW_ONLY
    claimed = claim != 0
    cat[claimed] = reference.MS_CLAIMED
    claim &= ~claim + np.uint64(1)  # lowest set bit
    cat[claimed & (claim == bits)] = reference.MS_SCC
    return cat
