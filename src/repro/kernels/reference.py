"""Reference (pure NumPy) implementations of the hot kernels.

These carry the library's canonical semantics: every other backend is
parity-tested against them (bit-identical outputs, identical trace
work quantities).  They are also the ``numpy`` backend users can pin
with ``--kernels numpy`` to take JIT compilation out of the picture
when debugging.

Kernel signatures are deliberately *array-level* — raw CSR arrays in,
arrays out, no :class:`~repro.core.state.SCCState` or graph objects —
so the same contracts can be implemented by ``@njit`` loops
(:mod:`repro.kernels.jit`) without object-mode escapes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .registry import register

__all__ = [
    "segment_counts",
    "segment_total",
    "sorted_unique",
    "dedup_sorted",
    "expand_frontier",
    "delta_expand_frontier",
    "bfs_level_transform",
    "effective_degrees_arrays",
    "trim_decrement",
    "wcc_hook_round",
    "trim2_pattern_pairs",
    "dfs_collect_colored",
    "ms_expand_frontier",
    "ms_fwbw_intersect",
    "MS_MAX_WAVES",
    "MS_SCC",
    "MS_FW_ONLY",
    "MS_BW_ONLY",
    "MS_UNREACHED",
    "MS_CLAIMED",
]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_U64 = np.empty(0, dtype=np.uint64)

#: one ``uint64`` mask per node bounds the batch width.
MS_MAX_WAVES = 64

#: :func:`ms_fwbw_intersect` categories.  ``MS_SCC`` — the queried wave
#: claims the node as an SCC member (lowest claiming wave wins the
#: tie-break); ``MS_CLAIMED`` — some *other* wave claims it;
#: ``MS_FW_ONLY`` / ``MS_BW_ONLY`` — reached in exactly one direction
#: by the queried wave; ``MS_UNREACHED`` — untouched by it.
MS_SCC = 0
MS_FW_ONLY = 1
MS_BW_ONLY = 2
MS_UNREACHED = 3
MS_CLAIMED = 4

#: frontier-density threshold for the adaptive dedup: with more than
#: ``n / DEDUP_DENSITY_DIVISOR`` candidate entries the O(n) bitmap
#: beats the O(k log k) sort of :func:`sorted_unique`.
DEDUP_DENSITY_DIVISOR = 8


def segment_counts(indptr: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Per-frontier-node adjacency counts, always int64.

    The promotion matters: with an int32 CSR the difference inherits
    int32, and the ``cumsum`` over it (and the total-size arithmetic)
    can silently overflow once a frontier covers more than 2^31
    adjacency entries.  All downstream index arithmetic therefore goes
    through this helper.
    """
    counts = indptr[frontier + np.int64(1)] - indptr[frontier]
    return counts.astype(np.int64, copy=False)


def segment_total(counts: np.ndarray, indices: np.ndarray) -> int:
    """``counts.sum()`` for rows gathered from ``indices``, refused
    when one row is longer than ``indices`` itself.

    One flipped high bit in ``indptr[k]`` makes row ``k - 1`` billions
    of entries long, and gathering it would first allocate the whole
    bogus range.  Raises ``ValueError`` before that, so the integrity
    tier can type the failure.  Rows are measured only once the total
    passes the array (a frontier may repeat nodes), which keeps the
    common gather at one comparison.
    """
    total = int(counts.sum())
    if total > indices.shape[0] and int(counts.max()) > indices.shape[0]:
        raise ValueError(
            f"a frontier row spans {int(counts.max())} adjacency entries "
            f"but the gathered array holds {indices.shape[0]}: "
            "corrupt indptr"
        )
    return total


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by sort and boundary mask.

    Since the 2.3 series a plain ``np.unique`` (no ``return_*``, no
    ``axis``) answers from a hash table and sorts the result; on the
    small int64 batches of the hot paths that is 2-14x slower than
    sorting first and keeping each entry that differs from its
    predecessor.  Same output for the integer arrays the package
    dedups: a flattened, sorted, duplicate-free array of ``values``'
    dtype (NaNs, which ``np.unique`` collapses, would not be).
    """
    ordered = np.sort(values, axis=None)
    if ordered.size <= 1:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def dedup_sorted(values: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted unique node ids, choosing the representation by density.

    Sparse batches sort (:func:`sorted_unique`); dense batches — more
    than 1/8th of the node count — set flags in a bitmap and read them
    back with ``flatnonzero``, which is O(n + k) instead of O(k log k)
    and stops dense BFS levels from re-sorting mostly-duplicate
    targets.  Both paths return the identical sorted-unique array.
    """
    k = values.size
    if k == 0:
        return _EMPTY
    if k > num_nodes // DEDUP_DENSITY_DIVISOR:
        flags = np.zeros(num_nodes, dtype=bool)
        flags[values] = True
        return np.flatnonzero(flags)
    return sorted_unique(values)


def _is_contiguous_range(frontier: np.ndarray) -> bool:
    """True when ``frontier`` is ``arange(f0, f0 + len)`` (sorted, dense)."""
    if frontier.size <= 1:
        return frontier.size == 1
    if int(frontier[-1]) - int(frontier[0]) + 1 != frontier.size:
        return False
    return bool((np.diff(frontier) == 1).all())


@register("expand_frontier", "numpy")
def expand_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    *,
    return_sources: bool = False,
    unique: bool = False,
) -> Tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Gather the concatenated adjacency lists of ``frontier`` nodes.

    Returns the targets array; with ``return_sources=True`` also
    returns a parallel array repeating each frontier node once per
    out-edge (needed by degree-counting kernels).  With ``unique=True``
    the targets are deduplicated and sorted (density-adaptive), saving
    callers their own dedup pass; it cannot be combined with
    ``return_sources`` (dedup would break the pairing).

    When the frontier is a contiguous ascending range — the whole-graph
    sweeps of Trim and WCC always are — the gather collapses to one
    slice of ``indices``, skipping the global ``arange`` ragged-gather
    entirely.

    A row longer than ``indices`` raises ``ValueError``
    (:func:`segment_total`).
    """
    if unique and return_sources:
        raise ValueError("unique=True cannot be combined with return_sources")
    frontier = np.asarray(frontier, dtype=np.int64)
    num_nodes = indptr.shape[0] - 1
    if frontier.size == 0:
        return (_EMPTY, _EMPTY) if return_sources else _EMPTY
    counts = segment_counts(indptr, frontier)
    total = segment_total(counts, indices)
    if total == 0:
        return (_EMPTY, _EMPTY) if return_sources else _EMPTY
    if _is_contiguous_range(frontier):
        lo = int(indptr[frontier[0]])
        targets = indices[lo : lo + total].astype(np.int64, copy=True)
    else:
        starts = indptr[frontier].astype(np.int64, copy=False)
        cum = np.cumsum(counts)
        # position j of output sits in segment k with offset
        # j - (cum[k] - counts[k])
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            starts - (cum - counts), counts
        )
        targets = indices[idx].astype(np.int64, copy=False)
    if return_sources:
        return targets, np.repeat(frontier, counts)
    if unique:
        return dedup_sorted(targets, num_nodes)
    return targets


@register("bfs_level_transform", "numpy")
def bfs_level_transform(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    color: np.ndarray,
    olds: np.ndarray,
    news: np.ndarray,
) -> Tuple[list, int]:
    """One level of the Algorithm 5 colour-transforming traversal.

    Expands ``frontier``, and for each transition ``olds[i] ->
    news[i]`` recolours the targets whose colour is ``olds[i]``.
    Returns ``(hits, scanned)`` where ``hits[i]`` is the sorted unique
    array of nodes recoloured to ``news[i]`` (empty arrays for misses)
    and ``scanned`` the adjacency entries inspected.

    Contract: ``news`` values must not appear in ``olds`` (the callers
    always map onto freshly allocated colours), which makes
    snapshot-style and sequential recolouring equivalent.
    """
    targets = expand_frontier(indptr, indices, frontier)
    scanned = int(targets.size)
    hits = []
    if scanned == 0:
        return [_EMPTY for _ in range(len(olds))], 0
    tc = color[targets]
    for old, new in zip(olds, news):
        hit = targets[tc == old]
        if hit.size:
            hit = sorted_unique(hit)
            color[hit] = new
        else:
            hit = _EMPTY
        hits.append(hit)
    return hits, scanned


@register("effective_degrees", "numpy")
def effective_degrees_arrays(
    indptr: np.ndarray,
    indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    nodes: np.ndarray,
    color: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Colour-restricted (out, in) degrees of ``nodes``.

    Counts only neighbours with the same colour; by the DONE_COLOR
    invariant (state.py) that also excludes detached nodes.  Returns
    dense arrays (valid only at ``nodes``) plus the number of adjacency
    entries scanned (for work accounting).
    """
    n = indptr.shape[0] - 1
    eff_out = np.zeros(n, dtype=np.int64)
    eff_in = np.zeros(n, dtype=np.int64)
    scanned = 0
    for ptr, idx, eff in (
        (indptr, indices, eff_out),
        (in_indptr, in_indices, eff_in),
    ):
        targets, sources = expand_frontier(
            ptr, idx, nodes, return_sources=True
        )
        scanned += int(targets.size)
        if targets.size:
            valid = color[targets] == color[sources]
            counts = np.bincount(sources[valid], minlength=n)
            eff += counts
    return eff_out, eff_in, scanned


@register("trim_decrement", "numpy")
def trim_decrement(
    indptr: np.ndarray,
    indices: np.ndarray,
    cand: np.ndarray,
    old_colors: np.ndarray,
    color: np.ndarray,
    eff: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Decrement neighbour degree counters for trimmed nodes ``cand``.

    ``cand`` must be sorted ascending; ``old_colors[i]`` is the colour
    ``cand[i]`` carried before it was detached.  An edge counts iff the
    neighbour still carries that colour (marked neighbours carry
    DONE_COLOR).  Decrements ``eff`` in place; returns ``(hit,
    scanned)`` where ``hit`` lists the decremented neighbours (with
    duplicates, in expansion order) for the caller's touched-set union.
    """
    targets, sources = expand_frontier(
        indptr, indices, cand, return_sources=True
    )
    scanned = int(targets.size)
    if scanned == 0:
        return _EMPTY, 0
    src_pos = np.searchsorted(cand, sources)
    valid = color[targets] == old_colors[src_pos]
    hit = targets[valid]
    np.subtract.at(eff, hit, 1)
    return hit, scanned


@register("wcc_hook_round", "numpy")
def wcc_hook_round(
    u: np.ndarray,
    v: np.ndarray,
    wcc: np.ndarray,
    active: np.ndarray,
    both: bool,
    compress: bool,
) -> None:
    """One Par-WCC iteration: hook (min-label pull) + optional compress.

    Mutates ``wcc`` in place.  Semantics are load-bearing for trace
    invariance: ``np.minimum.at(wcc, u, wcc[v])`` gathers ``wcc[v]`` as
    a *snapshot* before accumulating (each pull pass sees labels from
    the start of that pass, never labels it just wrote), and the
    compress round is likewise snapshot gather-then-scatter
    (``wcc[active] = wcc[wcc[active]]``).  A backend that propagates
    labels *within* a pass converges in fewer rounds — and changes the
    iteration count, and with it the recorded trace.
    """
    np.minimum.at(wcc, u, wcc[v])
    if both:
        np.minimum.at(wcc, v, wcc[u])
    if compress:
        wcc[active] = wcc[wcc[active]]


@register("trim2_pattern_pairs", "numpy")
def trim2_pattern_pairs(
    nbr_ptr: np.ndarray,
    nbr_idx: np.ndarray,
    back_ptr: np.ndarray,
    back_idx: np.ndarray,
    cands: np.ndarray,
    color: np.ndarray,
    eff_primary: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Figure 4 pattern match: find (n, k) size-2 SCC pairs.

    ``cands`` are the nodes whose effective degree (in the pattern's
    primary direction, whose adjacency is ``nbr_ptr``/``nbr_idx``) is
    exactly 1; ``back_ptr``/``back_idx`` is the opposite direction used
    for the ``n -> k`` closure check.  Returns ``(n_array, k_array,
    edges_scanned)``.
    """
    n_total = nbr_ptr.shape[0] - 1
    if cands.size == 0:
        return _EMPTY, _EMPTY, 0
    scanned = 0
    # The unique colour-valid neighbour of each candidate.
    targets, sources = expand_frontier(
        nbr_ptr, nbr_idx, cands, return_sources=True
    )
    scanned += int(targets.size)
    valid = color[targets] == color[sources]
    partner = np.full(n_total, -1, dtype=np.int64)
    partner[sources[valid]] = targets[valid]  # exactly one write per cand
    k_of = partner[cands]

    # Closure: does the back edge (n -> k for in-pattern) exist?
    back_t, back_s = expand_frontier(
        back_ptr, back_idx, cands, return_sources=True
    )
    scanned += int(back_t.size)
    has_back = np.zeros(n_total, dtype=bool)
    if back_t.size:
        match = back_t == partner[back_s]
        has_back[back_s[match]] = True

    ok = (
        (k_of >= 0)
        & has_back[cands]
        & (eff_primary[k_of] == 1)
        & (color[k_of] == color[cands])
    )
    return cands[ok], k_of[ok], scanned


@register("dfs_collect_colored", "numpy")
def dfs_collect_colored(
    indptr: np.ndarray,
    indices: np.ndarray,
    pivot: int,
    olds: np.ndarray,
    news: np.ndarray,
    color: np.ndarray,
) -> Tuple[list, int]:
    """Sequential DFS twin of the colour-transforming BFS (phase 2).

    Visits nodes whose colour appears in ``olds``, recolours them to
    the paired ``news`` entry, continues through them, prunes
    elsewhere.  Returns ``(parts, edges_scanned)`` where ``parts[i]``
    is the **sorted** array of nodes recoloured to ``news[i]``.

    The sorted-output contract (rather than visit order) is what makes
    the backends interchangeable: a traversal's visited sets are
    independent of visit order, so every implementation — this
    interpreted stack DFS, the vectorized level-synchronous fallback,
    the compiled stack DFS — lands on identical arrays, and phase-2
    pivot selection (which indexes into these arrays) stays
    bit-reproducible across backends.

    The pivot is assumed pre-validated by the dispatcher (its colour is
    ``olds``' first entry's partition — see
    :func:`repro.kernels.dfs_collect_colored`).
    """
    trans = {int(o): int(nw) for o, nw in zip(olds, news)}
    collected: dict[int, list[int]] = {int(nw): [] for nw in news}
    pivot = int(pivot)
    new_pivot = trans[int(color[pivot])]
    color[pivot] = new_pivot
    collected[new_pivot].append(pivot)
    stack = [pivot]
    edges = 0
    while stack:
        u = stack.pop()
        row = indices[indptr[u] : indptr[u + 1]]
        edges += int(row.shape[0])
        for v in row:
            cv = int(color[v])
            if cv in trans:
                nv = trans[cv]
                color[v] = nv
                collected[nv].append(int(v))
                stack.append(int(v))
    parts = [
        np.sort(np.asarray(collected[int(nw)], dtype=np.int64))
        if collected[int(nw)]
        else _EMPTY
        for nw in news
    ]
    return parts, edges


@register("ms_expand_frontier", "numpy")
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
    """One CSR sweep advancing up to 64 bit-packed BFS waves.

    ``frontier``/``frontier_bits`` carry, per frontier node, the
    ``uint64`` mask of waves standing on it; ``visited`` is the dense
    per-node wave-membership mask, updated **in place**.  A target
    ``v`` reached from a frontier node carrying wave ``j`` joins wave
    ``j`` iff ``color[v]`` equals wave ``j``'s partition colour —
    ``wave_colors`` (sorted ascending, distinct) paired with
    ``wave_masks`` (the OR of the bits of every wave owning that
    colour) encode that eligibility — and ``v`` does not already carry
    bit ``j``.

    Returns ``(next_frontier, next_bits, scanned)``: the sorted unique
    nodes that gained at least one bit this sweep, the bits each
    gained, and the adjacency entries inspected.  Newly gained bits
    are computed against ``visited`` as of sweep entry (snapshot
    semantics), so the result is independent of expansion order.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    if frontier.size == 0:
        return _EMPTY, _EMPTY_U64, 0
    counts = segment_counts(indptr, frontier)
    targets = expand_frontier(indptr, indices, frontier)
    scanned = int(targets.size)
    if scanned == 0:
        return _EMPTY, _EMPTY_U64, 0
    src_bits = np.repeat(frontier_bits, counts)
    tc = color[targets]
    pos = np.minimum(
        np.searchsorted(wave_colors, tc), wave_colors.size - 1
    )
    eligible = np.where(
        wave_colors[pos] == tc,
        src_bits & wave_masks[pos],
        np.uint64(0),
    )
    live = eligible != 0
    t = targets[live]
    b = eligible[live]
    if t.size == 0:
        return _EMPTY, _EMPTY_U64, scanned
    uniq = sorted_unique(t)
    acc = np.zeros(uniq.size, dtype=np.uint64)
    np.bitwise_or.at(acc, np.searchsorted(uniq, t), b)
    gained = acc & ~visited[uniq]
    fresh = gained != 0
    nxt = uniq[fresh]
    nbits = gained[fresh]
    visited[nxt] |= nbits
    return nxt, nbits, scanned


@register("ms_fwbw_intersect", "numpy")
def ms_fwbw_intersect(
    nodes: np.ndarray,
    bits: np.ndarray,
    fw_visited: np.ndarray,
    bw_visited: np.ndarray,
) -> np.ndarray:
    """Classify ``nodes`` against the FW/BW wave-membership masks.

    ``bits[i]`` is the single wave bit on whose behalf ``nodes[i]`` is
    queried.  A node lying in ``fw & bw`` of *any* wave belongs to
    some pivot's SCC; the deterministic tie-break awards it to the
    **lowest-indexed** claiming wave (the least significant set bit of
    ``fw & bw``), so the category is :data:`MS_SCC` when that wave is
    the querying one and :data:`MS_CLAIMED` otherwise — regardless of
    what the querying wave itself reached, because the node will be
    detached by its claimant.  Unclaimed nodes fall into
    :data:`MS_FW_ONLY` / :data:`MS_BW_ONLY` / :data:`MS_UNREACHED`
    relative to the querying wave's bit.
    """
    f = fw_visited[nodes]
    w = bw_visited[nodes]
    claim = f & w
    cat = np.full(nodes.shape[0], MS_UNREACHED, dtype=np.uint8)
    cat[(f & bits) != 0] = MS_FW_ONLY
    cat[((w & bits) != 0) & ((f & bits) == 0)] = MS_BW_ONLY
    claimed = claim != 0
    cat[claimed] = MS_CLAIMED
    low = claim & (~claim + np.uint64(1))  # lowest set bit (0 if none)
    cat[claimed & (low == bits)] = MS_SCC
    return cat


@register("delta_expand_frontier", "numpy")
def delta_expand_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    tomb: np.ndarray,
    add_indptr: np.ndarray,
    add_indices: np.ndarray,
    frontier: np.ndarray,
    *,
    return_sources: bool = False,
    unique: bool = False,
) -> Tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Frontier expansion over a merged base + delta adjacency view.

    The mutable-graph twin of :func:`expand_frontier`: the adjacency of
    a node is its base CSR row minus the entries whose position is
    flagged in the ``tomb`` mask (aligned with ``indices``), plus its
    row in the delta-insertion CSR ``(add_indptr, add_indices)``
    maintained by :class:`repro.graph.delta.DeltaCSR`.

    Output order contract (what backend parity pins): per frontier
    slot, the surviving base entries come first (in base-row order,
    i.e. ascending) followed by the delta insertions (ascending); slots
    follow frontier order.  ``return_sources``/``unique`` behave as in
    :func:`expand_frontier`.
    """
    if unique and return_sources:
        raise ValueError("unique=True cannot be combined with return_sources")
    frontier = np.asarray(frontier, dtype=np.int64)
    num_nodes = indptr.shape[0] - 1
    if frontier.size == 0:
        return (_EMPTY, _EMPTY) if return_sources else _EMPTY
    counts_b = segment_counts(indptr, frontier)
    counts_a = segment_counts(add_indptr, frontier)
    total_b = segment_total(counts_b, indices)
    total_a = segment_total(counts_a, add_indices)
    if total_b:
        starts = indptr[frontier].astype(np.int64, copy=False)
        cum = np.cumsum(counts_b)
        idx = np.arange(total_b, dtype=np.int64) + np.repeat(
            starts - (cum - counts_b), counts_b
        )
        live = ~tomb[idx]
        t_base = indices[idx][live].astype(np.int64, copy=False)
    else:
        t_base = _EMPTY
    if total_a:
        starts = add_indptr[frontier].astype(np.int64, copy=False)
        cum = np.cumsum(counts_a)
        idx = np.arange(total_a, dtype=np.int64) + np.repeat(
            starts - (cum - counts_a), counts_a
        )
        t_add = add_indices[idx].astype(np.int64, copy=False)
    else:
        t_add = _EMPTY
    if t_base.size + t_add.size == 0:
        return (_EMPTY, _EMPTY) if return_sources else _EMPTY
    if unique:
        # The dedup sorts by node id, so the per-slot order is not built.
        return dedup_sorted(np.concatenate([t_base, t_add]), num_nodes)
    slots = np.arange(frontier.shape[0], dtype=np.int64)
    slot_b = np.repeat(slots, counts_b)
    if total_b:
        slot_b = slot_b[live]
    slot_a = np.repeat(slots, counts_a)
    # One stable sort on (slot, base-before-add) keys realizes the
    # per-slot grouping; within a key group the gather order (ascending
    # row positions) survives.
    key = np.concatenate([slot_b * 2, slot_a * 2 + 1])
    order = np.argsort(key, kind="stable")
    targets = np.concatenate([t_base, t_add])[order]
    if return_sources:
        sources = frontier[np.concatenate([slot_b, slot_a])[order]]
        return targets, sources
    return targets
