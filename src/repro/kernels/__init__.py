"""Pluggable kernel backend for the hot traversal/trim loops.

This package owns the six kernels where the reproduction spends its
wall-clock time — frontier expansion, the BFS colour-transform level
step, the effective-degree sweep, the incremental Trim decrement, the
WCC hook round, the Trim2 pattern match, and the phase-2
colour-collecting DFS — and dispatches each call to the active backend
(:mod:`repro.kernels.registry`): the ``numpy`` reference
implementations, or the accelerated ``numba`` backend (``@njit`` loops
when numba is importable, tuned pure-NumPy fallbacks when it is not).

Callers in :mod:`repro.traversal`, :mod:`repro.core` and
:mod:`repro.runtime` import the dispatch functions below; the choice
of backend is process-global (``REPRO_KERNELS`` env var, the CLI's
``--kernels`` flag, or :func:`set_backend`/:func:`use_backend`), and
the multiprocessing executors forward it into their workers so a
supervised run uses one backend end to end.

Backend invariant (enforced by the parity suite): identical outputs,
identical :class:`~repro.runtime.trace.WorkTrace` work quantities.
The simulated-scheduler figures must never depend on which backend
ran the kernels.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .registry import (
    BACKEND_CHOICES,
    available_backends,
    backend_info,
    get_backend,
    get_kernel,
    jit_active,
    kernel_names,
    numba_available,
    register,
    resolve_backend,
    set_backend,
    use_backend,
)
from .reference import (
    MS_BW_ONLY,
    MS_CLAIMED,
    MS_FW_ONLY,
    MS_MAX_WAVES,
    MS_SCC,
    MS_UNREACHED,
    dedup_sorted,
    segment_counts,
    sorted_unique,
)
from . import reference as _reference  # registers the numpy backend
from . import fastpath as _fastpath  # registers the no-numba fallbacks
from . import jit as _jit  # registers the @njit kernels when available

__all__ = [
    "BACKEND_CHOICES",
    "available_backends",
    "backend_info",
    "bfs_level_transform",
    "dedup_sorted",
    "delta_expand_frontier",
    "dfs_collect_colored",
    "effective_degrees_arrays",
    "expand_frontier",
    "get_backend",
    "get_kernel",
    "jit_active",
    "kernel_names",
    "MS_BW_ONLY",
    "MS_CLAIMED",
    "MS_FW_ONLY",
    "MS_MAX_WAVES",
    "MS_SCC",
    "MS_UNREACHED",
    "ms_expand_frontier",
    "ms_fwbw_intersect",
    "numba_available",
    "register",
    "resolve_backend",
    "segment_counts",
    "set_backend",
    "sorted_unique",
    "trim2_pattern_pairs",
    "trim_decrement",
    "use_backend",
    "wcc_hook_round",
]


def _transition_arrays(
    transitions: Dict[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a colour-transition map and split it into arrays.

    A transition *value* may not also be a key: the backends are free
    to recolour sequentially (visit-time) or from a level snapshot, and
    the two only agree when no transition can re-trigger on a freshly
    written colour.  Every caller maps onto freshly allocated colours,
    so the restriction is free — but it is load-bearing for backend
    parity, hence checked here once for all backends.  The check runs
    at every BFS level on a two- or three-entry map, so it is a set
    test (under 1 µs), not ``np.isin`` (about 30 µs on NumPy 2.4).
    """
    if not transitions.keys().isdisjoint(transitions.values()):
        raise ValueError(
            f"transition targets may not also be transition sources: "
            f"{transitions}"
        )
    olds = np.fromiter(transitions.keys(), dtype=np.int64, count=len(transitions))
    news = np.fromiter(transitions.values(), dtype=np.int64, count=len(transitions))
    return olds, news


def expand_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    *,
    return_sources: bool = False,
    unique: bool = False,
):
    """Dispatching twin of :func:`repro.kernels.reference.expand_frontier`."""
    return get_kernel("expand_frontier")(
        indptr,
        indices,
        frontier,
        return_sources=return_sources,
        unique=unique,
    )


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
):
    """Merged-view (base CSR + delta log) frontier expansion.

    Dispatching twin of
    :func:`repro.kernels.reference.delta_expand_frontier`; the view
    argument quintuple comes from
    :meth:`repro.graph.delta.DeltaCSR.forward_view` /
    :meth:`~repro.graph.delta.DeltaCSR.backward_view`.
    """
    return get_kernel("delta_expand_frontier")(
        indptr,
        indices,
        tomb,
        add_indptr,
        add_indices,
        frontier,
        return_sources=return_sources,
        unique=unique,
    )


def bfs_level_transform(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    color: np.ndarray,
    transitions: Dict[int, int],
) -> Tuple[list, int]:
    """One colour-transforming BFS level (Algorithm 5's inner step).

    Returns ``(hits, scanned)``; ``hits`` is aligned with
    ``transitions`` iteration order, each entry the sorted unique array
    of nodes recoloured to that transition's target.
    """
    olds, news = _transition_arrays(transitions)
    return get_kernel("bfs_level_transform")(
        indptr, indices, frontier, color, olds, news
    )


def effective_degrees_arrays(
    indptr: np.ndarray,
    indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    nodes: np.ndarray,
    color: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Colour-restricted (out, in) degree sweep (Par-Trim's big region)."""
    return get_kernel("effective_degrees")(
        indptr, indices, in_indptr, in_indices, nodes, color
    )


def trim_decrement(
    indptr: np.ndarray,
    indices: np.ndarray,
    cand: np.ndarray,
    old_colors: np.ndarray,
    color: np.ndarray,
    eff: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Incremental Par-Trim neighbour-counter decrement (one direction)."""
    return get_kernel("trim_decrement")(
        indptr, indices, cand, old_colors, color, eff
    )


def wcc_hook_round(
    u: np.ndarray,
    v: np.ndarray,
    wcc: np.ndarray,
    active: np.ndarray,
    both: bool,
    compress: bool,
) -> None:
    """One Par-WCC hook(+compress) iteration; mutates ``wcc``."""
    get_kernel("wcc_hook_round")(u, v, wcc, active, both, compress)


def trim2_pattern_pairs(
    nbr_ptr: np.ndarray,
    nbr_idx: np.ndarray,
    back_ptr: np.ndarray,
    back_idx: np.ndarray,
    cands: np.ndarray,
    color: np.ndarray,
    eff_primary: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Par-Trim2's Figure 4 neighbour-pattern match."""
    return get_kernel("trim2_pattern_pairs")(
        nbr_ptr, nbr_idx, back_ptr, back_idx, cands, color, eff_primary
    )


def _validate_waves(
    wave_colors: np.ndarray, wave_masks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    wave_colors = np.asarray(wave_colors, dtype=np.int64)
    wave_masks = np.asarray(wave_masks, dtype=np.uint64)
    if wave_colors.size == 0:
        raise ValueError("multi-source sweep needs at least one wave")
    if wave_colors.shape != wave_masks.shape:
        raise ValueError(
            f"wave_colors {wave_colors.shape} and wave_masks "
            f"{wave_masks.shape} must be aligned"
        )
    if wave_colors.size > MS_MAX_WAVES:
        raise ValueError(
            f"at most {MS_MAX_WAVES} waves per sweep "
            f"(got {wave_colors.size})"
        )
    if wave_colors.size > 1 and not (np.diff(wave_colors) > 0).all():
        raise ValueError("wave_colors must be strictly increasing")
    return wave_colors, wave_masks


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
    """One multi-source BFS level over packed ``uint64`` wave bits.

    Advances up to :data:`MS_MAX_WAVES` colour-constrained BFS waves in
    a single CSR sweep; mutates ``visited`` in place and returns
    ``(next_nodes, next_bits, scanned)`` — the sorted unique nodes that
    gained at least one wave bit, their freshly gained bits, and the
    adjacency entries scanned.  See
    :func:`repro.kernels.reference.ms_expand_frontier` for the
    normative contract.
    """
    wave_colors, wave_masks = _validate_waves(wave_colors, wave_masks)
    frontier = np.asarray(frontier, dtype=np.int64)
    frontier_bits = np.asarray(frontier_bits, dtype=np.uint64)
    if visited.dtype != np.uint64:
        raise ValueError(f"visited must be uint64, got {visited.dtype}")
    return get_kernel("ms_expand_frontier")(
        indptr,
        indices,
        frontier,
        frontier_bits,
        visited,
        color,
        wave_colors,
        wave_masks,
    )


def ms_fwbw_intersect(
    nodes: np.ndarray,
    bits: np.ndarray,
    fw_visited: np.ndarray,
    bw_visited: np.ndarray,
) -> np.ndarray:
    """Classify candidate nodes after a multi-source FW/BW fixpoint.

    Returns a ``uint8`` category per node — :data:`MS_SCC`,
    :data:`MS_FW_ONLY`, :data:`MS_BW_ONLY`, :data:`MS_UNREACHED`, or
    :data:`MS_CLAIMED` (node is in some wave's FW∧BW intersection but
    the lowest claiming wave is not the node's own — the deterministic
    tie-break).  See
    :func:`repro.kernels.reference.ms_fwbw_intersect`.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.uint64)
    return get_kernel("ms_fwbw_intersect")(
        nodes, bits, fw_visited, bw_visited
    )


def dfs_collect_colored(
    indptr: np.ndarray,
    indices: np.ndarray,
    pivot: int,
    transitions: Dict[int, int],
    color: np.ndarray,
) -> Tuple[Dict[int, np.ndarray], int]:
    """Phase-2 colour-collecting traversal from ``pivot``.

    Returns ``(collected, edges_scanned)`` where ``collected[new]`` is
    the **sorted** array of nodes recoloured to ``new``.  (Until the
    kernel layer, this returned visit-ordered lists; the sorted
    contract is what lets level-synchronous and compiled traversals
    substitute for the interpreted stack DFS bit-for-bit — see
    :func:`repro.kernels.reference.dfs_collect_colored`.)
    """
    pivot_color = int(color[pivot])
    if pivot_color not in transitions:
        raise ValueError(
            f"pivot colour {pivot_color} not in transition map {transitions}"
        )
    olds, news = _transition_arrays(transitions)
    parts, edges = get_kernel("dfs_collect_colored")(
        indptr, indices, int(pivot), olds, news, color
    )
    return {int(nw): part for nw, part in zip(news, parts)}, edges
