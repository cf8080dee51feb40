"""Builders: edge arrays / edge lists -> :class:`CSRGraph`.

All heavy lifting is vectorized: ``(src, dst)`` ordering via one
composite-key sort (:func:`~repro.graph.csr.sort_edge_pairs`),
duplicate removal on the sorted pairs, and row construction via
``bincount``/``cumsum``, per the HPC-Python guidance of avoiding
per-edge Python loops.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from .csr import CSRGraph, sort_edge_pairs

__all__ = [
    "dedup_edges",
    "build_csr_arrays",
    "from_edge_array",
    "from_edge_list",
]


def dedup_edges(
    src: np.ndarray, dst: np.ndarray, *, drop_self_loops: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort edges by ``(src, dst)`` and drop exact duplicates.

    Parameters
    ----------
    src, dst:
        Parallel integer arrays of edge endpoints.
    drop_self_loops:
        Also remove ``u -> u`` edges.  Self-loops are harmless for SCC
        detection (a node is always in its own SCC) but they defeat the
        Trim step's in/out-degree-zero test, so generators drop them.

    Returns the filtered ``(src, dst)`` pair, sorted lexicographically.
    Endpoints are node ids, so negative ones are rejected.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same shape")
    if src.size == 0:
        return src.copy(), dst.copy()
    if min(src.min(), dst.min()) < 0:
        raise ValueError("edge endpoints must be non-negative")
    src, dst = sort_edge_pairs(
        src, dst, int(max(src.max(), dst.max())) + 1
    )
    keep = np.empty(src.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(src[1:], src[:-1], out=keep[1:])
    keep[1:] |= dst[1:] != dst[:-1]
    if drop_self_loops:
        keep &= src != dst
    return src[keep], dst[keep]


def build_csr_arrays(
    src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Build ``(indptr, indices)`` from edges sorted by ``src``.

    ``src`` must already be sorted ascending (e.g. the output of
    :func:`dedup_edges`); rows come out sorted when ``dst`` is sorted
    within equal ``src`` runs.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.size and np.any(src[1:] < src[:-1]):
        raise ValueError("src must be sorted ascending; use dedup_edges first")
    counts = np.bincount(src, minlength=num_nodes).astype(np.int64)
    if counts.shape[0] > num_nodes:
        raise ValueError("edge source out of range")
    indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return indptr, dst.copy()


def from_edge_array(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int | None = None,
    *,
    dedup: bool = True,
    drop_self_loops: bool = False,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from parallel ``src``/``dst`` arrays.

    ``num_nodes`` defaults to ``max(endpoint) + 1`` (0 for no edges).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if num_nodes is None:
        num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    if src.size:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= num_nodes:
            raise ValueError(
                f"edge endpoint out of range [0, {num_nodes}): {lo}..{hi}"
            )
    if dedup:
        src, dst = dedup_edges(src, dst, drop_self_loops=drop_self_loops)
    else:
        if drop_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        src, dst = sort_edge_pairs(src, dst, num_nodes)
    indptr, indices = build_csr_arrays(src, dst, num_nodes)
    return CSRGraph(indptr, indices, sorted_rows=True)


def from_edge_list(
    edges: Iterable[Sequence[int]],
    num_nodes: int | None = None,
    *,
    dedup: bool = True,
    drop_self_loops: bool = False,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an iterable of ``(u, v)`` pairs."""
    pairs = list(edges)
    if pairs:
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        src, dst = arr[:, 0], arr[:, 1]
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    if num_nodes is None and not pairs:
        num_nodes = 0
    return from_edge_array(
        src, dst, num_nodes, dedup=dedup, drop_self_loops=drop_self_loops
    )
