"""Mutable edge-delta overlay on the immutable CSR graph.

:class:`~repro.graph.csr.CSRGraph` is deliberately frozen — algorithm
code layers ``Color``/``mark`` arrays on top and never mutates the
graph.  A live serving system cannot afford that: every edge insert or
delete would mean rebuilding the CSR arrays (O(M)) before the next
query.  :class:`DeltaCSR` keeps the frozen base and layers a small
mutable delta log over it:

* **tombstones** — deletions of base edges flip a position-indexed
  boolean in a mask aligned with ``base.indices`` (and the matching
  position in the transpose's ``in_indices``), so a traversal can skip
  dead entries without touching the CSR arrays;
* **insertions** — new edges land in per-node sorted add-lists
  (forward and transpose views), flattened lazily into a CSR-shaped
  ``(add_indptr, add_indices)`` pair the kernels can gather from and
  kept until an add-list changes (tombstone flips leave it valid).

Traversals therefore see a *merged adjacency view* — surviving base
entries plus delta insertions — through
:func:`repro.kernels.delta_expand_frontier` (or the per-node
:meth:`out_neighbors`/:meth:`in_neighbors` here), and stay correct
mid-log.  Once the log grows past ``compact_ratio`` of the base edge
count the overlay compacts into a fresh base CSR and the log resets —
the amortization that keeps a sustained update stream cheap while
bounding the per-traversal skip overhead.

The node set is fixed at construction: streams mutate edges, not
vertices (grow the graph by loading a larger base).  Inserting an edge
that exists (or deleting one that doesn't) is a no-op returning False,
which makes replaying a journal of updates after a crash idempotent —
the property the sharded serving tier's recovery leans on.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kernels import sorted_unique
from .build import from_edge_array
from .csr import CSRGraph

__all__ = ["DeltaCSR", "DEFAULT_COMPACT_RATIO"]

#: default log-size / base-edge-count ratio that triggers compaction.
DEFAULT_COMPACT_RATIO = 0.25

_EMPTY = np.empty(0, dtype=np.int64)


class DeltaCSR:
    """An append-only edge delta log over a frozen :class:`CSRGraph`.

    Parameters
    ----------
    base:
        The frozen CSR graph the overlay starts from.  Its transpose is
        built here (deletes must tombstone the matching ``in_indices``
        position, so both directions need their masks from the start).
    compact_ratio:
        Compact into a fresh base once ``log_size / base.num_edges``
        reaches this ratio (see :meth:`maybe_compact`).
    """

    def __init__(
        self,
        base: CSRGraph,
        *,
        compact_ratio: float = DEFAULT_COMPACT_RATIO,
    ) -> None:
        if compact_ratio <= 0:
            raise ValueError("compact_ratio must be positive")
        self._base = base
        self.compact_ratio = float(compact_ratio)
        base.in_indptr  # build the transpose; masks below index into it
        self._tomb = np.zeros(base.num_edges, dtype=bool)
        self._tomb_in = np.zeros(base.num_edges, dtype=bool)
        self._add_out: Dict[int, List[int]] = {}
        self._add_in: Dict[int, List[int]] = {}
        self._n_add = 0
        self._n_tomb = 0
        #: total applied (graph-changing) mutations over the overlay's
        #: lifetime; no-ops do not count.
        self.mutations = 0
        #: compaction rounds performed.
        self.compactions = 0
        self._snapshot: Optional[CSRGraph] = None
        self._add_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._add_csr_in: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def base(self) -> CSRGraph:
        """The current frozen base CSR (replaced by :meth:`compact`)."""
        return self._base

    @property
    def num_nodes(self) -> int:
        return self._base.num_nodes

    @property
    def num_edges(self) -> int:
        """Live edge count: base edges minus tombstones plus adds."""
        return self._base.num_edges - self._n_tomb + self._n_add

    @property
    def log_size(self) -> int:
        """Delta entries a traversal must account for (adds + tombs)."""
        return self._n_add + self._n_tomb

    @property
    def log_ratio(self) -> float:
        """``log_size`` relative to the base edge count."""
        return self.log_size / max(1, self._base.num_edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaCSR(n={self.num_nodes}, edges={self.num_edges}, "
            f"log={self.log_size}, compactions={self.compactions})"
        )

    # ------------------------------------------------------------------
    # Position lookups (sorted base rows -> binary search)
    # ------------------------------------------------------------------
    def _check_ids(self, u: int, v: int) -> None:
        n = self.num_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(
                f"edge endpoint out of range [0, {n}): ({u}, {v})"
            )

    def _pos_out(self, u: int, v: int) -> int:
        """Position of edge ``u -> v`` in ``base.indices`` or -1."""
        indptr = self._base.indptr
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        pos = lo + int(np.searchsorted(self._base.indices[lo:hi], v))
        if pos < hi and int(self._base.indices[pos]) == v:
            return pos
        return -1

    def _pos_in(self, u: int, v: int) -> int:
        """Position of edge ``u -> v`` in ``base.in_indices`` or -1."""
        indptr = self._base.in_indptr
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        pos = lo + int(np.searchsorted(self._base.in_indices[lo:hi], u))
        if pos < hi and int(self._base.in_indices[pos]) == u:
            return pos
        return -1

    def _dirty(self, *, adds: bool) -> None:
        """Count a mutation and drop what it made stale.  The flattened
        add-logs go only when an add-list changed (``adds``): a
        tombstone flip lands in the masks, which the views hand out by
        reference."""
        self.mutations += 1
        self._snapshot = None
        if adds:
            self._add_csr = None
            self._add_csr_in = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """True if ``u -> v`` is live in the merged view."""
        self._check_ids(u, v)
        lst = self._add_out.get(u)
        if lst is not None:
            i = bisect.bisect_left(lst, v)
            if i < len(lst) and lst[i] == v:
                return True
        pos = self._pos_out(u, v)
        return pos >= 0 and not self._tomb[pos]

    def add_edge(self, u: int, v: int) -> bool:
        """Insert ``u -> v``; returns True when the graph changed.

        Resurrecting a tombstoned base edge clears the tombstone
        instead of growing the add log; inserting a live edge is a
        no-op (idempotent replay).
        """
        self._check_ids(u, v)
        pos = self._pos_out(u, v)
        if pos >= 0:
            if not self._tomb[pos]:
                return False
            self._tomb[pos] = False
            self._tomb_in[self._pos_in(u, v)] = False
            self._n_tomb -= 1
            self._dirty(adds=False)
            return True
        lst = self._add_out.setdefault(u, [])
        i = bisect.bisect_left(lst, v)
        if i < len(lst) and lst[i] == v:
            return False
        lst.insert(i, v)
        bisect.insort(self._add_in.setdefault(v, []), u)
        self._n_add += 1
        self._dirty(adds=True)
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete ``u -> v``; returns True when the graph changed.

        A delta insertion is removed from the add log; a base edge is
        tombstoned in both directions; deleting an absent edge is a
        no-op (idempotent replay).
        """
        self._check_ids(u, v)
        lst = self._add_out.get(u)
        if lst is not None:
            i = bisect.bisect_left(lst, v)
            if i < len(lst) and lst[i] == v:
                lst.pop(i)
                if not lst:
                    del self._add_out[u]
                lin = self._add_in[v]
                lin.pop(bisect.bisect_left(lin, u))
                if not lin:
                    del self._add_in[v]
                self._n_add -= 1
                self._dirty(adds=True)
                return True
        pos = self._pos_out(u, v)
        if pos >= 0 and not self._tomb[pos]:
            self._tomb[pos] = True
            self._tomb_in[self._pos_in(u, v)] = True
            self._n_tomb += 1
            self._dirty(adds=False)
            return True
        return False

    # ------------------------------------------------------------------
    # Merged adjacency views
    # ------------------------------------------------------------------
    def _flatten(self, adds: Dict[int, List[int]]) -> Tuple[np.ndarray, np.ndarray]:
        """CSR-shaped ``(add_indptr, add_indices)`` of one add-log,
        filled in one pass over its rows in ascending order."""
        rows = sorted(adds)
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        counts[rows] = [len(adds[u]) for u in rows]
        indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        indices = np.fromiter(
            itertools.chain.from_iterable(adds[u] for u in rows),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        return indptr, indices

    def forward_view(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, tomb, add_indptr, add_indices)`` for the
        out-direction — the argument layout of
        :func:`repro.kernels.delta_expand_frontier`."""
        if self._add_csr is None:
            self._add_csr = self._flatten(self._add_out)
        ap, ai = self._add_csr
        return self._base.indptr, self._base.indices, self._tomb, ap, ai

    def backward_view(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Transpose twin of :meth:`forward_view` (in-direction)."""
        if self._add_csr_in is None:
            self._add_csr_in = self._flatten(self._add_in)
        ap, ai = self._add_csr_in
        return (
            self._base.in_indptr,
            self._base.in_indices,
            self._tomb_in,
            ap,
            ai,
        )

    def out_neighbors(self, u: int) -> np.ndarray:
        """Merged (sorted) live out-neighbors of ``u``."""
        indptr = self._base.indptr
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        row = self._base.indices[lo:hi]
        mask = self._tomb[lo:hi]
        live = row[~mask] if mask.any() else row
        lst = self._add_out.get(u)
        if not lst:
            return live
        merged = np.concatenate([live, np.asarray(lst, dtype=np.int64)])
        merged.sort()
        return merged

    def in_neighbors(self, u: int) -> np.ndarray:
        """Merged (sorted) live in-neighbors of ``u``."""
        indptr = self._base.in_indptr
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        row = self._base.in_indices[lo:hi]
        mask = self._tomb_in[lo:hi]
        live = row[~mask] if mask.any() else row
        lst = self._add_in.get(u)
        if not lst:
            return live
        merged = np.concatenate([live, np.asarray(lst, dtype=np.int64)])
        merged.sort()
        return merged

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` arrays of every live merged edge."""
        src_b, dst_b = self._base.edge_array()
        if self._n_tomb:
            keep = ~self._tomb
            src_b, dst_b = src_b[keep], dst_b[keep]
        if not self._n_add:
            return src_b, dst_b
        ap, ai = self.forward_view()[3:]
        src_a = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(ap)
        )
        return (
            np.concatenate([src_b, src_a]),
            np.concatenate([dst_b, ai]),
        )

    # ------------------------------------------------------------------
    # Snapshot / compaction
    # ------------------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """The merged view materialized as a frozen :class:`CSRGraph`.

        Cached until the next mutation, so repeated reads (a run
        request against a quiescent mutable session) pay the O(M)
        rebuild once.  With an empty log this *is* the base graph.
        """
        if self._snapshot is None:
            if self.log_size == 0:
                self._snapshot = self._base
            else:
                src, dst = self.edge_array()
                self._snapshot = from_edge_array(
                    src, dst, self.num_nodes, dedup=False
                )
        return self._snapshot

    def compact(self) -> CSRGraph:
        """Fold the delta log into a fresh base CSR and reset the log."""
        snap = self.snapshot()
        self._base = snap
        snap.in_indptr  # rebuild the transpose for the new masks
        self._tomb = np.zeros(snap.num_edges, dtype=bool)
        self._tomb_in = np.zeros(snap.num_edges, dtype=bool)
        self._add_out = {}
        self._add_in = {}
        self._n_add = 0
        self._n_tomb = 0
        self._add_csr = None
        self._add_csr_in = None
        self._snapshot = snap
        self.compactions += 1
        return snap

    def maybe_compact(self) -> bool:
        """Compact when the log crossed ``compact_ratio``; True if so."""
        if self.log_size and self.log_ratio >= self.compact_ratio:
            self.compact()
            return True
        return False

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def induced_subgraph(
        self, nodes: np.ndarray
    ) -> Tuple[CSRGraph, np.ndarray]:
        """Extract the merged-view subgraph induced by ``nodes``.

        Same contract as :func:`repro.graph.induced_subgraph` —
        ``(sub, mapping)`` with nodes renumbered ``0..k-1`` in
        ascending original-id order — but reading through the delta
        log, so the restricted FW-BW recompute after an intra-SCC
        delete sees the live graph without paying for a full snapshot.
        """
        nodes = sorted_unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size and (nodes[0] < 0 or nodes[-1] >= self.num_nodes):
            raise ValueError("node id out of range")
        member = np.zeros(self.num_nodes, dtype=bool)
        member[nodes] = True
        new_id = np.full(self.num_nodes, -1, dtype=np.int64)
        new_id[nodes] = np.arange(nodes.shape[0], dtype=np.int64)
        indptr, indices = self._base.indptr, self._base.indices
        starts = indptr[nodes]
        counts = (indptr[nodes + 1] - starts).astype(np.int64)
        total = int(counts.sum())
        if total:
            cum = np.cumsum(counts)
            idx = np.arange(total, dtype=np.int64) + np.repeat(
                starts - (cum - counts), counts
            )
            src_b = np.repeat(nodes, counts)
            dst_b = indices[idx]
            keep = ~self._tomb[idx] & member[dst_b]
            src_b, dst_b = src_b[keep], dst_b[keep]
        else:
            src_b = dst_b = _EMPTY
        add_src: List[int] = []
        add_dst: List[int] = []
        if self._add_out:
            if len(self._add_out) <= nodes.size:
                rows = (
                    (u, lst)
                    for u, lst in self._add_out.items()
                    if member[u]
                )
            else:
                rows = (
                    (int(u), self._add_out[int(u)])
                    for u in nodes
                    if int(u) in self._add_out
                )
            for u, lst in rows:
                for v in lst:
                    if member[v]:
                        add_src.append(u)
                        add_dst.append(v)
        src = np.concatenate(
            [src_b, np.asarray(add_src, dtype=np.int64)]
        )
        dst = np.concatenate(
            [dst_b, np.asarray(add_dst, dtype=np.int64)]
        )
        sub = from_edge_array(
            new_id[src], new_id[dst], nodes.shape[0], dedup=False
        )
        return sub, nodes

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Approximate bytes held (base CSR + masks + add log)."""
        total = self._base.nbytes()
        total += self._tomb.nbytes + self._tomb_in.nbytes
        total += 8 * 2 * self._n_add  # both add-list directions
        if self._snapshot is not None and self._snapshot is not self._base:
            total += self._snapshot.nbytes()
        return int(total)
