"""Immutable directed graph in Compressed Sparse Row (CSR) form.

The representation follows Section 4.1 of the paper: a node array of
``N + 1`` offsets (``indptr``) pointing into a single edge array of
``M`` destination ids (``indices``).  The transpose (in-edges, "CSC" of
the adjacency matrix) is built lazily and cached because only the
backward-reachability and trim steps need it.

Design notes
------------
* Arrays are **read-only views** (``writeable=False``) so algorithm code
  cannot accidentally mutate the graph; the paper never mutates the
  graph either — it layers ``Color``/``mark`` arrays on top.
* Adjacency lists are sorted by destination id.  Sorted rows make
  membership tests (needed by Trim2's ``k in OutNbr(n)``) a binary
  search via :func:`numpy.searchsorted` and make graph equality and
  hashing deterministic.
* Index dtype is ``int64`` throughout.  The surrogate graphs used in
  this reproduction are far below the ``int32`` limit, but ``int64``
  keeps every downstream kernel free of overflow checks and matches
  NumPy's default index type.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = ["CSRGraph", "sort_edge_pairs"]


def _as_readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class CSRGraph:
    """A directed graph stored in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of shape ``(num_nodes + 1,)``; ``indptr[i]`` is
        the offset of node ``i``'s adjacency list in ``indices``.
    indices:
        ``int64`` array of shape ``(num_edges,)`` holding destination
        node ids, adjacency lists stored back to back.
    sorted_rows:
        If True the caller guarantees each adjacency list is already
        sorted ascending; otherwise rows are sorted here.

    Use :func:`repro.graph.from_edge_array` to build a graph from raw
    edges; the constructor expects well-formed CSR arrays.
    """

    __slots__ = ("_indptr", "_indices", "_in_indptr", "_in_indices")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        sorted_rows: bool = False,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if indptr.shape[0] == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ValueError(
                "indptr must start at 0 and end at len(indices) "
                f"(got {indptr[0]}..{indptr[-1]} for {indices.shape[0]} edges)"
            )
        if indptr.shape[0] > 1 and np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.shape[0] - 1
        if indices.shape[0] and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge destination out of range")
        if not sorted_rows:
            indices = _sort_rows(indptr, indices)
        self._indptr = _as_readonly(indptr)
        self._indices = _as_readonly(indices)
        self._in_indptr: np.ndarray | None = None
        self._in_indices: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """Out-adjacency row offsets, shape ``(num_nodes + 1,)``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Out-adjacency destinations, shape ``(num_edges,)``."""
        return self._indices

    @property
    def num_nodes(self) -> int:
        return self._indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        return self._indices.shape[0]

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------
    # Transpose (in-edges)
    # ------------------------------------------------------------------
    def _build_transpose(self) -> None:
        n = self.num_nodes
        src = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self._indptr)
        )
        dst = self._indices
        # (dst, src) order: each in-row lists its sources ascending.
        in_indices = sort_edge_pairs(dst, src, n)[1]
        counts = np.bincount(dst, minlength=n).astype(np.int64)
        in_indptr = np.concatenate(
            ([0], np.cumsum(counts, dtype=np.int64))
        )
        self._in_indptr = _as_readonly(in_indptr)
        self._in_indices = _as_readonly(in_indices)

    @property
    def in_indptr(self) -> np.ndarray:
        """In-adjacency row offsets (lazily built transpose)."""
        if self._in_indptr is None:
            self._build_transpose()
        assert self._in_indptr is not None
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        """In-adjacency sources (lazily built transpose)."""
        if self._in_indices is None:
            self._build_transpose()
        assert self._in_indices is not None
        return self._in_indices

    def reverse(self) -> "CSRGraph":
        """Return the transpose graph as a standalone :class:`CSRGraph`.

        The reverse graph shares no state with ``self``; its own
        transpose is again built lazily.
        """
        g = CSRGraph(self.in_indptr.copy(), self.in_indices.copy(), sorted_rows=True)
        return g

    # ------------------------------------------------------------------
    # Degrees and neighborhoods
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node, shape ``(num_nodes,)``."""
        return np.diff(self._indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node, shape ``(num_nodes,)``."""
        return np.diff(self.in_indptr)

    def out_degree(self, u: int) -> int:
        return int(self._indptr[u + 1] - self._indptr[u])

    def in_degree(self, u: int) -> int:
        return int(self.in_indptr[u + 1] - self.in_indptr[u])

    def out_neighbors(self, u: int) -> np.ndarray:
        """Destinations of ``u``'s out-edges (read-only, sorted)."""
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def in_neighbors(self, u: int) -> np.ndarray:
        """Sources of ``u``'s in-edges (read-only, sorted)."""
        return self.in_indices[self.in_indptr[u] : self.in_indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True if the edge ``u -> v`` exists (binary search)."""
        row = self.out_neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.shape[0] and int(row[pos]) == v

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`has_edge` over aligned endpoint arrays.

        One batched binary search against the row-sorted ``indices``
        array: edge ``us[i] -> vs[i]`` is present iff the composite key
        ``us[i] * (n + 1) + vs[i]`` occurs among the per-row keys (the
        same total order :func:`sort_edge_pairs` sorts by, so the global
        array is key-sorted and a single ``searchsorted`` answers every
        query).  Returns a boolean array aligned with the inputs.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError(
                f"endpoint arrays must align: {us.shape} vs {vs.shape}"
            )
        if us.size == 0:
            return np.zeros(0, dtype=bool)
        n = np.int64(self.num_nodes)
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64),
            np.diff(self._indptr),
        )
        keys = src * (n + 1) + self._indices
        probes = us * (n + 1) + vs
        pos = np.searchsorted(keys, probes)
        found = np.zeros(us.shape, dtype=bool)
        in_range = pos < keys.shape[0]
        found[in_range] = keys[pos[in_range]] == probes[in_range]
        return found

    # ------------------------------------------------------------------
    # Edge iteration / export
    # ------------------------------------------------------------------
    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays of all edges."""
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), self.out_degrees()
        )
        return src, self._indices.copy()

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate edges as python ``(u, v)`` tuples (small graphs only)."""
        for u in range(self.num_nodes):
            for v in self.out_neighbors(u):
                yield u, int(v)

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (test/diagnostic helper)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        src, dst = self.edge_array()
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        return g

    # ------------------------------------------------------------------
    # Equality / hashing (structural)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.num_edges == other.num_edges
            and bool(np.array_equal(self._indptr, other._indptr))
            and bool(np.array_equal(self._indices, other._indices))
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.num_nodes,
                self.num_edges,
                self._indices[:64].tobytes(),
                self._indptr[:64].tobytes(),
            )
        )

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (including cached transpose)."""
        total = self._indptr.nbytes + self._indices.nbytes
        if self._in_indptr is not None:
            total += self._in_indptr.nbytes
        if self._in_indices is not None:
            total += self._in_indices.nbytes
        return total


def sort_edge_pairs(
    major: np.ndarray, minor: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``(major, minor)`` id pairs lexicographically, one key sort.

    Both arrays hold node ids in ``[0, n)``.  The composite key
    ``major * (n + 1) + minor`` is monotone in ``(major, minor)`` — the
    key :meth:`CSRGraph.has_edges` probes — so one ``np.sort`` of the
    keys orders every pair, and divmod by ``n + 1`` decodes them back.
    Equal pairs are indistinguishable, so the output is exactly what a
    stable ``lexsort`` would give.  The largest key, ``n * (n + 1) - 2``,
    fits ``int64`` for ``n < 3.03e9``.
    """
    base = np.int64(n + 1)
    key = np.sort(np.asarray(major, dtype=np.int64) * base + minor)
    major = key // base
    return major, key - major * base


def _sort_rows(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Sort each adjacency list ascending without Python-level loops:
    sorting the ``(row, dst)`` pairs keeps every row boundary."""
    if indices.shape[0] == 0:
        return indices
    n = indptr.shape[0] - 1
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return sort_edge_pairs(row, indices, n)[1]
