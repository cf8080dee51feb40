"""Induced-subgraph extraction.

The algorithms themselves never materialize subgraphs — they filter by
``Color``/``mark`` exactly as Section 4.1 prescribes.  Materialized
subgraphs are used by tests (comparing a colour-restricted traversal
against a real subgraph) and by analysis utilities.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..kernels import sorted_unique
from .csr import CSRGraph
from .build import from_edge_array

__all__ = ["induced_subgraph", "color_subgraph"]


def induced_subgraph(
    g: CSRGraph, nodes: np.ndarray
) -> Tuple[CSRGraph, np.ndarray]:
    """Extract the subgraph induced by ``nodes``.

    Returns ``(sub, mapping)`` where ``mapping[i]`` is the original id
    of the subgraph's node ``i``.  Nodes are renumbered ``0..k-1`` in
    ascending original-id order.
    """
    nodes = sorted_unique(np.asarray(nodes, dtype=np.int64))
    if nodes.size and (nodes[0] < 0 or nodes[-1] >= g.num_nodes):
        raise ValueError("node id out of range")
    member = np.zeros(g.num_nodes, dtype=bool)
    member[nodes] = True
    new_id = np.full(g.num_nodes, -1, dtype=np.int64)
    new_id[nodes] = np.arange(nodes.shape[0], dtype=np.int64)
    src, dst = g.edge_array()
    keep = member[src] & member[dst]
    sub = from_edge_array(
        new_id[src[keep]], new_id[dst[keep]], nodes.shape[0], dedup=False
    )
    return sub, nodes


def color_subgraph(
    g: CSRGraph, color: np.ndarray, c: int, mark: np.ndarray | None = None
) -> Tuple[CSRGraph, np.ndarray]:
    """Materialize the partition of colour ``c`` as a standalone graph.

    Mirrors the implicit subgraph the algorithms operate on: nodes with
    ``color == c`` and (optionally) ``mark == False``.
    """
    sel = color == c
    if mark is not None:
        sel &= ~mark
    return induced_subgraph(g, np.flatnonzero(sel))
