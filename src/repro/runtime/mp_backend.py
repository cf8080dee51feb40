"""GIL-free execution: the phase-2 task bodies that run in workers.

The calibration note for this reproduction says it plainly: "GIL
blocks shared-memory parallel BFS".  Threads cannot run the paper's
algorithms in parallel under CPython, but processes sharing their
mutable state through :mod:`multiprocessing.shared_memory` can — the
``Color``/``mark``/``labels`` arrays live in a shared segment, worker
processes execute Recur-FWBW tasks against them exactly as the
paper's OpenMP threads would, and the disjoint-partition property
(tasks own disjoint colours) provides the same race freedom.

Scope: the task-parallel phase 2 (where the paper's work queue lives).
Phase 1's data-parallel kernels are single large vectorized NumPy
calls, which already release the GIL internally where it matters.

This module owns only the task bodies a worker executes —
:func:`_exec_task` and its batched twin :func:`_exec_batch_task`.  The
dispatch loop is the supervisor's (:mod:`repro.runtime.supervisor`);
the shared-memory mirror, worker-context arming and pool lifecycle
live in :mod:`repro.engine.shm` / :mod:`repro.engine.pool`.

Requires a ``fork`` start method (the read-only CSR graph is inherited
copy-on-write; only the mutable arrays use explicit shared memory).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.shm import WORKER_CTX

__all__: List[str] = []


def _exec_task(
    color_value: int,
    nodes: Optional[np.ndarray],
    seq: int,
    attempt: int,
    colors: Tuple[int, int, int],
):
    """Run one Recur-FWBW task inside a worker process.

    Reads/writes the shared arrays set up in ``WORKER_CTX``; returns
    ``(children, task_cost, log_entry)`` to the master.

    ``seq`` is the dispatcher-assigned sequence id (used only to match
    injected faults deterministically), ``attempt`` the retry count,
    and ``colors`` the master-allocated ``(cfw, cbw, cscc)`` triple —
    the supervisor pre-allocates it so that after a mid-task worker
    death it knows exactly which colours may have leaked into the
    shared array and can repair the partition before retrying.
    """
    ctx = WORKER_CTX
    g = ctx["graph"]
    color: np.ndarray = ctx["color"]
    mark: np.ndarray = ctx["mark"]
    labels: np.ndarray = ctx["labels"]
    phase_of: np.ndarray = ctx["phase_of"]
    scc_counter = ctx["scc_counter"]
    cost = ctx["cost"]
    phase_id = ctx["phase_id"]
    faults = ctx.get("faults")

    from .. import kernels

    backend = ctx.get("kernel_backend")
    if backend is not None:
        # Fork inheritance already carries the parent's choice; setting
        # it explicitly keeps the worker honest even if the pool ever
        # re-execs instead of forking.
        kernels.set_backend(backend)
    dfs_collect_colored = kernels.dfs_collect_colored

    if faults is not None:
        faults.fire("task", seq, stage="pre", attempt=attempt)

    c = color_value
    if nodes is None:
        candidates = np.flatnonzero(color == c)
        select_cost = cost.stream(nodes=color.shape[0])
    else:
        candidates = nodes[color[nodes] == c]
        select_cost = cost.stream(nodes=nodes.size)
    if candidates.size == 0:
        return [], select_cost, None

    pivot = int(candidates[0])  # deterministic within a task
    cfw, cbw, cscc = colors

    fw_collected, fw_edges = dfs_collect_colored(
        g.indptr, g.indices, pivot, {c: cfw}, color
    )
    bw_collected, bw_edges = dfs_collect_colored(
        g.in_indptr, g.in_indices, pivot, {c: cbw, cfw: cscc}, color
    )
    if faults is not None:
        # "mid": the partition is recoloured but the SCC not committed.
        faults.fire("task", seq, stage="mid", attempt=attempt)
    scc_nodes = np.asarray(bw_collected[cscc], dtype=np.int64)
    with scc_counter.get_lock():
        sid = scc_counter.value
        scc_counter.value += 1
    labels[scc_nodes] = sid
    mark[scc_nodes] = True
    color[scc_nodes] = -1  # DONE_COLOR
    phase_of[scc_nodes] = phase_id
    if faults is not None and faults.poison("task", seq, attempt):
        # Corrupt the committed label write: detach the pivot from its
        # SCC-mates (or merge a singleton into a foreign SCC) — wrong
        # either way, and only a label-level verifier can tell.
        labels[pivot] = sid + 1 if sid == 0 else sid - 1

    fw_all = np.asarray(fw_collected[cfw], dtype=np.int64)
    fw_only = fw_all[color[fw_all] == cfw]
    bw_only = np.asarray(bw_collected[cbw], dtype=np.int64)
    remain = candidates[color[candidates] == c]
    visited = fw_all.size + bw_only.size + scc_nodes.size
    task_cost = select_cost + cost.dfs(
        nodes=visited, edges=fw_edges + bw_edges
    )
    children = [
        (child_color, child_nodes if nodes is not None else None)
        for child_color, child_nodes in (
            (c, remain),
            (cfw, fw_only),
            (cbw, bw_only),
        )
        if child_nodes.size
    ]
    log_entry = (
        int(scc_nodes.size),
        int(fw_only.size),
        int(bw_only.size),
        int(remain.size),
    )
    if faults is not None:
        # "post": SCC committed; the children are lost with the worker.
        faults.fire("task", seq, stage="post", attempt=attempt)
    return children, task_cost, log_entry


def _exec_batch_task(
    specs: Sequence[Tuple[int, Optional[np.ndarray]]],
    seqs: Sequence[int],
    attempt: int,
    triples: Sequence[Tuple[int, int, int]],
):
    """Run ≤64 Recur-FWBW tasks as one multi-source sweep in a worker.

    The batched twin of :func:`_exec_task`: same shared arrays, same
    counters, same fault hooks (``seqs`` aligns one dispatcher
    sequence id per member so injected faults keep matching), same
    pivot rule (first candidate).  ``triples`` carries the
    master-allocated colour triple of each member (the supervisor's
    repair bookkeeping).  Returns the per-member
    ``(children, task_cost, log_entry)`` list aligned with ``specs``.
    """
    ctx = WORKER_CTX
    g = ctx["graph"]
    color: np.ndarray = ctx["color"]
    mark: np.ndarray = ctx["mark"]
    labels: np.ndarray = ctx["labels"]
    phase_of: np.ndarray = ctx["phase_of"]
    scc_counter = ctx["scc_counter"]
    cost = ctx["cost"]
    phase_id = ctx["phase_id"]
    faults = ctx.get("faults")

    from .. import kernels

    backend = ctx.get("kernel_backend")
    if backend is not None:
        kernels.set_backend(backend)
    from ..core.recurfwbw import multi_source_reach

    if faults is not None:
        for seq in seqs:
            faults.fire("task", seq, stage="pre", attempt=attempt)

    candidates: List[Optional[np.ndarray]] = []
    select_costs: List[float] = []
    for c, nodes in specs:
        if nodes is None:
            cand = np.flatnonzero(color == c)
            select_costs.append(cost.stream(nodes=color.shape[0]))
        else:
            cand = nodes[color[nodes] == c]
            select_costs.append(cost.stream(nodes=nodes.size))
        candidates.append(cand if cand.size else None)

    results: List = [None] * len(specs)
    live = []
    for i, cand in enumerate(candidates):
        if cand is None:
            results[i] = ([], select_costs[i], None)
        else:
            live.append(i)
    if not live:
        return results

    pivots = np.array(
        [int(candidates[i][0]) for i in live], dtype=np.int64
    )
    live_colors = np.array(
        [specs[i][0] for i in live], dtype=np.int64
    )
    live_triples = [triples[i] for i in live]

    bits, fw_visited, bw_visited = multi_source_reach(
        g.indptr, g.indices, g.in_indptr, g.in_indices,
        color, live_colors, pivots,
    )
    if faults is not None:
        for i in live:
            faults.fire("task", seqs[i], stage="mid", attempt=attempt)

    sizes = np.array(
        [candidates[i].size for i in live], dtype=np.int64
    )
    concat = np.concatenate([candidates[i] for i in live])
    cat = kernels.ms_fwbw_intersect(
        concat, np.repeat(bits, sizes), fw_visited, bw_visited
    )
    counts_out = kernels.segment_counts(g.indptr, concat)
    counts_in = kernels.segment_counts(g.in_indptr, concat)
    bounds = np.zeros(len(live) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])

    with scc_counter.get_lock():
        base = scc_counter.value
        scc_counter.value += len(live)

    MS_SCC, MS_FW_ONLY, MS_BW_ONLY = (
        kernels.MS_SCC, kernels.MS_FW_ONLY, kernels.MS_BW_ONLY,
    )
    for k, i in enumerate(live):
        lo, hi = bounds[k], bounds[k + 1]
        ck = cat[lo:hi]
        cand = concat[lo:hi]
        scc_nodes = cand[ck == MS_SCC]
        fw_only = cand[ck == MS_FW_ONLY]
        bw_only = cand[ck == MS_BW_ONLY]
        remain = cand[ck > MS_BW_ONLY]
        cfw, cbw, _cscc = live_triples[k]
        sid = base + k
        labels[scc_nodes] = sid
        mark[scc_nodes] = True
        color[scc_nodes] = -1  # DONE_COLOR
        phase_of[scc_nodes] = phase_id
        if faults is not None and faults.poison("task", seqs[i], attempt):
            pivot = int(pivots[k])
            labels[pivot] = sid + 1 if sid == 0 else sid - 1
        color[fw_only] = cfw
        color[bw_only] = cbw
        fw_edges = int(counts_out[lo:hi][ck <= MS_FW_ONLY].sum())
        bw_edges = int(
            counts_in[lo:hi][
                (ck == MS_SCC) | (ck == MS_BW_ONLY)
            ].sum()
        )
        visited = (
            scc_nodes.size + fw_only.size + bw_only.size + scc_nodes.size
        )
        task_cost = select_costs[i] + cost.dfs(
            nodes=visited, edges=fw_edges + bw_edges
        )
        hybrid = specs[i][1] is not None
        children = [
            (child_color, child_nodes if hybrid else None)
            for child_color, child_nodes in (
                (specs[i][0], remain),
                (cfw, fw_only),
                (cbw, bw_only),
            )
            if child_nodes.size
        ]
        log_entry = (
            int(scc_nodes.size),
            int(fw_only.size),
            int(bw_only.size),
            int(remain.size),
        )
        results[i] = (children, task_cost, log_entry)
    if faults is not None:
        for i in live:
            faults.fire("task", seqs[i], stage="post", attempt=attempt)
    return results
