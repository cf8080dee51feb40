"""Recur-FWBW: the task-parallel recursive FW-BW phase (Algorithm 5).

Each task owns one colour (one partition): pick a pivot, compute its
forward and backward reachable sets by sequential DFS (Section 4.2 —
parallel BFS has too high a fixed cost for these small partitions),
detach the intersection as an SCC, and spawn up to three child tasks
for the FW-only, BW-only and unreached remainders.

Partition representation (Section 4.1's hybrid scheme):

* ``pivot_repr="hybrid"`` — each work item carries an explicit node
  array (the ``std::set`` analogue); pivot selection and remainder
  filtering touch only those nodes.
* ``pivot_repr="scan"`` — work items carry only the colour; every
  pivot selection scans the full colour array.  The paper reports the
  hybrid approach is ~10x faster; ``bench_ablation_hybrid_repr.py``
  reproduces that gap from the recorded work.

Two executors drain the phase — the serial worklist (default; used
for trace collection) and the supervised process pool — resolved
through :mod:`repro.engine.backends`.  Both record the task spawn tree
into the trace so the simulated scheduler can replay it at any thread
count, both group the queue with the one batch planner,
:func:`plan_batches` (always under :data:`BATCH_POLICY`), and both run
each planned unit through :func:`run_unit` — the supervised workers
against a worker-side state over shared memory
(:mod:`repro.runtime.mp_backend`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..kernels import (
    MS_BW_ONLY,
    MS_FW_ONLY,
    MS_MAX_WAVES,
    MS_SCC,
    dfs_collect_colored,
    ms_expand_frontier,
    ms_fwbw_intersect,
    segment_counts,
)
from .state import PHASE_RECUR, SCCState

__all__ = [
    "WorkItem",
    "Phase2BatchPolicy",
    "BATCH_POLICY",
    "plan_batches",
    "multi_source_reach",
    "recur_fwbw_task",
    "recur_fwbw_batch_task",
    "run_unit",
    "run_recur_phase",
    "collect_color_sets",
]


@dataclass
class WorkItem:
    """One queue entry: a colour, optionally its node set, its spawner."""

    color: int
    nodes: Optional[np.ndarray]  # None => scan representation
    parent: int = -1
    #: failed attempts so far (the supervised executor's retries).
    attempt: int = 0


@dataclass(frozen=True)
class Phase2BatchPolicy:
    """When and how to route the phase-2 tail through the batched
    multi-source kernel.

    The Recur-FWBW tail is a *small-task storm*: thousands of tiny
    partitions, each paying per-traversal fixed costs.  When the queue
    holds a run of at least ``min_run`` consecutive hybrid items whose
    node sets are at most ``max_item_nodes``, the run (capped at
    ``width`` ≤ 64 — one ``uint64`` lane per pivot) is executed as one
    :func:`recur_fwbw_batch_task` instead of ``width`` sequential
    per-pivot tasks.  Items outside the storm profile (scan
    representation, or large partitions where a single traversal
    amortizes its own overhead) keep the per-pivot path.
    """

    width: int = MS_MAX_WAVES
    min_run: int = 2
    max_item_nodes: Optional[int] = 1024

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MS_MAX_WAVES:
            raise ValueError(
                f"batch width must be in [1, {MS_MAX_WAVES}], "
                f"got {self.width}"
            )
        if self.min_run < 1:
            raise ValueError(f"min_run must be >= 1, got {self.min_run}")
        if self.max_item_nodes is not None and self.max_item_nodes < 1:
            raise ValueError(
                f"max_item_nodes must be positive or None, "
                f"got {self.max_item_nodes}"
            )


#: the one phase-2 drain policy both executors plan with.  Item size
#: is the only selector: a large partition amortizes its own traversal
#: overhead on the per-pivot DFS, so large, scan-representation and
#: retried items keep it.  Tests and benchmarks get the per-pivot
#: reference drain by patching this to ``Phase2BatchPolicy(width=1)``,
#: which never reaches ``min_run``.
BATCH_POLICY = Phase2BatchPolicy()


def _item_batchable(item: WorkItem, policy: Phase2BatchPolicy) -> bool:
    # A retried item always runs alone, which keeps the supervisor's
    # per-task damage confinement (repair_partition) simple.
    return (
        item.attempt == 0
        and item.nodes is not None
        and (
            policy.max_item_nodes is None
            or item.nodes.size <= policy.max_item_nodes
        )
    )


def plan_batches(
    items: Sequence[WorkItem], policy: Optional[Phase2BatchPolicy] = None
) -> List[Union[WorkItem, List[WorkItem]]]:
    """Group a queue segment into batch runs and per-pivot singles.

    Consecutive batchable items (hybrid, first attempt, at most
    ``policy.max_item_nodes`` nodes) form runs of at most
    ``policy.width``; runs shorter than ``policy.min_run`` degrade to
    singles.  A run also breaks on a repeated partition colour — the
    batch task requires pairwise-distinct colours (each wave owns its
    colour), and while the queue invariant guarantees that, the
    planner enforces it so a hand-built queue cannot silently corrupt
    a batch.  Entry order (and within a run, item order) is queue
    order, which is what keeps a batched drain bit-identical to the
    per-pivot one.  ``policy`` defaults to :data:`BATCH_POLICY`, read
    at call time.
    """
    if policy is None:
        policy = BATCH_POLICY
    entries: List[Union[WorkItem, List[WorkItem]]] = []
    run: List[WorkItem] = []
    run_colors: set[int] = set()

    def flush() -> None:
        nonlocal run, run_colors
        if not run:
            return
        if len(run) >= policy.min_run:
            entries.append(run)
        else:
            entries.extend(run)
        run = []
        run_colors = set()

    for item in items:
        if not _item_batchable(item, policy):
            flush()
            entries.append(item)
            continue
        if len(run) >= policy.width or item.color in run_colors:
            flush()
        run.append(item)
        run_colors.add(item.color)
    flush()
    return entries


def multi_source_reach(
    indptr: np.ndarray,
    indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    color: np.ndarray,
    colors: np.ndarray,
    pivots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ≤64 colour-confined FW and BW BFS waves to fixpoint.

    Wave *j* starts at ``pivots[j]`` and may only visit nodes of colour
    ``colors[j]`` (plus its own seed).  Returns ``(bits, fw_visited,
    bw_visited)``: the ``uint64`` lane assigned to each input wave and
    the packed per-node visited masks after both fixpoints.  Lanes are
    assigned in ascending colour order (the kernel's binary-search
    layout); ``bits`` maps them back to input order.
    """
    colors = np.asarray(colors, dtype=np.int64)
    pivots = np.asarray(pivots, dtype=np.int64)
    m = colors.size
    if m == 0 or m > MS_MAX_WAVES:
        raise ValueError(f"need 1..{MS_MAX_WAVES} waves, got {m}")
    order = np.argsort(colors, kind="stable")
    wave_colors = colors[order]
    if m > 1 and not (np.diff(wave_colors) > 0).all():
        raise ValueError("batch colours must be pairwise distinct")
    lane_bits = np.left_shift(
        np.uint64(1), np.arange(m, dtype=np.uint64)
    )
    bits = np.empty(m, dtype=np.uint64)
    bits[order] = lane_bits
    n = indptr.shape[0] - 1
    fw_visited = np.zeros(n, dtype=np.uint64)
    bw_visited = np.zeros(n, dtype=np.uint64)
    # Resolve the kernel once: the fixpoint makes one call per BFS
    # level and the per-call dispatcher/validation overhead would
    # otherwise be paid dozens of times per batch.
    from ..kernels import get_kernel

    expand = get_kernel("ms_expand_frontier")
    for visited, ptr, idx in (
        (fw_visited, indptr, indices),
        (bw_visited, in_indptr, in_indices),
    ):
        visited[pivots] = bits
        frontier, fbits = pivots, bits
        while frontier.size:
            frontier, fbits, _ = expand(
                ptr, idx, frontier, fbits, visited, color,
                wave_colors, lane_bits,
            )
    return bits, fw_visited, bw_visited


def recur_fwbw_batch_task(
    state: SCCState,
    items: Sequence[WorkItem],
    *,
    pivot_strategy: str = "random",
) -> List[Tuple[List[WorkItem], float]]:
    """Execute up to 64 Recur-FWBW tasks as one multi-source sweep.

    Bit-identical to running :func:`recur_fwbw_task` on ``items``
    sequentially in order — same pivot RNG draws, same colour-triple
    sequence, same SCC label order, same per-task trace records and
    scanned-edge attribution (DESIGN.md §13 gives the equivalence
    argument).  Returns the per-item ``(children, task_cost)`` list,
    aligned with ``items``.  ``state`` is an :class:`SCCState` or a
    supervised worker's :class:`~repro.runtime.mp_backend.WorkerState`.
    """
    g, color, cost = state.graph, state.color, state.cost

    candidates: List[Optional[np.ndarray]] = []
    select_costs: List[float] = []
    for item in items:
        c = item.color
        if item.nodes is None:
            cand = np.flatnonzero(color == c)
            select_costs.append(cost.stream(nodes=state.num_nodes))
        else:
            cand = item.nodes[color[item.nodes] == c]
            select_costs.append(cost.stream(nodes=item.nodes.size))
        candidates.append(cand if cand.size else None)

    live = [i for i, cand in enumerate(candidates) if cand is not None]
    results: List[Optional[Tuple[List[WorkItem], float]]] = [
        None
    ] * len(items)
    for i, cand in enumerate(candidates):
        if cand is None:
            results[i] = ([], select_costs[i])
    if not live:
        return results  # type: ignore[return-value]

    # Same RNG draw sequence as the sequential tasks: one pick per
    # non-empty item, in item order (the RNG and colour counters are
    # independent, so draining one before the other changes nothing).
    pivots = np.array(
        state.pick_many(
            [candidates[i] for i in live], pivot_strategy
        ),
        dtype=np.int64,
    )
    live_colors = np.array(
        [items[i].color for i in live], dtype=np.int64
    )
    triples = state.alloc_colour_triples(int(c) for c in live_colors)

    bits, fw_visited, bw_visited = multi_source_reach(
        g.indptr, g.indices, g.in_indptr, g.in_indices,
        color, live_colors, pivots,
    )

    m = len(live)
    sizes = np.array(
        [candidates[i].size for i in live], dtype=np.int64
    )
    concat = np.concatenate([candidates[i] for i in live])
    cat = ms_fwbw_intersect(
        concat, np.repeat(bits, sizes), fw_visited, bw_visited
    )
    counts_out = segment_counts(g.indptr, concat)
    counts_in = segment_counts(g.in_indptr, concat)

    # One stable sort by (item, category) replaces per-item boolean
    # masks: within a key group the original ascending-candidate order
    # survives, so every extracted chunk is already sorted.  The
    # category-grouped gathers below are then whole-batch operations.
    item_idx = np.repeat(np.arange(m, dtype=np.int64), sizes)
    key = item_idx * 5 + cat
    order = np.argsort(key, kind="stable")
    nodes_sorted = concat[order]
    cat_sorted = cat[order]
    counts = np.bincount(key, minlength=m * 5).reshape(m, 5)
    if counts[:, 4].sum():  # MS_CLAIMED
        # Cannot happen with pairwise-distinct wave colours (a node
        # only ever carries its own partition's bit); a claim here
        # means the wave contract was violated upstream.
        raise RuntimeError(
            "multi-source batch produced cross-wave claims on "
            "disjoint partitions"
        )
    eout = np.bincount(
        key, weights=counts_out, minlength=m * 5
    ).reshape(m, 5)
    ein = np.bincount(
        key, weights=counts_in, minlength=m * 5
    ).reshape(m, 5)
    fw_edges_arr = eout[:, MS_SCC] + eout[:, MS_FW_ONLY]
    bw_edges_arr = ein[:, MS_SCC] + ein[:, MS_BW_ONLY]

    scc_all = nodes_sorted[cat_sorted == MS_SCC]
    fw_all = nodes_sorted[cat_sorted == MS_FW_ONLY]
    bw_all = nodes_sorted[cat_sorted == MS_BW_ONLY]
    scc_sizes = counts[:, MS_SCC]
    fw_sizes = counts[:, MS_FW_ONLY]
    bw_sizes = counts[:, MS_BW_ONLY]
    rem_sizes = counts[:, 3]  # MS_UNREACHED

    # Recolour exactly as the sequential tasks would have left the
    # arrays: FW-only → cfw, BW-only → cbw, SCCs detached in item
    # order (one scatter per array, one lock for the whole batch).
    if fw_all.size:
        color[fw_all] = np.repeat(
            np.array([t[0] for t in triples], dtype=np.int64), fw_sizes
        )
    if bw_all.size:
        color[bw_all] = np.repeat(
            np.array([t[1] for t in triples], dtype=np.int64), bw_sizes
        )
    state.mark_sccs(scc_all, scc_sizes, PHASE_RECUR)

    log_task = state.profile.log_task
    dfs_cost = cost.dfs
    scc_b = np.zeros(m + 1, dtype=np.int64)
    fw_b = np.zeros(m + 1, dtype=np.int64)
    bw_b = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(scc_sizes, out=scc_b[1:])
    np.cumsum(fw_sizes, out=fw_b[1:])
    np.cumsum(bw_sizes, out=bw_b[1:])
    rem_bounds = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sizes, out=rem_bounds[1:])

    for k, i in enumerate(live):
        n_scc = int(scc_sizes[k])
        fw_only = fw_all[fw_b[k]: fw_b[k + 1]]
        bw_only = bw_all[bw_b[k]: bw_b[k + 1]]
        # The item's key group ends with its MS_UNREACHED chunk.
        hi = rem_bounds[k + 1]
        remain = nodes_sorted[hi - int(rem_sizes[k]): hi]
        cfw, cbw, _cscc = triples[k]
        item = items[i]
        visited = 2 * n_scc + fw_only.size + bw_only.size
        task_cost = select_costs[i] + dfs_cost(
            nodes=visited,
            edges=int(fw_edges_arr[k] + bw_edges_arr[k]),
        )
        log_task(n_scc, fw_only.size, bw_only.size, remain.size)
        hybrid = item.nodes is not None
        children: List[WorkItem] = []
        for child_color, child_nodes in (
            (item.color, remain),
            (cfw, fw_only),
            (cbw, bw_only),
        ):
            if child_nodes.size:
                children.append(
                    WorkItem(
                        color=child_color,
                        nodes=child_nodes if hybrid else None,
                    )
                )
        results[i] = (children, task_cost)
    return results  # type: ignore[return-value]


def recur_fwbw_task(
    state: SCCState,
    item: WorkItem,
    *,
    pivot_strategy: str = "random",
) -> Tuple[List[WorkItem], float]:
    """Execute one Recur-FWBW task; returns (children, task cost).

    ``state`` is an :class:`SCCState` or a supervised worker's
    :class:`~repro.runtime.mp_backend.WorkerState`.
    """
    g, color = state.graph, state.color
    cost = state.cost
    c = item.color

    if item.nodes is None:
        candidates = np.flatnonzero(color == c)
        select_cost = cost.stream(nodes=state.num_nodes)
    else:
        candidates = item.nodes[color[item.nodes] == c]
        select_cost = cost.stream(nodes=item.nodes.size)
    if candidates.size == 0:
        return [], select_cost

    pivot = state.pick(candidates, pivot_strategy)
    # Three fresh colours distinct from the partition colour c (the BW
    # transition-map contract; see state.skip_colour_triple).
    cfw, cbw, cscc = state.alloc_colour_triple(c)

    fw_collected, fw_edges = dfs_collect_colored(
        g.indptr, g.indices, pivot, {c: cfw}, color
    )
    bw_collected, bw_edges = dfs_collect_colored(
        g.in_indptr, g.in_indices, pivot, {c: cbw, cfw: cscc}, color
    )
    scc_nodes = np.asarray(bw_collected[cscc], dtype=np.int64)
    state.mark_scc(scc_nodes, PHASE_RECUR)

    fw_all = np.asarray(fw_collected[cfw], dtype=np.int64)
    fw_only = fw_all[color[fw_all] == cfw]  # SCC members now DONE_COLOR
    bw_only = np.asarray(bw_collected[cbw], dtype=np.int64)
    remain = candidates[color[candidates] == c]

    visited = fw_all.size + bw_only.size + scc_nodes.size
    task_cost = select_cost + cost.dfs(
        nodes=visited, edges=fw_edges + bw_edges
    )
    state.profile.log_task(
        int(scc_nodes.size),
        int(fw_only.size),
        int(bw_only.size),
        int(remain.size),
    )

    children: List[WorkItem] = []
    hybrid = item.nodes is not None
    for child_color, child_nodes in (
        (c, remain),
        (cfw, fw_only),
        (cbw, bw_only),
    ):
        if child_nodes.size:
            children.append(
                WorkItem(
                    color=child_color,
                    nodes=child_nodes if hybrid else None,
                )
            )
    return children, task_cost


def run_unit(
    state: SCCState,
    unit: Union[WorkItem, List[WorkItem]],
    *,
    pivot_strategy: str = "random",
) -> Tuple[List[WorkItem], List[Tuple[List[WorkItem], float]]]:
    """Run one :func:`plan_batches` entry — a batch run or a single
    item; returns ``(members, [(children, task_cost), ...])``."""
    if isinstance(unit, list):
        return unit, recur_fwbw_batch_task(
            state, unit, pivot_strategy=pivot_strategy
        )
    return [unit], [
        recur_fwbw_task(state, unit, pivot_strategy=pivot_strategy)
    ]


def run_recur_phase(
    state: SCCState,
    initial: Sequence[Tuple[int, Optional[np.ndarray]]],
    *,
    queue_k: int = 1,
    phase: str = "recur_fwbw",
    pivot_strategy: str = "random",
    backend: str = "serial",
    num_threads: int = 4,
    supervisor=None,
    deadline: Optional[float] = None,
    session=None,
) -> int:
    """Drain the phase-2 work queue; returns the number of tasks run.

    ``initial`` seeds the queue with ``(color, nodes-or-None)`` items.
    The spawn tree (with per-task costs) is recorded as a
    :class:`~repro.runtime.trace.TaskDAGRecord` for the simulator.

    ``backend`` names the executor (``"serial"`` or ``"supervised"``;
    see :mod:`repro.engine.backends`).  ``supervisor`` optionally
    carries a :class:`~repro.runtime.supervisor.SupervisorConfig` for
    the supervised backend; ``deadline`` (absolute
    ``time.monotonic()`` value) bounds both executors, which raise
    :class:`~repro.errors.PhaseTimeoutError` past it.

    ``session`` optionally names a warm
    :class:`~repro.engine.session.GraphSession` whose cached transpose,
    shared-memory mirror and forked worker pool the supervised
    executor reuses instead of rebuilding per run.

    Small-task storms are drained in groups of ≤64 pivots per CSR
    sweep (:data:`BATCH_POLICY`), bit-identically to the per-pivot
    path.
    """
    # Imported lazily: repro.engine imports this module at load time.
    from ..engine.backends import get_executor

    return get_executor(backend)(
        state,
        initial,
        queue_k=queue_k,
        phase=phase,
        pivot_strategy=pivot_strategy,
        num_workers=num_threads,
        supervisor=supervisor,
        deadline=deadline,
        session=session,
    )


def collect_color_sets(
    state: SCCState, *, phase: str = "collect_sets"
) -> List[Tuple[int, np.ndarray]]:
    """Scan unmarked nodes and group them by colour (Section 4.2).

    "We defer the construction of sets until the end of the trimming
    phase, when we perform a scan of non-marked nodes to construct the
    initial work items."  One vectorized O(N) sweep, recorded as a
    static parallel-for.
    """
    active = np.flatnonzero(~state.mark)
    state.trace.parallel_for(
        phase,
        work=state.cost.stream(nodes=state.num_nodes),
        items=state.num_nodes,
        schedule="static",
    )
    if active.size == 0:
        return []
    colors_active = state.color[active]
    values, inverse = np.unique(colors_active, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    boundaries = np.searchsorted(inverse[order], np.arange(values.size))
    grouped = np.split(active[order], boundaries[1:])
    return [(int(values[i]), grouped[i]) for i in range(values.size)]
