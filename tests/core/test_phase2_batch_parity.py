"""Batched multi-source phase 2 vs the per-pivot path, end to end.

The contract (DESIGN.md §13): on a deterministic drain the batched
path is *bit-identical* to the per-pivot path — same labels, same
trace records (costs and scanned-edge attribution included) — under
every kernel backend.  Deterministic drains are the serial driver and
the single-worker supervised executor (FIFO master dispatch); both
group the queue with the one planner, :func:`plan_batches`, under the
one :data:`BATCH_POLICY`.  The per-pivot reference patches that
policy to width 1.
"""

import numpy as np
import pytest

from repro.core import SCCState
from repro.core.parfwbw import par_fwbw
from repro.core.recurfwbw import (
    BATCH_POLICY,
    Phase2BatchPolicy,
    plan_batches,
    run_recur_phase,
    WorkItem,
)
from repro.core.result import same_partition
from repro.core.wcc import par_wcc
from repro.generators import datasets
from repro.kernels import use_backend
from tests.conftest import batch_policy, scipy_scc_labels

GENERATORS = datasets.dataset_names()
KERNEL_BACKENDS = ("numpy", "numba")
SCALE = 0.02


def tail_state(name):
    """Post-phase-1 storm: giant SCC peeled, WCCs seed the queue."""
    g = datasets.generate(name, scale=SCALE, seed=7).graph
    s = SCCState(g, seed=11)
    par_fwbw(s, 0, giant_threshold=0.01, max_trials=3)
    return g, s, par_wcc(s)


def drain(name, *, executor="serial", kernel="numpy", batch=False):
    g, s, items = tail_state(name)
    with use_backend(kernel), batch_policy(batch):
        run_recur_phase(s, items, backend=executor, num_threads=1)
    return g, s


class TestSerialBitIdentical:
    @pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
    @pytest.mark.parametrize("name", GENERATORS)
    def test_batched_equals_per_pivot(self, name, kernel):
        g, base = drain(name, kernel=kernel, batch=False)
        _, batched = drain(name, kernel=kernel, batch=True)
        assert np.array_equal(base.labels, batched.labels)
        assert base.trace.records == batched.trace.records
        assert same_partition(batched.labels, scipy_scc_labels(g))
        assert batched.profile.counters.get("phase2_batches", 0) > 0
        assert base.profile.counters.get("phase2_batches") is None


class TestProcessExecutorsBitIdentical:
    @pytest.mark.parametrize("executor", ("supervised",))
    @pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
    def test_batched_equals_per_pivot(self, executor, kernel):
        g, base = drain(
            "wiki", executor=executor, kernel=kernel, batch=False
        )
        _, batched = drain(
            "wiki", executor=executor, kernel=kernel, batch=True
        )
        assert np.array_equal(base.labels, batched.labels)
        assert base.trace.records == batched.trace.records
        assert same_partition(batched.labels, scipy_scc_labels(g))
        assert batched.profile.counters.get("phase2_batches", 0) > 0


class TestDefaultDrain:
    @pytest.mark.parametrize("backend", ("serial", "supervised"))
    def test_engine_run_batches_the_tail(self, backend):
        # No option turns the batched tail on: a default run takes it.
        from repro.engine import Engine

        g = datasets.generate("wiki", scale=0.05, seed=0).graph
        with Engine(backend=backend) as eng:
            res = eng.run(g, method="method2")
        assert res.profile.counters.get("phase2_batches", 0) > 0
        assert same_partition(res.labels, scipy_scc_labels(g))


class TestPolicy:
    def test_default_policy(self):
        assert BATCH_POLICY == Phase2BatchPolicy(
            width=64, min_run=2, max_item_nodes=1024
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Phase2BatchPolicy(width=0)
        with pytest.raises(ValueError):
            Phase2BatchPolicy(width=65)
        with pytest.raises(ValueError):
            Phase2BatchPolicy(min_run=0)
        with pytest.raises(ValueError):
            Phase2BatchPolicy(max_item_nodes=0)

    def _items(self, colors, size=4):
        return [
            WorkItem(color=c, nodes=np.arange(size)) for c in colors
        ]

    def test_width_cap(self):
        policy = Phase2BatchPolicy(width=4)
        plans = plan_batches(self._items(range(10)), policy)
        assert [
            len(p) if isinstance(p, list) else 1 for p in plans
        ] == [4, 4, 2]

    def test_repeated_color_breaks_run(self):
        policy = Phase2BatchPolicy(width=8)
        plans = plan_batches(self._items([1, 2, 2, 3]), policy)
        # the duplicate colour may not share a run with its twin
        assert isinstance(plans[0], list)
        assert [it.color for it in plans[0]] == [1, 2]
        assert isinstance(plans[1], list)
        assert [it.color for it in plans[1]] == [2, 3]

    def test_short_runs_degrade_to_singles(self):
        policy = Phase2BatchPolicy(width=8, min_run=3)
        plans = plan_batches(self._items([1, 2]), policy)
        assert all(isinstance(p, WorkItem) for p in plans)

    def test_oversized_items_not_batched(self):
        policy = Phase2BatchPolicy(width=8, max_item_nodes=3)
        small = self._items([1, 2], size=2)
        big = self._items([3], size=9)
        plans = plan_batches(small + big, policy)
        assert isinstance(plans[0], list) and len(plans[0]) == 2
        assert isinstance(plans[1], WorkItem)

    def test_scan_items_not_batched(self):
        # scan-representation items (nodes=None) always run per-pivot
        policy = Phase2BatchPolicy()
        items = [WorkItem(color=c, nodes=None) for c in (1, 2, 3)]
        plans = plan_batches(items, policy)
        assert all(isinstance(p, WorkItem) for p in plans)

    def test_width_one_passthrough(self):
        # the per-pivot reference: a width-1 run never reaches min_run
        items = self._items([1, 2, 3])
        assert plan_batches(items, Phase2BatchPolicy(width=1)) == items
        with batch_policy(False):
            assert plan_batches(items) == items
        (run,) = plan_batches(items)
        assert run == items

    def test_retried_items_run_alone(self):
        # a retried task re-runs as a single so the supervisor's
        # per-task colour repair stays confined to one triple
        policy = Phase2BatchPolicy(width=8)
        items = self._items([1, 2, 3, 4])
        items[2].attempt = 1
        plans = plan_batches(items, policy)
        assert [it.color for it in plans[0]] == [1, 2]
        assert plans[1] is items[2]
        assert isinstance(plans[2], WorkItem)  # a run of one
