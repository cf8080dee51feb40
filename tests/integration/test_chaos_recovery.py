"""Chaos suite: end-to-end recovery under injected faults.

Every scenario injects a fault (worker crash, task hang, in-task
exception, poisoned shared-memory write, or a simulated BSP rank
failure) into a full pipeline run and requires that the run
*completes* — via retry or degradation to the serial driver — leaks no
shared-memory segments, and produces SCC labels that both pass
:meth:`SCCState.check_invariants` and match the Tarjan baseline
exactly.

Excluded from the default (tier-1) selection; run with::

    PYTHONPATH=src python -m pytest -m chaos
"""

import glob

import numpy as np
import pytest

from repro import strongly_connected_components
from repro.core import SCCState, same_partition, tarjan_scc
from repro.core.recurfwbw import run_recur_phase
from repro.distributed import (
    CheckpointPolicy,
    Cluster,
    RankFailure,
    bfs_partition,
    distributed_method1,
    sweep_checkpoint_interval,
)
from repro.runtime import FaultPlan, FaultSpec, SupervisorConfig
from repro.engine.pool import fork_available
from tests.conftest import random_digraph

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(not fork_available(), reason="requires POSIX fork"),
]


def _shm_inventory() -> set:
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every chaos scenario must unlink all its shared memory."""
    before = _shm_inventory()
    yield
    assert _shm_inventory() <= before, "leaked shared-memory segments"


def _supervised(plan, **kwargs):
    return SupervisorConfig(
        task_timeout=kwargs.pop("task_timeout", 2.0),
        grace=0.1,
        backoff_base=0.01,
        fault_plan=plan,
        **kwargs,
    )


class TestPhaseRecovery:
    """Direct phase-2 runs, one fault class per scenario."""

    def _check(self, plan, seed=7, **cfg):
        g = random_digraph(250, 1000, seed=seed)
        s = SCCState(g, seed=seed)
        run_recur_phase(
            s,
            [(0, np.arange(250))],
            backend="supervised",
            num_threads=2,
            supervisor=_supervised(plan, **cfg),
        )
        s.check_done()
        s.check_invariants(cross_check=True)
        assert same_partition(s.labels, tarjan_scc(g))
        return s

    @pytest.mark.parametrize("stage", ["pre", "mid", "post"])
    def test_worker_crash_every_stage(self, stage):
        s = self._check(
            FaultPlan([FaultSpec(kind="crash", index=1, stage=stage)])
        )
        assert s.profile.counters["supervisor_retries"] >= 1
        assert s.profile.counters["supervisor_pool_rebuilds"] >= 1

    def test_task_hang(self):
        plan = FaultPlan(
            [FaultSpec(kind="hang", index=2, stage="mid", hang_seconds=60)]
        )
        s = self._check(plan, task_timeout=0.5)
        assert s.profile.counters["supervisor_timeouts"] >= 1

    def test_in_task_exception(self):
        s = self._check(
            FaultPlan([FaultSpec(kind="raise", index=0, stage="mid")])
        )
        assert s.profile.counters["supervisor_task_errors"] == 1

    def test_poisoned_write(self):
        s = self._check(FaultPlan.single("poison", index=3))
        assert s.profile.counters["supervisor_degraded"] == 1

    def test_double_fault(self):
        plan = FaultPlan(
            [
                FaultSpec(kind="crash", index=1, stage="mid"),
                FaultSpec(kind="raise", index=4, stage="pre"),
            ]
        )
        self._check(plan)

    def test_retry_exhaustion_degrades(self):
        plan = FaultPlan([FaultSpec(kind="raise", index=0, times=99)])
        s = self._check(plan, max_task_retries=1)
        assert s.profile.counters["supervisor_degraded"] == 1

    def test_seeded_random_storm(self):
        # a seeded storm of mixed faults: deterministic, must converge
        plan = FaultPlan.random(
            2026, n_faults=4, max_index=10, kinds=("crash", "raise")
        )
        self._check(plan)


class TestPipelineRecovery:
    """Full method pipelines under the supervised backend."""

    @pytest.mark.parametrize("method", ["baseline", "method1", "method2"])
    def test_methods_survive_crash(self, method):
        g = random_digraph(300, 1300, seed=11)
        oracle = tarjan_scc(g)
        plan = FaultPlan([FaultSpec(kind="crash", index=0, stage="mid")])
        r = strongly_connected_components(
            g,
            method,
            backend="supervised",
            num_threads=2,
            supervisor=_supervised(plan),
        )
        assert same_partition(r.labels, oracle), method

    def test_method2_poison_recovers(self, planted_medium):
        # the planted graph leaves mid-size SCCs for phase 2, so the
        # poisoned task actually commits (a random digraph is often
        # fully resolved by phase 1, leaving nothing to poison)
        g = planted_medium.graph
        r = strongly_connected_components(
            g,
            "method2",
            backend="supervised",
            num_threads=2,
            supervisor=_supervised(FaultPlan.single("poison", index=0)),
        )
        assert same_partition(r.labels, tarjan_scc(g))
        assert len(r.profile.task_log) > 0  # phase 2 really ran
        assert r.profile.counters["supervisor_degraded"] == 1

    def test_planted_structure_hang(self, planted_medium):
        bundle = planted_medium
        g = bundle.graph
        plan = FaultPlan(
            [FaultSpec(kind="hang", index=1, hang_seconds=60)]
        )
        r = strongly_connected_components(
            g,
            "method2",
            backend="supervised",
            num_threads=2,
            supervisor=_supervised(plan, task_timeout=1.0),
        )
        assert same_partition(r.labels, tarjan_scc(g))


class TestRankFailureRecovery:
    """Simulated BSP rank loss with checkpointed replay."""

    def _trace(self):
        g = random_digraph(400, 1600, seed=3)
        part = bfs_partition(g, 4)
        return distributed_method1(g, part).dtrace

    def test_failure_recovery_completes_and_costs(self):
        trace = self._trace()
        cluster = Cluster()
        clean = cluster.simulate(trace)
        faulty = cluster.simulate_with_failures(
            trace,
            [RankFailure(superstep=min(5, len(trace.steps) - 1))],
            CheckpointPolicy(every=4),
        )
        assert faulty.failures == 1
        assert faulty.total_time > clean.total_time
        assert faulty.overhead >= 1.0
        assert faulty.recompute_time > 0

    def test_no_checkpoint_means_full_rerun(self):
        trace = self._trace()
        cluster = Cluster()
        s = len(trace.steps) - 1
        faulty = cluster.simulate_with_failures(
            trace, [RankFailure(superstep=s)], CheckpointPolicy(every=0)
        )
        # failing on the last superstep without checkpoints recomputes
        # the entire prefix: recovery == rerun
        base = cluster.simulate(trace).total_time
        assert faulty.recompute_time == pytest.approx(base)

    def test_checkpoint_interval_tradeoff(self):
        trace = self._trace()
        cluster = Cluster()
        mid = len(trace.steps) // 2
        sweep = sweep_checkpoint_interval(
            cluster,
            trace,
            [RankFailure(superstep=mid)],
            intervals=[0, 1, 4, 16],
        )
        # dense checkpointing minimises recompute but pays per-barrier
        # cost; no checkpointing pays the full prefix on failure
        assert sweep[1].recompute_time <= sweep[4].recompute_time
        assert sweep[4].recompute_time <= sweep[0].recompute_time
        assert sweep[1].checkpoint_time > sweep[16].checkpoint_time
        # the tuned operating point beats at least one extreme
        best = min(r.total_time for r in sweep.values())
        assert best < max(sweep[0].total_time, sweep[1].total_time)

    def test_failure_free_replay_matches_baseline(self):
        trace = self._trace()
        cluster = Cluster()
        faulty = cluster.simulate_with_failures(trace, [], CheckpointPolicy())
        assert faulty.total_time == pytest.approx(
            cluster.simulate(trace).total_time
        )
        assert faulty.overhead == pytest.approx(1.0)
