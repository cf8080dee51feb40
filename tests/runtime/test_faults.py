"""Unit tests for the fault-injection harness and the supervisor."""

import glob
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core import SCCState, StateInvariantError, same_partition, tarjan_scc
from repro.core.recurfwbw import WorkItem, plan_batches, run_recur_phase
from repro.engine.pool import fork_available
from repro.engine.shm import WORKER_CTX, shm_array
from repro.errors import PhaseTimeoutError, exit_code_for
from repro.runtime import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    SupervisorConfig,
    run_supervised_recur_phase,
)
from repro.runtime.faults import retarget, run_faults
from repro.runtime.supervisor import repair_partition
from tests.conftest import random_digraph, ring_of_rings, scipy_scc_labels

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires POSIX fork"
)


class TestFaultPlan:
    def test_match_by_site_index_attempt(self):
        plan = FaultPlan([FaultSpec(kind="raise", site="task", index=3)])
        assert plan.match("task", 3, attempt=0) is not None
        assert plan.match("task", 3, attempt=1) is None  # times=1
        assert plan.match("task", 2, attempt=0) is None
        assert plan.match("phase", 3, attempt=0) is None

    def test_times_covers_retries(self):
        plan = FaultPlan([FaultSpec(kind="raise", index=0, times=3)])
        assert all(plan.match("task", 0, a) for a in range(3))
        assert plan.match("task", 0, 3) is None

    def test_fire_raise(self):
        plan = FaultPlan.single("raise", index=1, stage="mid")
        plan.fire("task", 1, stage="pre")  # wrong stage: no-op
        with pytest.raises(FaultInjected):
            plan.fire("task", 1, stage="mid")

    def test_crash_downgraded_at_thread_site(self):
        plan = FaultPlan([FaultSpec(kind="crash", site="request", index=0)])
        with pytest.raises(FaultInjected):
            plan.fire("request", 0, stage="pre", thread_site=True)

    def test_poison_never_fires_as_control_fault(self):
        plan = FaultPlan.single("poison", index=0)
        plan.fire("task", 0, stage="pre")  # must not raise
        assert plan.poison("task", 0)
        assert not plan.poison("task", 1)

    @pytest.mark.parametrize(
        "text", ["corrupt.indices@3,raise@3", "raise@3,corrupt.indices@3"]
    )
    def test_fire_not_shadowed_by_a_corrupt_spec(self, text):
        # each call site looks up its own kinds: plan order decides
        # nothing, and match() still answers the first spec of any kind
        plan = FaultPlan.parse(text)
        assert plan.match("task", 3) is plan.specs[0]
        assert [s.kind for s in plan.corruptions("task", 3)] == ["corrupt"]
        with pytest.raises(FaultInjected):
            plan.fire("task", 3, stage="pre")

    @pytest.mark.parametrize("text", ["raise@3,poison@3", "poison@3,raise@3"])
    def test_poison_and_raise_at_one_task(self, text):
        plan = FaultPlan.parse(text)
        assert plan.poison("task", 3)
        with pytest.raises(FaultInjected):
            plan.fire("task", 3, stage="pre")

    @pytest.mark.parametrize(
        "text", ["hang@2:pre,raise@2:post", "raise@2:post,hang@2:pre"]
    )
    def test_fire_matches_its_own_stage(self, text):
        plan = FaultPlan.parse(text)
        plan.fire("task", 2, stage="mid")  # nothing armed there
        with pytest.raises(FaultInjected):
            plan.fire("task", 2, stage="post")

    @pytest.mark.parametrize(
        "text", ["disconnect@1,raise@1", "raise@1,disconnect@1"]
    )
    def test_network_and_control_faults_at_one_read(self, text):
        plan = FaultPlan.parse(text)
        assert plan.network("task", 1).kind == "disconnect"
        with pytest.raises(FaultInjected):
            plan.fire("task", 1, stage="pre")

    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(42, n_faults=4)
        b = FaultPlan.random(42, n_faults=4)
        c = FaultPlan.random(43, n_faults=4)
        assert a.specs == b.specs
        assert a.specs != c.specs

    def test_parse_compact(self):
        plan = FaultPlan.parse("crash@2,hang@0:mid, poison@5")
        kinds = [(s.kind, s.index, s.stage) for s in plan.specs]
        assert kinds == [
            ("crash", 2, "pre"),
            ("hang", 0, "mid"),
            ("poison", 5, "pre"),
        ]

    def test_parse_json(self):
        plan = FaultPlan.parse('[{"kind": "raise", "index": 7, "times": 2}]')
        assert plan.specs[0].kind == "raise"
        assert plan.specs[0].times == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode")
        with pytest.raises(ValueError):
            FaultPlan([FaultSpec(kind="meteor")])

    def test_parse_corrupt_compact(self):
        plan = FaultPlan.parse("corrupt.indptr@0:post")
        (spec,) = plan.specs
        assert spec.kind == "corrupt"
        assert spec.array == "indptr"
        assert spec.index == 0
        assert spec.stage == "post"
        assert spec.site == "task"  # storage arrays keep the default site

    def test_parse_corrupt_run_arrays_imply_phase_site(self):
        # labels/color only exist inside a run, so the compact grammar
        # must route them to the phase site where the run-local seals
        # can catch the flip — any other site would silently no-op.
        for array in ("labels", "color"):
            plan = FaultPlan.parse(f"corrupt.{array}@1:post")
            (spec,) = plan.specs
            assert spec.site == "phase", array
            assert spec.array == array

    def test_corrupt_run_arrays_reject_non_phase_sites(self):
        with pytest.raises(ValueError, match="requires site='phase'"):
            FaultSpec(kind="corrupt", site="task", array="labels")
        with pytest.raises(ValueError, match="requires site='phase'"):
            FaultSpec(kind="corrupt", site="request", array="color")
        # the phase site itself is fine
        FaultSpec(kind="corrupt", site="phase", array="labels")

    def test_retarget_pins_flag_plans_to_one_site(self):
        text = "raise@1,corrupt.indices@0,corrupt.labels@2:post,stall@3"
        sites = [s.site for s in retarget(text, "request").specs]
        # run-owned arrays keep firing at phase boundaries
        assert sites == ["request", "request", "phase", "request"]
        stream = retarget(text, "stream", hang_seconds=0.5).specs
        # sources apply only the network kinds
        assert [s.site for s in stream] == ["task", "task", "phase", "stream"]
        assert stream[3].hang_seconds == 0.5
        assert stream[0].hang_seconds == FaultSpec(kind="raise").hang_seconds
        with pytest.raises(ValueError):
            retarget("explode", "request")

    def test_run_faults_slices_one_attempt(self):
        carried = "raise@0,corrupt.indices@5,corrupt.labels@1:post"
        plan = FaultPlan(
            [
                FaultSpec(kind="corrupt", site="request", index=2, array="indptr"),
                FaultSpec(kind="corrupt", site="request", index=3, array="indptr"),
            ]
        )
        first = run_faults(carried, 0, plan=plan, index=2)
        assert first.backend == "supervised"
        assert [s.kind for s in first.supervisor.fault_plan.specs] == [
            "raise"
        ]
        # carried specs hit this run whatever their index; the plan's
        # only where (site, index) matches
        assert [s.array for s in first.flips] == ["indices", "indptr"]
        assert [s.array for s in first.phase_plan.specs] == ["labels"]
        retry = run_faults(carried, 1, plan=plan, index=2)
        assert retry.flips == () and retry.phase_plan is None  # times=1
        clean = run_faults()
        assert clean.backend is None and clean.supervisor is None
        assert clean.flips == () and clean.phase_plan is None


class TestShmHygiene:
    def test_registry_sees_segment_before_failure(self):
        # a failure *after* creation must still leave the segment
        # registered so the caller's finally can unlink it
        registry = []
        with pytest.raises((TypeError, ValueError)):
            # shape/init mismatch triggers the failure after create
            shm_array((10,), np.int64, np.zeros(3, dtype=np.int64), registry)
        assert len(registry) == 1
        registry[0].close()
        registry[0].unlink()


class TestRepairPartition:
    def test_uncommitted_nodes_return_to_parent_colour(self):
        color = np.array([5, 7, 8, 9, 5, -1], dtype=np.int64)
        mark = np.zeros(6, dtype=bool)
        mark[5] = True
        n = repair_partition(color, mark, 5, (7, 8, 9), None)
        assert n == 3
        assert color.tolist() == [5, 5, 5, 5, 5, -1]

    def test_committed_nodes_stay_detached(self):
        color = np.array([9, 9, 7], dtype=np.int64)
        mark = np.array([True, False, False])
        repair_partition(color, mark, 5, (7, 8, 9), None)
        assert color.tolist() == [-1, 5, 5]

    def test_hybrid_restriction(self):
        color = np.array([7, 7, 7], dtype=np.int64)
        mark = np.zeros(3, dtype=bool)
        nodes = np.array([0, 2], dtype=np.int64)
        n = repair_partition(color, mark, 5, (7, 8, 9), nodes)
        assert n == 2
        assert color.tolist() == [5, 7, 5]  # node 1 untouched


def _live_shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))


@needs_fork
class TestSupervisedBackend:
    def _run(self, plan=None, seed=1, n=150, m=600, **cfg_kwargs):
        g = random_digraph(n, m, seed=seed)
        s = SCCState(g, seed=seed)
        cfg = SupervisorConfig(
            task_timeout=cfg_kwargs.pop("task_timeout", 5.0),
            grace=0.1,
            backoff_base=0.01,
            fault_plan=plan,
            **cfg_kwargs,
        )
        tasks = run_recur_phase(
            s,
            [(0, np.arange(n))],
            backend="supervised",
            num_threads=2,
            supervisor=cfg,
        )
        return g, s, tasks

    def test_clean_run_matches_oracle(self):
        g, s, tasks = self._run()
        s.check_done()
        assert tasks > 0
        assert same_partition(s.labels, scipy_scc_labels(g))
        assert "supervisor_retries" not in s.profile.counters

    def test_injected_raise_is_retried(self):
        g, s, _ = self._run(FaultPlan.single("raise", index=0))
        assert s.profile.counters["supervisor_retries"] == 1
        assert same_partition(s.labels, scipy_scc_labels(g))

    def test_mid_task_raise_repairs_colours(self):
        g, s, _ = self._run(FaultPlan.single("raise", index=1, stage="mid"))
        assert same_partition(s.labels, scipy_scc_labels(g))
        s.check_invariants(cross_check=True)

    def test_retry_exhaustion_degrades_to_serial(self):
        plan = FaultPlan([FaultSpec(kind="raise", index=0, times=99)])
        g, s, tasks = self._run(plan, max_task_retries=1)
        assert s.profile.counters["supervisor_degraded"] == 1
        assert tasks > 0  # serial driver completed the phase
        assert same_partition(s.labels, scipy_scc_labels(g))

    def test_poisoned_write_caught_and_redone(self):
        g, s, _ = self._run(FaultPlan.single("poison", index=1))
        assert s.profile.counters["supervisor_verify_failures"] == 1
        assert s.profile.counters["supervisor_degraded"] == 1
        assert same_partition(s.labels, scipy_scc_labels(g))

    def test_no_shm_leak_across_degradation(self):
        before = _live_shm_segments()
        plan = FaultPlan([FaultSpec(kind="raise", index=0, times=99)])
        self._run(plan, max_task_retries=0)
        assert _live_shm_segments() <= before

    def test_partial_phase_skips_completeness_check(self):
        # an empty seed resolves nothing: the verifier must apply the
        # structural checks only, not demand a complete labelling
        g = random_digraph(60, 150, seed=3)
        s = SCCState(g)
        tasks = run_recur_phase(
            s,
            [],
            backend="supervised",
            num_threads=2,
            supervisor=SupervisorConfig(task_timeout=5.0),
        )
        assert tasks == 0
        assert s.unfinished() == 60

    def test_report_via_direct_call(self):
        g = random_digraph(100, 400, seed=2)
        s = SCCState(g)
        report = run_supervised_recur_phase(
            s,
            [(0, np.arange(100))],
            num_workers=2,
            config=SupervisorConfig(
                task_timeout=5.0,
                fault_plan=FaultPlan.single("raise", index=0),
            ),
        )
        assert report.retries == 1 and report.task_errors == 1
        assert report.verified and report.cross_checked
        assert not report.degraded
        assert report.tasks > 0


    def test_run_deadline_bounds_a_hung_task(self):
        # A task hung for 4 s under a 30 s task timeout: only the run
        # deadline can stop it.  The executor must fail typed near the
        # 1 s budget (not return OK after the hang) and condemn the
        # session's pool so the hung worker cannot touch the mirror.
        from repro.engine import Engine

        cfg = SupervisorConfig(
            task_timeout=30.0,
            fault_plan=FaultPlan.single("hang", index=0, hang_seconds=4.0),
        )
        with Engine(backend="supervised") as eng:
            t0 = time.monotonic()
            with pytest.raises(PhaseTimeoutError) as err:
                eng.run(ring_of_rings(), supervisor=cfg, deadline=1.0)
            elapsed = time.monotonic() - t0
            (session,) = eng.sessions
            assert not session.pool.alive
        assert elapsed < 3.0
        assert exit_code_for(err.value) == 14

    @pytest.mark.parametrize("disposition", ["ignore", "handler"])
    def test_run_deadline_under_caller_sigterm_disposition(
        self, disposition
    ):
        # The scenario above, in a caller that ignores SIGTERM (sharded
        # serve workers) or handles it in Python (serve's drain, the
        # batch runner's interrupt guard).  Pool workers inherit that
        # disposition at fork; terminate() relies on SIGTERM, so the
        # condemned pool must still die and the run fail typed.
        child = textwrap.dedent(
            """
            import signal, sys
            from repro.engine import Engine
            from repro.errors import exit_code_for
            from repro.runtime import FaultPlan, SupervisorConfig
            from tests.conftest import ring_of_rings

            signal.signal(
                signal.SIGTERM,
                signal.SIG_IGN if sys.argv[1] == "ignore"
                else (lambda signum, frame: None),
            )
            cfg = SupervisorConfig(
                task_timeout=30.0,
                fault_plan=FaultPlan.single(
                    "hang", index=0, hang_seconds=4.0
                ),
            )
            with Engine(backend="supervised") as eng:
                try:
                    eng.run(ring_of_rings(), supervisor=cfg, deadline=1.0)
                except Exception as exc:
                    sys.exit(exit_code_for(exc))
            """
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
        )
        t0 = time.monotonic()
        # its own process group: a wedged run is killed with its workers
        proc = subprocess.Popen(
            [sys.executable, "-c", child, disposition],
            env=env,
            cwd=root,
            start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail("condemned pool wedged its caller")
        assert rc == 14
        assert time.monotonic() - t0 < 10.0


def storm_queue(k=48, seed=0):
    """(graph, state, items): ``k`` disjoint small digraphs, one colour
    partition each — the storm of tiny partitions Par-WCC leaves for
    phase 2.  The first generation plans as one batch run of ``k``."""
    from repro.graph import from_edge_array

    rng = np.random.default_rng(seed)
    sizes = rng.integers(6, 13, size=k)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    src, dst = [], []
    for lo, sz in zip(bounds[:-1], sizes):
        src.append(lo + rng.integers(0, sz, 2 * sz))
        dst.append(lo + rng.integers(0, sz, 2 * sz))
    n = int(bounds[-1])
    g = from_edge_array(
        np.concatenate(src), np.concatenate(dst), n,
        dedup=True, drop_self_loops=True,
    )
    s = SCCState(g, seed=seed)
    colors = s.new_colors(k)
    items = []
    for c, lo, hi in zip(colors.tolist(), bounds[:-1], bounds[1:]):
        s.color[lo:hi] = c
        items.append((c, np.arange(lo, hi, dtype=np.int64)))
    return g, s, items


@needs_fork
class TestSupervisedBatchDrills:
    """Task-site faults on a member of a batched unit."""

    def _run(self, plan):
        g, s, items = storm_queue()
        (unit,) = plan_batches(
            [WorkItem(color=c, nodes=nd) for c, nd in items]
        )
        assert len(unit) == len(items)  # seqs 0..47 share one unit
        run_recur_phase(
            s,
            items,
            backend="supervised",
            num_threads=2,
            supervisor=SupervisorConfig(
                task_timeout=5.0, grace=0.1, backoff_base=0.01,
                fault_plan=plan,
            ),
        )
        assert s.profile.counters["phase2_batches"] > 0
        assert same_partition(s.labels, scipy_scc_labels(g))
        return s, len(unit)

    def test_mid_raise_retries_every_member_singly(self):
        s, unit_size = self._run(
            FaultPlan.single("raise", index=5, stage="mid")
        )
        counters = s.profile.counters
        # the unit fails as a whole and each member is repaired and
        # retried alone (a retried item never joins a batch run)
        assert counters["supervisor_task_errors"] == 1
        assert counters["supervisor_retries"] == unit_size
        assert "supervisor_degraded" not in counters
        s.check_invariants(cross_check=True)

    def test_poisoned_member_caught_and_redone(self):
        s, _ = self._run(FaultPlan.single("poison", index=5))
        counters = s.profile.counters
        assert counters["supervisor_verify_failures"] == 1
        assert counters["supervisor_degraded"] == 1
        assert counters["supervisor_degrade_verify_failed"] == 1
        s.check_invariants(cross_check=True)


@needs_fork
class TestMpBackendGuard:
    """A hung or dead worker surfaces as a bounded timeout, never as a
    deadlocked result wait (``multiprocessing.Pool`` never completes a
    crashed worker's result)."""

    def _run(self, spec):
        g = random_digraph(80, 300, seed=0)
        s = SCCState(g)
        report = run_supervised_recur_phase(
            s,
            [(0, np.arange(80))],
            num_workers=2,
            config=SupervisorConfig(
                task_timeout=0.5,
                grace=0.05,
                backoff_base=0.01,
                fault_plan=FaultPlan([spec]),
            ),
        )
        assert same_partition(s.labels, scipy_scc_labels(g))
        assert not WORKER_CTX  # context disarmed after the forks
        return report

    def test_timeout_surfaces_instead_of_deadlock(self):
        report = self._run(
            FaultSpec(kind="hang", index=0, hang_seconds=60.0)
        )
        assert report.timeouts == 1
        assert report.pool_rebuilds == 1 and report.retries == 1

    def test_dead_worker_diagnosed(self):
        report = self._run(FaultSpec(kind="crash", index=0))
        assert report.timeouts == 1
        assert report.pool_rebuilds == 1 and report.cross_checked


class TestCheckInvariants:
    def test_clean_complete_state_passes(self):
        g = random_digraph(50, 200, seed=0)
        s = SCCState(g)
        labels = tarjan_scc(g)
        for sid in range(int(labels.max()) + 1):
            s.mark_scc(np.flatnonzero(labels == sid), 3)
        s.check_invariants(cross_check=True)

    def test_mark_color_disagreement_detected(self):
        g = random_digraph(20, 60, seed=0)
        s = SCCState(g)
        s.mark[3] = True  # mark without detaching the colour
        with pytest.raises(StateInvariantError, match="DONE_COLOR"):
            s.check_invariants(require_complete=False)

    def test_unresolved_nodes_detected(self):
        g = random_digraph(20, 60, seed=0)
        s = SCCState(g)
        with pytest.raises(StateInvariantError, match="unresolved"):
            s.check_invariants()

    def test_wrong_partition_caught_by_cross_check(self):
        g, n = random_digraph(40, 160, seed=1), 40
        s = SCCState(g)
        s.mark_singletons(np.arange(n), 3)  # claim all-trivial SCCs
        try:
            s.check_invariants(cross_check=True)
            # only valid if the graph truly has no nontrivial SCC
            assert int(tarjan_scc(g).max()) == n - 1
        except StateInvariantError:
            pass

    def test_label_hole_detected(self):
        g = random_digraph(10, 30, seed=0)
        s = SCCState(g)
        s.mark_singletons(np.arange(10), 3)
        s.labels[0] = 5  # duplicate id 5, id 0 now unused
        with pytest.raises(StateInvariantError, match="dense"):
            s.check_invariants()

    def test_snapshot_restore_roundtrip(self):
        g = random_digraph(30, 90, seed=0)
        s = SCCState(g)
        snap = s.snapshot()
        s.mark_scc(np.arange(5), 3)
        s.new_color()
        assert s.num_sccs == 1
        s.restore(snap)
        assert s.num_sccs == 0
        assert not s.mark.any()
        assert (s.labels == -1).all()
