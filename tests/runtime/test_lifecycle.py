"""Run-lifecycle tests: checkpoints, resume, per-phase deadlines.

The load-bearing property: a run resumed from *any* phase-boundary
checkpoint produces labels **bit-identical** to the uninterrupted run
(state arrays + work queue + RNG state all round-trip), and a corrupt
checkpoint is detected by CRC and skipped in favour of the newest
older one that verifies.  Checkpointed runs are :meth:`Engine.run`
with ``checkpoint_dir``; resumption is :meth:`Engine.resume`.
"""

import os
import shutil
import struct
import time
import zipfile

import numpy as np
import pytest

from repro.core import same_partition
from repro.engine import Engine
from repro.errors import (
    CheckpointError,
    PhaseTimeoutError,
    ReproError,
    exit_code_for,
)
from repro.runtime import FaultInjected, FaultPlan, FaultSpec, SupervisorConfig
from repro.runtime.lifecycle import (
    latest_checkpoint,
    load_checkpoint,
    run_config,
    save_checkpoint,
)
from repro.runtime.trace import TaskDAGRecord
from tests.conftest import random_digraph, ring_of_rings

#: checkpoints a v1 writer (before the engine took checkpointing over)
#: left for ring_of_rings(), method2, seed 9 — the final phase's
#: checkpoint removed, as if the run died inside Recur-FWBW.
V1_CHECKPOINTS = os.path.join(
    os.path.dirname(os.path.dirname(__file__)),
    "data",
    "ckpt_v1_ring_method2_seed9",
)


@pytest.fixture
def graph():
    return random_digraph(300, 2400, seed=11)


@pytest.fixture
def engine():
    # raw labels: bit-identity, not just the same partition
    with Engine(canonical=False) as eng:
        yield eng


def ckpt_files(d):
    return sorted(f for f in os.listdir(d) if f.endswith(".ckpt.npz"))


def corrupt(path):
    # Flip one byte inside the largest member's *compressed payload*.
    # A naive flip at the file midpoint can land in zip structural
    # slack (e.g. the redundant local-header size fields that readers
    # never consult) and damage nothing the loader actually reads.
    with zipfile.ZipFile(path) as zf:
        info = max(zf.infolist(), key=lambda i: i.compress_size)
    data = bytearray(open(path, "rb").read())
    fnlen, exlen = struct.unpack_from(
        "<HH", data, info.header_offset + 26
    )
    payload = info.header_offset + 30 + fnlen + exlen
    data[payload + info.compress_size // 2] ^= 0xFF
    open(path, "wb").write(bytes(data))


def rewrite_meta(path, **changes):
    """Re-seal a checkpoint with edited metadata (valid CRC)."""
    arrays, meta = load_checkpoint(path)
    for key, value in changes.items():
        if isinstance(value, dict):
            meta[key] = dict(meta[key], **value)
        else:
            meta[key] = value
    save_checkpoint(path, arrays, meta)


class TestCheckpointFiles:
    def test_one_checkpoint_per_phase(self, engine, graph, tmp_path):
        res = engine.run(graph, seed=1, checkpoint_dir=tmp_path)
        names = ckpt_files(tmp_path)
        assert names == [
            f"phase-{i:02d}-{n}.ckpt.npz"
            for i, n in enumerate(
                ["par_trim_1", "par_fwbw", "par_trim_2", "par_trim2",
                 "par_trim_3", "par_wcc", "recur_fwbw"]
            )
        ]
        assert os.path.exists(tmp_path / "graph.npz")
        # the report exists only once the invariant gate passed
        assert res.lifecycle is not None
        assert [os.path.basename(p) for p in res.lifecycle.checkpoints] == (
            names
        )

    def test_load_verifies_crc(self, engine, graph, tmp_path):
        engine.run(graph, seed=1, checkpoint_dir=tmp_path)
        path = tmp_path / ckpt_files(tmp_path)[0]
        arrays, meta = load_checkpoint(path)
        assert meta["phase_index"] == 0
        assert meta["method"] == "method2"
        corrupt(path)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_missing_checkpoint_typed(self, tmp_path):
        with pytest.raises(CheckpointError) as err:
            latest_checkpoint(tmp_path / "absent.ckpt.npz")
        assert exit_code_for(err.value) == 13

    def test_empty_dir_typed(self, tmp_path):
        with pytest.raises(CheckpointError):
            latest_checkpoint(tmp_path)

    def test_fallback_skips_corrupt_newest(self, engine, graph, tmp_path):
        engine.run(graph, seed=1, checkpoint_dir=tmp_path)
        names = ckpt_files(tmp_path)
        corrupt(tmp_path / names[-1])
        path, _, meta = latest_checkpoint(tmp_path)
        assert path.endswith(names[-2])
        assert meta["phase_index"] == len(names) - 2

    def test_all_corrupt_lists_defects(self, engine, graph, tmp_path):
        engine.run(graph, seed=1, checkpoint_dir=tmp_path)
        for name in ckpt_files(tmp_path):
            corrupt(tmp_path / name)
        with pytest.raises(CheckpointError) as err:
            latest_checkpoint(tmp_path)
        assert "no valid checkpoint" in str(err.value)


class TestResume:
    @pytest.mark.parametrize("method", ["method1", "method2"])
    def test_resume_from_every_boundary_is_bit_identical(
        self, engine, graph, tmp_path, method
    ):
        base_dir = tmp_path / "base"
        base = engine.run(
            graph, method=method, seed=3, checkpoint_dir=base_dir
        ).labels.copy()
        names = ckpt_files(base_dir)
        for cut in range(len(names)):
            d = tmp_path / f"cut{cut}"
            shutil.copytree(base_dir, d)
            for name in names[cut + 1:]:
                os.remove(d / name)
            res = engine.resume(d)
            assert np.array_equal(res.labels, base), (
                f"{method} resumed after {names[cut]} diverged"
            )
            assert res.lifecycle.resumed_from.endswith(names[cut])
            assert res.lifecycle.cross_checked

    def test_committed_v1_checkpoint_resumes_bit_identically(
        self, engine, tmp_path
    ):
        d = tmp_path / "v1"
        shutil.copytree(V1_CHECKPOINTS, d)
        res = engine.resume(d)
        assert res.lifecycle.resumed_phase == "recur_fwbw"
        assert res.lifecycle.phases_run == ["recur_fwbw"]
        assert res.lifecycle.cross_checked
        with Engine(canonical=False) as fresh:
            ref = fresh.run(ring_of_rings(), seed=9)
        assert np.array_equal(res.labels, ref.labels)

    @pytest.mark.parametrize("retired", ["threads", "processes"])
    def test_retired_backend_checkpoint_resumes_on_serial(
        self, engine, graph, tmp_path, retired
    ):
        base = engine.run(
            graph, seed=3, checkpoint_dir=tmp_path
        ).labels.copy()
        names = ckpt_files(tmp_path)
        os.remove(tmp_path / names[-1])
        # what a v1 run on a since-retired executor recorded
        rewrite_meta(tmp_path / names[-2], backend=retired)
        _, _, meta = latest_checkpoint(tmp_path)
        assert meta["backend"] == retired
        assert run_config(meta)["backend"] == "serial"
        res = engine.resume(tmp_path)
        assert res.lifecycle.phases_run == ["recur_fwbw"]
        assert np.array_equal(res.labels, base)

    def test_retired_options_checkpoint_resumes_bit_identically(
        self, engine, graph, tmp_path
    ):
        base = engine.run(
            graph,
            seed=3,
            checkpoint_dir=tmp_path,
            supervisor=SupervisorConfig(task_timeout=7.0),
        ).labels.copy()
        names = ckpt_files(tmp_path)
        os.remove(tmp_path / names[-1])
        # what a run recorded before these options were retired
        rewrite_meta(
            tmp_path / names[-2],
            supervisor={"verify": True, "always_cross_check": False},
            config={"phase2_batch": True},
        )
        _, _, meta = latest_checkpoint(tmp_path)
        assert meta["supervisor"]["always_cross_check"] is False
        assert meta["config"]["phase2_batch"] is True
        config = run_config(meta)
        assert "phase2_batch" not in config
        assert config["supervisor"].task_timeout == 7.0
        res = engine.resume(tmp_path)
        assert res.lifecycle.phases_run == ["recur_fwbw"]
        assert np.array_equal(res.labels, base)

    def test_resume_completed_run_verifies_only(
        self, engine, graph, tmp_path
    ):
        base = engine.run(graph, seed=3, checkpoint_dir=tmp_path).labels
        res = engine.resume(tmp_path)
        assert np.array_equal(res.labels, base)
        assert res.lifecycle.phases_run == []
        assert res.lifecycle.resumed_phase is None
        assert res.lifecycle.cross_checked

    def test_resume_after_corruption_falls_back(
        self, engine, graph, tmp_path
    ):
        base = engine.run(
            graph, seed=3, checkpoint_dir=tmp_path
        ).labels.copy()
        corrupt(tmp_path / ckpt_files(tmp_path)[-1])
        res = engine.resume(tmp_path)
        assert np.array_equal(res.labels, base)

    def test_wrong_graph_refused(self, engine, graph, tmp_path):
        engine.run(graph, seed=3, checkpoint_dir=tmp_path)
        other = random_digraph(300, 2400, seed=99)
        with pytest.raises(CheckpointError) as err:
            engine.resume(tmp_path, other)
        assert "fingerprint" in str(err.value)

    def test_wrong_method_refused(self, engine, graph, tmp_path):
        engine.run(graph, seed=3, checkpoint_dir=tmp_path)
        rewrite_meta(
            tmp_path / ckpt_files(tmp_path)[-1], method="method1"
        )
        with pytest.raises(CheckpointError):
            engine.resume(tmp_path, graph)

    def test_wrong_plan_refused(self, engine, graph, tmp_path):
        engine.run(graph, seed=3, checkpoint_dir=tmp_path)
        rewrite_meta(
            tmp_path / ckpt_files(tmp_path)[-1],
            config={"use_trim2": False},
        )
        with pytest.raises(CheckpointError) as err:
            engine.resume(tmp_path, graph)
        assert "plan" in str(err.value)

    def test_missing_graph_beside_checkpoint(
        self, engine, graph, tmp_path
    ):
        engine.run(graph, seed=3, checkpoint_dir=tmp_path)
        os.remove(tmp_path / "graph.npz")
        with pytest.raises(CheckpointError) as err:
            engine.resume(tmp_path)
        assert "graph.npz" in str(err.value)

    def test_from_checkpoint_restores_config(
        self, engine, graph, tmp_path
    ):
        cfg = SupervisorConfig(task_timeout=7.0, max_task_retries=1)
        base = engine.run(
            graph,
            seed=42,
            checkpoint_dir=tmp_path,
            backend="serial",
            num_workers=3,
            phase_timeout=120.0,
            supervisor=cfg,
            queue_k=4,
            pivot_strategy="random",
        ).labels.copy()
        _, _, meta = latest_checkpoint(tmp_path)
        config = run_config(meta)
        assert config["seed"] == 42
        assert config["num_workers"] == 3
        assert config["phase_timeout"] == 120.0
        assert config["supervisor"].task_timeout == 7.0
        assert config["queue_k"] == 4
        # the resumed phase runs on the recorded configuration (and an
        # override still wins over it)
        os.remove(tmp_path / ckpt_files(tmp_path)[-1])
        res = engine.resume(tmp_path, backend="supervised", num_workers=2)
        assert same_partition(res.labels, base)
        dags = [
            r for r in res.profile.trace if isinstance(r, TaskDAGRecord)
        ]
        assert [r.queue_k for r in dags] == [4]


class TestHarnessValidation:
    def test_unknown_method_rejected(self, engine, graph, tmp_path):
        with pytest.raises(ValueError):
            engine.run(graph, method="tarjan", checkpoint_dir=tmp_path)

    def test_nonpositive_timeout_rejected(self, engine, graph):
        with pytest.raises(ValueError):
            engine.run(graph, phase_timeout=0)

    def test_unserializable_kwargs_rejected_when_checkpointing(
        self, engine, graph, tmp_path
    ):
        d = tmp_path / "ck"
        with pytest.raises(ValueError):
            engine.run(graph, checkpoint_dir=d, queue_k=object())
        assert not d.exists()  # refused before anything was written

    def test_resume_unreachable_from_run_keywords(
        self, engine, graph, tmp_path
    ):
        # only Engine.resume loads checkpoint state; a stray keyword on
        # run() is an unknown method option, as at the method factory.
        engine.run(graph, seed=3, checkpoint_dir=tmp_path)
        with pytest.raises(TypeError):
            engine.run(graph, seed=3, resume=latest_checkpoint(tmp_path))

    def test_runs_without_checkpoint_dir(self, engine, graph):
        res = engine.run(graph, seed=1, phase_timeout=60.0)
        assert res.lifecycle.checkpoints == []
        assert res.num_sccs > 0
        # no lifecycle option: the plain serving path, no report
        assert engine.run(graph, seed=1).lifecycle is None


class TestDeadlines:
    def test_wedged_phase_times_out(self, engine, graph, monkeypatch):
        import repro.core.method1 as m1

        monkeypatch.setattr(
            m1, "par_trim", lambda state, **kw: time.sleep(10)
        )
        t0 = time.monotonic()
        with pytest.raises(PhaseTimeoutError) as err:
            engine.run(graph, method="method1", seed=1, phase_timeout=0.3)
        assert time.monotonic() - t0 < 5
        assert exit_code_for(err.value) == 14

    def test_enclosing_watchdog_keeps_counting(self):
        # a phase watchdog nested in an armed SIGALRM timer (the test
        # suite's guard here, a caller's own timer in production) must
        # not pause the outer timer while the phase runs.
        import signal

        from repro.engine.engine import phase_deadline

        before, _ = signal.getitimer(signal.ITIMER_REAL)
        if not before:
            pytest.skip("no enclosing SIGALRM timer armed")
        with phase_deadline(5.0, "inner"):
            time.sleep(0.3)
        after, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 0 < after <= before - 0.25

    def test_generous_deadline_does_not_fire(self, engine, graph):
        res = engine.run(graph, seed=1, phase_timeout=60.0)
        assert res.num_sccs > 0
        assert len(res.lifecycle.phases_run) == 7

    def test_run_deadline_arms_the_phase_watchdog(
        self, engine, graph, monkeypatch
    ):
        # on the main thread the run deadline bounds a wedged phase
        # itself, not only the next phase boundary.
        import repro.core.method1 as m1

        monkeypatch.setattr(
            m1, "par_trim", lambda state, **kw: time.sleep(3)
        )
        t0 = time.monotonic()
        with pytest.raises(PhaseTimeoutError) as err:
            engine.run(graph, method="method1", seed=1, deadline=0.3)
        assert time.monotonic() - t0 < 1.5
        assert exit_code_for(err.value) == 14

    def test_run_deadline_bounds_other_methods(
        self, engine, graph, monkeypatch
    ):
        from repro.core.api import METHODS

        tarjan = METHODS["tarjan"]

        def slow_tarjan(g, **kw):
            time.sleep(2)
            return tarjan(g, **kw)

        monkeypatch.setitem(METHODS, "tarjan", slow_tarjan)
        t0 = time.monotonic()
        with pytest.raises(PhaseTimeoutError):
            engine.run(graph, method="tarjan", deadline=0.2)
        assert time.monotonic() - t0 < 1.0


class TestFaultPlanPhaseSite:
    def test_raise_at_boundary_propagates(self, engine, graph, tmp_path):
        plan = FaultPlan(
            [FaultSpec(kind="raise", site="phase", index=2, stage="pre")]
        )
        with pytest.raises(FaultInjected):
            engine.run(graph, seed=1, fault_plan=plan)
        with pytest.raises(FaultInjected):
            engine.run(graph, seed=1, fault_plan=plan, checkpoint_dir=tmp_path)
        assert ckpt_files(tmp_path) == [
            "phase-00-par_trim_1.ckpt.npz", "phase-01-par_fwbw.ckpt.npz"
        ]

    def test_hook_sees_all_stages_in_order(self, engine, graph, tmp_path):
        events = []

        class Recorder(FaultPlan):
            # the phase-site fault hook, observed: which stage fired
            # and whether that phase's checkpoint existed yet
            def fire(self, site, index, *, stage, **kw):
                events.append(
                    (site, index, stage, len(ckpt_files(tmp_path)))
                )

        res = engine.run(
            graph, seed=1, checkpoint_dir=tmp_path, fault_plan=Recorder()
        )
        per_phase = [e for e in events if e[1] == 1]  # par_fwbw
        assert per_phase == [
            ("phase", 1, "pre", 1),
            ("phase", 1, "mid", 1),
            ("phase", 1, "post", 2),
        ]
        assert res.lifecycle.cross_checked  # fault-armed runs are proven


class TestExitCodes:
    def test_taxonomy_is_distinct(self):
        assert exit_code_for(CheckpointError("x")) == 13
        assert exit_code_for(PhaseTimeoutError("p", 1.0)) == 14
        assert exit_code_for(ReproError("x")) == 10
        assert exit_code_for(RuntimeError("x")) == 1
