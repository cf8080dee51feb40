"""Integrity wiring through GraphSession and Engine.

Covers the seal points (load, transpose, degrees), the verify points
(session arrays at borrow, ``run:final`` and when a phase raises; run
state at every phase boundary), detection of seeded ``corrupt`` faults
at the ``"phase"`` site, the update path's partial re-seal, and the
quarantine → rebuild → correct-answer recovery path.
"""

import numpy as np
import pytest

from repro.core import tarjan_scc
from repro.core.method2 import method2_phases
from repro.core.result import canonical_labels
from repro.engine.dynamic import DynamicSCC
from repro.engine.engine import Engine
from repro.engine.session import GraphSession
from repro.errors import IntegrityError
from repro.graph import from_edge_list
from repro.kernels import jit_active, registry, use_backend
from repro.runtime.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    apply_corruption,
)


def small_graph():
    return from_edge_list(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 0)], 5
    )


def flip_bit(array, element, bit):
    """Flip one bit of ``array[element]`` through its owning buffer,
    the way rot lands under a read-only view."""
    owner = array
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    offset = (
        array.__array_interface__["data"][0]
        - owner.__array_interface__["data"][0]
        + element * array.itemsize
        + bit // 8
    )
    owner.view(np.uint8).reshape(-1)[offset] ^= np.uint8(1 << (bit % 8))


def phase_corrupt(array, *, index=0, stage="pre", flip_seed=0):
    return FaultSpec(
        kind="corrupt",
        site="phase",
        index=index,
        stage=stage,
        array=array,
        flip_seed=flip_seed,
    )


class TestSessionSeals:
    def test_seal_points_follow_materialization(self):
        sess = GraphSession(small_graph(), integrity=True)
        cs = sess.checksums
        assert cs.sealed("indptr") and cs.sealed("indices")
        assert not cs.sealed("in_indptr")
        sess.ensure_transpose()
        assert cs.sealed("in_indptr") and cs.sealed("in_indices")
        sess.effective_degrees()
        assert cs.sealed("out_degrees") and cs.sealed("in_degrees")
        checked = sess.verify_integrity(context="test")
        assert checked == 6
        assert sess.stats.integrity_verifications == 6
        sess.close()

    def test_corruption_detected_and_counted(self):
        sess = GraphSession(small_graph(), integrity=True)
        spec = phase_corrupt("indices")
        apply_corruption(sess.graph.indices, spec)
        with pytest.raises(IntegrityError) as exc:
            sess.verify_integrity(context="after-rot")
        assert exc.value.array == "indices"
        assert sess.stats.integrity_failures == 1
        sess.close()

    def test_integrity_off_is_a_noop(self):
        sess = GraphSession(small_graph())
        assert sess.checksums is None
        assert sess.verify_integrity() == 0
        assert sess.stats.integrity_verifications == 0
        sess.close()


class TestEngineDetection:
    @pytest.fixture()
    def engine(self):
        with Engine(
            backend="serial", canonical=True, integrity=True
        ) as eng:
            yield eng

    def test_clean_run_verifies_and_succeeds(self, engine):
        g = small_graph()
        result = engine.run(g, method="method2")
        assert np.array_equal(
            result.labels, canonical_labels(tarjan_scc(g))
        )
        sess = engine.session(g)
        assert sess.stats.integrity_verifications > 0
        assert sess.stats.integrity_failures == 0

    @pytest.mark.parametrize(
        "array,stage",
        [
            ("indices", "pre"),
            ("indptr", "pre"),
            ("labels", "post"),
            ("color", "mid"),
        ],
    )
    def test_phase_site_corruption_raises(self, engine, array, stage):
        plan = FaultPlan([phase_corrupt(array, stage=stage)])
        with pytest.raises(IntegrityError):
            engine.run(small_graph(), method="method2", fault_plan=plan)

    @pytest.mark.parametrize(
        "kernels,each_phase", [("numpy", False), ("numba", True)]
    )
    def test_warm_run_session_sweeps(
        self, engine, monkeypatch, kernels, each_phase
    ):
        """Session arrays are checked at borrow and ``run:final``; the
        phase boundaries check the run state the phases write.  The
        compiled loops index unchecked, so while they would run (numba
        marked importable) every phase entry checks the session too."""
        monkeypatch.setattr(registry, "_numba_available", True)
        g = small_graph()
        with use_backend(kernels):
            assert jit_active() is each_phase
            engine.run(g, method="method2")  # cold: seals the transpose
            cs = engine.session(g).checksums
            before = cs.verifications
            engine.run(g, method="method2")
        sweeps = (cs.verifications - before) / len(cs)
        assert sweeps == 2 + each_phase * len(method2_phases())

    @pytest.mark.parametrize("kernels", ["numpy", "numba"])
    def test_rot_that_crashes_a_kernel_is_typed(
        self, engine, monkeypatch, kernels
    ):
        """Rot landing inside Par-FWBW makes its gather refuse a bogus
        row; the run answers IntegrityError caused by that error."""
        import repro.core.parfwbw as parfwbw

        with use_backend(kernels):
            if jit_active():
                pytest.skip("the compiled loops do not bounds-check")
        # pivot 0 reaches {2, 4}: node 4's row is gathered from a
        # two-node (non-contiguous) frontier.
        g = from_edge_list(
            [(0, 2), (0, 4), (2, 0), (4, 0), (1, 3), (3, 1)], 5
        )
        inner = parfwbw.bfs_color_transform

        def rotting(graph, *args, **kwargs):
            if kwargs.get("direction") == "out":
                flip_bit(graph.indptr, graph.num_nodes, 48)
            return inner(graph, *args, **kwargs)

        monkeypatch.setattr(parfwbw, "bfs_color_transform", rotting)
        with use_backend(kernels), pytest.raises(IntegrityError) as exc:
            engine.run(g, method="method2", pivot_strategy="first")
        assert exc.value.array == "indptr"
        assert isinstance(exc.value.__cause__, ValueError)

    def test_phase_error_on_intact_arrays_passes_through(
        self, engine, monkeypatch
    ):
        import repro.core.parfwbw as parfwbw

        def broken(*args, **kwargs):
            raise RuntimeError("not rot")

        monkeypatch.setattr(parfwbw, "bfs_color_transform", broken)
        with pytest.raises(RuntimeError, match="not rot"):
            engine.run(small_graph(), method="method2")

    def test_borrowed_session_verified_for_any_method(self, engine):
        """Non-pipeline methods still get the borrow-time guard."""
        sess = engine.session(small_graph())
        apply_corruption(sess.graph.indices, phase_corrupt("indices"))
        with pytest.raises(IntegrityError):
            engine.run(sess, method="tarjan")

    def test_fault_plan_without_checksums_stays_silent(self):
        """Corruption of run-local state with integrity off is not
        detected — the flag is what buys detection."""
        with Engine(backend="serial", canonical=True) as eng:
            sess = eng.session(small_graph())
            assert sess.checksums is None


class TestPhaseLoop:
    """The run-level duties at a phase boundary, taken together."""

    @pytest.mark.parametrize(
        "raise_first", [True, False], ids=["raise-first", "corrupt-first"]
    )
    def test_raise_beside_a_flip_is_typed_in_either_order(self, raise_first):
        # both armed at phase 3 entry: the flip lands, then the raise
        # escapes the phase and the session check types it as rot.
        specs = [
            FaultSpec(kind="raise", site="phase", index=3),
            phase_corrupt("indices", index=3),
        ]
        if not raise_first:
            specs.reverse()
        with Engine(backend="serial", integrity=True) as eng:
            sess = eng.load("wiki", scale=0.05)
            with pytest.raises(IntegrityError) as exc:
                eng.run(
                    sess, phase_timeout=30, fault_plan=FaultPlan(specs)
                )
        assert exc.value.context == "phase[3]:par_trim2"
        assert exc.value.array == "indices"
        assert isinstance(exc.value.__cause__, FaultInjected)

    def test_checkpointed_run_catches_rot_and_resumes_clean(self, tmp_path):
        # the flip lands after phase 2's checkpoint and reseal, so the
        # checkpoint is clean and the next phase entry catches the rot.
        ckpt = tmp_path / "ckpt"
        plan = FaultPlan([phase_corrupt("labels", index=2, stage="mid")])
        with Engine(backend="serial", integrity=True) as eng:
            sess = eng.load("wiki", scale=0.05)
            expected = canonical_labels(tarjan_scc(sess.graph))
            with pytest.raises(IntegrityError) as exc:
                eng.run(sess, checkpoint_dir=ckpt, fault_plan=plan)
        assert exc.value.context == "phase[3]:par_trim2"
        assert exc.value.array == "labels"
        assert sorted(p.name[:8] for p in ckpt.glob("*.ckpt.npz")) == [
            "phase-00", "phase-01", "phase-02",
        ]
        with Engine(backend="serial", integrity=True) as eng:
            result = eng.resume(ckpt)
        assert result.lifecycle.resumed_phase == "par_trim2"
        assert np.array_equal(result.labels, expected)


class TestUpdateReseal:
    """An applied batch re-seals only the delta log it wrote, so the
    base CSR's seals still judge rot that reached it during apply."""

    @pytest.mark.parametrize("position", range(12))
    def test_flip_into_base_during_apply_raises(
        self, monkeypatch, position
    ):
        with Engine(backend="serial", integrity=True) as eng:
            sess = eng.load("wiki", scale=0.02)
            eng.update(sess)  # promote: seal the delta state whole
            indices = sess.delta.base.indices
            element = position * (indices.size - 1) // 11
            u, v = 0, int(indices[element])
            if sess.delta.has_edge(u, v):
                u, v = v, u
            inner = DynamicSCC.apply

            def rotting(self, *args, **kwargs):
                out = inner(self, *args, **kwargs)
                flip_bit(indices, element, 0)
                return out

            monkeypatch.setattr(DynamicSCC, "apply", rotting)
            with pytest.raises(IntegrityError) as exc:
                eng.update(sess, inserts=[(u, v)])
            assert exc.value.array == "indices"


class TestQuarantine:
    def test_detect_quarantine_rebuild_recover(self):
        with Engine(
            backend="serial", canonical=True, integrity=True
        ) as eng:
            sess = eng.load("wiki", scale=0.02)
            fp = sess.fingerprint
            plan = FaultPlan([phase_corrupt("indices", index=1)])
            with pytest.raises(IntegrityError):
                eng.run(sess, method="method2", seed=0, fault_plan=plan)
            assert eng.quarantine(fp)
            assert eng.quarantines == 1
            assert sess.closed

            rebuilt = eng.load("wiki", scale=0.02)
            assert rebuilt is not sess
            result = eng.run(rebuilt, method="method2", seed=0)
            expected = canonical_labels(tarjan_scc(rebuilt.graph))
            assert np.array_equal(result.labels, expected)
            assert rebuilt.stats.integrity_failures == 0

    def test_quarantine_unknown_fingerprint(self):
        with Engine(backend="serial") as eng:
            assert not eng.quarantine(0xDEADBEEF)
            assert eng.quarantines == 0
