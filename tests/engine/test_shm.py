"""Tests for the shared-memory mirror and worker-context plumbing.

The load-bearing guarantee: every shared-memory segment is unlinked on
*every* exit path — success, mid-construction crash, double close — so
no run can leak a segment until reboot.
"""

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import SCCState
from repro.engine.shm import (
    WORKER_CTX,
    SharedStateMirror,
    arm_worker_context,
    disarm_worker_context,
    shm_array,
)
from tests.conftest import random_digraph


def segment_gone(name: str) -> bool:
    """True when no shared segment with this name exists any more."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


@pytest.fixture
def record_segments(monkeypatch):
    """Record the name of every segment created during the test."""
    created = []
    orig = shared_memory.SharedMemory

    def recording(*args, **kwargs):
        seg = orig(*args, **kwargs)
        if kwargs.get("create"):
            created.append(seg.name)
        return seg

    monkeypatch.setattr(
        "multiprocessing.shared_memory.SharedMemory", recording
    )
    return created


class TestShmArray:
    def test_roundtrip(self):
        registry = []
        init = np.arange(8, dtype=np.int64)
        try:
            arr = shm_array((8,), np.int64, init, registry)
            assert np.array_equal(arr, init)
            assert len(registry) == 1
        finally:
            for seg in registry:
                seg.close()
                seg.unlink()

    def test_registered_before_failure(self):
        """A failing init copy must still leave the segment in the
        registry, so the caller's cleanup can unlink it."""
        registry = []
        with pytest.raises((TypeError, ValueError)):
            shm_array(
                (10,), np.int64, np.zeros(3, dtype=np.int64), registry
            )
        assert len(registry) == 1
        registry[0].close()
        registry[0].unlink()


class TestSharedStateMirror:
    def test_load_flush_roundtrip(self):
        g = random_digraph(40, 120, seed=0)
        s = SCCState(g, seed=0)
        s.color[:] = np.arange(40)
        s.mark[::2] = True
        with SharedStateMirror(40) as mirror:
            mirror.load(s)
            mirror.color[5] = 99
            mirror.scc_counter.value = 7
            mirror.color_counter.value = 123
            mirror.flush(s)
        assert s.color[5] == 99
        assert s.num_sccs == 7
        assert s.new_color() >= 123

    def test_unlinked_on_success_path(self, record_segments):
        mirror = SharedStateMirror(16)
        assert len(record_segments) == len(SharedStateMirror.ARRAYS)
        mirror.close()
        assert all(segment_gone(name) for name in record_segments)

    def test_unlinked_on_constructor_crash(
        self, record_segments, monkeypatch
    ):
        """A crash after the arrays exist (here: the counter alloc)
        must unlink every segment already created."""

        def boom(*args, **kwargs):
            raise OSError("simulated counter allocation failure")

        monkeypatch.setattr("repro.engine.shm.mp.Value", boom)
        with pytest.raises(OSError, match="simulated"):
            SharedStateMirror(16)
        assert len(record_segments) == len(SharedStateMirror.ARRAYS)
        assert all(segment_gone(name) for name in record_segments)

    def test_close_idempotent_and_guards(self, record_segments):
        mirror = SharedStateMirror(8)
        mirror.close()
        mirror.close()  # second close is a no-op, not a crash
        assert mirror.closed
        s = SCCState(random_digraph(8, 20, seed=1))
        with pytest.raises(RuntimeError):
            mirror.load(s)
        with pytest.raises(RuntimeError):
            mirror.flush(s)

    def test_size_mismatch_rejected(self):
        with SharedStateMirror(8) as mirror:
            s = SCCState(random_digraph(9, 20, seed=1))
            with pytest.raises(ValueError, match="sized for"):
                mirror.load(s)


class TestWorkerContext:
    def test_arm_disarm(self):
        g = random_digraph(12, 30, seed=2)
        with SharedStateMirror(12) as mirror:
            arm_worker_context(
                g, mirror, cost=None, kernel_backend="numpy"
            )
            try:
                assert WORKER_CTX["graph"] is g
                assert WORKER_CTX["color"] is mirror.color
                assert WORKER_CTX["kernel_backend"] == "numpy"
            finally:
                disarm_worker_context()
            assert not WORKER_CTX
