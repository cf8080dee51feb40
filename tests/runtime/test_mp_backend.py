"""Tests for the process (GIL-free) phase-2 backend: the supervised
executor driving the worker task bodies in :mod:`repro.runtime.mp_backend`."""

import numpy as np
import pytest

from repro import strongly_connected_components
from repro.core import SCCState, same_partition
from repro.core.recurfwbw import run_recur_phase
from repro.engine.pool import fork_available
from repro.runtime.trace import TaskDAGRecord
from tests.conftest import random_digraph, scipy_scc_labels

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="requires POSIX fork"
)


class TestProcessBackend:
    @pytest.mark.parametrize("seed", range(3))
    def test_correct_decomposition(self, seed):
        g = random_digraph(200, 800, seed=seed)
        s = SCCState(g, seed=seed)
        run_recur_phase(
            s,
            [(0, np.arange(200))],
            backend="supervised",
            num_threads=2,
        )
        s.check_done()
        assert same_partition(s.labels, scipy_scc_labels(g))

    def test_scan_representation(self):
        g = random_digraph(120, 400, seed=5)
        s = SCCState(g)
        run_recur_phase(
            s, [(0, None)], backend="supervised", num_threads=2
        )
        s.check_done()
        assert same_partition(s.labels, scipy_scc_labels(g))

    def test_task_dag_recorded(self):
        g = random_digraph(100, 400, seed=1)
        s = SCCState(g)
        n_tasks = run_recur_phase(
            s,
            [(0, np.arange(100))],
            backend="supervised",
            num_threads=2,
            queue_k=4,
        )
        recs = [r for r in s.trace if isinstance(r, TaskDAGRecord)]
        assert len(recs) == 1
        assert len(recs[0].tasks) == n_tasks
        for i, t in enumerate(recs[0].tasks):
            assert t.parent < i

    def test_counters_synced(self):
        g = random_digraph(150, 500, seed=2)
        s = SCCState(g)
        run_recur_phase(
            s, [(0, np.arange(150))], backend="supervised", num_threads=2
        )
        assert s.num_sccs == int(s.labels.max()) + 1
        # fresh colours must not collide with ones used in the run
        assert s.new_color() > int(s.color.max())

    def test_full_methods_through_api(self):
        g = random_digraph(200, 900, seed=3)
        oracle = scipy_scc_labels(g)
        for method in ("baseline", "method1", "method2"):
            r = strongly_connected_components(
                g, method, backend="supervised", num_threads=2
            )
            assert same_partition(r.labels, oracle), method

    def test_task_log_collected(self):
        g = random_digraph(150, 600, seed=4)
        s = SCCState(g)
        run_recur_phase(
            s, [(0, np.arange(150))], backend="supervised", num_threads=2
        )
        assert len(s.profile.task_log) > 0

    def test_empty_initial(self):
        g = random_digraph(10, 20, seed=0)
        s = SCCState(g)
        assert (
            run_recur_phase(s, [], backend="supervised", num_threads=2)
            == 0
        )
