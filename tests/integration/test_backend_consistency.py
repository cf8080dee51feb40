"""Cross-backend consistency: serial and supervised must produce the
same SCC partition (labels may differ by renaming)."""

import numpy as np
import pytest

from repro import strongly_connected_components
from repro.core import same_partition
from repro.engine.pool import fork_available
from tests.conftest import random_digraph

BACKENDS = ["serial"] + (["supervised"] if fork_available() else [])


@pytest.mark.parametrize("method", ["baseline", "method1", "method2", "fwbw"])
def test_backends_agree(method):
    g = random_digraph(250, 1000, seed=11)
    results = {
        backend: strongly_connected_components(
            g, method, backend=backend, num_threads=3
        )
        for backend in BACKENDS
    }
    ref = results["serial"]
    for backend, r in results.items():
        assert same_partition(r.labels, ref.labels), (method, backend)
        assert r.num_sccs == ref.num_sccs


def test_backends_agree_on_planted(planted_medium):
    for backend in BACKENDS:
        r = strongly_connected_components(
            planted_medium.graph, "method2", backend=backend, num_threads=3
        )
        assert same_partition(r.labels, planted_medium.labels), backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_task_counts_close_across_backends(backend):
    """Different interleavings change pivots, but the amount of work
    (task count) stays in the same ballpark."""
    g = random_digraph(300, 1200, seed=4)
    serial = strongly_connected_components(g, "method2")
    other = strongly_connected_components(
        g, "method2", backend=backend, num_threads=3
    )
    a = serial.profile.counters["recur_tasks"]
    b = other.profile.counters["recur_tasks"]
    assert b <= 3 * a + 10
