"""The engine parity gate.

The engine's contract: canonical labels are bit-identical no matter
which executor ran phase 2, which kernel backend computed the
traversals, or whether the session was cold or warm.  The SCC
partition of a graph is unique, so any divergence here is a real bug
(shared-memory corruption, colour collision, stale pool state), not a
representation choice.

``REPRO_ENGINE_BACKENDS`` (comma list) restricts the executor axis —
the CI matrix job sets it to run one backend per matrix entry.
"""

import os

import numpy as np
import pytest

from repro.engine import Engine
from repro.engine.pool import fork_available
from repro.kernels import use_backend
from tests.conftest import random_digraph, scipy_scc_labels

ALL_BACKENDS = ("serial", "supervised")
BACKENDS = tuple(
    b.strip()
    for b in os.environ.get(
        "REPRO_ENGINE_BACKENDS", ",".join(ALL_BACKENDS)
    ).split(",")
    if b.strip()
)
KERNELS = ("numpy", "numba")


def skip_unless_runnable(backend):
    if backend == "supervised" and not fork_available():
        pytest.skip("requires POSIX fork")


@pytest.fixture(scope="module")
def graph():
    return random_digraph(250, 1000, seed=11)


@pytest.fixture(scope="module")
def reference(graph):
    """Canonical labels from the serial backend on a cold engine."""
    with Engine() as eng:
        result = eng.run(graph, method="method2", backend="serial")
    return result.labels


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", ("method1", "method2"))
def test_labels_bit_identical_cold_and_warm(
    graph, reference, method, backend, kernels
):
    skip_unless_runnable(backend)
    with Engine(backend=backend, num_workers=2) as eng, use_backend(
        kernels
    ):
        cold = eng.run(graph, method=method)
        warm = eng.run(graph, method=method)
    from repro.core import same_partition

    assert same_partition(cold.labels, scipy_scc_labels(graph))
    assert np.array_equal(cold.labels, reference)
    assert np.array_equal(warm.labels, reference)


def test_warm_run_pays_no_setup(graph):
    skip_unless_runnable("supervised")
    with Engine(backend="supervised", num_workers=2) as eng:
        eng.run(graph, method="method2")
        sess = eng.session(graph)
        setup_after_cold = sess.stats.setup_seconds()
        spawns = sess.stats.pool_spawns
        eng.run(graph, method="method2")
        eng.run(graph, method="method1")
        assert sess.stats.setup_seconds() == setup_after_cold
        assert sess.stats.pool_spawns == spawns  # one fork, many runs
        assert sess.stats.warm_runs >= 2


def test_other_methods_run_through_engine(graph):
    """Every registered method is servable (kwarg filtering works)."""
    oracle = scipy_scc_labels(graph)
    from repro.core import same_partition

    with Engine() as eng:
        for method in (
            "tarjan",
            "kosaraju",
            "gabow",
            "baseline",
            "fwbw",
            "coloring",
            "multistep",
        ):
            result = eng.run(graph, method=method)
            assert same_partition(result.labels, oracle), method


def test_raw_labels_match_direct_call(graph):
    """canonical=False reproduces the method's own label order."""
    from repro import strongly_connected_components

    direct = strongly_connected_components(graph, "method2", seed=0)
    with Engine(canonical=False) as eng:
        served = eng.run(graph, method="method2", seed=0)
    assert np.array_equal(served.labels, direct.labels)
