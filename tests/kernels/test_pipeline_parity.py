"""Full-pipeline backend parity on generator graphs.

Complements :mod:`tests.property.test_backend_parity` (small randomized
digraphs) with Table-1-shaped inputs: an R-MAT power-law graph and a
Watts–Strogatz small-world ring, run through the complete Method 1 /
Method 2 / baseline pipelines, plus the process-pool executor — whose
forked workers must inherit the dispatcher's backend choice.
"""

import numpy as np
import pytest

from repro.core.api import strongly_connected_components
from repro.generators import rmat_graph, watts_strogatz_graph
from repro.kernels import use_backend
from tests.conftest import scipy_scc_labels
from repro.core.result import same_partition
from repro.engine.pool import fork_available


def _graphs():
    return [
        ("rmat", rmat_graph(9, 8.0, rng=7)),
        ("ws", watts_strogatz_graph(400, 4, 0.1, rng=7)),
    ]


GRAPHS = _graphs()


@pytest.mark.parametrize("method", ["baseline", "method1", "method2"])
@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_pipelines_bit_identical_across_backends(method, name, g):
    with use_backend("numpy"):
        base = strongly_connected_components(g, method, seed=0)
    with use_backend("numba"):
        fast = strongly_connected_components(g, method, seed=0)
    assert np.array_equal(base.labels, fast.labels)
    assert base.profile.trace.records == fast.profile.trace.records
    assert same_partition(base.labels, scipy_scc_labels(g))


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_process_workers_inherit_backend():
    g = rmat_graph(8, 6.0, rng=3)
    results = {}
    for backend in ("numpy", "numba"):
        with use_backend(backend):
            results[backend] = strongly_connected_components(
                g, "method2", seed=0, backend="supervised", num_threads=2
            )
    assert np.array_equal(
        results["numpy"].labels, results["numba"].labels
    )
    assert (
        results["numpy"].profile.trace.records
        == results["numba"].profile.trace.records
    )
