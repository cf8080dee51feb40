"""End-to-end correctness on every dataset surrogate."""

import numpy as np
import pytest

from repro import strongly_connected_components
from repro.core import same_partition
from repro.generators import dataset_names, generate
from tests.conftest import scipy_scc_labels


@pytest.fixture(scope="module", params=dataset_names())
def bundle(request):
    return generate(request.param, scale=0.15)


@pytest.fixture(scope="module")
def oracle(bundle):
    if bundle.true_labels is not None:
        return bundle.true_labels
    return scipy_scc_labels(bundle.graph)


@pytest.mark.parametrize(
    "method", ["tarjan", "kosaraju", "baseline", "method1", "method2"]
)
def test_method_correct_on_every_dataset(bundle, oracle, method):
    r = strongly_connected_components(bundle.graph, method)
    assert same_partition(r.labels, oracle)


def test_method2_supervised_on_dataset(bundle, oracle):
    r = strongly_connected_components(
        bundle.graph, "method2", backend="supervised", num_threads=2
    )
    assert same_partition(r.labels, oracle)


def test_structure_summary_consistent(bundle, oracle):
    from repro.analysis import summarize_scc_structure

    r = strongly_connected_components(bundle.graph, "method2")
    summary = summarize_scc_structure(r.labels)
    assert summary.num_nodes == bundle.graph.num_nodes
    assert summary.num_sccs == r.num_sccs
    if bundle.spec.acyclic:
        assert summary.acyclic
