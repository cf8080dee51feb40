"""Property gate for the integrity tier's detection guarantee.

Any single-bit flip driven into warm session structure (``indptr``,
``indices``) or run-local labels between phase boundaries must raise
:class:`~repro.errors.IntegrityError` before a result escapes — for
every corruptible stage, on both the reference-NumPy and the numba
kernel tiers.  The flip lands through the arrays' ultimate base (the
shape real rot takes: bytes change under every guard except the
checksum), with hypothesis choosing the graph, the target array, the
phase boundary and which bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.result import same_partition
from repro.engine.engine import Engine
from repro.errors import IntegrityError
from repro.kernels import use_backend
from repro.runtime.faults import FaultPlan, FaultSpec
from tests.conftest import random_digraph, scipy_scc_labels

KERNEL_BACKENDS = ("numpy", "numba")


@st.composite
def flip_cases(draw):
    """(graph, spec): a digraph with >=1 edge plus one seeded flip."""
    n = draw(st.integers(2, 64))
    m = draw(st.integers(2, 4 * n))
    seed = draw(st.integers(0, 2**20))
    g = random_digraph(n, m, seed=seed)
    while g.num_edges == 0:  # dedup/self-loop drop can empty tiny draws
        seed += 1
        g = random_digraph(n, 4 * n, seed=seed)
    spec = FaultSpec(
        kind="corrupt",
        site="phase",
        index=draw(st.integers(0, 1)),
        stage=draw(st.sampled_from(("pre", "mid", "post"))),
        array=draw(st.sampled_from(("indptr", "indices", "labels"))),
        bit_flips=1,
        flip_seed=draw(st.integers(0, 2**20)),
    )
    return g, spec


@pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
@settings(max_examples=25, deadline=None)
@given(case=flip_cases())
def test_single_bit_flip_detected_before_response(kernel, case):
    g, spec = case
    with Engine(backend="serial", canonical=True, integrity=True) as eng:
        with use_backend(kernel):
            with pytest.raises(IntegrityError):
                eng.run(
                    g,
                    method="method2",
                    seed=0,
                    fault_plan=FaultPlan([spec]),
                )


@pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
@settings(max_examples=25, deadline=None)
@given(case=flip_cases())
def test_no_false_positives_on_clean_runs(kernel, case):
    """The same graphs, unflipped, must certify cleanly: integrity
    verification never rejects an honest run."""
    g, _ = case
    with Engine(backend="serial", canonical=True, integrity=True) as eng:
        with use_backend(kernel):
            result = eng.run(g, method="method2", seed=0)
    assert same_partition(result.labels, scipy_scc_labels(g))
