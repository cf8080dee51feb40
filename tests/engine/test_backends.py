"""Tests for the phase-2 executor registry and its two drive functions."""

import numpy as np
import pytest

from repro.core import SCCState, same_partition
from repro.engine.backends import (
    BACKEND_NAMES,
    drive_serial,
    drive_supervised,
    get_executor,
)
from repro.engine.pool import fork_available
from repro.errors import PhaseTimeoutError
from tests.conftest import random_digraph, scipy_scc_labels


class TestRegistry:
    def test_both_registered(self):
        assert BACKEND_NAMES == ("serial", "supervised")

    def test_get_executor_resolves(self):
        assert get_executor("serial") is drive_serial
        assert get_executor("supervised") is drive_supervised

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="supervised"):
            get_executor("processes")


class TestDirectUse:
    """The drivers are usable without the method pipelines on top."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_run_phase_decomposes(self, name):
        if name == "supervised" and not fork_available():
            pytest.skip("requires POSIX fork")
        g = random_digraph(120, 400, seed=7)
        s = SCCState(g, seed=7)
        n_tasks = get_executor(name)(s, [(0, np.arange(120))])
        assert n_tasks > 0
        s.check_done()
        assert same_partition(s.labels, scipy_scc_labels(g))

    def test_serial_deadline_honoured(self):
        g = random_digraph(200, 800, seed=8)
        s = SCCState(g, seed=8)
        with pytest.raises(PhaseTimeoutError):
            drive_serial(s, [(0, np.arange(200))], deadline=0.0)

    @pytest.mark.skipif(not fork_available(), reason="requires POSIX fork")
    def test_supervised_deadline_honoured(self):
        g = random_digraph(200, 800, seed=8)
        s = SCCState(g, seed=8)
        with pytest.raises(PhaseTimeoutError):
            drive_supervised(s, [(0, np.arange(200))], deadline=0.0)
        assert s.unfinished() == 200  # nothing flushed back
