"""Tests for admission control: queue bounds, shedding, memory gate."""

import gzip

import pytest

from repro.errors import MemoryBudgetError, ServiceOverloadError
from repro.service.govern import (
    AdmissionConfig,
    AdmissionController,
    estimate_edge_list_size,
)


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionConfig(memory_budget_bytes=0)


class TestQueueBound:
    def test_admit_and_release_cycles(self):
        ctl = AdmissionController(AdmissionConfig(max_queue=2))
        with ctl.admit():
            assert ctl.depth == 1
            with ctl.admit():
                assert ctl.depth == 2
        assert ctl.depth == 0
        assert ctl.admitted == 2
        assert ctl.peak_depth == 2

    def test_overload_sheds_typed(self):
        ctl = AdmissionController(AdmissionConfig(max_queue=1))
        ticket = ctl.admit()
        with pytest.raises(ServiceOverloadError) as info:
            ctl.admit()
        assert info.value.reason == "overload"
        assert info.value.exit_code == 17
        assert ctl.shed == 1
        ticket.release()
        # the slot is free again.
        with ctl.admit():
            pass

    def test_ticket_release_is_idempotent(self):
        ctl = AdmissionController(AdmissionConfig(max_queue=4))
        ticket = ctl.admit()
        ticket.release()
        ticket.release()
        assert ctl.depth == 0

    def test_release_on_exception_path(self):
        ctl = AdmissionController(AdmissionConfig(max_queue=1))
        with pytest.raises(RuntimeError):
            with ctl.admit():
                raise RuntimeError("work blew up")
        assert ctl.depth == 0


class TestDraining:
    def test_drain_sheds_new_requests(self):
        ctl = AdmissionController()
        assert not ctl.draining
        ctl.drain()
        assert ctl.draining
        with pytest.raises(ServiceOverloadError) as info:
            ctl.admit()
        assert info.value.reason == "draining"

    def test_in_flight_ticket_survives_drain(self):
        ctl = AdmissionController()
        ticket = ctl.admit()
        ctl.drain()
        assert ctl.depth == 1  # in-flight work is not revoked
        ticket.release()
        assert ctl.depth == 0


class TestMemoryGate:
    def config(self, budget):
        return AdmissionConfig(max_queue=8, memory_budget_bytes=budget)

    def test_oversized_graph_refused_typed(self):
        ctl = AdmissionController(self.config(budget=10_000_000))
        with pytest.raises(MemoryBudgetError) as info:
            ctl.admit(nodes=10_000_000, edges=100_000_000)
        assert info.value.exit_code == 18
        assert info.value.required_bytes > info.value.budget_bytes
        assert ctl.rejected_memory == 1
        assert ctl.depth == 0  # no slot leaked

    def test_fitting_graph_admitted(self):
        ctl = AdmissionController(self.config(budget=1_000_000_000))
        with ctl.admit(nodes=1000, edges=10_000):
            pass
        assert ctl.admitted == 1

    def test_unknown_size_admits(self):
        # No estimate -> the RSS governor is the backstop, not a guess.
        ctl = AdmissionController(self.config(budget=1))
        with ctl.admit(nodes=None, edges=None):
            pass

    def test_process_backend_costs_more(self):
        from repro.runtime.cost import DEFAULT_MEMORY_MODEL

        serial = DEFAULT_MEMORY_MODEL.run_bytes(10_000, 100_000)
        procs = DEFAULT_MEMORY_MODEL.run_bytes(
            10_000, 100_000, backend="supervised", num_workers=4
        )
        assert procs > serial

    def test_refusal_hook_vetoes_first(self):
        ctl = AdmissionController(
            AdmissionConfig(max_queue=8),
            refusal_hook=lambda: "over the hard memory limit",
        )
        with pytest.raises(ServiceOverloadError) as info:
            ctl.admit()
        assert info.value.reason == "governor"
        assert "hard memory limit" in str(info.value)


class TestEdgeListEstimate:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(1000)))
        nodes, edges = estimate_edge_list_size(path)
        # byte-size heuristic: right order of magnitude, not exact.
        assert 200 <= edges <= 5000
        assert nodes == edges

    def test_gzip_inflates_estimate(self, tmp_path):
        raw = "".join(f"{i} {i + 1}\n" for i in range(1000)).encode()
        path = tmp_path / "edges.txt.gz"
        path.write_bytes(gzip.compress(raw))
        _, edges = estimate_edge_list_size(path)
        assert edges >= 100

    def test_missing_file_returns_none(self, tmp_path):
        assert estimate_edge_list_size(tmp_path / "nope.txt") is None

    def test_stats_roundtrip(self):
        ctl = AdmissionController(AdmissionConfig(max_queue=3))
        with ctl.admit():
            d = ctl.to_dict()
        assert d["depth"] == 1 and d["max_queue"] == 3
        assert d["admitted"] == 1 and not d["draining"]
