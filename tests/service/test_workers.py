"""Tests for the sharded serving tier: consistent-hash routing, the
worker fleet end-to-end, budget sharding, and drain semantics.

Crash/SIGKILL drills live in test_chaos_workers.py (``-m chaos``);
everything here runs in tier-1 and keeps the fleets small and the
graphs tiny.
"""

import dataclasses
import json

import pytest

from repro.core.api import strongly_connected_components
from repro.core.result import canonical_labels
from repro.engine import Engine
from repro.errors import ServiceOverloadError, WorkerLostError
from repro.generators import generate
from repro.ioutil import crc32_chunks
from repro.service.governor import GovernorConfig
from repro.service.retry import classify_failure
from repro.service.server import SCCService, ServiceConfig
from repro.service.workers import (
    HashRing,
    RemoteRequestError,
    WorkerSupervisor,
    routing_fingerprint,
)
from tests.service.test_update_requests import merging_edge

GRAPH, SCALE = "wiki", 0.05


def oracle_crc():
    g = generate(GRAPH, scale=SCALE, seed=None).graph
    labels = canonical_labels(
        strongly_connected_components(g, "tarjan").labels
    )
    return crc32_chunks(labels.tobytes())


class TestHashRing:
    def test_lookup_returns_distinct_slots_in_order(self):
        ring = HashRing(4)
        got = ring.lookup(12345, count=4)
        assert sorted(got) == [0, 1, 2, 3]
        # prefixes agree: the primary never changes as count grows.
        assert ring.lookup(12345, count=1) == got[:1]
        assert ring.lookup(12345, count=2) == got[:2]

    def test_count_clamped_to_slots(self):
        ring = HashRing(2)
        assert len(ring.lookup(7, count=10)) == 2
        assert len(ring.lookup(7, count=0)) == 1

    def test_deterministic_across_instances(self):
        a, b = HashRing(5), HashRing(5)
        for key in (0, 1, 999, 2**31):
            assert a.lookup(key, 3) == b.lookup(key, 3)

    def test_spreads_keys_over_slots(self):
        import zlib

        ring = HashRing(4, virtual_nodes=64)
        owners = {
            ring.lookup(zlib.crc32(str(k).encode()))[0]
            for k in range(200)
        }
        assert owners == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, virtual_nodes=0)


class TestRoutingFingerprint:
    def test_same_graph_identity_same_key(self):
        a = {"graph": "wiki", "scale": 0.05, "id": "x", "seed": 1}
        b = {"graph": "wiki", "scale": 0.05, "id": "y", "seed": 1}
        assert routing_fingerprint(a) == routing_fingerprint(b)

    def test_different_identity_different_key(self):
        base = {"graph": "wiki", "scale": 0.05}
        assert routing_fingerprint(base) != routing_fingerprint(
            dict(base, scale=0.1)
        )
        assert routing_fingerprint(base) != routing_fingerprint(
            dict(base, graph="flickr")
        )


class TestTierConfig:
    def test_validation(self):
        # the supervisor checks the tier knobs it reads from the config
        with pytest.raises(ValueError):
            WorkerSupervisor(ServiceConfig(worker_processes=0))
        with pytest.raises(ValueError):
            WorkerSupervisor(
                ServiceConfig(worker_processes=2, heartbeat_interval=0)
            )
        with pytest.raises(ValueError):
            WorkerSupervisor(
                ServiceConfig(worker_processes=2, max_worker_restarts=-1)
            )

    def test_shard_divides_budgets(self):
        cfg = ServiceConfig(
            worker_processes=4,
            max_sessions=8,
            journal_path="/tmp/x.ndjson",
            governor=GovernorConfig(
                soft_limit_bytes=400, hard_limit_bytes=800
            ),
        )
        shard = cfg.shard()
        assert shard.worker_processes == 1
        assert shard.journal_path is None
        assert shard.max_sessions == 2
        assert shard.governor.soft_limit_bytes == 100
        assert shard.governor.hard_limit_bytes == 200

    def test_shard_without_governor(self):
        shard = ServiceConfig(worker_processes=3, max_sessions=2).shard()
        assert shard.governor is None
        assert shard.max_sessions == 1  # floor, never 0


class TestFailureClassification:
    def test_worker_lost_is_transient(self):
        assert classify_failure(WorkerLostError("gone")) == "transient"
        assert WorkerLostError("x", worker=2).exit_code == 19

    def test_remote_error_carries_worker_verdict(self):
        transient = RemoteRequestError(
            {"error_type": "PhaseTimeoutError", "exit_code": 14,
             "error": "deadline", "transient": True}
        )
        permanent = RemoteRequestError(
            {"error_type": "GraphIngestError", "exit_code": 11,
             "error": "bad file", "transient": False}
        )
        assert classify_failure(transient) == "transient"
        assert classify_failure(permanent) == "permanent"
        assert permanent.exit_code == 11
        assert "GraphIngestError" in str(permanent)


class TestEngineRebalance:
    def test_set_max_sessions_shrink_evicts_lru(self):
        with Engine(max_sessions=4) as eng:
            for scale in (0.03, 0.05, 0.08):
                eng.load(GRAPH, scale=scale)
            assert len(eng.sessions) == 3
            assert eng.set_max_sessions(1) == 2
            assert len(eng.sessions) == 1
            # the survivor is the most recently used.
            assert eng.sessions[0].graph.num_nodes > 0
            with pytest.raises(ValueError):
                eng.set_max_sessions(0)

    def test_set_max_sessions_grow_is_noop_eviction(self):
        with Engine(max_sessions=1) as eng:
            eng.load(GRAPH, scale=SCALE)
            assert eng.set_max_sessions(8) == 0
            assert eng.max_sessions == 8


class TestShardedService:
    @pytest.fixture()
    def service(self, tmp_path):
        cfg = ServiceConfig(
            worker_processes=2,
            heartbeat_interval=0.2,
            journal_path=str(tmp_path / "requests.ndjson"),
        )
        svc = SCCService(cfg)
        yield svc
        svc.drain()
        svc.close()

    def test_end_to_end_matches_oracle(self, service):
        want = oracle_crc()
        first = service.handle(
            {"op": "run", "graph": GRAPH, "scale": SCALE, "id": "a"}
        )
        assert first["ok"], first
        assert first["labels_crc32"] == want
        assert first["worker"] in (0, 1)
        assert first["replays"] == 0
        # same graph identity: same worker, warm session this time.
        second = service.handle(
            {"op": "run", "graph": GRAPH, "scale": SCALE, "id": "b"}
        )
        assert second["ok"]
        assert second["worker"] == first["worker"]
        assert second["warm"] is True
        assert second["labels_crc32"] == want

    def test_worker_failure_surfaces_original_taxonomy(
        self, service, tmp_path
    ):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nnot an edge\n")
        resp = service.handle(
            {"op": "run", "graph": str(bad), "id": "bad"}
        )
        assert resp["ok"] is False
        assert resp["error_type"] == "GraphIngestError"
        assert resp["exit_code"] == 11
        assert resp["transient"] is False

    def test_stats_merge_fleet_and_journal(self, service):
        service.handle(
            {"op": "run", "graph": GRAPH, "scale": SCALE, "id": "a"}
        )
        service.supervisor.collect_stats()
        stats = service.stats()
        fleet = stats["workers"]
        assert fleet["num_workers"] == 2
        assert fleet["live_workers"] == 2
        assert fleet["deaths"] == 0
        assert set(fleet["workers"]) == {"0", "1"}
        worker_stats = [
            w["stats"]
            for w in fleet["workers"].values()
            if w["stats"] is not None
        ]
        assert sum(s["completed"] for s in worker_stats) == 1
        assert stats["journal"]["balanced"] is True
        assert stats["journal"]["accepted"] == 1

    def test_drain_refuses_new_work_typed(self, service):
        service.drain()
        resp = service.handle(
            {"op": "run", "graph": GRAPH, "scale": SCALE, "id": "late"}
        )
        assert resp["ok"] is False
        assert resp["shed"] is True
        assert resp["exit_code"] == 17
        assert service.journal.reconcile()["balanced"] is True

    def test_supervisor_execute_after_drain_raises(self, service):
        service.supervisor.begin_drain()
        with pytest.raises(ServiceOverloadError):
            service.supervisor.execute(
                {"graph": GRAPH, "scale": SCALE}, seq=99
            )

    def test_report_includes_every_shard(self, service, tmp_path):
        service.handle(
            {"op": "run", "graph": GRAPH, "scale": SCALE, "id": "a"}
        )
        report = tmp_path / "report.json"
        service.write_report(report)
        import json

        data = json.loads(report.read_text())
        assert data["workers"]["num_workers"] == 2
        assert data["journal"]["accepted"] == 1


class TestOnePipeline:
    """The front owns retries; workers run the same local dispatch as
    the in-process path, over the engine that holds the graph."""

    @pytest.fixture()
    def service(self):
        svc = SCCService(
            ServiceConfig(worker_processes=2, heartbeat_interval=0.2)
        )
        yield svc
        svc.drain()
        svc.close()

    def test_no_nested_retry(self, service):
        rot = [{"kind": "corrupt", "array": "indices", "times": 10}]
        resp = service.handle(
            {
                "op": "run",
                "graph": GRAPH,
                "scale": SCALE,
                "fault_plan": json.dumps(rot),
            }
        )
        assert not resp["ok"]
        assert resp["error_type"] == "IntegrityError"
        assert resp["attempts"] == 3  # the default policy's budget
        service.supervisor.collect_stats()
        fleet = service.stats()["workers"]["workers"].values()
        detected = sum(
            w["stats"]["integrity"]["detected"]
            for w in fleet
            if w["stats"] is not None
        )
        # one worker-side dispatch (and detection) per front attempt
        assert detected == resp["attempts"]

    def test_analysis_reads_the_worker_that_took_the_update(self, service):
        update = service.handle(
            {
                "op": "update",
                "graph": GRAPH,
                "scale": SCALE,
                "inserts": [list(merging_edge())],
            }
        )
        assert update["ok"] and update["graph_version"] == 1, update
        resp = service.handle(
            {"op": "analysis", "graph": GRAPH, "scale": SCALE}
        )
        assert resp["ok"], resp
        assert resp["graph_version"] == update["graph_version"]
        assert resp["num_sccs"] == update["num_sccs"]
        assert resp["worker"] == update["worker"]


class TestMutablePinning:
    """A mutated graph pins by ``(graph, scale)`` alone, so requests
    carrying another ``on_error`` policy still reach its owner."""

    @pytest.fixture()
    def service(self):
        svc = SCCService(
            ServiceConfig(worker_processes=3, heartbeat_interval=0.2)
        )
        yield svc
        svc.drain()
        svc.close()

    def test_on_error_does_not_split_the_pin(self, service):
        # `repro stream --connect` sends its feed policy ("skip" by
        # default) as every update's on_error; reads carry none.
        update = service.handle(
            {
                "op": "update",
                "graph": GRAPH,
                "scale": SCALE,
                "on_error": "skip",
                "inserts": [list(merging_edge())],
            }
        )
        assert update["ok"] and update["graph_version"] == 1, update
        for op in ("run", "analysis"):
            resp = service.handle(
                {"op": op, "graph": GRAPH, "scale": SCALE}
            )
            assert resp["ok"], resp
            assert resp["worker"] == update["worker"], (op, resp)
            assert resp["graph_version"] == update["graph_version"], resp
            assert resp["num_sccs"] == update["num_sccs"], resp


class TestDegradedTopology:
    def test_single_worker_stays_in_process(self):
        cfg = ServiceConfig(worker_processes=1)
        with SCCService(cfg) as svc:
            assert svc.supervisor is None
            resp = svc.handle(
                {"op": "run", "graph": GRAPH, "scale": SCALE}
            )
            assert resp["ok"]
            assert "worker" not in resp

    def test_lost_fleet_falls_back_to_local_engine(self, tmp_path):
        cfg = ServiceConfig(
            worker_processes=2,
            heartbeat_interval=0.2,
            journal_path=str(tmp_path / "j.ndjson"),
        )
        with SCCService(cfg) as svc:
            # simulate the whole fleet lost for good.
            svc.supervisor.stop()
            for h in svc.supervisor._handles:
                h.state = "lost"
            assert svc.supervisor.available is False
            resp = svc.handle(
                {"op": "run", "graph": GRAPH, "scale": SCALE}
            )
            assert resp["ok"], resp
            assert resp["labels_crc32"] == oracle_crc()
            assert svc.journal.reconcile()["balanced"] is True
