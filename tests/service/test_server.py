"""Tests for the SCCService core and the stdin transport (in-process)."""

import io
import json
import threading

import numpy as np
import pytest

from repro.core.api import strongly_connected_components
from repro.core.result import canonical_labels
from repro.generators import generate
from repro.ioutil import crc32_chunks
from repro.runtime.faults import FaultPlan, FaultSpec, retarget
from repro.service import (
    AdmissionConfig,
    GovernorConfig,
    RetryPolicy,
    SCCService,
    ServiceConfig,
)
from repro.service.server import serve_stdin


def run_request(graph="wiki", scale=0.05, **extra):
    req = {"op": "run", "graph": graph, "scale": scale}
    req.update(extra)
    return req


def tarjan_crc(graph="wiki", scale=0.05):
    g = generate(graph, scale=scale, seed=None).graph
    labels = canonical_labels(
        strongly_connected_components(g, "tarjan").labels
    )
    return crc32_chunks(labels.tobytes())


def request_faults(*specs):
    """Pin fault specs to the service's 'request' site."""
    return FaultPlan(
        FaultSpec(site="request", **spec) for spec in specs
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRunRequests:
    def test_labels_match_cold_tarjan(self):
        with SCCService() as svc:
            resp = svc.handle(run_request(id="r1"))
        assert resp["ok"], resp
        assert resp["id"] == "r1"
        assert resp["labels_crc32"] == tarjan_crc()
        assert resp["attempts"] == 1
        assert resp["backend_used"] == "serial"

    def test_second_request_rides_warm(self):
        with SCCService() as svc:
            first = svc.handle(run_request())
            second = svc.handle(run_request())
        assert not first["warm"] and second["warm"]
        assert first["labels_crc32"] == second["labels_crc32"]
        assert (
            first["session_fingerprint"] == second["session_fingerprint"]
        )

    def test_methods_agree(self):
        with SCCService() as svc:
            crcs = {
                svc.handle(run_request(method=m))["labels_crc32"]
                for m in ("method1", "method2", "tarjan")
            }
        assert len(crcs) == 1

    def test_unknown_op_is_an_error_response(self):
        with SCCService() as svc:
            resp = svc.handle({"op": "nope"})
        assert not resp["ok"]
        assert "unknown op" in resp["error"]

    def test_missing_graph_is_an_error_response(self):
        with SCCService() as svc:
            resp = svc.handle({"op": "run"})
        assert not resp["ok"]
        assert "graph" in resp["error"]

    def test_unknown_request_key_rejected(self):
        with SCCService() as svc:
            resp = svc.handle(run_request(tmieout=3))
        assert not resp["ok"]
        assert "tmieout" in resp["error"]

    @pytest.mark.parametrize(
        "key",
        [
            "checkpoint_dir",
            "phase_timeout",
            "resume",
            "deadline",
            "phase2_batch",
        ],
    )
    def test_run_level_options_refused(self, tmp_path, key):
        # a client's options name method keywords only: run-level
        # Engine.run parameters (files, signals, budgets) stay the
        # service's own, and a retired method option (the batched
        # phase-2 tail is no longer optional) is unknown like any other.
        ck = tmp_path / "ck"
        value = {
            "checkpoint_dir": str(ck),
            "phase_timeout": 5.0,
            "resume": [str(ck), {}, {}],
            "deadline": 5.0,
            "phase2_batch": True,
        }[key]
        with SCCService() as svc:
            resp = svc.handle(run_request(options={key: value}))
            tuned = svc.handle(run_request(options={"queue_k": 4}))
            stats = svc.stats()
        assert not resp["ok"]
        assert resp["error_type"] == "ValueError"
        assert not resp["transient"]
        assert key in resp["error"]
        assert not ck.exists()
        # the refused request never reached the engine
        assert [s["runs"] for s in stats["sessions"].values()] == [1]
        assert tuned["ok"] and tuned["labels_crc32"] == tarjan_crc()

    @pytest.mark.parametrize("certify", ["bogus", 2, ["sample"], "SAMPLE"])
    def test_bad_certify_refused_before_the_run(self, tmp_path, certify):
        from repro.service.journal import scan_journal

        journal = tmp_path / "journal.ndjson"
        with SCCService(ServiceConfig(journal_path=str(journal))) as svc:
            warm = svc.handle(run_request())
            resp = svc.handle(run_request(certify=certify))
            stats = svc.stats()
        assert warm["ok"]
        assert not resp["ok"]
        assert resp["error_type"] == "ValueError"
        assert "certify" in resp["error"]
        assert resp["attempts"] == 0
        # no detection ran and nothing was journaled for it
        assert [s["runs"] for s in stats["sessions"].values()] == [1]
        assert scan_journal(journal).accepted == 1

    def test_bad_graph_fails_fast_no_retry(self):
        with SCCService() as svc:
            resp = svc.handle(run_request(graph="/no/such/file.txt"))
        assert not resp["ok"]
        assert resp["attempts"] == 1  # permanent: no retry burn


class TestDeadlines:
    def test_expired_deadline_fails_typed(self):
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)
        )
        with SCCService(config) as svc:
            resp = svc.handle(run_request(deadline=1e-7))
        assert not resp["ok"]
        assert resp["error_type"] == "PhaseTimeoutError"
        assert resp["exit_code"] == 14
        # timeouts are transient: the whole budget was spent trying.
        assert resp["attempts"] == 2

    def test_generous_deadline_succeeds(self):
        with SCCService() as svc:
            resp = svc.handle(run_request(deadline=60.0))
        assert resp["ok"], resp


class TestOverloadShedding:
    def test_saturated_queue_sheds_typed(self):
        config = ServiceConfig(
            admission=AdmissionConfig(max_queue=1),
        )
        with SCCService(config) as svc:
            ticket = svc.admission.admit()  # occupy the only slot
            resp = svc.handle(run_request())
            ticket.release()
        assert not resp["ok"]
        assert resp["shed"]
        assert resp["error_type"] == "ServiceOverloadError"
        assert resp["exit_code"] == 17
        stats = svc.stats()
        assert stats["shed"] == 1 and stats["completed"] == 0

    def test_memory_budget_refusal(self):
        config = ServiceConfig(
            admission=AdmissionConfig(
                max_queue=4, memory_budget_bytes=1000
            ),
        )
        with SCCService(config) as svc:
            resp = svc.handle(
                run_request(nodes=10_000_000, edges=100_000_000)
            )
        assert not resp["ok"]
        assert resp["error_type"] == "MemoryBudgetError"
        assert resp["exit_code"] == 18

    def test_governor_veto_sheds(self):
        config = ServiceConfig(
            governor=GovernorConfig(
                soft_limit_bytes=1, hard_limit_bytes=1
            ),
        )
        with SCCService(config) as svc:
            svc.governor._rss_fn = lambda: 10**12
            resp = svc.handle(run_request())
        assert not resp["ok"]
        assert resp["error_type"] == "ServiceOverloadError"
        assert "hard limit" in resp["error"]


class TestRetryAndBreaker:
    def test_transient_request_fault_retried_to_success(self):
        config = ServiceConfig(
            retry=RetryPolicy(
                max_attempts=3, backoff_base=0.0, jitter=0.0
            ),
        )
        plan = request_faults({"kind": "raise", "index": 0, "times": 1})
        with SCCService(config, fault_plan=plan) as svc:
            resp = svc.handle(run_request())
        assert resp["ok"], resp
        assert resp["attempts"] == 2
        assert resp["retried_errors"] and "FaultInjected" in str(
            resp["retried_errors"][0]
        )
        assert resp["labels_crc32"] == tarjan_crc()
        assert svc.stats()["retried"] == 1

    @pytest.mark.parametrize(
        "text", ["corrupt.indices@0,raise@0", "raise@0,corrupt.indices@0"]
    )
    def test_request_raise_beside_a_flip_fires_in_either_order(self, text):
        # the raise fails attempt 0 before its flip lands; the retry
        # runs clean (both specs are times=1)
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
        )
        with SCCService(
            config, fault_plan=retarget(text, "request")
        ) as svc:
            resp = svc.handle(run_request())
            assert svc.stats()["integrity"]["detected"] == 0
        assert resp["ok"], resp
        assert resp["attempts"] == 2
        assert "FaultInjected" in str(resp["retried_errors"][0])
        assert resp["labels_crc32"] == tarjan_crc()

    def test_refused_request_keeps_its_sequence_number(self):
        # requests are numbered before their check, so under raise@1
        # the good request sent right after a refused one is the hit.
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
        )
        plan = request_faults({"kind": "raise", "index": 1})
        with SCCService(config, fault_plan=plan) as svc:
            refused = svc.handle(run_request(tmieout=3))
            hit = svc.handle(run_request())
            clean = svc.handle(run_request())
        assert not refused["ok"] and refused["error_type"] == "ValueError"
        assert hit["ok"] and hit["attempts"] == 2
        assert "FaultInjected" in str(hit["retried_errors"][0])
        assert clean["ok"] and clean["attempts"] == 1

    def test_breaker_trips_and_degrades_backend(self):
        clock = FakeClock()
        config = ServiceConfig(
            retry=RetryPolicy(
                max_attempts=3, backoff_base=0.0, jitter=0.0
            ),
            breaker_threshold=1,
            breaker_cooldown=60.0,
        )
        # the first attempt (on the requested backend) fails; the
        # tripped breaker must route the retry down the ladder.
        plan = request_faults({"kind": "raise", "index": 0, "times": 1})
        with SCCService(config, fault_plan=plan, clock=clock) as svc:
            resp = svc.handle(run_request(backend="supervised"))
            assert resp["ok"], resp
            assert resp["backend_requested"] == "supervised"
            assert resp["backend_used"] == "serial"
            assert svc.stats()["degraded_runs"] == 1
            assert svc.breakers.breaker("supervised").state == "open"
            # later requests skip the broken backend outright.
            resp2 = svc.handle(run_request(backend="supervised"))
            assert resp2["ok"] and resp2["backend_used"] == "serial"
            # cooldown heals: the probe goes back to the real backend.
            clock.now = 60.0
            resp3 = svc.handle(run_request(backend="supervised"))
            assert resp3["ok"] and resp3["backend_used"] == "supervised"
            assert svc.breakers.breaker("supervised").state == "closed"
        assert (
            resp["labels_crc32"]
            == resp2["labels_crc32"]
            == resp3["labels_crc32"]
            == tarjan_crc()
        )

    def test_permanent_failure_does_not_trip_breaker(self):
        config = ServiceConfig(breaker_threshold=1)
        with SCCService(config) as svc:
            svc.handle(run_request(graph="/no/such/file.txt"))
            assert svc.breakers.to_dict() == {}  # nothing recorded


def session_stats(svc):
    (sess,) = svc.stats()["sessions"].values()
    return sess


class TestProofLedger:
    """Certified runs prove each sampled SCC once per graph version."""

    def test_repeat_seed_runs_no_proof(self):
        with SCCService() as svc:
            first = svc.handle(run_request(certify="sample", seed=1))
            before = session_stats(svc)
            again = svc.handle(run_request(certify="sample", seed=1))
            after = session_stats(svc)
            other = svc.handle(run_request(certify=True, seed=2))
        assert first["ok"] and again["ok"] and other["ok"]
        assert before["proofs_run"] == len(first["certificate"]["sampled"])
        assert before["proofs_reused"] == 0
        assert after["proofs_run"] == before["proofs_run"]
        assert after["proofs_reused"] == len(again["certificate"]["sampled"])
        assert again["certificate"] == first["certificate"]
        assert again["labels_crc32"] == first["labels_crc32"] == tarjan_crc()
        assert other["certificate"]["level"] == "sample"

    def test_certificates_match_fresh_ones(self):
        from repro.integrity import certify_result

        g = generate("wiki", scale=0.05, seed=None).graph
        labels = canonical_labels(
            strongly_connected_components(g, "tarjan").labels
        )
        with SCCService() as svc:
            for seed in (1, 2, 1, 3, 2):
                for level in ("sample", "full"):
                    cert = svc.handle(
                        run_request(certify=level, seed=seed)
                    )["certificate"]
                    fresh = certify_result(g, labels, level=level, seed=seed)
                    assert cert == dict(fresh, graph_version=0)
            assert session_stats(svc)["proofs_reused"] > 0

    def test_quarantine_drops_the_ledger(self):
        with SCCService() as svc:
            svc.handle(run_request(certify="sample"))
            (sess,) = svc.engine.sessions
            assert svc.engine.quarantine(sess.fingerprint)
            assert sess.closed and sess._proofs is None
            resp = svc.handle(run_request(certify="sample"))
            stats = session_stats(svc)
        assert resp["ok"] and not resp["warm"]
        assert stats["proofs_run"] > 0 and stats["proofs_reused"] == 0

    def test_lru_eviction_drops_the_ledger(self):
        with SCCService(ServiceConfig(max_sessions=1)) as svc:
            svc.handle(run_request(certify="sample"))
            (sess,) = svc.engine.sessions
            svc.handle(run_request(scale=0.03))
            assert sess.closed and sess._proofs is None
            resp = svc.handle(run_request(certify="sample"))
            stats = session_stats(svc)
        assert resp["ok"] and not resp["warm"]
        assert stats["proofs_run"] > 0 and stats["proofs_reused"] == 0


class TestDrainAndStats:
    def test_drain_sheds_new_requests(self):
        with SCCService() as svc:
            ok = svc.handle(run_request())
            svc.drain()
            after = svc.handle(run_request())
        assert ok["ok"]
        assert not after["ok"] and after["shed"]
        assert svc.handle({"op": "health"})["status"] == "draining"

    def test_drain_signal_on_the_thread_holding_its_locks(self):
        # repro batch runs every request on the main thread, where the
        # drain's SIGTERM handler runs too: drain() must not deadlock on
        # a lock that thread already holds.
        import os
        import signal

        from repro.service.server import _drain_signals

        stop = threading.Event()
        with SCCService() as svc, _drain_signals(svc, stop):
            with svc.admission._lock, svc._streams_lock:
                os.kill(os.getpid(), signal.SIGTERM)
                assert stop.wait(5.0)
            assert svc.draining
            assert svc.handle(run_request())["shed"]

    def test_shutdown_op_drains(self):
        with SCCService() as svc:
            resp = svc.handle({"op": "shutdown"})
            assert resp["ok"] and resp["draining"]
            assert svc.draining

    def test_health_and_stats_shapes(self):
        with SCCService() as svc:
            svc.handle(run_request())
            health = svc.handle({"op": "health"})
            stats = svc.handle({"op": "stats"})
        assert health["ok"] and health["status"] == "serving"
        assert health["sessions"] == 1
        assert stats["requests"] == 1 and stats["completed"] == 1
        assert stats["admission"]["admitted"] == 1
        (sess,) = stats["sessions"].values()
        assert sess["runs"] == 1
        assert sess["estimated_bytes"] > 0


class TestStdinTransport:
    def run_lines(self, svc, lines, **kwargs):
        out = io.StringIO()
        code = serve_stdin(
            svc,
            in_stream=io.StringIO("\n".join(lines) + "\n"),
            out_stream=out,
            **kwargs,
        )
        responses = [
            json.loads(line) for line in out.getvalue().splitlines()
        ]
        return code, responses

    def test_requests_answered_and_report_written(self, tmp_path):
        report = tmp_path / "svc.json"
        with SCCService() as svc:
            code, responses = self.run_lines(
                svc,
                [
                    json.dumps(run_request(id="a")),
                    json.dumps({"op": "health", "id": "h"}),
                    json.dumps({"op": "shutdown", "id": "s"}),
                ],
                report_path=report,
            )
        assert code == 0
        by_id = {r.get("id"): r for r in responses}
        assert by_id["a"]["ok"] and by_id["a"]["labels_crc32"]
        assert by_id["h"]["ok"]
        assert by_id["s"]["draining"]
        data = json.loads(report.read_text())
        assert data["requests"] == 1 and data["completed"] == 1

    def test_bad_json_line_answered_not_fatal(self):
        with SCCService() as svc:
            code, responses = self.run_lines(
                svc,
                ["{not json", json.dumps(run_request(id="good"))],
            )
        assert code == 0
        bad = [r for r in responses if not r.get("ok")]
        good = [r for r in responses if r.get("ok")]
        assert bad and "bad request JSON" in bad[0]["error"]
        assert good and good[0]["id"] == "good"

    def test_max_requests_drains_after_n(self):
        with SCCService() as svc:
            code, responses = self.run_lines(
                svc,
                [json.dumps(run_request(id=str(i))) for i in range(4)],
                max_requests=2,
            )
        assert code == 0
        ok = [r for r in responses if r.get("ok")]
        shed = [r for r in responses if r.get("shed")]
        assert len(ok) == 2
        # the two requests past the cap were shed typed, not dropped.
        assert len(shed) == 2
        assert all(r["exit_code"] == 17 for r in shed)

    def test_lines_buffered_at_drain_get_typed_responses(self):
        """Every line on the wire gets an answer even when the service
        drains before reading it (the SIGTERM contract)."""
        with SCCService() as svc:
            svc.drain()
            code, responses = self.run_lines(
                svc, [json.dumps(run_request(id="late"))]
            )
        assert code == 0
        assert len(responses) == 1
        assert responses[0]["shed"]


class TestConcurrentRequests:
    def test_parallel_callers_all_answered_correctly(self):
        expected = tarjan_crc()
        config = ServiceConfig(admission=AdmissionConfig(max_queue=8))
        results = []
        with SCCService(config) as svc:
            svc.handle(run_request())  # warm the session first

            def call(i):
                results.append(svc.handle(run_request(id=str(i))))

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert all(r["ok"] for r in results), results
        assert {r["labels_crc32"] for r in results} == {expected}
