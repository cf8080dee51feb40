"""Tests for manifest parsing and per-job-isolated batch execution."""

import dataclasses
import json

import pytest

from repro.engine import Engine
from repro.engine.batch import (
    BatchJob,
    BatchReport,
    load_manifest,
    run_batch,
)
from repro.runtime.faults import FaultPlan, FaultSpec, retarget


def job_fault_plan(text: str) -> FaultPlan:
    """Parse a compact plan and pin it to the 'request' site, whose
    index is the job's manifest position."""
    return FaultPlan(
        dataclasses.replace(s, site="request")
        for s in FaultPlan.parse(text).specs
    )


class TestBatchJob:
    def test_from_dict_minimal(self):
        job = BatchJob.from_dict({"graph": "wiki"})
        assert job.method == "method2"
        assert job.backend == "serial"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown batch-job key"):
            BatchJob.from_dict({"graph": "wiki", "methdo": "method1"})

    def test_from_dict_requires_graph(self):
        with pytest.raises(ValueError, match="graph"):
            BatchJob.from_dict({"method": "method2"})

    def test_unknown_kernel_tier_refused(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            BatchJob(graph="wiki", kernels="cuda")

    def test_describe_defaults_and_label(self):
        assert (
            BatchJob(graph="wiki").describe() == "method2@wiki[serial]"
        )
        assert BatchJob(graph="wiki", label="x").describe() == "x"


class TestManifest:
    def test_jobs_object_and_bare_list(self, tmp_path):
        obj = tmp_path / "obj.json"
        obj.write_text(json.dumps({"jobs": [{"graph": "wiki"}]}))
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([{"graph": "wiki"}, {"graph": "ljournal"}]))
        assert len(load_manifest(obj)) == 1
        assert len(load_manifest(bare)) == 2

    def test_invalid_json_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid manifest JSON"):
            load_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="non-empty"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "jobs, position",
        [([1], 0), ([{"graph": "wiki"}, "wiki"], 1)],
        ids=["int", "string"],
    )
    def test_non_object_job_refused_by_position(
        self, tmp_path, jobs, position
    ):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(jobs))
        with pytest.raises(
            ValueError, match=f"job {position} must be a JSON object"
        ):
            load_manifest(path)

    def test_bad_job_field_names_its_position(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps([{"graph": "wiki"}, {"graph": "wiki", "kernels": "x"}])
        )
        with pytest.raises(ValueError, match="job 1: unknown kernel"):
            load_manifest(path)


class TestRunBatch:
    def jobs(self):
        return [
            BatchJob(graph="wiki", scale=0.05, method="method2"),
            BatchJob(graph="wiki", scale=0.05, method="method1"),
            BatchJob(graph="wiki", scale=0.05, method="tarjan"),
        ]

    def test_all_ok_and_sessions_warm(self):
        with Engine() as eng:
            report = run_batch(eng, self.jobs())
        assert report.jobs_total == 3
        assert report.jobs_ok == 3
        assert report.first_failure_code == 0
        # one graph -> one session; later jobs ride it warm.
        assert len(report.sessions) == 1
        assert report.records[1].warm and report.records[2].warm
        # all three jobs agree on the SCC count.
        assert len({r.num_sccs for r in report.records}) == 1

    def test_bad_job_is_isolated(self):
        jobs = self.jobs()
        jobs.insert(1, BatchJob(graph="/no/such/file.txt"))
        with Engine() as eng:
            report = run_batch(eng, jobs)
        assert report.jobs_total == 4
        assert report.jobs_ok == 3
        bad = report.records[1]
        assert not bad.ok
        assert bad.exit_code == 1
        assert bad.error_type == "FileNotFoundError"
        # the failure did not stop the jobs after it.
        assert report.records[2].ok and report.records[3].ok
        assert report.first_failure_code == 1

    def test_run_level_options_fail_the_job_before_it_runs(self, tmp_path):
        from repro.service.retry import RetryPolicy

        ck = tmp_path / "ck"
        jobs = [
            BatchJob(
                graph="wiki", scale=0.05, options={"checkpoint_dir": str(ck)}
            ),
            BatchJob(graph="wiki", scale=0.05, options={"queue_k": 4}),
        ]
        with Engine() as eng:
            report = run_batch(
                eng, jobs, retry=RetryPolicy(max_attempts=3, backoff_base=0.0)
            )
        bad, tuned = report.records
        assert not bad.ok
        assert bad.error_type == "ValueError"
        assert "checkpoint_dir" in bad.error
        assert bad.attempts == 1  # permanent: failed fast
        assert not ck.exists()
        assert tuned.ok

    def test_bad_certify_fails_the_job_before_it_runs(self):
        jobs = [
            BatchJob(graph="wiki", scale=0.05, certify="bogus"),
            BatchJob(graph="wiki", scale=0.05, certify="sample"),
        ]
        with Engine() as eng:
            report = run_batch(eng, jobs)
            (sess,) = eng.sessions
            runs = sess.stats.runs
        bad, good = report.records
        assert not bad.ok
        assert bad.error_type == "ValueError"
        assert "certify" in bad.error
        # the refused job never reached the engine: one run, and the
        # next job on the graph paid the cold load.
        assert runs == 1
        assert good.ok and not good.warm
        assert good.certificate["ok"]

    def test_injected_fault_survived(self):
        """The chaos drill the CLI --fault-plan flag runs: the hit job
        fails typed, every other job completes."""
        with Engine() as eng:
            report = run_batch(
                eng,
                self.jobs(),
                fault_plan=job_fault_plan("crash@1:pre"),
            )
        assert [r.ok for r in report.records] == [True, False, True]
        hit = report.records[1]
        assert hit.error_type == "FaultInjected"
        assert hit.exit_code == 1
        assert report.jobs_ok == 2

    def test_refused_job_keeps_its_fault_index(self):
        """A job the check refuses still takes its request number, so a
        batch-level spec's index stays the job's manifest position."""
        jobs = self.jobs()
        jobs[0] = BatchJob(
            graph="wiki", scale=0.05, options={"phase_timeout": 5.0}
        )
        with Engine() as eng:
            report = run_batch(
                eng, jobs, fault_plan=job_fault_plan("raise@1")
            )
        refused, hit, clean = report.records
        assert refused.error_type == "ValueError"
        assert hit.error_type == "FaultInjected"
        assert clean.ok

    def test_breaker_ladder_degrades_a_job_and_the_record_says_so(self):
        """Jobs ride the serve breakers: three transient failures trip
        the supervised breaker, and the next supervised job answers on
        the serial floor, named in the record and the JSON report."""
        jobs = [
            BatchJob(graph="wiki", scale=0.05, backend="supervised")
            for _ in range(4)
        ]
        plan = retarget("raise@0,raise@1,raise@2", "request")
        with Engine() as eng:
            report = run_batch(eng, jobs, fault_plan=plan)
        assert [r.error_type for r in report.records[:3]] == [
            "FaultInjected"
        ] * 3
        last = report.records[3]
        assert last.ok, last.error
        assert last.backend == "supervised"
        assert last.backend_used == "serial"
        assert report.to_dict()["jobs"][3]["backend_used"] == "serial"

    def test_progress_callback_sees_every_record(self):
        seen = []
        with Engine() as eng:
            run_batch(eng, self.jobs(), progress=seen.append)
        assert [r.index for r in seen] == [0, 1, 2]

    def test_run_many_delegates(self):
        with Engine() as eng:
            report = eng.run_many(self.jobs()[:1])
        assert isinstance(report, BatchReport)
        assert report.jobs_ok == 1

    def test_report_roundtrips_to_json(self, tmp_path):
        out = tmp_path / "report.json"
        with Engine() as eng:
            report = run_batch(eng, self.jobs()[:2])
        report.write(out)
        data = json.loads(out.read_text())
        assert data["jobs_total"] == 2
        assert data["jobs_ok"] == 2
        assert len(data["jobs"]) == 2
        assert data["sessions"]  # amortization stats published

    def test_per_job_fault_plan_forces_supervised(self):
        """A job carrying its own fault plan runs supervised and
        recovers (first retry succeeds)."""
        job = BatchJob(
            graph="wiki", scale=0.05, fault_plan="raise@0", workers=2
        )
        with Engine() as eng:
            report = run_batch(eng, [job])
        rec = report.records[0]
        assert rec.ok, rec.error


class TestBatchHardening:
    def jobs(self):
        return [
            BatchJob(graph="wiki", scale=0.05, method="method2"),
            BatchJob(graph="wiki", scale=0.05, method="method1"),
        ]

    def test_batch_level_corrupt_targets_its_job_by_index(self):
        """A batch-level ``corrupt`` spec pinned to the "request" site (the
        CLI --fault-plan route) rots exactly the indexed job's warm
        arrays; the integrity tier detects it and the retry recovers on
        a rebuilt session.  The other job never sees the flip."""
        from repro.service.retry import RetryPolicy

        plan = FaultPlan(
            [FaultSpec(kind="corrupt", site="request", index=0, array="indices")]
        )
        with Engine(integrity=True) as eng:
            report = run_batch(
                eng,
                self.jobs(),
                fault_plan=plan,
                retry=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, jitter=0.0
                ),
            )
        hit, clean = report.records
        assert hit.ok, hit.error
        assert hit.attempts == 2
        assert clean.ok and clean.attempts == 1
        assert hit.num_sccs == clean.num_sccs

    def test_batch_level_phase_corrupt_rides_into_every_job(self):
        """A batch-level "phase"-site ``corrupt`` spec (run-owned
        labels) fires at a phase boundary inside every job's run; each
        job detects, retries, and lands on the clean answer."""
        from repro.service.retry import RetryPolicy

        plan = FaultPlan(
            [
                FaultSpec(
                    kind="corrupt",
                    site="phase",
                    index=1,
                    stage="post",
                    array="labels",
                )
            ]
        )
        jobs = [
            BatchJob(graph="wiki", scale=0.05, method="method2"),
            BatchJob(graph="wiki", scale=0.05, method="method2"),
        ]
        with Engine(integrity=True) as eng:
            report = run_batch(
                eng,
                jobs,
                fault_plan=plan,
                retry=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, jitter=0.0
                ),
            )
        assert all(r.ok for r in report.records), [
            r.error for r in report.records
        ]
        assert [r.attempts for r in report.records] == [2, 2]
        assert len({r.num_sccs for r in report.records}) == 1

    def test_batch_level_corrupt_fails_typed_without_retry(self):
        """No retry policy: the detected corruption surfaces as a typed
        IntegrityError failure (exit 20) and the session is
        quarantined, so the next job rebuilds and runs clean."""
        plan = FaultPlan(
            [FaultSpec(kind="corrupt", site="request", index=0, array="indptr")]
        )
        with Engine(integrity=True) as eng:
            report = run_batch(eng, self.jobs(), fault_plan=plan)
            quarantines = eng.quarantines
        hit, clean = report.records
        assert not hit.ok
        assert hit.error_type == "IntegrityError"
        assert hit.exit_code == 20
        assert clean.ok
        assert quarantines == 1
        assert report.integrity_failures == 1

    def test_retry_recovers_transient_job_fault(self):
        """With a retry policy, a request-site fault with times=1 fails the
        first attempt and the second attempt lands clean."""
        from repro.service.retry import RetryPolicy

        with Engine() as eng:
            report = run_batch(
                eng,
                self.jobs(),
                fault_plan=job_fault_plan("raise@0:pre"),
                retry=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, jitter=0.0
                ),
            )
        hit, clean = report.records
        assert hit.ok, hit.error
        assert hit.attempts == 2  # the retry did the saving
        assert clean.ok and clean.attempts == 1

    def test_retry_does_not_burn_on_permanent_failures(self):
        from repro.service.retry import RetryPolicy

        jobs = [BatchJob(graph="/no/such/file.txt")]
        with Engine() as eng:
            report = run_batch(
                eng,
                jobs,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            )
        rec = report.records[0]
        assert not rec.ok
        assert rec.attempts == 1  # permanent: failed fast

    def test_job_timeout_fails_typed(self):
        # an absurdly small budget trips the engine's cooperative
        # phase-deadline check at the first phase boundary.
        job = BatchJob(graph="wiki", scale=0.05, timeout=1e-7)
        with Engine() as eng:
            report = run_batch(eng, [job])
        rec = report.records[0]
        assert not rec.ok
        assert rec.error_type == "PhaseTimeoutError"
        assert rec.exit_code == 14

    def test_timeout_is_the_request_deadline(self):
        """One budget for the whole job: a request-site hang that
        outlasts the job's timeout fails it typed."""
        plan = FaultPlan(
            [
                FaultSpec(
                    kind="hang", site="request", index=0, hang_seconds=2.0
                )
            ]
        )
        job = BatchJob(graph="wiki", scale=0.05, timeout=0.3)
        with Engine() as eng:
            report = run_batch(eng, [job], fault_plan=plan)
        rec = report.records[0]
        assert not rec.ok
        assert rec.error_type == "PhaseTimeoutError"
        assert rec.exit_code == 14

    def test_interrupt_sheds_remainder_and_keeps_report(self):
        """The SIGTERM/SIGINT contract: in-flight finishes, the rest is
        shed typed, and the report is still complete."""
        import os
        import signal as signal_mod

        jobs = self.jobs() + [
            BatchJob(graph="wiki", scale=0.05, method="tarjan")
        ]
        fired = {"done": False}

        def interrupt_after_first(rec):
            if not fired["done"]:
                fired["done"] = True
                os.kill(os.getpid(), signal_mod.SIGTERM)

        with Engine() as eng:
            report = run_batch(
                eng, jobs, progress=interrupt_after_first
            )
        assert report.records[0].ok  # in-flight job finished
        assert report.jobs_shed == 2
        for rec in report.records[1:]:
            assert rec.shed and not rec.ok
            assert rec.exit_code == 17
            assert rec.error_type == "ServiceOverloadError"
            assert rec.attempts == 0
        # the report still serializes completely (what --output writes).
        data = report.to_dict()
        assert data["jobs_shed"] == 2
        assert len(data["jobs"]) == 3

    def test_shed_jobs_roundtrip_in_json(self, tmp_path):
        import os
        import signal as signal_mod

        out = tmp_path / "report.json"

        def interrupt(rec):
            os.kill(os.getpid(), signal_mod.SIGTERM)

        with Engine() as eng:
            report = run_batch(eng, self.jobs(), progress=interrupt)
        report.write(out)
        data = json.loads(out.read_text())
        assert data["jobs_shed"] == 1
        assert data["jobs"][1]["shed"] is True
        assert data["jobs"][0]["attempts"] == 1
