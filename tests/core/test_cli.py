"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDatasets:
    def test_lists_all_nine(self, capsys):
        code, out = run_cli(capsys, "datasets")
        assert code == 0
        for name in ("livej", "twitter", "ca-road", "patents"):
            assert name in out


class TestScc:
    def test_dataset_run(self, capsys):
        code, out = run_cli(
            capsys, "scc", "--dataset", "flickr", "--scale", "0.1",
            "--method", "method2",
        )
        assert code == 0
        assert "SCCs:" in out
        assert "simulated time @32 threads" in out

    def test_tarjan_no_seed_kwarg(self, capsys):
        code, out = run_cli(
            capsys, "scc", "--dataset", "flickr", "--scale", "0.1",
            "--method", "tarjan",
        )
        assert code == 0
        assert "largest SCC" in out

    def test_threads_flag(self, capsys):
        code, out = run_cli(
            capsys, "scc", "--dataset", "baidu", "--scale", "0.1",
            "--threads", "8",
        )
        assert code == 0
        assert "@8 threads" in out

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n1 2\n")
        code, out = run_cli(capsys, "scc", "--input", str(path))
        assert code == 0
        assert "SCCs: 2" in out

    def test_retired_phase2_batch_flag_exits_2(self, capsys):
        # the batched phase-2 tail is the only drain: no flag selects it
        with pytest.raises(SystemExit) as err:
            run_cli(
                capsys, "scc", "--dataset", "baidu", "--scale", "0.1",
                "--method", "method2", "--phase2-batch",
            )
        assert err.value.code == 2

    def test_unknown_method_raises(self, capsys):
        with pytest.raises(ValueError):
            run_cli(
                capsys, "scc", "--dataset", "baidu", "--scale", "0.1",
                "--method", "bogus",
            )


class TestMutableSessionFlags:
    @pytest.mark.parametrize(
        "argv",
        [["serve"], ["stream", "wiki", "--source", "tail-once:feed"]],
        ids=["serve", "stream"],
    )
    def test_retired_damage_threshold_flag_exits_2(self, capsys, argv):
        # a broken component has one split path: no flag picks another
        with pytest.raises(SystemExit) as err:
            main(argv + ["--damage-threshold", "0.5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --damage-threshold" in (
            capsys.readouterr().err
        )

    def test_connect_refuses_compact_ratio(self, capsys, tmp_path):
        # the daemon fixes the ratio when it promotes the session, so
        # the consumer's own value would be silently ignored.
        code = main([
            "stream", "wiki", "--source", f"tail-once:{tmp_path / 'feed'}",
            "--connect", str(tmp_path / "daemon.sock"),
            "--compact-ratio", "0.1",
        ])
        assert code == 2
        assert "repro serve --compact-ratio" in capsys.readouterr().err

    def test_in_process_compact_ratio_reaches_the_engine(
        self, tmp_path, monkeypatch
    ):
        from repro.ingest.consumer import EngineApplier

        compacted = []
        respond = EngineApplier._response

        def spy(self, report):
            compacted.append(report.compacted)
            return respond(self, report)

        monkeypatch.setattr(EngineApplier, "_response", spy)
        feed = tmp_path / "feed"
        feed.write_text("+ 1 2\n+ 2 1\n+ 3 4\n+ 4 3\n")
        code = main([
            "stream", "wiki", "--scale", "0.02",
            "--source", f"tail-once:{feed}", "--batch-edges", "2",
            "--compact-ratio", "1e-9",
        ])
        assert code == 0
        assert compacted == [True, True]


class TestBadConfigValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--compact-ratio", "0"],
            ["serve", "--max-sessions", "0"],
            ["serve", "--max-queue", "-1"],
            ["stream", "wiki", "--compact-ratio", "0"],
            ["stream", "wiki", "--batch-edges", "0"],
        ],
        ids=["serve-compact-ratio", "serve-max-sessions", "serve-max-queue",
             "stream-compact-ratio", "stream-batch-edges"],
    )
    def test_exit_2_with_one_error_line(self, capsys, tmp_path, argv):
        if argv[0] == "stream":
            argv = argv + ["--source", f"tail-once:{tmp_path / 'feed'}"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize(
        "jobs, flags, needle",
        [
            ([{"graph": "wiki"}], ["--retries", "0"], "max_attempts"),
            (
                [{"graph": "wiki"}],
                ["--retries", "2", "--backoff", "-1"],
                "backoff",
            ),
            ([1], [], "job 0 must be a JSON object"),
            (["wiki"], [], "job 0 must be a JSON object"),
        ],
        ids=["batch-retries", "batch-backoff", "batch-int-job",
             "batch-string-job"],
    )
    def test_batch_exit_2_with_one_error_line(
        self, capsys, tmp_path, jobs, flags, needle
    ):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(jobs))
        assert main(["batch", str(path), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert needle in err[0]


class TestSweep:
    def test_panel_printed(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--dataset", "baidu", "--scale", "0.15",
            "--methods", "method1,method2",
        )
        assert code == 0
        assert "speedup vs. Tarjan" in out
        assert "method2" in out
        assert "p=32" in out


class TestDistributed:
    def test_rank_scaling_report(self, capsys):
        code, out = run_cli(
            capsys, "distributed", "--dataset", "flickr",
            "--scale", "0.1", "--ranks", "1,4",
        )
        assert code == 0
        assert "supersteps" in out
        assert "bfs partition" in out

    def test_partitioner_choice(self, capsys):
        code, out = run_cli(
            capsys, "distributed", "--dataset", "baidu",
            "--scale", "0.1", "--ranks", "2", "--partitioner", "hash",
        )
        assert code == 0
        assert "hash partition" in out

    def test_bad_partitioner_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["distributed", "--dataset", "baidu",
                 "--partitioner", "psychic"]
            )


class TestInfo:
    def test_dataset_info(self, capsys):
        code, out = run_cli(
            capsys, "info", "--dataset", "patents", "--scale", "0.1"
        )
        assert code == 0
        assert "small-world" in out
        assert "SCCs:" in out

    def test_requires_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["info"])

    def test_mutually_exclusive_sources(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(SystemExit):
            main(
                ["info", "--dataset", "livej", "--input", str(path)]
            )


class TestRun:
    def test_checkpointed_run_then_resume(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        code, out = run_cli(
            capsys, "run", "--dataset", "wiki", "--scale", "0.02",
            "--checkpoint-dir", str(ck), "--phase-timeout", "60",
        )
        assert code == 0
        assert f"checkpoints: 7 written to {ck}" in out
        assert "labels verified\n" in out
        for name in sorted(os.listdir(ck)):
            if name.startswith(("phase-04", "phase-05", "phase-06")):
                os.remove(ck / name)
        code, resumed = run_cli(capsys, "run", "--resume", str(ck))
        assert code == 0
        assert "picked up at phase: par_trim_3" in resumed
        assert "phases run: par_trim_3, par_wcc, recur_fwbw" in resumed
        assert "labels verified (Tarjan cross-check)" in resumed

        def sccs(text):
            return [ln for ln in text.splitlines() if ln.startswith("SCCs:")]

        assert sccs(resumed) == sccs(out)

    def test_plain_run_is_gated(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys, "run", "--dataset", "wiki", "--scale", "0.02"
        )
        assert code == 0
        assert "labels verified\n" in out
        # the gate is real: a result with an unlabelled node fails typed
        from repro.engine.engine import Engine

        real_run = Engine.run

        def leaky_run(self, *args, **kwargs):
            result = real_run(self, *args, **kwargs)
            result.labels[0] = -1
            return result

        monkeypatch.setattr(Engine, "run", leaky_run)
        code, out = run_cli(
            capsys, "run", "--dataset", "wiki", "--scale", "0.02"
        )
        assert code == 15
        assert "labels verified" not in out

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_retired_backends_rejected(self, backend):
        with pytest.raises(SystemExit):
            main(["run", "--dataset", "wiki", "--backend", backend])


class TestBatch:
    def manifest(self, tmp_path, jobs):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": jobs}))
        return str(path)

    def test_all_jobs_ok(self, capsys, tmp_path):
        mf = self.manifest(
            tmp_path,
            [
                {"graph": "wiki", "scale": 0.05, "method": "method2"},
                {"graph": "wiki", "scale": 0.05, "method": "tarjan"},
            ],
        )
        code, out = run_cli(capsys, "batch", mf)
        assert code == 0
        assert "batch: 2/2 ok" in out
        assert "1 session(s)" in out

    def test_failed_job_isolated_and_exit_code(self, capsys, tmp_path):
        import json

        mf = self.manifest(
            tmp_path,
            [
                {"graph": "wiki", "scale": 0.05},
                {"graph": "/no/such/edges.txt"},
                {"graph": "wiki", "scale": 0.05, "method": "tarjan"},
            ],
        )
        out_path = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "batch", mf, "--output", str(out_path)
        )
        assert code == 1  # first failure's exit code
        assert "batch: 2/3 ok" in out
        assert "FAIL(1)" in out
        report = json.loads(out_path.read_text())
        assert report["jobs_failed"] == 1
        assert [j["ok"] for j in report["jobs"]] == [True, False, True]

    def test_fault_plan_injects_at_job_site(self, capsys, tmp_path):
        mf = self.manifest(
            tmp_path,
            [
                {"graph": "wiki", "scale": 0.05},
                {"graph": "wiki", "scale": 0.05, "method": "tarjan"},
            ],
        )
        code, out = run_cli(
            capsys, "batch", mf, "--fault-plan", "crash@0:pre"
        )
        assert code == 1
        assert "FaultInjected" in out
        assert "batch: 1/2 ok" in out

    def test_bad_manifest_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["batch", str(path)]) == 2

    def test_bad_fault_plan_exits_2(self, capsys, tmp_path):
        mf = self.manifest(tmp_path, [{"graph": "wiki", "scale": 0.05}])
        assert main(["batch", mf, "--fault-plan", "explode@x"]) == 2
