"""Chaos drills for ``repro serve``: real subprocesses, injected
faults, saturating bursts — asserting the daemon sheds typed, retries
transient failures, degrades through the breaker, and that every
accepted request returns labels bit-identical to a cold serial run.

Excluded from tier-1 (``-m 'not chaos'``); run with ``pytest -m chaos``.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.api import strongly_connected_components
from repro.core.result import canonical_labels
from repro.generators import generate
from repro.ioutil import crc32_chunks

pytestmark = pytest.mark.chaos

GRAPH, SCALE = "wiki", 0.05


def expected_crc():
    g = generate(GRAPH, scale=SCALE, seed=None).graph
    labels = canonical_labels(
        strongly_connected_components(g, "tarjan").labels
    )
    return crc32_chunks(labels.tobytes())


def serve(args, requests, *, timeout=90):
    """Run ``repro serve`` over a stdin pipe; returns parsed responses."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    payload = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", *args],
        input=payload,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return [
        json.loads(line)
        for line in proc.stdout.splitlines()
        if line.strip()
    ]


class TestChaosServe:
    def test_pool_crash_mid_request_recovers_with_correct_labels(self):
        """A request whose fault plan kills a worker mid-run still
        answers ok: the supervised backend rebuilds the pool and the
        labels match the cold serial oracle bit-for-bit."""
        responses = serve(
            ["--backend-workers", "2"],
            [
                {
                    "op": "run",
                    "graph": GRAPH,
                    "scale": SCALE,
                    "id": "crash",
                    "fault_plan": "crash@0",
                },
                {"op": "shutdown"},
            ],
        )
        (run,) = [r for r in responses if r.get("id") == "crash"]
        assert run["ok"], run
        assert run["backend_used"] == "supervised"
        assert run["labels_crc32"] == expected_crc()

    def test_breaker_trips_into_degraded_backend(self):
        """Service-level request faults trip the breaker; the retry
        lands on the degraded backend and the answer stays correct."""
        report = "/tmp/chaos_breaker_report.json"
        responses = serve(
            [
                "--breaker-threshold",
                "1",
                "--retries",
                "3",
                "--backoff",
                "0.0",
                "--fault-plan",
                "raise@0:pre",
                "--report",
                report,
            ],
            [
                {
                    "op": "run",
                    "graph": GRAPH,
                    "scale": SCALE,
                    "id": "r0",
                    "backend": "supervised",
                },
                {"op": "shutdown"},
            ],
        )
        (run,) = [r for r in responses if r.get("id") == "r0"]
        assert run["ok"], run
        assert run["attempts"] >= 2  # the injected fault burned one
        assert run["backend_requested"] == "supervised"
        assert run["backend_used"] == "serial"  # breaker rerouted it
        assert run["labels_crc32"] == expected_crc()
        stats = json.load(open(report))
        assert stats["breakers"]["supervised"]["trips"] == 1
        assert stats["degraded_runs"] == 1

    def test_saturating_burst_sheds_typed_and_serves_the_rest(self):
        """A burst beyond max_queue: the daemon answers every request,
        shedding the overflow with exit code 17 and serving the rest
        with bit-identical labels."""
        n = 10
        responses = serve(
            ["--max-queue", "2"],
            [
                {
                    "op": "run",
                    "graph": GRAPH,
                    "scale": SCALE,
                    "id": str(i),
                }
                for i in range(n)
            ]
            + [{"op": "shutdown"}],
        )
        runs = [r for r in responses if r.get("op") == "run"]
        assert len(runs) == n  # every request answered
        ok = [r for r in runs if r["ok"]]
        shed = [r for r in runs if r.get("shed")]
        assert ok, "burst starved every request"
        # admitted requests hold their slot while queued for the
        # engine, so a 10-deep instant burst against max_queue=2 must
        # shed (the reader dispatches in microseconds, runs take ms).
        assert shed, "burst never overflowed the queue"
        want = expected_crc()
        assert all(r["labels_crc32"] == want for r in ok)
        # whatever wasn't served was shed typed, nothing dropped.
        assert len(ok) + len(shed) == n
        assert all(r["exit_code"] == 17 for r in shed)

    def test_sigterm_graceful_drain_writes_report(self, tmp_path):
        """SIGTERM mid-stream: the daemon finishes in-flight work,
        sheds the rest, writes the final report atomically, exits 0."""
        report = tmp_path / "drain_report.json"
        src = os.path.join(
            os.path.dirname(__file__), "..", "..", "src"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--report",
                str(report),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        req = json.dumps(
            {"op": "run", "graph": GRAPH, "scale": SCALE, "id": "a"}
        )
        proc.stdin.write(req + "\n")
        proc.stdin.flush()
        # wait for the first response so work is genuinely in flight
        # history before the signal lands.
        first = json.loads(proc.stdout.readline())
        assert first["ok"], first
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        deadline = time.time() + 10
        while not report.exists() and time.time() < deadline:
            time.sleep(0.05)
        stats = json.loads(report.read_text())
        assert stats["completed"] == 1
        assert stats["admission"]["draining"] is True
