"""Timings scaled to the reference CPU speed."""

import pytest

import speed
from run import Ledger, end_to_end
from workloads import WORKLOADS

MS = 1_000_000


def test_scale_is_the_reference_over_the_nearby_probe_median():
    probes = [(t * 100 * MS, d) for t, d in enumerate(
        [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 9.0, 2.0, 2.0])]
    probes = [(t, int(d * speed.REF_NS)) for t, d in probes]
    s = speed.Speed(probes)
    assert s.scale(0) == 1.0
    # probes 3-6 are the two on each side of t = 500 ms
    assert s.scale(500 * MS) == 0.5
    # one slow outlier among the four does not move the median
    assert s.scale(750 * MS) == 0.5
    assert s.scale(10**12) == 0.5  # past the last probe


def test_prober_waits_between_probes(monkeypatch):
    now = [0]
    monkeypatch.setattr(speed.time, "monotonic_ns", lambda: now[0])
    every = speed.EVERY_NS
    p = speed.Prober()
    for t in (0, every // 2, every - 1, every, every * 3 // 2, every * 23 // 10):
        now[0] = t
        p.maybe()
    assert [t for t, _ in p.samples] == [0, every, every * 23 // 10]
    p.probe()
    assert len(p.samples) == 4


def _window(slowdown):
    """A closed-loop window of 10 ms runs on a CPU ``slowdown`` times
    slower than the reference, probed every 100 ms."""
    ops, probes = [], []
    for k in range(40):
        t = k * 12 * MS
        ops.append({"phase": "timed", "start": t, "due": t,
                    "end": t + int(10 * MS * slowdown), "giant": None})
    for t in range(0, 500 * MS, 100 * MS):
        probes.append((t, int(speed.REF_NS * slowdown)))
    return {"ops": ops, "batches": [], "probes": probes,
            "window": {"t0": 0, "t_end": 500 * MS}}


def test_a_slower_cpu_reads_the_same_after_scaling():
    w = WORKLOADS["serve-small"]
    fast, fast_diag = end_to_end(w, _window(1.0), 1.0, 1024, Ledger())
    slow, slow_diag = end_to_end(w, _window(1.7), 1.0, 1024, Ledger())
    for name in ("run_p50_ms", "run_p95_ms", "run_rps"):
        assert slow[name] == pytest.approx(fast[name])
    assert fast["run_p50_ms"] == pytest.approx(10.0)
    assert fast["run_rps"] == pytest.approx(100.0)
    assert slow_diag["raw_run_p50_ms"] == pytest.approx(17.0)
    assert slow_diag["cpu_slowdown"] == pytest.approx(1.7)
