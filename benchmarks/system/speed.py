"""CPU-speed probe: the benchmark's timings at one reference speed.

A virtual CPU of a shared host does not run at one speed: its
neighbours' load slows it by up to ~1.7x for seconds to minutes at a
time, and a request's latency follows (a fixed loop's CPU time moves
with its wall time, so this is lost speed, not lost scheduling).  No
window is long enough to average that out, so every end-to-end timing
is scaled to a reference speed instead: the load generator runs
:func:`probe_ns`, a fixed interpreter workload, on the CPU the daemon
runs on, between requests, every :data:`EVERY_NS`; an operation's
scale is :data:`REF_NS` over the median of the :data:`HALF_WIDTH`
probes on each side of it.  ``setup_s`` is scaled by probes run just
before and after each cold start.  The raw timings go to the result
file's diagnostics.

The probe is interpreter work (an integer loop and a JSON round trip)
because the daemon's is: on a 2-vCPU host, 10 s sub-windows of a
120 s serve-small run spread 0.42 (interquartile over median) raw
and 0.02-0.04 scaled.  The probe uses nothing from ``src/repro``, and
it runs at real-time priority where the host allows it, so that work
the daemon does in the background between requests cannot slow the
probe and so scale the daemon's own latency down.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import time
from typing import List, Sequence, Tuple

#: probe time (ns) of the reference CPU; scaled timings read as if
#: measured on it.
REF_NS = 1_000_000
#: the load generator probes at most this often (~2% of one CPU): once
#: per serve-giant request.  Against every 100 ms, the same ten
#: serve-giant runs spread 0.032 in p95 instead of 0.049.
EVERY_NS = 50_000_000
#: probes on each side of an operation whose median sets its scale.
HALF_WIDTH = 2

_DOC = {"ops": [{"id": i, "graph": "g" * 24, "crc": i * 7919, "v": [i] * 8}
                for i in range(60)]}


def _set_realtime(on: bool) -> bool:
    """Switch this process to ``SCHED_FIFO`` (or back); False where
    the host refuses."""
    try:
        if on:
            os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        else:
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
    except (OSError, AttributeError):
        return False
    return True


def realtime_allowed() -> bool:
    """Whether probes here run at real-time priority."""
    return _set_realtime(True) and _set_realtime(False)


def probe_ns() -> int:
    """Run the fixed probe workload once, pre-empting any other process
    on this CPU where allowed; returns its duration (ns)."""
    realtime = _set_realtime(True)
    try:
        t0 = time.perf_counter_ns()
        s = 0
        for j in range(10000):
            s += j * j
        for _ in range(2):
            json.loads(json.dumps(_DOC))
        return time.perf_counter_ns() - t0
    finally:
        if realtime:
            _set_realtime(False)


class Speed:
    """Scale factors from one window's probes, ``(monotonic_ns,
    duration_ns)`` pairs in time order."""

    def __init__(self, probes: Sequence[Tuple[int, int]]) -> None:
        if not probes:
            raise ValueError("no speed probes")
        self.times = [t for t, _ in probes]
        self.durations = [d for _, d in probes]

    def scale(self, t_ns: int) -> float:
        """``REF_NS`` over the probe time around ``t_ns``."""
        i = bisect.bisect_left(self.times, t_ns)
        near = self.durations[max(0, i - HALF_WIDTH): i + HALF_WIDTH]
        return REF_NS / statistics.median(near)


class Prober:
    """Probes at most every :data:`EVERY_NS` and keeps the samples."""

    def __init__(self) -> None:
        self.samples: List[Tuple[int, int]] = []

    def probe(self) -> None:
        self.samples.append((time.monotonic_ns(), probe_ns()))

    def maybe(self) -> None:
        if (not self.samples
                or time.monotonic_ns() - self.samples[-1][0] >= EVERY_NS):
            self.probe()
