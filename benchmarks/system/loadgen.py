"""Load generator for the system benchmark, run as its own process.

    python3 benchmarks/system/loadgen.py SPEC.json OUT.json

``SPEC.json`` (written by ``run.py``) names the daemon socket, the
requests and the window; ``OUT.json`` receives one record per
operation with its timestamps (``time.monotonic_ns``, comparable with
the daemon's trace spans) and the answer fields the oracle checks.
The generator runs one thread with one open connection at a time: on
a host of two cores, more concurrent load would measure the scheduler
more than the daemon.  Between operations it runs the CPU-speed probe
(``speed.py``) every 50 ms and returns the samples with the records.

Every ``run`` carries its own ``seed``, drawn from the run's seed, so
the random pivots of Method 2 differ from request to request: with one
seed for all of them, a relabelling whose first pivot misses the giant
SCC would make every request of a run pay a second FW-BW trial.

Closed loop (``serve-*``): one client sends its next ``run`` as soon
as the previous one answered, round-robin over the workload's graphs.
Before the timed window it sends each graph until that graph answers
warm, then goes on round-robin for ``warmup_s``, so no cold load falls
inside the window.

Lockstep (``stream-rw``): the generator serves the edit feed on a Unix
socket and, on a fixed 100 ms schedule, alternates one batch with one
``run`` due half a period later.  It watches the consumer's checkpoint
to time when each batch became visible; a read waits for the batch
before it to be visible, and the next batch waits for the read to
answer.  So no read is in flight while an update commits, and read
``k`` must answer exactly version ``k + 1``.  Each record keeps when
the operation was due and when it was sent.
"""

from __future__ import annotations

import ctypes
import json
import os
import random
import select
import socket
import sys
import time

from procs import request
from speed import Prober

#: warm-up requests allowed per graph before giving up on it.
MAX_WARM_ROUNDS = 40
#: stream-rw: seconds between the consumer connecting and batch 0.
STREAM_LEAD_S = 0.2
#: stream-rw: sleep between schedule checks, and between checkpoint
#: polls where the host has no inotify.
POLL_S = 0.001
_IN_CLOSE_WRITE = 0x8
_IN_MOVED_TO = 0x80
#: stream-rw: a batch not visible after this long stops the feed.
VISIBLE_TIMEOUT_S = 30.0


def _call(path: str, req: dict):
    t0 = time.monotonic_ns()
    try:
        resp = request(path, req)
    except (OSError, ValueError) as exc:
        resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                "error_type": "TransportError"}
    return t0, time.monotonic_ns(), resp


def _record(req: dict, due: int, t0: int, t1: int, resp: dict, phase: str):
    return {
        "id": req["id"],
        "op": req["op"],
        "graph": req.get("graph"),
        "phase": phase,
        "due": due,
        "start": t0,
        "end": t1,
        "ok": bool(resp.get("ok", False)),
        "error": resp.get("error"),
        "error_type": resp.get("error_type"),
        "attempts": resp.get("attempts"),
        "crc": resp.get("labels_crc32"),
        "giant": resp.get("giant_fraction"),
        "version": resp.get("graph_version"),
        "worker": resp.get("worker"),
        "warm": resp.get("warm"),
        "certified": resp.get("certificate") is not None,
    }


def closed_loop(spec: dict) -> dict:
    path, graphs = spec["socket"], spec["graphs"]
    template = spec.get("template", {})
    seeds = random.Random(spec["seed"])
    ops: list = []
    prober = Prober()
    n = 0

    def send(graph: str, phase: str) -> dict:
        nonlocal n
        prober.maybe()
        req = dict(template, op="run", graph=graph, id=f"c{n}",
                   seed=seeds.randrange(1 << 31))
        n += 1
        t0, t1, resp = _call(path, req)
        ops.append(_record(req, t0, t0, t1, resp, phase))
        return resp

    # warm-up: every graph until it answers warm, then round-robin for
    # warmup_s more.
    incomplete = []
    for g in graphs:
        for _ in range(MAX_WARM_ROUNDS):
            resp = send(g, "warm")
            if resp.get("ok") and resp.get("warm"):
                break
        else:
            incomplete.append(g)
    t_warm = time.monotonic_ns() + int(spec["warmup_s"] * 1e9)
    i = 0
    while time.monotonic_ns() < t_warm:
        send(graphs[i % len(graphs)], "warm")
        i += 1

    t0 = time.monotonic_ns()
    t_end = t0 + int(spec["window_s"] * 1e9)
    i = 0
    while time.monotonic_ns() < t_end:
        send(graphs[i % len(graphs)], "timed")
        i += 1
    return {
        "ops": ops,
        "batches": [],
        "window": {"t0": t0, "t_end": t_end},
        "warm_incomplete": incomplete,
        "probes": prober.samples,
    }


def _inotify(directory: str):
    """A non-blocking inotify descriptor that turns readable when a file
    is renamed into, or closed after writing in, ``directory``; None
    where the host has no inotify."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        init, watch = libc.inotify_init1, libc.inotify_add_watch
    except (OSError, AttributeError):
        return None
    init.argtypes, init.restype = [ctypes.c_int], ctypes.c_int
    watch.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_uint32]
    watch.restype = ctypes.c_int
    fd = init(os.O_NONBLOCK | os.O_CLOEXEC)
    if fd < 0:
        return None
    if watch(fd, directory.encode(), _IN_CLOSE_WRITE | _IN_MOVED_TO) < 0:
        os.close(fd)
        return None
    return fd


class _Watermark:
    """Follows the consumer's checkpoint file for its committed offset.

    The consumer replaces the file on every commit.  Waiting on inotify
    for that, instead of sleeping between polls, times the commit to
    within a wake-up and takes no CPU from the consumer and the daemon,
    which share the generator's CPU.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.key = None
        self.offset = -1
        self.events = _inotify(os.path.dirname(path) or ".")

    def wait(self, offset: int, timeout: float) -> bool:
        """Block until the committed offset reaches ``offset``."""
        deadline = time.monotonic() + timeout
        while self.poll() < offset:
            left = deadline - time.monotonic()
            if left <= 0:
                return False
            if self.events is None:
                time.sleep(min(POLL_S, left))
            elif select.select([self.events], [], [], min(left, 0.01))[0]:
                os.read(self.events, 1 << 16)  # drain; poll() decides
        return True

    def close(self) -> None:
        if self.events is not None:
            os.close(self.events)
            self.events = None

    def poll(self) -> int:
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            return self.offset
        key = (st.st_ino, st.st_mtime_ns, st.st_size)
        if key != self.key:
            try:
                with open(self.path) as fh:
                    doc = json.load(fh)
                self.offset = int(json.loads(doc["payload"])["offset"])
                self.key = key
            except (OSError, ValueError, KeyError):
                pass  # caught mid-replace: the next poll reads it
        return self.offset


def _sleep_until(due: int) -> None:
    while time.monotonic_ns() < due:
        time.sleep(min(POLL_S, max(0, due - time.monotonic_ns()) / 1e9))


def lockstep(spec: dict) -> dict:
    path, graph = spec["socket"], spec["graph"]
    interval, offset = spec["interval_s"], spec["read_offset_s"]
    warm_s, seconds = spec["warmup_s"], spec["window_s"]
    with open(spec["edits"], "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    per, count = spec["batch_lines"], spec["batches"]
    if len(lines) < count * per:
        raise SystemExit("edit file shorter than the run")
    blocks = [b"".join(lines[i * per:(i + 1) * per]) for i in range(count)]

    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(spec["feed_socket"])
    server.listen(1)
    server.settimeout(60.0)
    print("ready", flush=True)
    conn, _ = server.accept()
    server.close()

    t_start = time.monotonic_ns() + int(STREAM_LEAD_S * 1e9)
    t0 = t_start + int(warm_s * 1e9)
    t_end = t0 + int(seconds * 1e9)
    phase = lambda due: "timed" if t0 <= due < t_end else "warm"  # noqa: E731
    mark = _Watermark(spec["checkpoint"])
    seeds = random.Random(spec["seed"])
    prober = Prober()
    ops: list = []
    batches: list = []
    end_offset = 0
    for k, block in enumerate(blocks):
        due = t_start + int(k * interval * 1e9)
        _sleep_until(due)
        conn.sendall(block)
        end_offset += len(block)
        batch = {"index": k, "due": due, "sent": time.monotonic_ns(),
                 "end_offset": end_offset, "edits": block.count(b"\n"),
                 "phase": phase(due), "visible": None}
        batches.append(batch)
        if not mark.wait(end_offset, VISIBLE_TIMEOUT_S):
            break  # the consumer stalled: run.py fails the run
        batch["visible"] = time.monotonic_ns()
        due = t_start + int((offset + k * interval) * 1e9)
        _sleep_until(due)
        req = {"op": "run", "graph": graph, "id": f"r{k}",
               "seed": seeds.randrange(1 << 31)}
        t0_, t1_, resp = _call(path, req)
        ops.append(_record(req, due, t0_, t1_, resp, phase(due)))
        prober.probe()  # nothing else runs until the next batch is due
    mark.close()
    conn.sendall(b'{"end": true}\n')
    conn.close()
    return {"ops": ops, "batches": batches,
            "window": {"t0": t0, "t_end": t_end}, "warm_incomplete": [],
            "probes": prober.samples}


def main(argv) -> int:
    spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = lockstep(spec) if spec.get("stream") else closed_loop(spec)
    tmp = out_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
