"""Both transports forget a request-handler thread once it finishes:
a long-lived daemon must not keep one ``Thread`` per request it has
ever served until shutdown (memory that grows with throughput)."""

import gc
import json
import os
import queue
import socket
import sys
import threading
import time

from repro.service.server import (
    SCCService,
    ServiceConfig,
    serve_socket,
    serve_stdin,
)

REQUESTS = 30
CLIENTS = 5


def thread_objects() -> list:
    """Every reachable ``Thread`` object, finished ones included."""
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, threading.Thread)]


def retained(known: list) -> int:
    """Threads started after ``known`` was taken that have finished
    and are still reachable, once the last handlers have exited."""
    known_ids = {id(o) for o in known}

    def count() -> int:
        return sum(
            1
            for o in thread_objects()
            if id(o) not in known_ids
            and o.ident is not None
            and not o.is_alive()
        )

    deadline = time.monotonic() + 10
    kept = count()
    while kept > 2 and time.monotonic() < deadline:
        time.sleep(0.05)
        kept = count()
    return kept


def roundtrip(sock_path, request):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(30.0)
        s.connect(sock_path)
        s.sendall((json.dumps(request) + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.decode())


def test_socket_forgets_finished_handlers(tmp_path):
    svc = SCCService(ServiceConfig(worker_processes=0))
    sock_path = str(tmp_path / "svc.sock")
    server = threading.Thread(
        target=serve_socket,
        args=(svc, sock_path),
        kwargs=dict(max_requests=REQUESTS + 1),
        daemon=True,
    )
    server.start()
    deadline = time.monotonic() + 10
    while not os.path.exists(sock_path):
        assert time.monotonic() < deadline, "socket never appeared"
        time.sleep(0.02)
    known = thread_objects()
    answers = []

    def client() -> None:
        for _ in range(REQUESTS // CLIENTS):
            answers.append(roundtrip(sock_path, {"op": "stats"})["ok"])

    # more clients than cores, switching often: handlers start and
    # finish concurrently against the transport's shared tracker.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=60)
            assert not c.is_alive()
    finally:
        sys.setswitchinterval(interval)
    clients.clear()
    assert answers == [True] * REQUESTS
    kept = retained(known)
    assert kept <= 2, f"{kept} finished handler threads still referenced"
    assert roundtrip(sock_path, {"op": "shutdown"})["ok"]
    server.join(timeout=30)
    assert not server.is_alive()
    svc.close()


class _Feed:
    """A line source that blocks until the test sends the next line."""

    def __init__(self) -> None:
        self.lines: "queue.Queue" = queue.Queue()

    def __iter__(self):
        while True:
            line = self.lines.get()
            if line is None:
                return
            yield line


class _Sink:
    def __init__(self) -> None:
        self.lines: "queue.Queue" = queue.Queue()

    def write(self, text: str) -> None:
        self.lines.put(json.loads(text))

    def flush(self) -> None:
        pass


def test_stdin_forgets_finished_handlers():
    svc = SCCService(ServiceConfig(worker_processes=0))
    feed, sink = _Feed(), _Sink()
    server = threading.Thread(
        target=serve_stdin,
        args=(svc,),
        kwargs=dict(in_stream=feed, out_stream=sink),
        daemon=True,
    )
    server.start()
    request = {"op": "run", "graph": "wiki", "scale": 0.02}
    # warm the session first, so the counted requests are cheap.
    feed.lines.put(json.dumps(request) + "\n")
    assert sink.lines.get(timeout=60)["ok"]
    known = thread_objects()
    for _ in range(REQUESTS):
        feed.lines.put(json.dumps(request) + "\n")
        assert sink.lines.get(timeout=60)["ok"]
    kept = retained(known)
    assert kept <= 2, f"{kept} finished handler threads still referenced"
    feed.lines.put(None)
    server.join(timeout=30)
    assert not server.is_alive()
    svc.close()
