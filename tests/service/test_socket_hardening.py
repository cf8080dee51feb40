"""Socket-transport hardening: slow-loris read deadlines and the
request-line byte cap.  A hostile client may pin one handler thread for
one deadline at most — never the accept loop — and every refusal is
counted in ``transport_errors``."""

import json
import os
import socket
import threading
import time

from repro.service.server import SCCService, ServiceConfig, serve_socket

GRAPH, SCALE = "wiki", 0.05


def start_server(tmp_path, *, max_requests, **kwargs):
    svc = SCCService(ServiceConfig(worker_processes=0))
    sock_path = str(tmp_path / "svc.sock")
    t = threading.Thread(
        target=serve_socket,
        args=(svc, sock_path),
        kwargs=dict(max_requests=max_requests, **kwargs),
        daemon=True,
    )
    t.start()
    deadline = time.monotonic() + 10
    while not os.path.exists(sock_path):
        assert time.monotonic() < deadline, "socket never appeared"
        time.sleep(0.02)
    return svc, sock_path, t


def roundtrip(sock_path, request, timeout=30.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall((json.dumps(request) + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.decode()) if buf else None


def test_slow_loris_dropped_at_read_deadline(tmp_path):
    svc, sock_path, t = start_server(
        tmp_path, max_requests=2, read_deadline=0.3
    )
    t0 = time.monotonic()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as loris:
        loris.settimeout(10.0)
        loris.connect(sock_path)
        loris.sendall(b'{"op": "stat')  # dribble, never a newline
        # the server must hang up on us, not wait forever
        got = loris.recv(4096)
    elapsed = time.monotonic() - t0
    assert got == b""  # dropped without a response
    assert elapsed < 5.0  # deadline, not a 30s default or forever
    # a well-behaved request right after is served normally
    resp = roundtrip(sock_path, {"op": "stats"})
    assert resp["ok"]
    assert resp["transport_errors"] == 1
    t.join(timeout=30)


def test_overlong_request_line_refused_typed(tmp_path):
    svc, sock_path, t = start_server(
        tmp_path, max_requests=2, max_line_bytes=1024
    )
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(30.0)
        s.connect(sock_path)
        s.sendall(b"x" * 8192)  # no newline within the cap
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    resp = json.loads(buf.decode())
    assert not resp["ok"]
    assert resp["error_type"] == "ValueError"
    assert "exceeds 1024 bytes" in resp["error"]
    resp = roundtrip(sock_path, {"op": "stats"})
    assert resp["ok"]
    assert resp["transport_errors"] == 1
    t.join(timeout=30)


def test_client_closing_early_is_counted_not_fatal(tmp_path):
    svc, sock_path, t = start_server(tmp_path, max_requests=2)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        s.sendall(b'{"op": "stats"')  # no newline
    # connection closed before the newline: refused and counted.  The
    # count lands on that connection's own handler thread, so wait for
    # it before asking: the stats connection's thread could overtake it.
    deadline = time.monotonic() + 10
    while svc.transport_errors < 1:
        assert time.monotonic() < deadline, "early close never counted"
        time.sleep(0.01)
    resp = roundtrip(sock_path, {"op": "stats"})
    assert resp["ok"]
    assert resp["transport_errors"] == 1
    t.join(timeout=30)


def test_normal_requests_unaffected_by_hardening(tmp_path):
    svc, sock_path, t = start_server(
        tmp_path, max_requests=2, read_deadline=5.0, max_line_bytes=4096
    )
    resp = roundtrip(
        sock_path,
        {"op": "run", "graph": GRAPH, "scale": SCALE},
    )
    assert resp["ok"], resp
    resp = roundtrip(sock_path, {"op": "stats"})
    assert resp["ok"]
    assert resp["transport_errors"] == 0
    t.join(timeout=60)
