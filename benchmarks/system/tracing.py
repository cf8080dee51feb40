"""Span recording around the public functions of each ``repro`` layer.

The traced launcher (``launch.py``) calls :func:`install` before it
hands control to ``repro.cli.main``: every wrapped call records one
span — name, ``time.monotonic_ns()`` start and end (one clock for all
processes on the host), parent span, and the client-set request
``id`` — into memory.  Kernels are hot leaves, so they are not spans:
each call adds its count and duration to the enclosing span.  Spans
are written as NDJSON, one file per process, when ``SCCService.close``
runs (the daemon) and when the launcher's command returns (the stream
consumer).  A forked child inherits the wrappers and starts with an
empty buffer.

Nothing here changes what a call returns; the one request the wrappers
touch is a stream consumer's ``update``, which gains an ``id`` so its
daemon-side spans join the consumer's.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional


class _Frame:
    __slots__ = ("id", "name", "req", "parent", "kernels", "attrs")

    def __init__(self, sid, name, req, parent) -> None:
        self.id = sid
        self.name = name
        self.req = req
        self.parent = parent
        self.kernels: Dict[str, list] = {}
        self.attrs: Optional[dict] = None


class Tracer:
    """In-memory span buffer of one process (reset in forked children)."""

    def __init__(self, out_dir: str, role: str) -> None:
        self.out_dir = out_dir
        self._reset(role)
        os.register_at_fork(after_in_child=lambda: self._reset("worker"))

    def _reset(self, role: str) -> None:
        self.role = role
        self.pid = os.getpid()
        self._spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_req(self):
        stack = self._stack()
        return stack[-1].req if stack else None

    def span(
        self,
        name: str,
        fn: Callable,
        *,
        req_of: Optional[Callable] = None,
        attrs_of: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``.

        ``req_of(args, kwargs)`` names the request a root call serves
        (nested calls inherit their parent's); ``attrs_of(args, result)``
        adds a small attribute dict.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            req = req_of(args, kwargs) if req_of is not None else None
            if req is None and parent is not None:
                req = parent.req
            frame = _Frame(next(self._ids), name, req,
                           parent.id if parent is not None else 0)
            stack.append(frame)
            t0 = time.monotonic_ns()
            try:
                out = fn(*args, **kwargs)
                if attrs_of is not None:
                    frame.attrs = attrs_of(args, out)
                return out
            finally:
                t1 = time.monotonic_ns()
                stack.pop()
                self._spans.append(self._record(frame, t0, t1))

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Wrap a kernel: count and time each call into the open span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.monotonic_ns() - t0
                stack = self._stack()
                if stack:
                    acc = stack[-1].kernels.setdefault(name, [0, 0])
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    @staticmethod
    def _record(frame: _Frame, t0: int, t1: int) -> dict:
        rec = {"n": frame.name, "i": frame.id, "p": frame.parent,
               "r": frame.req, "t0": t0, "t1": t1}
        if frame.kernels:
            rec["k"] = frame.kernels
        if frame.attrs:
            rec["a"] = frame.attrs
        return rec

    def dump(self) -> None:
        """Append the buffered spans to this process's NDJSON file."""
        with self._lock:
            spans, self._spans = self._spans, []
            path = os.path.join(self.out_dir, f"spans-{self.pid}.ndjson")
            new = not os.path.exists(path)
            with open(path, "a") as fh:
                if new:
                    fh.write(json.dumps({"pid": self.pid,
                                         "role": self.role}) + "\n")
                for rec in spans:
                    fh.write(json.dumps(rec) + "\n")


def _patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    import repro.core.method2 as method2
    import repro.graph as graph_pkg
    import repro.integrity as integrity_pkg
    import repro.kernels as kernels
    from repro import cli
    from repro.engine.dynamic import DynamicSCC
    from repro.engine.engine import Engine
    from repro.engine.session import GraphSession
    from repro.graph.delta import DeltaCSR
    from repro.ingest.checkpoint import StreamCheckpoint
    from repro.ingest.parser import RecordParser
    from repro.service.govern import AdmissionController
    from repro.service.journal import RequestJournal
    from repro.service.server import SCCService

    span = tracer.span

    # -- service ----------------------------------------------------------
    def request_id(args, kwargs):
        req = args[1] if len(args) > 1 else kwargs.get("request")
        return req.get("id") if isinstance(req, dict) else None

    _patch(SCCService, "handle",
           lambda f: span("service.handle", f, req_of=request_id))

    def flush_on_close(close):
        @functools.wraps(close)
        def wrapper(self):
            try:
                close(self)
            finally:
                tracer.dump()
        return wrapper

    _patch(SCCService, "close", flush_on_close)
    _patch(AdmissionController, "admit",
           lambda f: span("service.admit", f))
    for event in ("accepted", "dispatched", "completed"):
        _patch(RequestJournal, event, lambda f: span("service.journal", f))

    # -- engine -----------------------------------------------------------
    _patch(Engine, "load", lambda f: span(
        "engine.load", f, attrs_of=lambda a, out: {"source": str(a[1])}))

    def run_attrs(args, result):
        counters = result.profile.counters
        return {
            "work": result.profile.trace.phase_work(),
            "fwbw_trials": counters.get("fwbw_trials", 0.0),
            "recur_tasks": counters.get("recur_tasks", 0.0),
            "phase2_batches": counters.get("phase2_batches", 0.0),
        }

    _patch(Engine, "run", lambda f: span("engine.run", f, attrs_of=run_attrs))
    _patch(Engine, "update", lambda f: span(
        "engine.update", f,
        attrs_of=lambda a, rep: {"inserts": rep.stats.get("inserts", 0),
                                 "fast_inserts": rep.stats.get(
                                     "fast_inserts", 0)}))
    _patch(DynamicSCC, "apply", lambda f: span("engine.dynamic.apply", f))
    _patch(DeltaCSR, "snapshot", lambda f: span("engine.snapshot", f))

    def transpose_when_mutable(fn):
        traced = span("engine.snapshot", fn)

        @functools.wraps(fn)
        def wrapper(self):
            return traced(self) if self.mutable else fn(self)
        return wrapper

    _patch(GraphSession, "ensure_transpose", transpose_when_mutable)
    _patch(GraphSession, "verify_integrity",
           lambda f: span("integrity.verify", f))
    _patch(GraphSession, "reseal_integrity",
           lambda f: span("integrity.reseal", f))

    # -- graph --------------------------------------------------------------
    # Engine.load imports read_edge_list from the package at call time.
    _patch(graph_pkg, "read_edge_list",
           lambda f: span("graph.read_edge_list", f))
    _patch(DeltaCSR, "compact", lambda f: span("graph.delta.compact", f))

    # -- core: each Method-2 phase; Engine._run_plan looks the factory up
    # at call time, and the integrity wrapper then wraps these spans.
    def traced_phases(factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return [
                dataclasses.replace(ph, fn=span(f"core.{ph.timer}", ph.fn))
                for ph in factory(*args, **kwargs)
            ]
        return wrapper

    _patch(method2, "method2_phases", traced_phases)

    # -- integrity: the serve path imports certify_result at call time.
    _patch(integrity_pkg, "certify_result",
           lambda f: span("integrity.certify", f))

    # -- kernels: every dispatcher (and recurfwbw's resolve-once path)
    # fetches its implementation through repro.kernels.get_kernel.
    wrapped: Dict[int, Callable] = {}

    def traced_get_kernel(get_kernel):
        @functools.wraps(get_kernel)
        def wrapper(name, *args, **kwargs):
            impl = get_kernel(name, *args, **kwargs)
            out = wrapped.get(id(impl))
            if out is None:
                out = wrapped[id(impl)] = tracer.leaf(name, impl)
            return out
        return wrapper

    _patch(kernels, "get_kernel", traced_get_kernel)

    # -- ingest (the stream consumer process) -------------------------------
    _patch(RecordParser, "feed_at", lambda f: span("ingest.parse", f))
    _patch(StreamCheckpoint, "save", lambda f: span("ingest.checkpoint", f))
    batch_ids = itertools.count()
    _patch(cli._DaemonApplier, "apply_batch", lambda f: span(
        "ingest.apply_rtt", f, req_of=lambda a, k: f"b{next(batch_ids)}"))

    def tag_update(build):
        @functools.wraps(build)
        def wrapper(self, **fields):
            req = build(self, **fields)
            rid = tracer.current_req()
            if rid is not None:
                req.setdefault("id", rid)
            return req
        return wrapper

    _patch(cli._DaemonApplier, "_request", tag_update)
