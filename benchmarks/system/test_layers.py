"""Span recording and the self-time arithmetic on synthetic traces."""

import layers
from tracing import Tracer


def _span(pid, role, name, sid, parent, req, t0, t1, **extra):
    return dict(pid=pid, role=role, n=name, i=sid, p=parent, r=req,
                t0=t0, t1=t1, **extra)


def test_self_time_subtracts_children_and_kernels():
    spans = [
        _span(1, "front", "engine.run", 1, 0, "a", 0, 100),
        _span(1, "front", "core.par_trim", 2, 1, "a", 10, 40,
              k={"trim_decrement": [3, 12]}),
        _span(1, "front", "core.recur_fwbw", 3, 1, "a", 40, 90),
        # same span id in another process is another span
        _span(2, "worker", "engine.run", 1, 0, "a", 0, 7),
    ]
    layers.add_self_times(spans)
    assert [s["self"] for s in spans] == [20, 18, 50, 7]


def test_request_spans_join_by_id_and_add_up_to_the_latency():
    ms = 1_000_000
    spans = [
        _span(1, "front", "service.handle", 1, 0, "c1", 0, 30 * ms),
        _span(1, "front", "service.admit", 2, 1, "c1", 1 * ms, 2 * ms),
        _span(1, "front", "service.journal", 3, 1, "c1", 3 * ms, 4 * ms),
        _span(1, "front", "engine.run", 4, 1, "c1", 5 * ms, 25 * ms,
              k={"expand_frontier": [2, 4 * ms]}),
        _span(1, "front", "core.par_fwbw", 5, 4, "c1", 6 * ms, 20 * ms,
              k={"expand_frontier": [1, 3 * ms]}),
    ]
    runs = [{"id": "c1", "start": 0, "due": 0, "end": 32 * ms}]
    out = layers.analyze(spans, runs, [])
    assert out["trace.joined_frac"] == 1.0
    assert out["service.transport_ms"] == 2.0
    assert out["service.admission_ms"] == 1.0
    assert out["service.journal_ms"] == 1.0
    # handle 30 - admit 1 - journal 1 - run 20
    assert out["service.handle_self_ms"] == 8.0
    # run 20 - phase 14 - its own kernel time 4; phase 14 - kernels 3
    assert out["engine.run_self_ms"] == 2.0
    assert out["core.par_fwbw_ms"] == 11.0
    assert out["kernels.total_ms"] == 7.0
    assert out["kernels.expand_frontier.calls"] == 3.0
    # the layers add up to the client's latency
    assert abs(out["trace.unattributed_ms"]) < 1e-9
    assert out["trace.run_p50_ms"] == 32.0


def test_requests_without_daemon_spans_do_not_join():
    spans = [_span(1, "consumer", "ingest.apply_rtt", 1, 0, "x", 0, 10)]
    runs = [{"id": "x", "start": 0, "due": 0, "end": 12},
            {"id": "y", "start": 0, "due": 0, "end": 12}]
    assert layers.analyze(spans, runs, [])["trace.joined_frac"] == 0


def test_tracer_records_nested_spans_and_kernel_leaves(tmp_path):
    tracer = Tracer(str(tmp_path), "front")
    kernel = tracer.leaf("expand_frontier", lambda x: x + 1)
    inner = tracer.span("core.par_fwbw", lambda: kernel(kernel(1)))
    outer = tracer.span("service.handle", lambda req: inner(),
                        req_of=lambda a, k: a[0]["id"])
    assert outer({"id": "r7"}) == 3
    tracer.dump()
    spans = {s["n"]: s for s in layers.load_spans(str(tmp_path))}
    handle, phase = spans["service.handle"], spans["core.par_fwbw"]
    assert handle["role"] == "front" and handle["p"] == 0
    assert phase["p"] == handle["i"] and phase["r"] == "r7"
    assert phase["k"]["expand_frontier"][0] == 2
    assert handle["t0"] <= phase["t0"] <= phase["t1"] <= handle["t1"]


def test_percentile_interpolates():
    assert layers.percentile([1, 2, 3, 4, 5], 50) == 3.0
    assert layers.percentile([], 95) == 0.0
    assert layers.percentile([4.0], 95) == 4.0
