"""Per-layer metrics from the traced run's spans.

A span's *self time* is its duration minus the part its children
cover: child spans (nested calls in the same thread) plus the kernel
time counted into it.  Spans join their request by its client-set
``id``; a stream batch's daemon spans join the consumer's by the
``b<k>`` id the traced consumer gives its ``update``.

Populations (README, "Reading the per-layer table"):

* ``*_ms`` of the read path are medians over the timed ``run``
  requests of each request's summed self time in that layer;
* the write path (``engine.update_ms`` ... ``ingest.*_ms``) takes
  medians over the timed stream batches;
* counts and work, and every ``kernels.*`` metric, are means per
  timed operation (runs plus batches);
* ``engine.setup_ms`` / ``graph.read_edge_list_ms`` are medians over
  each process's first load of each graph.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List

#: kernels the registry dispatches (repro.kernels.kernel_names()).
KERNELS = (
    "bfs_level_transform", "delta_expand_frontier", "dfs_collect_colored",
    "effective_degrees", "expand_frontier", "ms_expand_frontier",
    "ms_fwbw_intersect", "trim2_pattern_pairs", "trim_decrement",
    "wcc_hook_round",
)
#: Method-2 phase timers (PhaseSpec.timer), in pipeline order.
PHASES = ("par_trim", "par_fwbw", "par_trim2", "par_wcc", "recur_fwbw")

#: read-path metrics whose per-request medians add up to the latency;
#: ``trace.unattributed_ms`` is the traced p50 minus their sum.
READ_PATH = (
    "service.transport_ms", "service.admission_ms",
    "service.handle_self_ms", "service.journal_ms",
    "engine.load_ms", "engine.run_self_ms", "engine.snapshot_ms",
) + tuple(f"core.{p}_ms" for p in PHASES) + (
    "kernels.total_ms", "integrity.verify_ms", "integrity.certify_ms",
)

#: span name -> the read-path metric its self time lands in.
_BUCKET = {
    "service.handle": "service.handle_self_ms",
    "service.admit": "service.admission_ms",
    "service.journal": "service.journal_ms",
    "engine.load": "engine.load_ms",
    "graph.read_edge_list": "engine.load_ms",
    "engine.run": "engine.run_self_ms",
    "engine.snapshot": "engine.snapshot_ms",
    "integrity.verify": "integrity.verify_ms",
    "integrity.certify": "integrity.certify_ms",
    **{f"core.{p}": f"core.{p}_ms" for p in PHASES},
}

#: (name, unit) of every per-layer metric, in report order.
METRICS = (
    [
        ("service.transport_ms", "ms"),
        ("service.admission_ms", "ms"),
        ("service.handle_self_ms", "ms"),
        ("service.journal_ms", "ms"),
        ("service.retried", "count"),
        ("service.shed", "count"),
        ("engine.load_ms", "ms"),
        ("engine.run_self_ms", "ms"),
        ("engine.setup_ms", "ms"),
        ("graph.read_edge_list_ms", "ms"),
        ("engine.update_ms", "ms"),
        ("engine.dynamic.apply_ms", "ms"),
        ("engine.dynamic.fast_frac", "fraction"),
        ("engine.snapshot_ms", "ms"),
        ("graph.delta.compactions", "count"),
        ("graph.delta.compact_ms", "ms"),
    ]
    + [(f"core.{p}_ms", "ms") for p in PHASES]
    + [(f"core.{p}.work", "edges") for p in PHASES]
    + [
        ("core.fwbw_trials", "count"),
        ("core.recur_fwbw.tasks", "count"),
        ("core.recur_fwbw.batches", "count"),
        ("kernels.total_ms", "ms"),
    ]
    + [(f"kernels.{k}.calls", "count") for k in KERNELS]
    + [(f"kernels.{k}.ms", "ms") for k in KERNELS]
    + [
        ("integrity.verify_ms", "ms"),
        ("integrity.verifications", "count"),
        ("integrity.certify_ms", "ms"),
        ("integrity.reseal_ms", "ms"),
        ("ingest.parse_ms", "ms"),
        ("ingest.apply_rtt_ms", "ms"),
        ("ingest.checkpoint_ms", "ms"),
        ("ingest.batches", "count"),
        ("ingest.conflict_flushes", "count"),
        ("baseline.engine_run_ms", "ms"),
        ("trace.run_p50_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
        ("trace.unattributed_ms", "ms"),
        ("trace.joined_frac", "fraction"),
        ("loadgen.lateness_p95_ms", "ms"),
    ]
)


def load_spans(spans_dir: str) -> List[dict]:
    """Every span of every process, tagged with its ``pid``/``role``."""
    spans = []
    for path in sorted(glob.glob(os.path.join(spans_dir, "spans-*.ndjson"))):
        with open(path) as fh:
            head = json.loads(fh.readline())
            for line in fh:
                rec = json.loads(line)
                rec["pid"], rec["role"] = head["pid"], head["role"]
                spans.append(rec)
    return spans


def add_self_times(spans: Iterable[dict]) -> None:
    """Set ``span["self"]`` (ns): duration minus children and kernels."""
    spans = list(spans)
    covered: Dict[tuple, int] = defaultdict(int)
    for s in spans:
        if s["p"]:
            covered[(s["pid"], s["p"])] += s["t1"] - s["t0"]
    for s in spans:
        kernel_ns = sum(ns for _, ns in s.get("k", {}).values())
        s["self"] = s["t1"] - s["t0"] - covered[(s["pid"], s["i"])] - kernel_ns


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def _mean(xs) -> float:
    xs = list(xs)
    return float(sum(xs) / len(xs)) if xs else 0.0


def percentile(xs, q: int) -> float:
    """The ``q``-th percentile, linearly interpolated between ranks."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    if len(xs) == 1:
        return float(xs[0])
    return float(statistics.quantiles(xs, n=100, method="inclusive")[q - 1])


def _request_view(spans: List[dict]) -> Dict[str, dict]:
    """Per request id: self ms in each read-path bucket and, for every
    other span name, under ``other``; plus kernels and counters."""
    view: Dict[str, dict] = defaultdict(lambda: {
        "bucket": defaultdict(float), "other": defaultdict(float),
        "kernels": defaultdict(lambda: [0, 0]), "handle_ms": None,
        "verifications": 0, "runs": [], "update_attrs": None,
    })
    for s in spans:
        r = s["r"]
        if r is None:
            continue
        v = view[r]
        name = s["n"]
        if name == "service.handle" and s["role"] == "front":
            v["handle_ms"] = (s["t1"] - s["t0"]) / 1e6
        if name in _BUCKET:
            v["bucket"][_BUCKET[name]] += s["self"] / 1e6
        else:
            v["other"][name] += s["self"] / 1e6
        if name == "integrity.verify":
            v["verifications"] += 1
        if name == "engine.run" and "a" in s:
            v["runs"].append(s["a"])
        if name == "engine.update" and "a" in s:
            v["update_attrs"] = s["a"]
        for k, (calls, ns) in s.get("k", {}).items():
            v["kernels"][k][0] += calls
            v["kernels"][k][1] += ns
    return view


def analyze(
    spans: List[dict],
    runs: List[dict],
    batches: List[dict],
    *,
    consumer_report: dict | None = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``runs`` are the loadgen's timed ``run`` records; ``batches`` its
    timed stream batches (index ``k`` is the consumer's ``b<k>``).
    """
    add_self_times(spans)
    view = _request_view(spans)
    out: Dict[str, float] = {name: 0.0 for name, _ in METRICS}

    run_views = [(r, view.get(r["id"])) for r in runs]
    joined = [(r, v) for r, v in run_views
              if v is not None and v["handle_ms"] is not None]
    out["trace.joined_frac"] = len(joined) / len(runs) if runs else 0.0
    for name in READ_PATH:
        if name == "service.transport_ms":
            vals = [(r["end"] - r["start"]) / 1e6 - v["handle_ms"]
                    for r, v in joined]
        elif name == "kernels.total_ms":
            vals = [sum(ns for _, ns in v["kernels"].values()) / 1e6
                    for _, v in joined]
        else:
            vals = [v["bucket"][name] for _, v in joined]
        out[name] = _median(vals)
    out["trace.run_p50_ms"] = percentile(
        [(r["end"] - r["start"]) / 1e6 for r in runs], 50
    )
    out["trace.unattributed_ms"] = out["trace.run_p50_ms"] - sum(
        out[name] for name in READ_PATH
    )
    out["integrity.verifications"] = _mean(
        v["verifications"] for _, v in joined
    )
    attrs = [v["runs"][0] for _, v in joined if v["runs"]]
    for p in PHASES:
        out[f"core.{p}.work"] = _mean(a["work"].get(p, 0.0) for a in attrs)
    out["core.fwbw_trials"] = _mean(a["fwbw_trials"] for a in attrs)
    out["core.recur_fwbw.tasks"] = _mean(a["recur_tasks"] for a in attrs)
    out["core.recur_fwbw.batches"] = _mean(a["phase2_batches"] for a in attrs)

    # -- write path: one consumer batch b<k> = one daemon update.
    batch_views = [view.get(f"b{b['index']}") for b in batches]
    batch_views = [v for v in batch_views if v is not None]
    for metric, span_name in (
        ("engine.update_ms", "engine.update"),
        ("engine.dynamic.apply_ms", "engine.dynamic.apply"),
        ("integrity.reseal_ms", "integrity.reseal"),
        ("ingest.apply_rtt_ms", "ingest.apply_rtt"),
    ):
        out[metric] = _median(v["other"][span_name] for v in batch_views)
    last = [v["update_attrs"] for v in batch_views if v["update_attrs"]]
    if last and last[-1]["inserts"]:
        out["engine.dynamic.fast_frac"] = (
            last[-1]["fast_inserts"] / last[-1]["inserts"]
        )
    consumer = [s for s in spans if s["role"] == "consumer"]
    out["ingest.parse_ms"] = _median(
        s["self"] / 1e6 for s in consumer if s["n"] == "ingest.parse"
    )
    out["ingest.checkpoint_ms"] = _median(
        s["self"] / 1e6 for s in consumer if s["n"] == "ingest.checkpoint"
    )
    compactions = [s for s in spans if s["n"] == "graph.delta.compact"
                   and s["r"] in {f"b{b['index']}" for b in batches}]
    if batches:
        out["graph.delta.compactions"] = len(compactions) / len(batches)
    out["graph.delta.compact_ms"] = _median(
        (s["t1"] - s["t0"]) / 1e6 for s in compactions
    )
    if consumer_report:
        out["ingest.batches"] = float(consumer_report["batches"])
        out["ingest.conflict_flushes"] = float(
            consumer_report["conflict_flushes"]
        )

    # -- kernels: means per timed operation (runs + batches).
    ops = [v for _, v in joined] + batch_views
    for k in KERNELS:
        out[f"kernels.{k}.calls"] = _mean(v["kernels"][k][0] for v in ops)
        out[f"kernels.{k}.ms"] = _mean(v["kernels"][k][1] / 1e6 for v in ops)

    # -- setup: each process's first load (+ the run in that request).
    first: Dict[tuple, dict] = {}
    runs_of: Dict[tuple, List[dict]] = defaultdict(list)
    for s in sorted(spans, key=lambda s: s["t0"]):
        if s["n"] == "engine.load" and "a" in s:
            first.setdefault((s["pid"], s["a"]["source"]), s)
        elif s["n"] == "engine.run":
            runs_of[(s["pid"], s["r"])].append(s)
    setup = []
    for s in first.values():
        run = next((t for t in runs_of[(s["pid"], s["r"])]
                    if t["t0"] >= s["t1"]), None)
        run_ns = run["t1"] - run["t0"] if run is not None else 0
        setup.append((s["t1"] - s["t0"] + run_ns) / 1e6)
    out["engine.setup_ms"] = _median(setup)
    out["graph.read_edge_list_ms"] = _median(
        (s["t1"] - s["t0"]) / 1e6 for s in spans
        if s["n"] == "graph.read_edge_list"
    )

    # -- service counters, from the answers themselves.
    out["service.retried"] = _mean(
        1.0 if (r.get("attempts") or 1) > 1 else 0.0 for r in runs
    )
    out["service.shed"] = _mean(
        1.0 if r.get("error_type") == "ServiceOverloadError" else 0.0
        for r in runs
    )
    return out
