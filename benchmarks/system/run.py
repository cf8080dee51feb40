"""System benchmark: seeded serve/stream workloads against real daemons.

    python3 benchmarks/system/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR]

For each workload it writes the seeded inputs, computes their Tarjan
oracle CRCs, starts ``repro serve --socket`` daemons (and, for
``stream-rw``, a ``repro stream --connect`` consumer), drives them
from a separate load-generator process (``loadgen.py``), checks every
answer against the oracle, and prints every end-to-end metric of
``BENCHMARK.json`` with its unit.  Timings are scaled to a reference
CPU speed by a probe run on the daemon's CPU (``speed.py``); the raw
ones are diagnostics.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A result
file with the run's envelope (git sha, cores, kernel tiers, seed, ...)
goes to ``--out``.

``--trace 1`` measures half the window untraced and half through the
traced launcher (``launch.py``), and reports the per-layer metrics
instead.  Seeds: 1 is the development seed, 2 the held-out seed.

Exits 0 when every check passed; 1 when an answer was wrong or an
operation failed; 2 when the repository's ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REL_HERE = Path("benchmarks") / "system"

from layers import METRICS as LAYER_METRICS  # noqa: E402
from layers import analyze, load_spans, percentile  # noqa: E402
from procs import (  # noqa: E402
    Children,
    bench_cpu,
    group_members,
    children_of,
    first_request,
    request,
    shm_segments,
    vm_hwm_kib,
)
from speed import REF_NS, Speed, probe_ns, realtime_allowed  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_INTERVAL_S,
    DELETES_PER_BATCH,
    INSERTS_PER_BATCH,
    READ_OFFSET_S,
    WARMUP_S,
    WORK_DIR,
    WORKLOADS,
    Workload,
    make_inputs,
    oracle_crc,
    read_edit_batches,
    stream_batches,
    stream_oracle_crc,
)

SCHEMA = "repro-system-bench/1"
DEV_SEED = 1
#: REPRO_KERNELS for every process; the envelope records the tier each
#: kernel resolves to under it.
PINNED_KERNELS = "auto"
#: cold starts per run; setup_s is their median.
SETUP_STARTS = 5
#: speed probes just before and just after each cold start.
SETUP_PROBES = 5
#: baseline.engine_run_ms: warm in-process runs per input graph.
BASELINE_RUNS = 20
#: a workload that takes longer than this is abandoned (and fails),
#: leaving time to stop its processes inside a 180 s run limit.
WORKLOAD_BUDGET_S = 150


class Ledger:
    """Operations attempted/failed and every failed check of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def repro_argv(args: List[str], spans: Optional[str]) -> List[str]:
    if spans is None:
        return [sys.executable, "-m", "repro"] + args
    return [sys.executable, str(REL_HERE / "launch.py"), "--spans", spans,
            "--"] + args


def run_request(w: Workload, graph: str, rid: str) -> dict:
    req = {"op": "run", "graph": graph, "id": rid}
    if w.certify:
        req["certify"] = w.certify
    return req


class Daemon:
    """One ``repro serve --socket`` daemon owned by a run."""

    def __init__(self, kids: Children, w: Workload, rundir: Path, tag: str,
                 spans: Optional[str] = None) -> None:
        self.kids, self.w, self.tag = kids, w, tag
        self.sock = kids.own_socket(str(rundir / f"{tag}.sock"))
        self.journal = str(rundir / f"{tag}.journal")
        self.log = str(rundir / f"{tag}.log")
        self.argv = repro_argv(
            ["serve", "--socket", self.sock, "--journal", self.journal],
            spans)
        self.proc = None

    def cold_start(self, files, oracle, ledger: Ledger) -> tuple:
        """Spawn, then answer every input once; returns ``(seconds,
        seconds scaled to the reference CPU speed)``."""
        probes = [probe_ns() for _ in range(SETUP_PROBES)]
        t0 = time.monotonic()
        self.proc = self.kids.spawn(self.argv, self.log)
        for i, f in enumerate(files):
            req = run_request(self.w, f, f"{self.tag}-s{i}")
            resp = (first_request(self.sock, req, self.proc) if i == 0
                    else request(self.sock, req))
            ledger.op(_run_ok(self.w, resp, oracle[f]),
                      f"setup run {f}: {_why(resp)}")
        if self.w.stream:
            # promote the session to mutable, as the consumer's first
            # update would, so the window measures steady state.
            resp = request(self.sock, {
                "op": "update", "graph": files[0], "on_error": "strict",
                "inserts": [], "deletes": [], "id": f"{self.tag}-promote"})
            ledger.op(resp.get("ok") is True
                      and resp.get("labels_crc32") == oracle[files[0]],
                      f"promoting update: {_why(resp)}")
        seconds = time.monotonic() - t0
        probes += [probe_ns() for _ in range(SETUP_PROBES)]
        return seconds, seconds * REF_NS / statistics.median(probes)

    def peak_rss_kib(self) -> int:
        pid = self.proc.pid
        return vm_hwm_kib(pid) + sum(vm_hwm_kib(c) for c in children_of(pid))

    def shutdown(self, ledger: Ledger) -> None:
        resp = request(self.sock, {"op": "shutdown"})
        ledger.check(resp.get("ok") is True, f"{self.tag}: shutdown refused")
        rc = self.kids.reap(self.proc, 60.0)
        ledger.check(rc == 0, f"{self.tag}: daemon exited {rc}")
        leftover = group_members(self.proc.pid)
        ledger.check(not leftover,
                     f"{self.tag}: processes outlived the daemon: {leftover}")
        if leftover:
            self.kids.kill_group(self.proc)


def _why(resp: dict) -> str:
    return resp.get("error") or f"crc={resp.get('labels_crc32')}"


def _run_ok(w: Workload, resp: dict, crc: int) -> bool:
    return (resp.get("ok") is True and resp.get("labels_crc32") == crc
            and (not w.certify or resp.get("certificate") is not None))


class Journal:
    """The labels CRC each committed update left, by graph version, as
    a daemon's request journal records it."""

    def __init__(self, path: str) -> None:
        ops: Dict[int, str] = {}
        self.crc: Dict[int, int] = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["event"] == "accepted":
                    ops[rec["seq"]] = rec["request"].get("op", "run")
                elif (rec["event"] == "completed" and rec.get("ok")
                      and ops.get(rec["seq"]) == "update"):
                    self.crc[rec["version"]] = rec["labels_crc32"]

    def read_ok(self, read: dict, version: int) -> bool:
        """Whether a read answered ``version`` with the labels the
        update reaching that version committed."""
        return (read["ok"] and read["version"] == version
                and self.crc.get(version) == read["crc"])


def measure(kids, daemon, w, inputs, seconds, rundir, tag, spans, ledger):
    """Drive one window through the load generator; returns
    ``(loadgen result, peak RSS KiB, consumer report)``."""
    files = inputs["files"]
    spec_path = str(rundir / f"{tag}-spec.json")
    out_path = str(rundir / f"{tag}-load.json")
    if w.stream:
        spec = {
            "stream": True, "socket": daemon.sock, "graph": files[0],
            "seed": inputs["seed"],
            "edits": inputs["edits"],
            "feed_socket": kids.own_socket(str(rundir / f"{tag}-feed.sock")),
            "checkpoint": str(rundir / f"{tag}.ckpt"),
            "interval_s": BATCH_INTERVAL_S, "read_offset_s": READ_OFFSET_S,
            "warmup_s": WARMUP_S, "window_s": seconds,
            "batches": stream_batches(seconds),
            "batch_lines": INSERTS_PER_BATCH + DELETES_PER_BATCH,
        }
    else:
        spec = {"socket": daemon.sock, "graphs": files, "seed": inputs["seed"],
                "warmup_s": WARMUP_S, "window_s": seconds,
                "template": {"certify": w.certify} if w.certify else {}}
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    argv = [sys.executable, str(REL_HERE / "loadgen.py"), spec_path, out_path]
    log = str(rundir / f"{tag}-loadgen.log")
    report = None
    consumer_kib = 0
    if not w.stream:
        gen = kids.spawn(argv, log)
        rc = kids.reap(gen, seconds + 120.0)
    else:
        gen = kids.spawn(argv, log, stdout=subprocess.PIPE)
        ready, _, _ = select.select([gen.stdout], [], [], 60.0)
        if not ready or gen.stdout.readline().strip() != b"ready":
            raise RuntimeError("load generator never opened the feed")
        gen.stdout.close()
        report_path = str(rundir / f"{tag}-consumer.json")
        consumer = kids.spawn(repro_argv([
            "stream", files[0], "--connect", daemon.sock,
            "--source", f"socket:{spec['feed_socket']}",
            "--batch-edges", str(INSERTS_PER_BATCH + DELETES_PER_BATCH),
            "--batch-age", "0.05", "--checkpoint", spec["checkpoint"],
            "--on-error", "strict", "--report", report_path,
        ], spans), str(rundir / f"{tag}-consumer.log"))
        rc = kids.reap(gen, seconds + 120.0)
        crc = kids.reap(consumer, 60.0)
        ledger.check(crc == 0, f"stream consumer exited {crc}")
        consumer_kib = kids.reaped_hwm.get(consumer.pid, 0)
        with open(report_path) as fh:
            report = json.load(fh)
    if rc != 0:
        raise RuntimeError(f"load generator exited {rc} (see {log})")
    with open(out_path) as fh:
        result = json.load(fh)
    rss_kib = daemon.peak_rss_kib() + consumer_kib

    # -- oracle gates -----------------------------------------------------
    ledger.check(not result["warm_incomplete"],
                 f"never answered warm: {result['warm_incomplete']}")
    if not w.stream:
        for o in result["ops"]:
            ledger.op(_run_ok(w, _answer(o), inputs["oracle"][o["graph"]]),
                      f"{o['id']}: {o['error'] or 'crc=%s' % o['crc']}")
        return result, rss_kib, report
    journal = Journal(daemon.journal)
    # read k follows batch k, which commits version k + 1 (the
    # promoting empty update leaves version 0).
    for k, o in enumerate(result["ops"]):
        ledger.op(journal.read_ok(o, k + 1),
                  f"{o['id']}: read (v{o['version']}, crc {o['crc']}) is "
                  f"not the committed v{k + 1}")
    batches = result["batches"]
    for b in batches:
        ledger.op(b["visible"] is not None,
                  f"batch {b['index']} never became visible")
    sent = read_edit_batches(inputs["edits"])[:len(batches)]
    want = stream_oracle_crc(files[0], sent)
    ledger.check(report["batches"] == len(batches),
                 f"consumer applied {report['batches']} batches, "
                 f"generator sent {len(batches)}")
    ledger.check(report["labels_crc32"] == want
                 and journal.crc.get(len(batches)) == want,
                 f"final labels {report['labels_crc32']} != oracle {want}")
    return result, rss_kib, report


def _answer(o: dict) -> dict:
    """The answer fields of a load-generator record, as a response."""
    return {"ok": o["ok"], "labels_crc32": o["crc"],
            "certificate": {} if o["certified"] else None}


def end_to_end(w, result, setup_s, rss_kib, ledger) -> tuple:
    """``(metrics, diagnostics)`` of one untraced window.

    Both loops are closed (stream-rw's reads and batches wait for each
    other), so every operation is timed from when it was sent; how far
    stream-rw's sends slipped behind their schedule is the lateness.
    Timings are scaled to the reference CPU speed (``speed.py``);
    ``run_rps`` is timed runs over their summed scaled latency.
    Freshness is gated by its mean: a batch's cost depends on its edits,
    so the freshness median sits on a steep part of a wide distribution:
    over ten seeds on a 2-vCPU host it spread 7% and 5% (interquartile
    over median) in two sets, and the mean 3% in the second.
    """
    speed = Speed(result["probes"])
    timed = [o for o in result["ops"] if o["phase"] == "timed"]
    raw = [(o["end"] - o["start"]) / 1e6 for o in timed]
    lat = [ms * speed.scale(o["start"]) for ms, o in zip(raw, timed)]
    batches = [b for b in result["batches"] if b["phase"] == "timed"]
    if w.stream:
        fresh = [(b["visible"] - b["sent"]) / 1e6 * speed.scale(b["sent"])
                 for b in batches if b["visible"] is not None]
        late = ([(o["start"] - o["due"]) / 1e6 for o in timed]
                + [(b["sent"] - b["due"]) / 1e6 for b in batches])
    else:
        fresh, late = lat, []
    metrics = {
        "setup_s": setup_s,
        "run_p50_ms": percentile(lat, 50),
        "run_p95_ms": percentile(lat, 95),
        "run_rps": len(lat) / (sum(lat) / 1e3),
        "fresh_mean_ms": statistics.fmean(fresh),
        "fresh_p95_ms": percentile(fresh, 95),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    window = [d for t, d in result["probes"]
              if result["window"]["t0"] <= t < result["window"]["t_end"]]
    diagnostics = {
        "runs": len(timed),
        "batches": len(batches),
        "raw_run_p50_ms": percentile(raw, 50),
        "raw_run_p95_ms": percentile(raw, 95),
        "fresh_p50_ms": percentile(fresh, 50),
        # the window's median probe over the reference: >1 is slower.
        "cpu_slowdown": statistics.median(window) / REF_NS,
        "error_frac": ledger.failed / max(1, ledger.attempted),
        # the giant SCC's share of nodes, as the daemon answered it.
        "giant_fraction_p50": percentile(
            [o["giant"] for o in timed if o["giant"] is not None], 50),
        "lateness_p95_ms": percentile(late, 95),
        "lateness_max_ms": max(late, default=0.0),
    }
    if w.stream and batches:
        visible = [b for b in batches if b["visible"] is not None]
        span_s = (max(b["visible"] for b in visible)
                  - min(b["due"] for b in batches)) / 1e9
        diagnostics["edits_per_s"] = sum(b["edits"] for b in visible) / span_s
    return metrics, diagnostics


def engine_baseline(files) -> float:
    """Median warm in-process ``Engine(integrity=True).run`` (ms), scaled
    to the reference CPU speed like ``run_p50_ms``."""
    from repro.engine import Engine

    samples = []
    probes = [probe_ns() for _ in range(SETUP_PROBES)]
    with Engine(integrity=True) as eng:
        for f in files:
            sess = eng.load(f)
            eng.run(sess)
            for _ in range(BASELINE_RUNS):
                t0 = time.perf_counter()
                eng.run(sess)
                samples.append((time.perf_counter() - t0) * 1e3)
    probes += [probe_ns() for _ in range(SETUP_PROBES)]
    return statistics.median(samples) * REF_NS / statistics.median(probes)


def run_workload(w: Workload, seed: int, seconds: int, trace: bool,
                 kids: Children, rundir: Path) -> dict:
    ledger = Ledger()
    inputs = make_inputs(w, seed, seconds)
    inputs["oracle"] = {f: oracle_crc(f) for f in inputs["files"]}
    files = inputs["files"]
    res = {"why": w.why, "window_s": seconds}
    if not trace:
        setups = []
        daemon = None
        for i in range(SETUP_STARTS):
            if daemon is not None:
                daemon.shutdown(ledger)
            daemon = Daemon(kids, w, rundir, f"d{i}")
            setups.append(daemon.cold_start(files, inputs["oracle"], ledger))
        result, rss, _ = measure(kids, daemon, w, inputs, seconds, rundir,
                                 "e2e", None, ledger)
        daemon.shutdown(ledger)
        metrics, diag = end_to_end(
            w, result, statistics.median(s for _, s in setups), rss, ledger)
        diag["raw_setup_s"] = statistics.median(s for s, _ in setups)
        diag["setup_starts_s"] = setups
        res.update(metrics=metrics, diagnostics=diag)
    else:
        half = seconds / 2.0
        baseline = engine_baseline(files)
        plain = Daemon(kids, w, rundir, "plain")
        plain.cold_start(files, inputs["oracle"], ledger)
        result, _, _ = measure(kids, plain, w, inputs, half, rundir, "plain",
                               None, ledger)
        plain.shutdown(ledger)
        untraced_p50 = end_to_end(w, result, 0.0, 0, ledger)[0][
            "run_p50_ms"]
        spans = str(rundir / "spans")
        os.makedirs(spans)
        traced = Daemon(kids, w, rundir, "traced", spans)
        traced.cold_start(files, inputs["oracle"], ledger)
        result, _, report = measure(kids, traced, w, inputs, half, rundir,
                                    "traced", spans, ledger)
        traced.shutdown(ledger)
        timed_runs = [o for o in result["ops"] if o["phase"] == "timed"]
        timed_batches = [b for b in result["batches"]
                         if b["phase"] == "timed"]
        layer = analyze(load_spans(spans), timed_runs, timed_batches,
                        consumer_report=report)
        layer["baseline.engine_run_ms"] = baseline
        traced_metrics, diag = end_to_end(w, result, 0.0, 0, ledger)
        # both halves at the reference speed, so a host slowdown
        # between them is not counted as overhead.
        layer["trace.overhead_frac"] = (
            traced_metrics["run_p50_ms"] / untraced_p50 - 1.0
        )
        layer["loadgen.lateness_p95_ms"] = diag["lateness_p95_ms"]
        res.update(per_layer=layer, untraced_run_p50_ms=untraced_p50)
    res.update(attempted=ledger.attempted, failed=ledger.failed,
               problems=ledger.problems)
    return res


def envelope(seed: int, trace: bool, seconds: int, names) -> dict:
    import numpy

    from repro.kernels import backend_info, get_kernel, kernel_names

    def git(*args) -> Optional[str]:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, timeout=20,
                                 capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {
        "schema": SCHEMA,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "cores": len(os.sched_getaffinity(0)),
        # every process the benchmark starts runs on this CPU.
        "pinned_cpus": sorted(bench_cpu()),
        # speed probes pre-empt the daemon (speed.py) only when True.
        "probe_realtime": realtime_allowed(),
        "repro_kernels": os.environ.get("REPRO_KERNELS"),
        "kernel_tiers": {
            k: get_kernel(k).__module__.rsplit(".", 1)[-1]
            for k in kernel_names()
        },
        "backend_info": backend_info(),  # includes numba_available
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "trace": trace,
        "run_seconds": {n: seconds for n in names},
        "started_unix": time.time(),
    }


def _format(name: str, value: float, unit: str) -> str:
    return f"  {name:<30} {value:>14.4f} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="timed window per workload (default: "
                    "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="report per-layer metrics")
    ap.add_argument("--out", default=str(WORK_DIR / "results"),
                    help="directory for the result JSON")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: src/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["REPRO_KERNELS"] = PINNED_KERNELS
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or list(WORKLOADS)
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if trace and units != dict(LAYER_METRICS):
        raise SystemExit("BENCHMARK.json per_layer differs from layers.py")

    def abort(signum, frame):
        raise SystemExit(128 + signum)

    def overrun(signum, frame):
        raise TimeoutError(f"workload over {WORKLOAD_BUDGET_S}s")

    signal.signal(signal.SIGTERM, abort)
    signal.signal(signal.SIGALRM, overrun)
    env_doc = envelope(args.seed, trace, seconds, names)
    # run on the children's CPU, so the set-up probes time that CPU.
    os.sched_setaffinity(0, bench_cpu())
    results: Dict[str, dict] = {}
    for name in names:
        w = WORKLOADS[name]
        rundir = WORK_DIR / f"run-{os.getpid()}-{name}"
        rundir.mkdir(parents=True, exist_ok=True)
        kids = Children(str(ROOT), env)
        shm_before = shm_segments()
        print(f"[{name}] seed {args.seed}, {seconds}s window"
              + (", traced" if trace else ""), file=sys.stderr, flush=True)
        signal.alarm(WORKLOAD_BUDGET_S)
        try:
            res = run_workload(w, args.seed, seconds, trace, kids, rundir)
        except Exception as exc:  # reported, then the run fails
            res = {"error": f"{type(exc).__name__}: {exc}",
                   "attempted": 0, "failed": 1, "problems": []}
        finally:
            signal.alarm(0)
            killed = kids.close()
        if killed:
            res["problems"].append(f"killed leftover processes {killed}")
        leaked = sorted(shm_segments() - shm_before)
        if leaked:
            res["problems"].append(f"leaked shared memory {leaked}")
        res["correct"] = not res["problems"] and "error" not in res
        results[name] = res
        if res["correct"]:
            shutil.rmtree(rundir, ignore_errors=True)
        else:
            print(f"[{name}] FAILED: {res.get('error', '')} "
                  f"{res['problems'][:5]} (logs in {rundir})",
                  file=sys.stderr)

    os.makedirs(args.out, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_path = Path(args.out) / (
        f"{stamp}-{os.getpid()}-seed{args.seed}"
        + ("-trace" if trace else "") + ".json")
    doc = {"envelope": env_doc, "workloads": results}
    for res in results.values():
        raw = res.pop("per_layer" if trace else "metrics", None)
        if raw is not None:
            res["metrics"] = {m: {"value": raw[m], "unit": units[m]}
                              for m in units}
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)

    line: Dict[str, object] = {"correct": True, "attempted": 0, "failed": 0,
                               "metrics": {}}
    printable = True
    for name, res in results.items():
        print(f"{name}: {WORKLOADS[name].why}")
        if "metrics" not in res:
            printable = False
            continue
        for m, v in res["metrics"].items():
            print(_format(m, v["value"], v["unit"]))
        for m, v in res.get("diagnostics", {}).items():
            if isinstance(v, (int, float)):
                print(_format(f"({m})", v, ""))
        line["correct"] = line["correct"] and res["correct"]
        line["attempted"] += res["attempted"]
        line["failed"] += res["failed"]
        for m in units:
            key = m if len(results) == 1 else f"{name}.{m}"
            line["metrics"][key] = res["metrics"][m]
    print(f"result file: {out_path}", file=sys.stderr)
    if not printable:
        return 1
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
