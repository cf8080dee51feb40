"""Command-line interface.

Usage (installed as ``python -m repro``)::

    python -m repro datasets
    python -m repro scc --dataset livej --method method2 --threads 32
    python -m repro scc --input my_edges.txt --method tarjan
    python -m repro sweep --dataset twitter
    python -m repro info --dataset ca-road
    python -m repro run --input web.txt.gz --checkpoint-dir ckpts/
    python -m repro run --resume ckpts/
    python -m repro batch jobs.json --output report.json
    python -m repro serve --max-queue 8 --request-timeout 10

``scc`` detects SCCs and (for the parallel methods) reports the
simulated time at the requested thread count; ``sweep`` prints a full
Figure 6-style panel; ``info`` prints structural statistics without
running the parallel algorithms; ``run`` executes a paper pipeline
with phase-boundary checkpoints and per-phase deadlines
(:meth:`repro.engine.Engine.run`) and ``run --resume`` continues an
interrupted run (:meth:`repro.engine.Engine.resume`);
``batch`` executes a JSON manifest of jobs over warm engine sessions
with per-job error isolation (one bad job can't sink the batch);
``serve`` runs the long-lived hardened daemon (admission control,
retry/backoff, circuit breakers, memory governor, graceful drain)
answering JSON requests on stdin or a Unix socket.

Failures exit with the typed codes documented in
:mod:`repro.errors` (11 = ingest, 12 = validation, 13 = checkpoint,
14 = phase timeout, ... 17 = overload shed, 18 = memory budget,
20 = integrity/corruption detected), so scripts can branch on *what*
failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

import numpy as np

from .ingest.consumer import RequestApplier

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from .engine.backends import BACKEND_NAMES
    from .kernels import BACKEND_CHOICES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel SCC detection in small-world graphs "
        "(Hong, Rodia & Olukotun, SC'13 reproduction)",
    )
    parser.add_argument(
        "--kernels",
        default=None,
        choices=BACKEND_CHOICES,
        help="kernel backend for the hot traversal/trim loops: 'numpy' "
        "(reference), 'numba' (JIT-compiled loops when numba is "
        "installed, tuned NumPy fallbacks otherwise), or 'auto' "
        "(default; also settable via $REPRO_KERNELS)",
    )
    # Accept --kernels after the subcommand as well; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level.
    kernel_parent = argparse.ArgumentParser(add_help=False)
    kernel_parent.add_argument(
        "--kernels",
        default=argparse.SUPPRESS,
        choices=BACKEND_CHOICES,
        help=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument(
            "--dataset",
            help="surrogate dataset name (see `repro datasets`)",
        )
        src.add_argument(
            "--input", help="edge-list file (src dst per line)"
        )
        p.add_argument(
            "--scale",
            type=float,
            default=None,
            help="surrogate scale factor (default: $REPRO_SCALE or 1.0)",
        )
        p.add_argument(
            "--on-error",
            default="strict",
            choices=("strict", "repair", "skip"),
            help="malformed-input policy for --input files: 'strict' "
            "fails with file:line diagnostics, 'repair' coerces what "
            "it safely can, 'skip' drops bad records (both report "
            "what they changed)",
        )

    p_list = sub.add_parser("datasets", help="list dataset surrogates")

    p_scc = sub.add_parser(
        "scc", help="detect SCCs", parents=[kernel_parent]
    )
    add_graph_source(p_scc)
    p_scc.add_argument(
        "--method",
        default="method2",
        help="algorithm (tarjan, kosaraju, baseline, method1, method2, "
        "fwbw, coloring, multistep)",
    )
    p_scc.add_argument("--seed", type=int, default=0)
    p_scc.add_argument(
        "--threads",
        type=int,
        default=32,
        help="simulated thread count for the timing report",
    )
    p_scc.add_argument(
        "--backend",
        default="serial",
        choices=BACKEND_NAMES,
        help="phase-2 executor; 'supervised' runs worker processes "
        "with fault tolerance (per-task timeouts, retry, serial "
        "degradation, verification)",
    )
    p_scc.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker process count for the supervised backend",
    )
    p_scc.add_argument(
        "--task-timeout",
        type=float,
        default=30.0,
        help="supervised backend: per-task deadline in seconds",
    )
    p_scc.add_argument(
        "--max-task-retries",
        type=int,
        default=2,
        help="supervised backend: failures per task before degrading "
        "to the serial driver",
    )
    p_scc.add_argument(
        "--fault-plan",
        default=None,
        help="inject faults for a recovery demo: 'kind@index[:stage]' "
        "list (e.g. 'crash@2,hang@0:mid,poison@5') or a JSON spec "
        "list; forces the supervised backend",
    )
    p_scc.add_argument(
        "--certify",
        nargs="?",
        const="sample",
        default=None,
        choices=("crc", "sample", "full"),
        help="emit a machine-checkable result certificate: 'crc' tags "
        "the canonical labels, 'sample' (the bare-flag default) also "
        "proves FW∧BW membership for sampled SCCs, 'full' adds an "
        "independent Tarjan cross-check; a failed proof exits 20",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="Figure 6-style speedup panel for one graph",
        parents=[kernel_parent],
    )
    add_graph_source(p_sweep)
    p_sweep.add_argument(
        "--methods",
        default="baseline,method1,method2",
        help="comma-separated method list",
    )

    p_info = sub.add_parser("info", help="structural statistics")
    add_graph_source(p_info)

    p_run = sub.add_parser(
        "run",
        help="checkpointed, resumable, phase-bounded pipeline run",
        parents=[kernel_parent],
    )
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--dataset", help="surrogate dataset name (see `repro datasets`)"
    )
    src.add_argument("--input", help="edge-list file (src dst per line)")
    src.add_argument(
        "--resume",
        metavar="CKPT",
        help="checkpoint file or directory to resume from; the run "
        "configuration and input graph are restored from the "
        "checkpoint, and execution picks up at the first incomplete "
        "phase",
    )
    p_run.add_argument(
        "--scale",
        type=float,
        default=None,
        help="surrogate scale factor (default: $REPRO_SCALE or 1.0)",
    )
    p_run.add_argument(
        "--on-error",
        default="strict",
        choices=("strict", "repair", "skip"),
        help="malformed-input policy for --input files",
    )
    p_run.add_argument(
        "--method",
        default="method2",
        choices=("method1", "method2"),
        help="paper pipeline to run (the checkpointable phase plans)",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for phase-boundary checkpoints (plus the "
        "input graph); omit to run without persistence",
    )
    p_run.add_argument(
        "--phase-timeout",
        type=float,
        default=None,
        help="per-phase wall-clock deadline in seconds; a wedged "
        "phase fails typed (exit 14) instead of hanging",
    )
    p_run.add_argument(
        "--backend",
        default=None,
        choices=BACKEND_NAMES,
        help="phase-2 executor (default serial; on resume, the "
        "checkpointed choice unless overridden)",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker process count for the supervised backend",
    )
    p_run.add_argument(
        "--threads",
        type=int,
        default=32,
        help="simulated thread count for the timing report",
    )

    p_batch = sub.add_parser(
        "batch",
        help="run a manifest of (graph, method, backend) jobs over "
        "warm engine sessions",
        parents=[kernel_parent],
    )
    p_batch.add_argument(
        "manifest",
        help="JSON manifest: {'jobs': [{graph, method, backend, "
        "kernels, seed, scale, workers, ...}, ...]} or a bare list; "
        "'graph' is a dataset name or an edge-list path",
    )
    p_batch.add_argument(
        "--output",
        default=None,
        help="write the JSON batch report here (atomic); default: "
        "summary to stdout only",
    )
    p_batch.add_argument(
        "--fault-plan",
        default=None,
        help="inject batch-level faults ('kind@index[:stage]' list or "
        "JSON spec) at the request site, index = the job's manifest "
        "position; the hit job fails typed and the batch continues",
    )
    p_batch.add_argument(
        "--retries",
        type=int,
        default=1,
        help="total attempts per job; transient failures (broken "
        "pool, timeout, injected chaos) retry with backoff, "
        "permanent ones fail the job immediately (default 1 = no "
        "retry)",
    )
    p_batch.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="base retry backoff in seconds (doubles per attempt, "
        "deterministic jitter)",
    )
    p_batch.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="default wall-clock budget per job in seconds (a job's "
        "own 'timeout' field wins); expiry fails typed (exit 14)",
    )
    p_batch.add_argument(
        "--certify",
        nargs="?",
        const="sample",
        default=None,
        choices=("crc", "sample", "full"),
        help="default certification level for every job (a job's own "
        "'certify' field wins); certificates land in the report",
    )
    p_batch.add_argument(
        "--no-checksums",
        action="store_true",
        help="disable the block-CRC integrity sidecars over warm "
        "session arrays (on by default; a mismatch fails the job "
        "typed with exit 20 and quarantines the session)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="long-running hardened SCC service (JSON requests on "
        "stdin or a Unix socket)",
        parents=[kernel_parent],
    )
    p_serve.add_argument(
        "--backend",
        default="serial",
        choices=BACKEND_NAMES,
        help="default phase-2 executor for requests that don't name one",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="forked engine worker processes behind the front (the "
        "sharded serving tier; 1 = the in-process single-engine path)",
    )
    p_serve.add_argument(
        "--backend-workers",
        type=int,
        default=2,
        help="default worker count for the supervised phase-2 "
        "backend (per engine)",
    )
    p_serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.5,
        help="seconds between worker heartbeats; stale beats plus a "
        "blown deadline get a worker SIGKILLed and respawned",
    )
    p_serve.add_argument(
        "--max-worker-restarts",
        type=int,
        default=3,
        help="respawns allowed per worker slot before it is lost and "
        "its session budget rebalances onto the survivors",
    )
    p_serve.add_argument(
        "--journal",
        default=None,
        help="crash-safe request journal path (NDJSON, fsync'd "
        "appends); the drain report reconciles accepted = "
        "completed + shed against it",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="admitted requests allowed in flight at once; excess is "
        "shed with exit code 17 instead of queueing unboundedly",
    )
    p_serve.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="warm graph sessions to cache (LRU beyond this evicts)",
    )
    p_serve.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help="refuse requests whose estimated peak memory exceeds "
        "this (cost-model admission check, exit code 18)",
    )
    p_serve.add_argument(
        "--soft-limit-mb",
        type=float,
        default=None,
        help="RSS above this evicts warm pools/sessions (memory "
        "governor pressure relief)",
    )
    p_serve.add_argument(
        "--hard-limit-mb",
        type=float,
        default=None,
        help="RSS above this (after relief) refuses admission "
        "instead of risking the OOM killer",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="default per-request deadline in seconds, propagated "
        "into phase deadlines (a request's 'deadline' field wins)",
    )
    p_serve.add_argument(
        "--retries",
        type=int,
        default=3,
        help="total attempts per request for transient failures",
    )
    p_serve.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="base retry backoff in seconds",
    )
    p_serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive transient failures that trip a backend's "
        "circuit breaker (traffic then degrades supervised -> "
        "serial)",
    )
    p_serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds an open breaker waits before allowing a probe",
    )
    p_serve.add_argument(
        "--socket",
        default=None,
        help="serve one JSON request per connection on this Unix "
        "socket path instead of stdin/stdout",
    )
    p_serve.add_argument(
        "--preload",
        default=None,
        help="comma-separated dataset names (or edge-list paths) to "
        "load into warm sessions before serving",
    )
    p_serve.add_argument(
        "--scale",
        type=float,
        default=None,
        help="surrogate scale factor for --preload datasets",
    )
    p_serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="drain and exit after this many run requests (CI smokes)",
    )
    p_serve.add_argument(
        "--report",
        default=None,
        help="write the final service stats report here (atomic) "
        "when draining",
    )
    p_serve.add_argument(
        "--fault-plan",
        default=None,
        help="inject service-level faults at the per-request "
        "boundary ('kind@index[:stage]' list or JSON spec; index = "
        "request sequence number) — chaos drills for the retry "
        "path and circuit breaker",
    )
    p_serve.add_argument(
        "--no-checksums",
        action="store_true",
        help="disable the block-CRC integrity sidecars over warm "
        "session arrays (on by default)",
    )
    p_serve.add_argument(
        "--on-corruption",
        default="quarantine",
        choices=("quarantine", "fail"),
        help="response to detected corruption: 'quarantine' evicts "
        "the session and retries from source (default), 'fail' "
        "answers the request typed with exit code 20",
    )
    p_serve.add_argument(
        "--audit-rate",
        type=float,
        default=0.0,
        help="fraction of completed requests re-executed on the "
        "serial reference path by the background self-auditor; a CRC "
        "mismatch quarantines the session and marks the serving "
        "backend suspect (0 = off)",
    )
    p_serve.add_argument(
        "--audit-seed",
        type=int,
        default=0,
        help="seed for the auditor's deterministic request sample",
    )
    p_serve.add_argument(
        "--compact-ratio",
        type=float,
        default=None,
        help="delta-log size (as a fraction of the base edge count) "
        "past which a mutable session's overlay compacts into a fresh "
        "base CSR (default: the graph layer's 0.25)",
    )
    p_serve.add_argument(
        "--read-deadline",
        type=float,
        default=30.0,
        help="socket transport: seconds a connection may take to "
        "deliver its newline-terminated request before it is dropped "
        "and counted as a transport error (slow-loris guard)",
    )
    p_serve.add_argument(
        "--max-line-bytes",
        type=int,
        default=1 << 20,
        help="socket transport: request line length cap in bytes; "
        "over-length requests are answered with a typed error and "
        "counted as transport errors",
    )

    p_stream = sub.add_parser(
        "stream",
        help="consume a live edge feed into incremental SCC "
        "maintenance (resumable via checkpointed watermarks)",
        parents=[kernel_parent],
    )
    p_stream.add_argument(
        "graph",
        help="base graph: surrogate dataset name or edge-list path",
    )
    p_stream.add_argument(
        "--source",
        required=True,
        help="feed spec: tail:<path> (follow a growing file), "
        "tail-once:<path> (read to EOF), socket:<path> (Unix), "
        "tcp:<host>:<port>, or pipe:- (stdin)",
    )
    p_stream.add_argument(
        "--connect",
        default=None,
        help="apply batches through a serve daemon on this Unix "
        "socket (one update request per batch) instead of an "
        "in-process engine",
    )
    p_stream.add_argument(
        "--checkpoint",
        default=None,
        help="CRC-guarded watermark file: a killed consumer restarted "
        "with the same path resumes without re-applying committed "
        "edits",
    )
    p_stream.add_argument(
        "--scale",
        type=float,
        default=None,
        help="surrogate scale factor for dataset graphs",
    )
    p_stream.add_argument(
        "--on-error",
        default="skip",
        choices=("strict", "repair", "skip"),
        help="malformed-record policy for the feed (default 'skip': "
        "garbage is counted and dropped, never a crashed consumer)",
    )
    p_stream.add_argument(
        "--batch-edges",
        type=int,
        default=512,
        help="flush a batch into the engine at this many pending edits",
    )
    p_stream.add_argument(
        "--batch-age",
        type=float,
        default=0.5,
        help="flush a non-empty batch after this many seconds "
        "(freshness bound for slow feeds)",
    )
    p_stream.add_argument(
        "--dedup-window",
        type=int,
        default=1024,
        help="seq-keyed duplicate-suppression window for "
        "at-least-once feeds (0 disables)",
    )
    p_stream.add_argument(
        "--max-reconnects",
        type=int,
        default=8,
        help="redials allowed before the feed fails typed (exit 21)",
    )
    p_stream.add_argument(
        "--read-timeout",
        type=float,
        default=1.0,
        help="per-read deadline on socket feeds, seconds",
    )
    p_stream.add_argument(
        "--stall-timeout",
        type=float,
        default=None,
        help="watchdog: seconds of peer silence before the feed is "
        "declared stalled and redialed",
    )
    p_stream.add_argument(
        "--degrade-log-ratio",
        type=float,
        default=None,
        help="compaction-debt budget: when the session's delta-log "
        "ratio exceeds this after a batch, degrade to one synchronous "
        "snapshot fold",
    )
    p_stream.add_argument(
        "--compact-ratio",
        type=float,
        default=None,
        help="delta-log compaction ratio for the in-process session; "
        "refused with --connect, where the daemon's 'repro serve "
        "--compact-ratio' applies",
    )
    p_stream.add_argument(
        "--max-batches",
        type=int,
        default=None,
        help="stop after applying this many batches (tests/benchmarks)",
    )
    p_stream.add_argument(
        "--fault-plan",
        default=None,
        help="deterministic feed chaos at the 'stream' site: "
        "'disconnect@3,stall@5,garbage@7,dup@9' — the index is the "
        "source's read sequence number",
    )
    p_stream.add_argument(
        "--stall-seconds",
        type=float,
        default=None,
        help="duration of injected 'stall' faults (default: the "
        "spec's hang_seconds)",
    )
    p_stream.add_argument(
        "--report",
        default=None,
        help="write the final consumer stats report here (atomic)",
    )

    p_dist = sub.add_parser(
        "distributed",
        help="distributed (BSP) Method 1 rank-scaling report",
        parents=[kernel_parent],
    )
    add_graph_source(p_dist)
    p_dist.add_argument(
        "--ranks",
        default="1,2,4,8",
        help="comma-separated rank counts",
    )
    p_dist.add_argument(
        "--partitioner",
        default="bfs",
        choices=("block", "hash", "bfs"),
    )
    p_dist.add_argument(
        "--fail-at",
        default=None,
        help="inject rank failures at these supersteps (comma list) "
        "and report checkpointed-recovery cost",
    )
    p_dist.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="checkpoint interval C in supersteps (0 = none; "
        "recovery then reruns from superstep 0)",
    )

    return parser


def _load_graph(args):
    from .generators import generate
    from .graph import read_edge_list

    if args.dataset:
        bundle = generate(args.dataset, scale=args.scale)
        return bundle.graph, args.dataset
    on_error = getattr(args, "on_error", "strict")
    g, report = read_edge_list(
        args.input, on_error=on_error, return_report=True
    )
    if not report.clean:
        print(f"ingest [{on_error}]: {report.summary()}", file=sys.stderr)
    return g, args.input


def _cmd_datasets(args) -> int:
    from .bench import format_table
    from .generators import DATASETS

    rows = [
        [
            spec.name,
            spec.paper.nodes,
            spec.paper.edges,
            f"{spec.paper.largest_scc_frac:.2f}",
            "yes" if spec.small_world else "no",
            spec.description,
        ]
        for spec in DATASETS.values()
    ]
    print(
        format_table(
            ["name", "paper nodes", "paper edges", "giant frac",
             "small-world", "description"],
            rows,
        )
    )
    return 0


def _cmd_scc(args) -> int:
    from .core import strongly_connected_components
    from .runtime import Machine

    g, label = _load_graph(args)
    print(f"graph {label}: {g.num_nodes} nodes, {g.num_edges} edges")
    kwargs = {}
    backend = args.backend
    if args.fault_plan and backend != "supervised":
        backend = "supervised"  # only the supervised backend recovers
    if args.method not in ("tarjan", "kosaraju", "gabow"):
        kwargs["seed"] = args.seed
        if backend != "serial":
            kwargs["backend"] = backend
            kwargs["num_threads"] = args.workers
        if backend == "supervised":
            from .runtime import FaultPlan, SupervisorConfig

            try:
                plan = (
                    FaultPlan.parse(args.fault_plan)
                    if args.fault_plan
                    else None
                )
            except ValueError as exc:
                print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
                return 2
            kwargs["supervisor"] = SupervisorConfig(
                task_timeout=args.task_timeout,
                max_task_retries=args.max_task_retries,
                fault_plan=plan,
            )
    result = strongly_connected_components(g, args.method, **kwargs)
    print(f"method: {args.method}")
    if args.certify:
        from .integrity import certify_result

        cert = certify_result(
            g, result.labels, level=args.certify, seed=args.seed
        )
        proved = sum(1 for p in cert["sampled"] if p["proved"])
        extra = (
            ", Tarjan cross-checked" if cert["tarjan_checked"] else ""
        )
        print(
            f"certificate [{cert['level']}]: ok, "
            f"labels crc32={cert['labels_crc32']:#010x}, "
            f"{proved}/{len(cert['sampled'])} sampled SCC(s) proved"
            f"{extra}"
        )
    if args.method not in ("tarjan", "kosaraju", "gabow"):
        from .kernels import backend_info

        info = backend_info()
        jit = " (jit)" if info["jit_active"] else ""
        print(f"kernels: {info['resolved']}{jit}")
    print(f"SCCs: {result.num_sccs}")
    print(
        f"largest SCC: {result.largest_scc_size()} "
        f"({result.giant_fraction():.1%})"
    )
    fractions = result.phase_fractions()
    if fractions:
        parts = ", ".join(
            f"{k}={v:.1%}" for k, v in fractions.items() if v > 0
        )
        print(f"resolved per phase: {parts}")
    if backend == "supervised" and result.profile is not None:
        recovery = {
            k[len("supervisor_"):]: int(v)
            for k, v in sorted(result.profile.counters.items())
            if k.startswith("supervisor_")
        }
        status = "recovered" if recovery else "clean"
        detail = (
            " (" + ", ".join(f"{k}={v}" for k, v in recovery.items()) + ")"
            if recovery
            else ""
        )
        print(f"supervised run: {status}{detail}; labels verified")
    if result.profile is not None:
        machine = Machine()
        sim = machine.simulate(result.profile.trace, args.threads)
        print(
            f"simulated time @{args.threads} threads: "
            f"{sim.total_time:.0f} edge-units"
        )
    return 0


def _cmd_run(args) -> int:
    import os

    from .core.state import check_complete_labels
    from .engine import Engine
    from .runtime import Machine

    with Engine(canonical=False) as engine:
        if args.resume:
            result = engine.resume(
                args.resume,
                backend=args.backend,
                num_workers=args.workers,
                phase_timeout=args.phase_timeout,
            )
        else:
            g, label = _load_graph(args)
            print(f"graph {label}: {g.num_nodes} nodes, {g.num_edges} edges")
            result = engine.run(
                g,
                method=args.method,
                seed=args.seed,
                backend=args.backend or "serial",
                num_workers=args.workers if args.workers is not None else 2,
                checkpoint_dir=args.checkpoint_dir,
                phase_timeout=args.phase_timeout,
            )

    report = result.lifecycle
    if report is None:
        # Engine.run gates only lifecycle runs, which keeps the serving
        # path lean; a plain ``repro run`` gates its result here.
        check_complete_labels(result.labels, result.phase_of)
    print(f"method: {result.method}")
    if report is not None:
        if report.resumed_from:
            picked_up = report.resumed_phase or "complete (verified only)"
            print(f"resumed from: {report.resumed_from}")
            print(f"picked up at phase: {picked_up}")
        print(f"phases run: {', '.join(report.phases_run) or '(none)'}")
        if report.checkpoints:
            print(
                f"checkpoints: {len(report.checkpoints)} written to "
                f"{os.path.dirname(report.checkpoints[-1])}"
            )
    print(
        "labels verified (Tarjan cross-check)"
        if report is not None and report.cross_checked
        else "labels verified"
    )
    print(f"SCCs: {result.num_sccs}")
    print(
        f"largest SCC: {result.largest_scc_size()} "
        f"({result.giant_fraction():.1%})"
    )
    if result.profile is not None:
        sim = Machine().simulate(result.profile.trace, args.threads)
        scope = (
            " (resumed portion)"
            if report is not None and report.resumed_from
            else ""
        )
        print(
            f"simulated time @{args.threads} threads: "
            f"{sim.total_time:.0f} edge-units{scope}"
        )
    return 0


def _cmd_batch(args) -> int:
    from .engine import Engine, load_manifest, run_batch
    from .service import RetryPolicy

    try:
        jobs = load_manifest(args.manifest)
        # a bad flag value (--retries 0, --backoff -1) exits 2 too
        retry = RetryPolicy(
            max_attempts=args.retries, backoff_base=args.backoff
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan:
        from .runtime.faults import retarget

        # This flag injects at the request boundary (index = the job's
        # manifest position); per-task injection belongs in a job's
        # own fault_plan field.
        try:
            fault_plan = retarget(args.fault_plan, "request")
        except ValueError as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 2

    if args.job_timeout is not None:
        import dataclasses

        jobs = [
            dataclasses.replace(job, timeout=args.job_timeout)
            if job.timeout is None
            else job
            for job in jobs
        ]
    if args.certify is not None:
        import dataclasses

        jobs = [
            dataclasses.replace(job, certify=args.certify)
            if job.certify is None
            else job
            for job in jobs
        ]

    def progress(rec) -> None:
        if rec.ok:
            status = f"ok  sccs={rec.num_sccs}"
        elif rec.shed:
            status = f"SHED({rec.exit_code}) {rec.error}"
        else:
            status = f"FAIL({rec.exit_code}) {rec.error_type}: {rec.error}"
        warm = " warm" if rec.warm else ""
        tries = f" attempts={rec.attempts}" if rec.attempts > 1 else ""
        moved = (
            f" on {rec.backend_used}"
            if rec.backend_used not in (None, rec.backend)
            else ""
        )
        print(
            f"[{rec.index + 1}/{len(jobs)}] {rec.label}: {status} "
            f"({rec.seconds:.2f}s{warm}{tries}{moved})"
        )

    with Engine(integrity=not args.no_checksums) as engine:
        report = run_batch(
            engine,
            jobs,
            fault_plan=fault_plan,
            retry=retry,
            progress=progress,
        )
    shed = f", {report.jobs_shed} shed" if report.jobs_shed else ""
    certified = (
        f", {report.certificates_issued} certified"
        if report.certificates_issued
        else ""
    )
    print(
        f"batch: {report.jobs_ok}/{report.jobs_total} ok{shed}"
        f"{certified} in "
        f"{report.seconds:.2f}s over {len(report.sessions)} session(s)"
    )
    if args.output:
        report.write(args.output)
        print(f"report: {args.output}")
    return report.first_failure_code


def _cmd_serve(args) -> int:
    from .service import (
        AdmissionConfig,
        GovernorConfig,
        RetryPolicy,
        SCCService,
        ServiceConfig,
    )
    from .service.server import serve_socket, serve_stdin

    fault_plan = None
    if args.fault_plan:
        from .runtime.faults import retarget

        # This flag injects at the per-request boundary (index = the
        # request's sequence number).
        try:
            fault_plan = retarget(args.fault_plan, "request")
        except ValueError as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 2
    try:
        governor = None
        if args.soft_limit_mb is not None or args.hard_limit_mb is not None:
            governor = GovernorConfig(
                soft_limit_bytes=(
                    int(args.soft_limit_mb * 1e6)
                    if args.soft_limit_mb is not None
                    else None
                ),
                hard_limit_bytes=(
                    int(args.hard_limit_mb * 1e6)
                    if args.hard_limit_mb is not None
                    else None
                ),
                min_sessions=1,
            )
        config = ServiceConfig(
            backend=args.backend,
            workers=args.backend_workers,
            max_sessions=args.max_sessions,
            worker_processes=args.workers,
            heartbeat_interval=args.heartbeat_interval,
            max_worker_restarts=args.max_worker_restarts,
            journal_path=args.journal,
            admission=AdmissionConfig(
                max_queue=args.max_queue,
                memory_budget_bytes=(
                    int(args.memory_budget_mb * 1e6)
                    if args.memory_budget_mb is not None
                    else None
                ),
            ),
            retry=RetryPolicy(
                max_attempts=args.retries, backoff_base=args.backoff
            ),
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            governor=governor,
            default_deadline=args.request_timeout,
            checksums=not args.no_checksums,
            on_corruption=args.on_corruption,
            audit_rate=args.audit_rate,
            audit_seed=args.audit_seed,
            compact_ratio=args.compact_ratio,
        )
        service = SCCService(config, fault_plan=fault_plan)
    except ValueError as exc:
        # a bad flag value (--max-sessions 0, --compact-ratio 0, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with service:
        if args.preload:
            for source in args.preload.split(","):
                source = source.strip()
                if not source:
                    continue
                sess = service.engine.load(source, scale=args.scale)
                sess.warmup()
                print(
                    f"preloaded {source}: {sess.graph.num_nodes} nodes, "
                    f"{sess.graph.num_edges} edges",
                    file=sys.stderr,
                )
        if args.socket:
            print(
                f"serving on unix socket {args.socket}", file=sys.stderr
            )
            return serve_socket(
                service,
                args.socket,
                max_requests=args.max_requests,
                report_path=args.report,
                read_deadline=args.read_deadline,
                max_line_bytes=args.max_line_bytes,
            )
        return serve_stdin(
            service,
            in_stream=sys.stdin,
            out_stream=sys.stdout,
            max_requests=args.max_requests,
            report_path=args.report,
        )


def _daemon_request(path, request: dict) -> dict:
    """One request over a serve daemon's Unix socket, one connection
    per request (the socket transport's contract)."""
    import socket as socketlib

    try:
        with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as s:
            s.settimeout(60.0)
            s.connect(path)
            s.sendall((json.dumps(request) + "\n").encode())
            buf = bytearray()
            while b"\n" not in buf:
                chunk = s.recv(1 << 16)
                if not chunk:
                    break
                buf += chunk
    except OSError as exc:
        # daemon gone mid-stream: surface as a shed so the consumer's
        # backpressure loop retries under backoff.
        return {
            "ok": False,
            "error": f"daemon unreachable: {exc}",
            "error_type": "ServiceOverloadError",
        }
    if not buf:
        return {
            "ok": False,
            "error": "daemon closed the connection",
            "error_type": "ServiceOverloadError",
        }
    return json.loads(bytes(buf).decode())


class _DaemonApplier(RequestApplier):
    """Apply stream batches through a serve daemon's Unix socket."""

    def __init__(self, path, graph, scale, on_error) -> None:
        super().__init__(
            functools.partial(_daemon_request, path), graph, scale, on_error
        )


def _cmd_stream(args) -> int:
    from .ingest.checkpoint import StreamCheckpoint
    from .ingest.consumer import EngineApplier, StreamConsumer
    from .ingest.sources import open_source

    if args.connect and args.compact_ratio is not None:
        # the daemon promoted (or will promote) the session under its
        # own ratio; a per-consumer value would be silently ignored.
        print(
            "error: --compact-ratio applies to the in-process session; "
            "a daemon's sessions compact at its 'repro serve "
            "--compact-ratio'",
            file=sys.stderr,
        )
        return 2
    fault_plan = None
    if args.fault_plan:
        from .runtime.faults import retarget

        # network-kind specs fire inside the source at the "stream"
        # site (index = the source's read sequence number).
        try:
            fault_plan = retarget(
                args.fault_plan, "stream", hang_seconds=args.stall_seconds
            )
        except ValueError as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 2
    source_kwargs = {
        "fault_plan": fault_plan,
        "max_reconnects": args.max_reconnects,
        "read_timeout": args.read_timeout,
    }
    if args.stall_timeout is not None:
        # only override the transport's own watchdog default when the
        # operator asked for one.
        source_kwargs["stall_timeout"] = args.stall_timeout
    engine = None
    if not args.connect:
        from .engine import Engine

        try:
            engine = Engine(
                backend="serial", compact_ratio=args.compact_ratio
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    source = open_source(args.source, **source_kwargs)
    try:
        if engine is None:
            applier = _DaemonApplier(
                args.connect, args.graph, args.scale, args.on_error
            )
        else:
            target = args.graph
            if args.scale is not None:
                # resolve the surrogate once so every batch hits the
                # same warm session.
                target = engine.load(args.graph, scale=args.scale)
            applier = EngineApplier(engine, target)
        try:
            consumer = StreamConsumer(
                source,
                applier,
                on_error=args.on_error,
                dedup_window=args.dedup_window,
                checkpoint=(
                    StreamCheckpoint(args.checkpoint)
                    if args.checkpoint
                    else None
                ),
                batch_edges=args.batch_edges,
                batch_age=args.batch_age,
                degrade_log_ratio=args.degrade_log_ratio,
                max_batches=args.max_batches,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        stats = consumer.run()
    finally:
        source.close()
        if engine is not None:
            engine.close()
    if args.report:
        from .ioutil import atomic_path

        with atomic_path(args.report, suffix=".json") as tmp:
            with open(tmp, "w") as fh:
                json.dump(stats, fh, indent=2, sort_keys=True)
                fh.write("\n")
    lag = stats["freshness_lag"]
    print(
        f"stream {args.source}: {stats['records_applied']} records in "
        f"{stats['batches']} batches"
        + (
            f" (skipped {stats['records_skipped_committed']} committed)"
            if stats["records_skipped_committed"]
            else ""
        )
        + f"; version={stats['graph_version']} "
        f"crc={stats['labels_crc32']} "
        f"lag mean/p95 {lag['mean'] * 1e3:.1f}/{lag['p95'] * 1e3:.1f} ms",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args) -> int:
    from .bench import format_speedup_table, speedup_series
    from .runtime import STANDARD_THREAD_COUNTS

    g, label = _load_graph(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    series, _ = speedup_series(g, methods=methods)
    print(format_speedup_table(label, STANDARD_THREAD_COUNTS, series))
    return 0


def _cmd_info(args) -> int:
    from .analysis import (
        classify_graph,
        degree_statistics,
        summarize_scc_structure,
    )
    from .core import tarjan_scc

    g, label = _load_graph(args)
    print(f"graph {label}: {g.num_nodes} nodes, {g.num_edges} edges")
    summary = summarize_scc_structure(tarjan_scc(g))
    print(f"SCCs: {summary.num_sccs} (largest {summary.largest_scc}, "
          f"{summary.giant_fraction:.1%}; {summary.trivial_sccs} trivial, "
          f"{summary.mid_sccs} mid-size)")
    report = classify_graph(g)
    print(f"sampled diameter: {report.diameter_estimate} "
          f"(log2 N = {report.log2_n:.1f}) -> "
          f"small-world: {report.small_world}")
    deg = degree_statistics(g)
    print(f"degrees: mean out {deg.mean_out:.1f}, max out {deg.max_out}, "
          f"skew {deg.skew:.0f}x, power-law alpha {deg.alpha:.2f}")
    return 0


def _cmd_distributed(args) -> int:
    from .bench import format_table
    from .distributed import (
        Cluster,
        bfs_partition,
        block_partition,
        distributed_method1,
        edge_cut,
        hash_partition,
    )

    g, label = _load_graph(args)
    print(f"graph {label}: {g.num_nodes} nodes, {g.num_edges} edges")

    def make_partition(ranks: int):
        if args.partitioner == "block":
            return block_partition(g.num_nodes, ranks)
        if args.partitioner == "hash":
            return hash_partition(g.num_nodes, ranks, rng=0)
        return bfs_partition(g, ranks)

    cluster = Cluster()
    rows = []
    base = None
    for ranks in (int(r) for r in args.ranks.split(",")):
        part = make_partition(ranks)
        res = distributed_method1(g, part)
        sim = cluster.simulate(res.dtrace)
        base = base or sim.total_time
        rows.append(
            [
                ranks,
                f"{base / sim.total_time:.2f}",
                f"{sim.comm_fraction:.0%}",
                edge_cut(g, part),
                len(res.dtrace.steps),
            ]
        )
    print(
        format_table(
            ["ranks", "speedup", "comm", "edge cut", "supersteps"],
            rows,
            title=f"distributed method1 (+WCC), {args.partitioner} partition",
        )
    )
    if args.fail_at:
        from .distributed import CheckpointPolicy, RankFailure

        failures = [
            RankFailure(superstep=int(s))
            for s in args.fail_at.split(",")
            if s.strip()
        ]
        policy = CheckpointPolicy(every=args.checkpoint_every)
        # res/part refer to the largest rank count from the sweep above
        faulty = cluster.simulate_with_failures(
            res.dtrace, failures, policy
        )
        dropped = len(failures) - faulty.failures
        if dropped:
            print(
                f"note: {dropped} --fail-at superstep(s) beyond the "
                f"trace ({len(res.dtrace.steps)} supersteps) were ignored"
            )
        print(
            f"rank-failure replay @{faulty.base.num_ranks} ranks: "
            f"{faulty.failures} failure(s), "
            f"checkpoint every {args.checkpoint_every or 'never'}: "
            f"overhead {faulty.overhead:.2f}x "
            f"(recompute {faulty.recompute_time:.0f}, "
            f"checkpoints {faulty.checkpoint_time:.0f}, "
            f"restart {faulty.restart_time:.0f} edge-units)"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.kernels is not None:
        from .kernels import set_backend

        set_backend(args.kernels)
    handlers = {
        "datasets": _cmd_datasets,
        "scc": _cmd_scc,
        "sweep": _cmd_sweep,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "stream": _cmd_stream,
        "info": _cmd_info,
        "run": _cmd_run,
        "distributed": _cmd_distributed,
    }
    from .errors import ReproError, exit_code_for

    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
