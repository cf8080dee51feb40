"""Integrity-tier overhead benchmark: what "trust but verify" costs.

Serves the same warm request stream through two in-process
:class:`~repro.service.server.SCCService` instances — the control arm
with checksums and auditing off, the guarded arm with block-CRC
sidecars on and the background auditor sampling at 5% — and compares
mean warm latency, with p95 reported beside it.  The arms are
interleaved: every request goes through both services back to back,
alternating which goes first, so host drift lands on both arms alike.
The guarded arm's audit re-executions run to completion right after
the request that sampled them, off its latency samples but charged to
its mean, so they never slow the control arm.  Also prices result
certification per level as
information (certification is per-request opt-in, not standing
overhead), and prices the ``sample`` certificate on orkut's giant SCC
against a warm run of the same graph.  Writes ``BENCH_integrity.json``;
with ``--check`` the run fails unless the guarded arm stays within the
5% overhead budget the roadmap promises and, on the fastpath kernel
tier, the certificate costs at most 0.8 of a warm run.
"""

import argparse
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

#: the acceptance gate: checksums + 5% audit sampling may cost at most
#: this fraction of warm serving latency.
OVERHEAD_BUDGET = 0.05

#: the certificate gate: a ``sample`` certificate on orkut may cost at
#: most this fraction of a warm run on the same graph.  Enforced on the
#: fastpath tier, where it was tuned; reported on the others.
CERTIFY_RUN_BUDGET = 0.8


def _latency_row(walls, audit_s, svc):
    """One arm's latency summary, audit and integrity counters."""
    if svc.auditor is not None:
        svc.auditor.drain(timeout=60)
        audit = svc.auditor.to_dict()
    else:
        audit = None
    walls = sorted(walls)
    return {
        "requests": len(walls),
        "mean_wall_s": round(sum(walls) / len(walls), 6),
        "p50_wall_s": round(walls[len(walls) // 2], 6),
        "p95_wall_s": round(walls[int(len(walls) * 0.95)], 6),
        "audit_wall_s": round(audit_s, 6),
        "audit": audit,
        "integrity": svc.stats()["integrity"],
    }


def _settle_audits(svc) -> float:
    """Run the arm's sampled audits to completion; seconds spent."""
    aud = svc.auditor
    if aud is None or aud.sampled == aud.audits_run + aud.errors + aud.dropped:
        return 0.0
    t0 = time.perf_counter()
    aud.drain(timeout=60)
    return time.perf_counter() - t0


def serve_interleaved(arms, requests, *, warmup):
    """Per-arm warm latency over one request stream, arms interleaved.

    Request ``i`` goes through every arm back to back, in ``arms``
    order for even ``i`` and reversed for odd ``i``.
    """
    from repro.service.server import SCCService, ServiceConfig

    with contextlib.ExitStack() as stack:
        svcs = {
            name: stack.enter_context(SCCService(ServiceConfig(**cfg)))
            for name, cfg in arms.items()
        }
        for req in requests[:warmup]:
            for svc in svcs.values():
                resp = svc.handle(req)
                assert resp["ok"], resp
                _settle_audits(svc)
        walls = {name: [] for name in svcs}
        audit_s = dict.fromkeys(svcs, 0.0)
        order = list(svcs)
        for i, req in enumerate(requests):
            for name in order if i % 2 == 0 else order[::-1]:
                t0 = time.perf_counter()
                resp = svcs[name].handle(req)
                walls[name].append(time.perf_counter() - t0)
                assert resp["ok"], resp
                audit_s[name] += _settle_audits(svcs[name])
        return {
            name: _latency_row(walls[name], audit_s[name], svc)
            for name, svc in svcs.items()
        }


def bench_certify(graph, scale, seed):
    """Per-level certification cost over one method2 result."""
    from repro.engine import Engine
    from repro.integrity import CERTIFY_LEVELS, certify_result

    rows = {}
    with Engine(backend="serial", canonical=True) as eng:
        sess = eng.load(graph, scale=scale)
        result = eng.run(sess, method="method2", seed=seed)
        for level in CERTIFY_LEVELS:
            t0 = time.perf_counter()
            cert = certify_result(
                sess.graph, result.labels, level=level, seed=seed
            )
            rows[level] = {
                "wall_s": round(time.perf_counter() - t0, 6),
                "ok": cert["ok"],
            }
    return rows


def bench_certify_ratio(scale, repeats, seed=0):
    """Median ``sample`` certificate over median warm run, orkut.

    Runs and certificates alternate in one process on one warm
    session, so both medians see the same host speed.
    """
    from repro.engine import Engine
    from repro.integrity import certify_result

    runs, certs = [], []
    with Engine(backend="serial", canonical=True) as eng:
        sess = eng.load("orkut", scale=scale)
        result = eng.run(sess, method="method2", seed=seed)
        for _ in range(repeats):
            t0 = time.perf_counter()
            eng.run(sess, method="method2", seed=seed)
            runs.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            certify_result(  # strict: raises unless every proof holds
                sess.graph, result.labels, level="sample", seed=seed
            )
            certs.append(time.perf_counter() - t0)
    run_s = statistics.median(runs)
    cert_s = statistics.median(certs)
    return {
        "graph": "orkut",
        "scale": scale,
        "repeats": repeats,
        "run_median_s": round(run_s, 6),
        "certify_median_s": round(cert_s, 6),
        "ratio": round(cert_s / run_s, 4),
        "budget": CERTIFY_RUN_BUDGET,
    }


def main(argv=None) -> int:
    from repro.kernels import backend_info

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="smaller graph, fewer requests (CI smoke; stdout-only "
        "unless --out is given)",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help=f"fail unless overhead <= {OVERHEAD_BUDGET:.0%} and, on "
        f"the fastpath tier, certificate/run <= {CERTIFY_RUN_BUDGET}",
    )
    ap.add_argument("--graph", default="wiki")
    ap.add_argument("--scale", type=float, default=None)
    ap.add_argument("--requests", type=int, default=None)
    ap.add_argument("--audit-rate", type=float, default=0.05)
    ap.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_integrity.json at the repo "
        "root for full runs, stdout-only for --quick)",
    )
    args = ap.parse_args(argv)

    scale = args.scale or (0.1 if args.quick else 0.4)
    n_requests = args.requests or (20 if args.quick else 60)
    requests = [
        {
            "op": "run",
            "graph": args.graph,
            "scale": scale,
            "id": str(i),
        }
        for i in range(n_requests)
    ]
    common = {"backend": "serial"}

    arms = {
        "unguarded": dict(
            common, checksums=False, audit_rate=0.0
        ),
        "guarded": dict(
            common, checksums=True, audit_rate=args.audit_rate
        ),
    }
    doc = {
        "benchmark": "integrity_overhead",
        "quick": args.quick,
        "graph": args.graph,
        "scale": scale,
        "audit_rate": args.audit_rate,
        "budget": OVERHEAD_BUDGET,
        "kernels": backend_info(),
        "arms": serve_interleaved(arms, requests, warmup=3),
    }
    for name, row in doc["arms"].items():
        print(
            f"{name:>10s}: mean {row['mean_wall_s']*1e3:8.2f} ms  "
            f"p50 {row['p50_wall_s']*1e3:8.2f} ms  "
            f"p95 {row['p95_wall_s']*1e3:8.2f} ms  "
            f"audits {row['audit_wall_s']*1e3:8.2f} ms  "
            f"x{row['requests']}"
        )

    control = doc["arms"]["unguarded"]
    guarded = doc["arms"]["guarded"]
    base = control["mean_wall_s"]
    cost = guarded["mean_wall_s"] + guarded["audit_wall_s"] / n_requests
    overhead = (cost - base) / base
    overhead_p95 = guarded["p95_wall_s"] / control["p95_wall_s"] - 1.0
    doc["overhead_frac"] = round(overhead, 4)
    doc["overhead_p95_frac"] = round(overhead_p95, 4)
    assert guarded["integrity"]["checksums"] is True
    assert guarded["integrity"]["verifications"] > 0, (
        "guarded arm never verified a sidecar — the benchmark is not "
        "measuring the integrity tier"
    )
    print(
        f"integrity overhead: mean {overhead:+.2%} (audits charged), "
        f"p95 {overhead_p95:+.2%} of warm serving latency "
        f"(checksums on, audit_rate={args.audit_rate})"
    )

    doc["certify"] = bench_certify(args.graph, scale, seed=0)
    for level, row in doc["certify"].items():
        print(
            f"certify[{level:>6s}]: {row['wall_s']*1e3:8.2f} ms  "
            f"ok={row['ok']}"
        )

    gate = bench_certify_ratio(
        0.25 if args.quick else 1.0, repeats=11 if args.quick else 21
    )
    enforced = args.check and doc["kernels"]["resolved"] == "fastpath"
    gate["gate"] = "enforced" if enforced else "reported"
    doc["certify_gate"] = gate
    print(
        f"certify[sample] on orkut@{gate['scale']}: "
        f"{gate['certify_median_s']*1e3:.2f} ms vs warm run "
        f"{gate['run_median_s']*1e3:.2f} ms -> ratio {gate['ratio']:.2f} "
        f"(budget {CERTIFY_RUN_BUDGET}, {gate['gate']})"
    )

    out = args.out
    if out is None and not args.quick:
        out = str(
            Path(__file__).resolve().parent.parent
            / "BENCH_integrity.json"
        )
    if out:
        Path(out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {out}")

    failed = False
    if args.check and overhead > OVERHEAD_BUDGET:
        print(
            f"FAIL: overhead {overhead:.2%} exceeds the "
            f"{OVERHEAD_BUDGET:.0%} budget",
            file=sys.stderr,
        )
        failed = True
    if enforced and gate["ratio"] > CERTIFY_RUN_BUDGET:
        print(
            f"FAIL: sample certificate costs {gate['ratio']:.2f} of a "
            f"warm run (budget {CERTIFY_RUN_BUDGET})",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
