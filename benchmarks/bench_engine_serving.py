"""Engine serving benchmark: what a warm session is worth.

Measures the load-once/run-many amortization the engine layer exists
for: the first ``Engine.run()`` on a graph pays the full setup (load,
transpose CSR, shared-memory mirror, worker-pool fork) and every
subsequent run rides the warm session.  Reports cold vs. warm setup
overhead and wall time per dataset, asserts the warm runs pay at most
half the cold setup (in practice: none) with bit-identical canonical
labels, and records a ``repro batch``-equivalent ``run_many`` smoke.
Writes a machine-readable ``BENCH_engine.json``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

import numpy as np  # noqa: E402


def bench_dataset(engine, dataset, scale, *, warm_runs):
    t0 = time.perf_counter()
    sess = engine.load(dataset, scale=scale)
    cold = engine.run(sess, method="method2")
    cold_wall = time.perf_counter() - t0
    cold_setup = sess.stats.setup_seconds()

    warm_walls = []
    labels_identical = True
    for _ in range(warm_runs):
        t0 = time.perf_counter()
        warm = engine.run(sess, method="method2")
        warm_walls.append(time.perf_counter() - t0)
        labels_identical &= bool(
            np.array_equal(cold.labels, warm.labels)
        )
    warm_setup = sess.stats.setup_seconds() - cold_setup

    # The acceptance gate: a warm run pays at least 2x less setup than
    # the cold one (it should pay none), with identical labels.
    assert warm_setup * 2 <= cold_setup, (
        f"{dataset}: warm runs paid {warm_setup:.4f}s setup vs "
        f"{cold_setup:.4f}s cold — the session cache is not amortizing"
    )
    assert labels_identical, f"{dataset}: warm labels diverged"

    return {
        "cold": {
            "wall_s": round(cold_wall, 6),
            "setup_s": round(cold_setup, 6),
        },
        "warm": {
            "runs": warm_runs,
            "mean_wall_s": round(
                sum(warm_walls) / len(warm_walls), 6
            ),
            "setup_s": round(warm_setup, 6),
        },
        "labels_identical": labels_identical,
        "session": sess.stats.to_dict(),
    }


def bench_batch(engine, dataset, scale):
    """run_many over one warm session (the `repro batch` smoke)."""
    from repro.engine.batch import BatchJob

    jobs = [
        BatchJob(graph=dataset, scale=scale, method=m, backend=b)
        for m, b in (
            ("method2", engine.backend),
            ("method1", engine.backend),
            ("tarjan", "serial"),
        )
    ]
    report = engine.run_many(jobs)
    assert report.jobs_failed == 0, report.to_dict()
    return {
        "jobs_ok": report.jobs_ok,
        "jobs_total": report.jobs_total,
        "seconds": round(report.seconds, 6),
        "warm_jobs": sum(1 for r in report.records if r.warm),
    }


def main(argv=None) -> int:
    from repro.engine import Engine
    from repro.engine.pool import fork_available
    from repro.kernels import backend_info

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="small graphs, fewer warm runs (CI smoke; stdout-only "
        "unless --out is given)",
    )
    ap.add_argument(
        "--backend",
        default=None,
        help="executor for the parallel methods (default: supervised "
        "when fork is available, else serial)",
    )
    ap.add_argument("--warm-runs", type=int, default=None)
    ap.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_engine.json next to the "
        "repo root for full runs, stdout-only for --quick)",
    )
    args = ap.parse_args(argv)

    backend = args.backend or (
        "supervised" if fork_available() else "serial"
    )
    warm_runs = args.warm_runs or (2 if args.quick else 4)
    datasets = (
        [("wiki", 0.1), ("flickr", 0.1)]
        if args.quick
        else [("wiki", 1.0), ("flickr", 0.5), ("baidu", 0.5)]
    )

    doc = {
        "benchmark": "engine_serving",
        "quick": args.quick,
        "backend": backend,
        "kernels": backend_info(),
        "datasets": {},
    }
    with Engine(backend=backend, num_workers=2) as engine:
        for name, scale in datasets:
            row = bench_dataset(
                engine, name, scale, warm_runs=warm_runs
            )
            doc["datasets"][name] = dict(row, scale=scale)
            print(
                f"{name:>8s} cold {row['cold']['wall_s']*1e3:8.1f} ms "
                f"(setup {row['cold']['setup_s']*1e3:7.1f} ms)  "
                f"warm {row['warm']['mean_wall_s']*1e3:8.1f} ms "
                f"(setup {row['warm']['setup_s']*1e3:7.1f} ms)  "
                f"x{warm_runs}, labels identical"
            )
        name, scale = datasets[0]
        doc["batch"] = bench_batch(engine, name, scale)
        print(
            f"batch: {doc['batch']['jobs_ok']}/"
            f"{doc['batch']['jobs_total']} ok, "
            f"{doc['batch']['warm_jobs']} warm, "
            f"{doc['batch']['seconds']*1e3:.1f} ms"
        )

    out = args.out
    if out is None and not args.quick:
        out = str(
            Path(__file__).resolve().parent.parent / "BENCH_engine.json"
        )
    if out:
        Path(out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
