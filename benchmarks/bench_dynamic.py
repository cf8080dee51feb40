"""Streaming-update benchmark: incremental SCC maintenance vs full
recompute.

Drives a sustained R-MAT edge-update stream (skewed endpoints, the
small-world shape the paper targets) through ``Engine.update`` against
a warm mutable session, and compares the mean per-batch update cost to
the mean cost of a warm full Method-2 recompute of the same graph.
The two arms are interleaved: between update batches a second engine
re-runs Method 2 over an unmutated copy of the graph, the order
alternating per batch, so host drift lands on both arms alike.  The
incremental maintainer only ever touches the affected region, so a
batch must come in far below a recompute — ``--check`` gates the mean
update cost at <= 20% of the mean recompute cost (p95 of both arms is
reported beside it), and always verifies the final maintained labels
are bit-identical to a from-scratch application of every edit.
Writes a machine-readable ``BENCH_dynamic.json``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

#: sustained (mean) update-batch cost must stay below this fraction of
#: the mean warm full recompute (with --check).
UPDATE_COST_CEILING = 0.20

GRAPH = "wiki"


def rmat_edges(rng, n, k, a=0.57, b=0.19, c=0.19):
    """``k`` R-MAT-distributed (src, dst) pairs over ``0..n-1``.

    Standard recursive-matrix quadrant descent (Chakrabarti et al.);
    the skew concentrates updates on hub nodes, the worst case for an
    incremental maintainer because hubs sit in the giant SCC.
    """
    bits = max(1, int(np.ceil(np.log2(max(2, n)))))
    src = np.zeros(k, dtype=np.int64)
    dst = np.zeros(k, dtype=np.int64)
    for _ in range(bits):
        r = rng.random(k)
        down = (r >= a + b).astype(np.int64)  # bottom half (src bit 1)
        right = (
            ((r >= a) & (r < a + b)) | (r >= a + b + c)
        ).astype(np.int64)  # right half (dst bit 1)
        src = src * 2 + down
        dst = dst * 2 + right
    return src % n, dst % n


def make_stream(rng, g, num_batches, inserts_per, deletes_per):
    """R-MAT insert batches plus deletes sampled from live edges."""
    src, dst = g.edge_array()
    batches = []
    for _ in range(num_batches):
        ins_u, ins_v = rmat_edges(rng, g.num_nodes, inserts_per)
        pick = rng.integers(0, src.shape[0], deletes_per)
        batches.append(
            (
                list(zip(ins_u.tolist(), ins_v.tolist())),
                list(zip(src[pick].tolist(), dst[pick].tolist())),
            )
        )
    return batches


def oracle_crc(graph_name, scale, batches):
    from repro.core.result import canonical_labels
    from repro.core.tarjan import tarjan_scc
    from repro.generators import generate
    from repro.graph.delta import DeltaCSR
    from repro.ioutil import crc32_chunks

    delta = DeltaCSR(generate(graph_name, scale=scale, seed=None).graph)
    for ins, dels in batches:
        for u, v in ins:
            delta.add_edge(u, v)
        for u, v in dels:
            delta.remove_edge(u, v)
    labels = canonical_labels(tarjan_scc(delta.snapshot()))
    return crc32_chunks(labels.tobytes())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="smaller graph and stream (CI smoke; stdout-only unless "
        "--out is given)",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help="enforce the acceptance gate: sustained update cost <= "
        f"{UPDATE_COST_CEILING:.0%} of one warm full recompute, and "
        "final labels bit-identical to a from-scratch application",
    )
    ap.add_argument("--scale", type=float, default=None)
    ap.add_argument("--batches", type=int, default=None)
    ap.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_dynamic.json next to the "
        "repo root for full runs, stdout-only for --quick)",
    )
    args = ap.parse_args(argv)

    from repro.engine import Engine
    from repro.kernels import backend_info

    scale = args.scale or (0.1 if args.quick else 0.3)
    num_batches = args.batches or (30 if args.quick else 100)
    inserts_per, deletes_per = 8, 4
    rng = np.random.default_rng(2024)

    with Engine(backend="serial") as eng, Engine(backend="serial") as ref:
        session = eng.load(GRAPH, scale=scale, seed=None)
        g = session.graph
        batches = make_stream(
            rng, g, num_batches, inserts_per, deletes_per
        )
        # the recompute arm: its own engine, so its session stays the
        # unmutated graph while the update arm's is promoted.
        frozen = ref.load(GRAPH, scale=scale, seed=None)
        ref.run(frozen, method="method2")  # warm the pipeline
        batch_times = []
        recompute_times = []

        def recompute():
            t0 = time.perf_counter()
            ref.run(frozen, method="method2")
            recompute_times.append(time.perf_counter() - t0)

        # promote to a mutable session outside the timed region (the
        # one-time promotion pays a full run; steady state is what the
        # gate is about), then drive the sustained stream.
        promote = batches[0]
        t0 = time.perf_counter()
        eng.update(session, promote[0], promote[1])
        promote_s = time.perf_counter() - t0
        for i, (ins, dels) in enumerate(batches[1:]):
            # interleaved arms, alternating which goes first
            if i % 2:
                recompute()
            t0 = time.perf_counter()
            report = eng.update(session, ins, dels)
            batch_times.append(time.perf_counter() - t0)
            if not i % 2:
                recompute()
        mean_batch_s = float(np.mean(batch_times))
        p95_batch_s = float(np.percentile(batch_times, 95))
        recompute_s = float(np.mean(recompute_times))
        recompute_p95_s = float(np.percentile(recompute_times, 95))
        final_crc = report.labels_crc32
        version = report.version
        stats = report.stats

    total_edits = num_batches * (inserts_per + deletes_per)
    ratio = mean_batch_s / max(recompute_s, 1e-12)
    ratio_p95 = p95_batch_s / max(recompute_p95_s, 1e-12)
    doc = {
        "benchmark": "dynamic_scc",
        "quick": args.quick,
        "kernels": backend_info(),
        "graph": GRAPH,
        "scale": scale,
        "num_nodes": int(g.num_nodes),
        "num_edges": int(g.num_edges),
        "batches": num_batches,
        "edits_total": total_edits,
        "recompute_s": round(recompute_s, 6),
        "recompute_p95_s": round(recompute_p95_s, 6),
        "promotion_s": round(promote_s, 6),
        "mean_batch_s": round(mean_batch_s, 6),
        "p95_batch_s": round(p95_batch_s, 6),
        "update_vs_recompute": round(ratio, 4),
        "update_vs_recompute_p95": round(ratio_p95, 4),
        "updates_per_s": round(
            (inserts_per + deletes_per) / mean_batch_s, 1
        ),
        "final_version": version,
        "final_labels_crc32": final_crc,
        "taxonomy": stats,
    }
    print(
        f"{GRAPH}@{scale}: n={g.num_nodes} m={g.num_edges}, "
        f"{total_edits} edits in {num_batches} batches"
    )
    print(
        f"recompute mean {recompute_s * 1e3:8.2f} ms "
        f"(p95 {recompute_p95_s * 1e3:.2f} ms)   "
        f"update batch mean {mean_batch_s * 1e3:8.2f} ms "
        f"(p95 {p95_batch_s * 1e3:.2f} ms)   "
        f"ratio {ratio:.3f} (p95 {ratio_p95:.3f})"
    )
    print(f"taxonomy: {json.dumps(stats, sort_keys=True)}")

    want = oracle_crc(GRAPH, scale, batches)
    doc["oracle_crc32"] = want
    doc["labels_match_oracle"] = bool(final_crc == want)
    checks = {
        "update_cost_ratio": round(ratio, 4),
        "update_cost_ratio_p95": round(ratio_p95, 4),
        "update_cost_ceiling": UPDATE_COST_CEILING,
        "labels_match_oracle": doc["labels_match_oracle"],
    }
    doc["checks"] = checks
    print(f"checks: {json.dumps(checks, sort_keys=True)}")

    # the record is written before the gate is judged, so a failing
    # run still leaves its readings behind
    out = args.out
    if out is None and not args.quick:
        out = str(
            Path(__file__).resolve().parent.parent
            / "BENCH_dynamic.json"
        )
    if out:
        Path(out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {out}")

    failed = False
    if args.check and not doc["labels_match_oracle"]:
        print(
            f"FAIL: maintained labels diverged from the from-scratch "
            f"oracle (crc {final_crc} != {want})",
            file=sys.stderr,
        )
        failed = True
    if args.check and ratio > UPDATE_COST_CEILING:
        print(
            f"FAIL: sustained update cost is {ratio:.1%} of a full "
            f"recompute (ceiling {UPDATE_COST_CEILING:.0%}; p95 "
            f"{ratio_p95:.1%})",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
