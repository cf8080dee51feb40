"""Backend-vs-backend kernel benchmark: the perf trajectory seed.

Times every registered hot kernel under the ``numpy`` reference backend
and the accelerated ``numba`` backend (``@njit`` loops when numba is
installed, the tuned pure-NumPy fastpath otherwise) on two Table-1-like
graphs — an R-MAT power-law graph (~1M edges at the default scale) and
a Watts–Strogatz small-world ring — verifying output parity on every
measured call, and writes a machine-readable ``BENCH_kernels.json``.
Each row's ``numba_tier`` names the module that ran in the accelerated
slot (``jit``, ``fastpath``, or the ``reference`` fallback).  The
multi-source kernel gets two rows, both driven through
``multi_source_reach``: a certificate-shaped sweep
(``ms_expand_frontier:certificate``) and the first batch of the graph's
own Recur-FWBW tail (``ms_expand_frontier:batch``; the Watts–Strogatz
ring is one SCC, so it has no tail and no batch row).

Run as a script (CI runs the ``--quick`` smoke)::

    PYTHONPATH=src python benchmarks/bench_kernels_backend.py
    PYTHONPATH=src python benchmarks/bench_kernels_backend.py --quick

Not a pytest-benchmark target on purpose: the JSON is a committed
artifact, and its generator must be runnable without dev extras.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import SCCState
from repro.core.parfwbw import par_fwbw
from repro.core.recurfwbw import (
    Phase2BatchPolicy,
    WorkItem,
    multi_source_reach,
    plan_batches,
)
from repro.core.wcc import par_wcc
from repro.generators import rmat_graph, watts_strogatz_graph
from repro.kernels import (
    backend_info,
    bfs_level_transform,
    dfs_collect_colored,
    effective_degrees_arrays,
    expand_frontier,
    get_kernel,
    trim_decrement,
    use_backend,
    wcc_hook_round,
)

BACKENDS = ("numpy", "numba")


def _best_of(fn, repeats):
    """(best wall seconds, last result) over ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _equal(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b


def _assert_equal(a, b, what):
    if not _equal(a, b):
        raise AssertionError(f"backend outputs diverge on {what}")


# ---------------------------------------------------------------------------
# Per-kernel drivers.  Each returns a closure per backend; closures are
# self-contained (fresh mutable arrays every call) so repeated timing
# is honest and outputs are comparable across backends.
# ---------------------------------------------------------------------------


def drive_expand(g):
    frontier = np.arange(g.num_nodes, dtype=np.int64)  # contiguous sweep

    def run():
        return expand_frontier(g.indptr, g.indices, frontier, unique=True)

    return run


def drive_bfs_level(g):
    def run():
        color = np.zeros(g.num_nodes, dtype=np.int64)
        color[0] = 1
        frontier = np.array([0], dtype=np.int64)
        scanned = 0
        while frontier.size:
            hits, s = bfs_level_transform(
                g.indptr, g.indices, frontier, color, {0: 1}
            )
            scanned += s
            frontier = hits[0]
        return color, scanned

    return run


def drive_dfs_collect(g):
    def run():
        color = np.zeros(g.num_nodes, dtype=np.int64)
        return dfs_collect_colored(g.indptr, g.indices, 0, {0: 1}, color)

    return run


def drive_effective_degrees(g):
    nodes = np.arange(g.num_nodes, dtype=np.int64)
    color = np.zeros(g.num_nodes, dtype=np.int64)

    def run():
        return effective_degrees_arrays(
            g.indptr, g.indices, g.in_indptr, g.in_indices, nodes, color
        )

    return run


def drive_trim_decrement(g):
    base_color = np.zeros(g.num_nodes, dtype=np.int64)
    cand = np.arange(0, g.num_nodes, 3, dtype=np.int64)
    old_colors = base_color[cand].copy()

    def run():
        color = base_color.copy()
        color[cand] = -1
        eff = np.full(g.num_nodes, 10**6, dtype=np.int64)
        hit, scanned = trim_decrement(
            g.indptr, g.indices, cand, old_colors, color, eff
        )
        return hit, scanned, eff

    return run


def drive_wcc_round(g):
    active = np.arange(g.num_nodes, dtype=np.int64)
    u, v = expand_frontier(
        g.indptr, g.indices, active, return_sources=True
    )

    def run():
        wcc = np.arange(g.num_nodes, dtype=np.int64)
        wcc_hook_round(u, v, wcc, active, True, True)
        return wcc

    return run


def drive_ms_certificate(g):
    """A ``sample`` certificate's sweep: one wave over a giant colour
    holding all but seven nodes, plus seven singleton waves, FW and BW
    to fixpoint."""
    color = np.zeros(g.num_nodes, dtype=np.int64)
    singles = np.linspace(1, g.num_nodes - 1, 7).astype(np.int64)
    color[singles] = np.arange(1, 8)
    pivots = np.concatenate(([0], singles))

    def run():
        return multi_source_reach(
            g.indptr, g.indices, g.in_indptr, g.in_indices,
            color, color[pivots], pivots,
        )

    return run


def drive_ms_batch(g):
    """The first batch of ``g``'s own Recur-FWBW tail: the queue Par-WCC
    hands to phase 2 after Par-FWBW, grouped by the default batch
    policy, with each item's colour and a pivot drawn as the batch task
    draws it.  ``None`` when the graph has no such batch."""
    state = SCCState(g, seed=123)
    par_fwbw(state, 0, giant_threshold=0.01, max_trials=5)
    queue = [WorkItem(color=c, nodes=nodes) for c, nodes in par_wcc(state)]
    plan = plan_batches(queue, Phase2BatchPolicy())
    batch = next((e for e in plan if isinstance(e, list)), None)
    if batch is None:
        return None
    colors = np.array([item.color for item in batch], dtype=np.int64)
    pivots = np.array(
        state.pick_many([item.nodes for item in batch], "random"),
        dtype=np.int64,
    )

    def run():
        return multi_source_reach(
            g.indptr, g.indices, g.in_indptr, g.in_indices,
            state.color, colors, pivots,
        )

    return run


KERNEL_DRIVERS = (
    ("expand_frontier", drive_expand),
    ("bfs_level_transform", drive_bfs_level),
    ("dfs_collect_colored", drive_dfs_collect),
    ("effective_degrees", drive_effective_degrees),
    ("trim_decrement", drive_trim_decrement),
    ("wcc_hook_round", drive_wcc_round),
    ("ms_expand_frontier:certificate", drive_ms_certificate),
    ("ms_expand_frontier:batch", drive_ms_batch),
)


def bench_graph(g, repeats):
    rows = {}
    for name, make in KERNEL_DRIVERS:
        kernel = name.partition(":")[0]
        times, results = {}, {}
        for backend in BACKENDS:
            with use_backend(backend):
                run = make(g)
                if run is None:  # no such workload on this graph
                    break
                times[backend], results[backend] = _best_of(run, repeats)
        if run is None:
            continue
        with use_backend("numba"):
            # the module that ran in the accelerated slot: jit,
            # fastpath, or the reference fallback
            tier = get_kernel(kernel).__module__.rsplit(".", 1)[-1]
        _assert_equal(results["numpy"], results["numba"], name)
        rows[name] = {
            "numpy_s": round(times["numpy"], 6),
            "numba_s": round(times["numba"], 6),
            "numba_tier": tier,
            "speedup": round(times["numpy"] / max(times["numba"], 1e-12), 3),
            "outputs_identical": True,
        }
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="small graphs, fewer repeats (CI smoke; does not overwrite "
        "the committed JSON unless --out is given)",
    )
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_kernels.json next to the repo "
        "root for full runs, stdout-only for --quick)",
    )
    args = ap.parse_args(argv)

    repeats = args.repeats or (2 if args.quick else 3)
    if args.quick:
        graphs = [
            ("rmat", dict(scale=12, avg_degree=8.0), rmat_graph(12, 8.0, rng=1)),
            ("ws", dict(n=4096, k=4, p=0.05), watts_strogatz_graph(4096, 4, 0.05, rng=1)),
        ]
    else:
        graphs = [
            ("rmat", dict(scale=16, avg_degree=16.0), rmat_graph(16, 16.0, rng=1)),
            ("ws", dict(n=65536, k=8, p=0.05), watts_strogatz_graph(65536, 8, 0.05, rng=1)),
        ]

    doc = {
        "benchmark": "kernels_backend",
        "quick": args.quick,
        "repeats": repeats,
        "backend_info": backend_info(),
        "graphs": {},
    }
    for name, params, g in graphs:
        rows = bench_graph(g, repeats)
        doc["graphs"][name] = {
            "params": params,
            "num_nodes": g.num_nodes,
            "num_edges": g.num_edges,
            "kernels": rows,
        }
        for kname, row in rows.items():
            print(
                f"{name:>5s} {kname:<30s} numpy {row['numpy_s']*1e3:9.2f} ms"
                f"  {row['numba_tier']:>9s} {row['numba_s']*1e3:9.2f} ms"
                f"  speedup {row['speedup']:6.2f}x"
            )

    out = args.out
    if out is None and not args.quick:
        out = str(Path(__file__).resolve().parent.parent / "BENCH_kernels.json")
    if out:
        Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
