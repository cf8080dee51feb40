"""Phase-2 tail ablation: per-pivot vs batched multi-source FW-BW.

Reconstructs the workload the batched kernel exists for — the
"small-task storm" Recur-FWBW faces after phase 1 peels the giant SCC
from an R-MAT graph: Par-FWBW (no trim, so the tail survives into
phase 2) followed by Par-WCC leaves thousands of tiny independent
colour partitions.  Each cell drains that queue through the serial
driver, per-pivot vs batched, under each kernel backend
(``numpy`` reference tier, and the ``numba`` slot — the tuned
fastpath tier when numba itself is not importable).  Every compared
cell asserts bit-identical labels and an identical task trace before
reporting any timing; ``--check`` additionally gates the batched
speedup on the numba tier.  The batched arm is the default drain
(``recurfwbw.BATCH_POLICY``); the per-pivot arm patches that policy to
width 1, which never batches.  Writes a machine-readable
``BENCH_phase2.json``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

import numpy as np

#: with --check, batched must clear this multiple of the per-pivot
#: drain on the numba tier (fastpath when numba is absent).
SPEEDUP_FLOOR = 5.0


def tail_workload(scale, seed):
    """Fresh state + phase-2 queue for the R-MAT tail storm.

    Returns ``(state, items)`` where ``items`` is the
    ``[(color, nodes)]`` queue Par-WCC hands to Recur-FWBW after the
    giant SCC is gone.  Built fresh per cell so every drain starts
    from bit-identical state (same seed -> same pivot draws).
    """
    from repro.core import SCCState
    from repro.core.parfwbw import par_fwbw
    from repro.core.wcc import par_wcc
    from repro.generators import rmat_graph

    g = rmat_graph(scale, 8.0, rng=42)
    state = SCCState(g, seed=seed)
    par_fwbw(state, 0, giant_threshold=0.01, max_trials=5)
    return state, par_wcc(state)


def drain(scale, seed, *, batch):
    """Time one serial phase-2 drain; return (state, row)."""
    from unittest import mock

    from repro.core import recurfwbw

    policy = (
        recurfwbw.BATCH_POLICY
        if batch
        else recurfwbw.Phase2BatchPolicy(width=1)
    )
    state, items = tail_workload(scale, seed)
    with mock.patch.object(recurfwbw, "BATCH_POLICY", policy):
        t0 = time.perf_counter()
        tasks = recurfwbw.run_recur_phase(state, items, backend="serial")
        wall = time.perf_counter() - t0
    row = {
        "tasks": tasks,
        "queue_items": len(items),
        "wall_s": round(wall, 6),
        "batches": int(
            state.profile.counters.get("phase2_batches", 0)
        ),
    }
    return state, row


def identical(a, b):
    """Bit-identical outcome: labels and the full task trace."""
    if not np.array_equal(a.labels, b.labels):
        return False
    ra, rb = a.trace.records, b.trace.records
    return len(ra) == len(rb) and all(
        x == y for x, y in zip(ra, rb)
    )


def bench_tier(backend, scale, seed, repeats):
    """One backend tier: per-pivot vs batched, best-of-``repeats``."""
    from repro.kernels import use_backend

    with use_backend(backend):
        base_state = per_pivot = batched = None
        for _ in range(repeats):
            s, row = drain(scale, seed, batch=False)
            if per_pivot is None or row["wall_s"] < per_pivot["wall_s"]:
                base_state, per_pivot = s, row
            s, row = drain(scale, seed, batch=True)
            if batched is None or row["wall_s"] < batched["wall_s"]:
                batch_state, batched = s, row
    same = identical(base_state, batch_state)
    assert same, f"{backend}: batched drain diverged from per-pivot"
    assert per_pivot["tasks"] == batched["tasks"]
    return {
        "per_pivot": per_pivot,
        "batched": batched,
        "outputs_identical": same,
        "speedup": round(
            per_pivot["wall_s"] / max(batched["wall_s"], 1e-9), 3
        ),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="smaller R-MAT and one repeat (CI smoke; stdout-only "
        "unless --out is given)",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help="enforce the acceptance gate: batched >= "
        f"{SPEEDUP_FLOOR}x per-pivot on the numba tier, and "
        "bit-identical outputs everywhere (outputs are asserted "
        "even without --check)",
    )
    ap.add_argument(
        "--scale",
        type=int,
        default=None,
        help="R-MAT scale (default 14, 12 with --quick)",
    )
    ap.add_argument("--seed", type=int, default=123)
    ap.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repeats per cell, best kept (default 3, 1 quick)",
    )
    ap.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_phase2.json next to the "
        "repo root for full runs, stdout-only for --quick)",
    )
    args = ap.parse_args(argv)

    from repro.kernels import backend_info

    scale = args.scale or (12 if args.quick else 14)
    repeats = args.repeats or (1 if args.quick else 3)
    info = backend_info()

    doc = {
        "benchmark": "phase2_multisource",
        "quick": args.quick,
        "kernels": info,
        "rmat_scale": scale,
        "seed": args.seed,
        "repeats": repeats,
        "tiers": {},
    }
    for backend in ("numpy", "numba"):
        tier = bench_tier(backend, scale, args.seed, repeats)
        doc["tiers"][backend] = tier
        resolved = (
            info["resolved"] if backend == "numba" else backend
        )
        print(
            f"{backend:>6} (-> {resolved}): per-pivot "
            f"{tier['per_pivot']['wall_s'] * 1e3:7.1f} ms  batched "
            f"{tier['batched']['wall_s'] * 1e3:7.1f} ms  "
            f"({tier['batched']['batches']} batches)  "
            f"speedup {tier['speedup']:.2f}x  identical="
            f"{tier['outputs_identical']}"
        )

    gate = doc["tiers"]["numba"]["speedup"]
    doc["checks"] = {
        "speedup_floor": SPEEDUP_FLOOR,
        "numba_tier_speedup": gate,
        "speedup_gate": "enforced" if args.check else "reported",
    }
    if args.check:
        assert gate >= SPEEDUP_FLOOR, (
            f"batched phase-2 drain below floor: {gate:.2f}x on the "
            f"numba tier (need >= {SPEEDUP_FLOOR}x)"
        )
    print(f"checks: {json.dumps(doc['checks'], sort_keys=True)}")

    out = args.out
    if out is None and not args.quick:
        out = str(
            Path(__file__).resolve().parent.parent
            / "BENCH_phase2.json"
        )
    if out:
        Path(out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
