"""Compare two sets of system-benchmark results against the bounds.

    python3 benchmarks/system/compare.py A/*.json -- B/*.json

Set A is the reference (the parent commit), set B the candidate.  For
every end-to-end ``(metric, workload)`` pair both sets measured, it
prints each set's median and quartiles (``statistics.quantiles(n=4)``)
and a verdict from the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — set A's own spread (interquartile distance over its
  median) is wider than the bound, so a change of that size cannot be
  told from noise; unless every B run reads better than every A run;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``pass`` — otherwise.

Exits 0 when every pair passes, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    """``(metric, workload) -> values`` over a set of result files."""
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for workload, res in doc["workloads"].items():
            for metric, m in res["metrics"].items():
                out[(metric, workload)].append(float(m["value"]))
    return out


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * (x - y) < 0 for x in b for y in a):
        return "pass"  # every candidate run beats every reference run
    if a_med == 0 or (a_q3 - a_q1) / abs(a_med) > bound:
        return "unresolved"
    if sign * (b_med - a_med) / abs(a_med) > bound:
        return "regressed"
    return "pass"


def compare(a_paths, b_paths, spec: dict) -> List[dict]:
    a, b = collect(a_paths), collect(b_paths)
    rows = []
    for m in spec["end_to_end"]:
        for (metric, workload) in sorted(k for k in a if k[0] == m["name"]):
            if (metric, workload) not in b:
                continue
            rows.append({
                "metric": metric,
                "workload": workload,
                "unit": m["unit"],
                "bound": m["bound"],
                "a": quartiles(a[(metric, workload)]),
                "b": quartiles(b[(metric, workload)]),
                "verdict": verdict(a[(metric, workload)],
                                   b[(metric, workload)],
                                   m["bound"], m["better"]),
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    i = argv.index("--")
    a_paths, b_paths = argv[:i], argv[i + 1:]
    if not a_paths or not b_paths:
        print("need result files on both sides of --", file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    rows = compare(a_paths, b_paths, spec)
    print(f"{'workload':<14} {'metric':<14} {'unit':<8} "
          f"{'A q1/med/q3':>26} {'B q1/med/q3':>26}  verdict")
    for r in rows:
        fa = "/".join(f"{x:.4g}" for x in r["a"])
        fb = "/".join(f"{x:.4g}" for x in r["b"])
        print(f"{r['workload']:<14} {r['metric']:<14} {r['unit']:<8} "
              f"{fa:>26} {fb:>26}  {r['verdict']} "
              f"(bound {r['bound']:.0%})")
    bad = [r for r in rows if r["verdict"] != "pass"]
    print(f"{len(rows) - len(bad)}/{len(rows)} pass")
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
