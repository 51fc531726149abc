#!/usr/bin/env python3
"""Compare two result files of ``run.py``: is B worse than A?

    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric) with both medians, the relative
difference, the bound and a verdict.  Units, directions and bounds come
from ``BENCHMARK.json`` and from nowhere else.  A file may hold several
runs of a workload (``run.py --repeat N``); the verdict then knows the
spread between a file's own runs:

``ok``          B's median is within the bound of A's
``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``unresolved``  a file's own runs spread wider than the bound, so a
                difference of that size cannot be told from noise -
                unless every run of one file beats every run of the other

Exits 1 when any row is ``worse``, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values of the file's untraced runs."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not document.get("comparable", False):
        raise ValueError(f"{path}: a smoke run compares with nothing")
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(name, []).append(
                metric["value"]
            )
    return values


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles (the extremes, under four runs) as
    a share of the median; 0 for a single run, which has no spread."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        low, high = min(values), max(values)
    else:
        low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[float, str]:
    """(how much worse B's median is than A's, as a share; the verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / abs(base)
    apart = (all(sign * (y - x) > 0 for x in a for y in b)
             or all(sign * (y - x) < 0 for x in a for y in b))
    if max(spread(a), spread(b)) > bound and not apart:
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    return worse_by, "better" if worse_by < -bound else "ok"


def compare(
    contract: Dict[str, Any],
    a: Dict[str, Dict[str, List[float]]],
    b: Dict[str, Dict[str, List[float]]],
) -> List[Dict[str, Any]]:
    rows = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name = metric["name"]
            va = a.get(workload, {}).get(name)
            vb = b.get(workload, {}).get(name)
            if not va or not vb:
                continue
            worse_by, verdict = judge(va, vb, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": statistics.median(va), "b": statistics.median(vb),
                "runs": (len(va), len(vb)), "worse_by": worse_by,
                "bound": metric["bound"], "verdict": verdict,
            })
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    try:
        a, b = load_runs(argv[0]), load_runs(argv[1])
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    rows = compare(contract, a, b)
    print(f"{'workload':<15} {'metric':<26} {'unit':<6} {'A':>12} {'B':>12} "
          f"{'runs':>5} {'B worse by':>11} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<15} {row['metric']:<26} {row['unit']:<6} "
              f"{row['a']:>12.4f} {row['b']:>12.4f} "
              f"{row['runs'][0]:>2}/{row['runs'][1]:<2} {row['worse_by']:>+11.2%} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
