"""Backend latency comparison: the in-memory engine vs SQLite.

For every workload dataset the full statement mix the differential
harness compares (top-k semantic interpretations plus the SQAK baseline
statements — see ``repro.backends.differential``) is executed end to end
on both registered backends, best-of-N per backend.  The interesting
number is the **ratio** (sqlite_ms / memory_ms), which is relative to
the machine: both backends run in the same process on the same data and
statements, so the ratio is stable where raw milliseconds are not.

Two things are asserted before any timing means anything:

* both backends return canonically equal rows for every statement in
  the mix (a re-statement of ``python -m repro diff`` — a benchmark of
  two backends that disagree measures nothing);
* the mix is non-empty for every dataset.

Numbers go to ``BENCH_backends.json`` (a run output, not committed).

Run standalone (``python benchmarks/bench_backends.py``) or via
``pytest benchmarks/bench_backends.py``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.backends import MemoryBackend, SqliteBackend  # noqa: E402
from repro.backends.differential import collect_statements  # noqa: E402
from repro.backends.normalize import canonical_rows  # noqa: E402

DATASETS = ("university", "tpch", "tpch-unnorm", "acmdl", "acmdl-unnorm")
REPEATS = 3  # best-of-N to shed scheduler noise

_HERE = Path(__file__).resolve().parent
RESULT_PATH = _HERE / "BENCH_backends.json"

# the memory backend (compiled plans, hash joins, plan cache) must never
# be slower than round-tripping SQL text through SQLite by more than
# this factor on any workload — if it is, the executor has regressed
MAX_MEMORY_VS_SQLITE = 5.0


def _run_mix(backend, statements) -> None:
    for _qid, _source, select in statements:
        backend.execute(select)


def _time_mix(backend, statements) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _run_mix(backend, statements)
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> Dict[str, object]:
    """Per-dataset memory and SQLite latency over the diff statement mix."""
    datasets: Dict[str, Dict[str, float]] = {}
    for dataset in DATASETS:
        database, statements = collect_statements(dataset)
        assert statements, f"{dataset}: empty statement mix"
        memory = MemoryBackend()
        memory.load(database)
        sqlite = SqliteBackend()
        sqlite.load(database)
        try:
            # correctness first: a benchmark of disagreeing backends
            # measures nothing (and warms both backends for the timing)
            for qid, source, select in statements:
                fast = canonical_rows(memory.execute(select).rows)
                oracle = canonical_rows(sqlite.execute(select).rows)
                assert fast == oracle, (
                    f"{dataset} {qid} [{source}]: backends disagree"
                )
            memory_s = _time_mix(memory, statements)
            sqlite_s = _time_mix(sqlite, statements)
        finally:
            sqlite.close()
        datasets[dataset] = {
            "statements": len(statements),
            "memory_ms": memory_s * 1000.0,
            "sqlite_ms": sqlite_s * 1000.0,
            "ratio": sqlite_s / memory_s if memory_s else float("inf"),
        }
    return {"datasets": datasets}


def check(result: Dict[str, object]) -> List[str]:
    """Failure messages (empty when the check passes)."""
    failures: List[str] = []
    for dataset, numbers in result["datasets"].items():
        ratio = float(numbers["ratio"])
        if ratio < 1.0 / MAX_MEMORY_VS_SQLITE:
            failures.append(
                f"{dataset}: memory backend is {1.0 / ratio:.1f}x slower "
                f"than SQLite (allowed: {MAX_MEMORY_VS_SQLITE:.1f}x)"
            )
    return failures


def write_result(result: Dict[str, object]) -> None:
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_result(result: Dict[str, object]) -> str:
    lines = []
    for dataset, numbers in result["datasets"].items():
        lines.append(
            f"{dataset}: {numbers['statements']} statements, "
            f"memory {numbers['memory_ms']:.1f} ms, "
            f"sqlite {numbers['sqlite_ms']:.1f} ms "
            f"(ratio {numbers['ratio']:.2f})"
        )
    return "\n".join(lines)


def test_backends_agree_and_hold_ratio():
    result = measure()
    write_result(result)
    failures = check(result)
    assert not failures, "; ".join(failures) + "\n" + format_result(result)


def main() -> int:
    result = measure()
    write_result(result)
    print(format_result(result))
    print(f"wrote {RESULT_PATH}")
    failures = check(result)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
