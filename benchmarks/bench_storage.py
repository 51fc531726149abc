"""Storage-tier latency: the paged disk backend vs the in-memory engine.

For each workload dataset the differential statement mix (see
``repro.backends.differential``) is executed end to end on the in-memory
backend and on the disk backend — the same compiled plans, with only the
storage tier underneath them swapped — best-of-N per backend.  As with
``bench_backends.py``, the interesting number is the **ratio**
(disk_ms / memory_ms): both backends run in the same process on the same
data and statements, so the ratio is stable across machines in a way raw
milliseconds are not.

Alongside the query mix, materialization itself is timed (heap files,
B+-trees, hash indexes and the SPIMI text index for the whole database),
and the buffer pool's hit rate over the sweep is recorded — a pool
thrashing its way through the mix shows up here long before raw latency
moves.

Three things are asserted before any timing means anything:

* both backends return canonically equal rows for every statement
  (a re-statement of ``python -m repro diff --backend disk``);
* the pool's page budget held — residency never exceeded capacity
  (``DiskBackend.execute`` raises otherwise);
* the mix is non-empty for every dataset.

Numbers go to ``BENCH_storage.json`` (a run output, not committed).

Run standalone (``python benchmarks/bench_storage.py``) or via
``pytest benchmarks/bench_storage.py``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.backends import DiskBackend, MemoryBackend  # noqa: E402
from repro.backends.differential import collect_statements  # noqa: E402
from repro.backends.normalize import canonical_rows  # noqa: E402

DATASETS = ("university", "tpch", "acmdl")
REPEATS = 3  # best-of-N to shed scheduler noise

#: pool small enough that the workload datasets do not fit resident,
#: so the sweep actually exercises eviction and write-back
POOL_CAPACITY = 64
PAGE_SIZE = 2048

_HERE = Path(__file__).resolve().parent
RESULT_PATH = _HERE / "BENCH_storage.json"

# the disk backend pays for page decode + pool bookkeeping on every
# access; it must still stay within this factor of the in-memory
# engine on every workload mix, or the storage tier has regressed
MAX_DISK_VS_MEMORY = 60.0

# for a dataset that fits in the pool, a repeated statement mix must be
# served mostly from resident frames; datasets larger than the pool are
# exempt — repeated sequential scans under LRU legitimately miss (the
# classic sequential-flooding pattern), and the ratio gate covers them
MIN_HIT_RATE = 0.50


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
    """Per-dataset memory/disk latency, materialization time, hit rate."""
    datasets: Dict[str, Dict[str, float]] = {}
    for dataset in DATASETS:
        database, statements = collect_statements(dataset)
        assert statements, f"{dataset}: empty statement mix"
        memory = MemoryBackend()
        memory.load(database)
        disk = DiskBackend(pool_capacity=POOL_CAPACITY, page_size=PAGE_SIZE)
        try:
            start = time.perf_counter()
            disk.load(database)
            materialize_s = time.perf_counter() - start
            manifest = disk.storage_manifest()
            # correctness first: a benchmark of disagreeing backends
            # measures nothing (and warms both backends for the timing)
            for qid, source, select in statements:
                fast = canonical_rows(memory.execute(select).rows)
                paged = canonical_rows(disk.execute(select).rows)
                assert fast == paged, (
                    f"{dataset} {qid} [{source}]: backends disagree"
                )
            memory_s = _time_mix(memory, statements)
            disk_s = _time_mix(disk, statements)
            counters = disk.pool_counters()
        finally:
            disk.close()
        accesses = counters["hits"] + counters["misses"]
        datasets[dataset] = {
            "statements": len(statements),
            "memory_ms": memory_s * 1000.0,
            "disk_ms": disk_s * 1000.0,
            "ratio": disk_s / memory_s if memory_s else float("inf"),
            "materialize_ms": materialize_s * 1000.0,
            "pages": manifest["totals"]["pages"],
            "rows": manifest["totals"]["rows"],
            "hit_rate": counters["hits"] / accesses if accesses else 1.0,
            "max_resident": counters["max_resident"],
        }
    return {
        "pool_capacity": POOL_CAPACITY,
        "page_size": PAGE_SIZE,
        "datasets": datasets,
    }


def check(result: Dict[str, object]) -> List[str]:
    """Failure messages (empty when the check passes)."""
    failures: List[str] = []
    for dataset, numbers in result["datasets"].items():
        ratio = float(numbers["ratio"])
        if ratio > MAX_DISK_VS_MEMORY:
            failures.append(
                f"{dataset}: disk backend is {ratio:.1f}x slower than the "
                f"in-memory engine (allowed: {MAX_DISK_VS_MEMORY:.1f}x)"
            )
        hit_rate = float(numbers["hit_rate"])
        fits = int(numbers["pages"]) <= int(result["pool_capacity"])
        if fits and hit_rate < MIN_HIT_RATE:
            failures.append(
                f"{dataset}: buffer pool hit rate {hit_rate:.2f} below "
                f"{MIN_HIT_RATE:.2f} — the pool is thrashing"
            )
        if int(numbers["max_resident"]) > int(result["pool_capacity"]):
            failures.append(
                f"{dataset}: {numbers['max_resident']} resident frames "
                f"exceeded the page budget of {result['pool_capacity']}"
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
            f"{dataset}: {numbers['statements']} statements over "
            f"{numbers['pages']} pages, "
            f"memory {numbers['memory_ms']:.1f} ms, "
            f"disk {numbers['disk_ms']:.1f} ms "
            f"(ratio {numbers['ratio']:.2f}), "
            f"materialize {numbers['materialize_ms']:.1f} ms, "
            f"hit rate {numbers['hit_rate']:.2f}"
        )
    return "\n".join(lines)


def test_storage_agrees_and_holds_budget():
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
