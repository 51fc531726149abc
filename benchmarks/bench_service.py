"""Closed-loop load generator for the query service, swept over the
worker-process tier.

Three serving configurations are measured with the same client fleet
logic:

* ``w1`` — the historical single-thread in-process service (one worker
  thread, two queue slots).  This is the committed baseline the p95
  guarantee was written against: overload must *shed*, not slow the
  admitted work down.
* ``w2`` / ``w4`` — pool mode (``worker_processes=2|4``) with the queue
  scaled to the worker count, exercising the compile/execute split, the
  shared plan-artifact cache and cross-worker single-flight coalescing.

For every offered load (client fleets at 1x / 2x / 4x the configuration's
worker count) the bench reports p50/p95/p99 latency of admitted
requests, the shed rate, and **throughput** (ok responses per wall
second) plus **throughput-per-core** (throughput divided by the cores
the configuration can actually use, ``min(workers, cpu_count)``) — the
honest scale-out number on a small machine.

Acceptance gates (``check``):

* every configuration: only clean outcomes under load, counters
  reconcile;
* ``w1``: admitted p95 at peak stays within ``MAX_P95_RATIO`` of the
  single-client p95 (the original serving guarantee, unchanged);
* ``w4`` at 4x load: throughput at least ``MIN_SCALEOUT_SPEEDUP`` times
  the ``w1`` peak throughput, and shed rate at most
  ``MAX_SCALEOUT_SHED_RATE`` (the scale-out acceptance criteria).

The result cache runs with ``ttl=0`` so every admitted request does real
engine work (single-flight coalescing still applies, as it would in
production); numbers are written to ``BENCH_service.json`` (a run
output, not committed).

Run standalone (``python benchmarks/bench_service.py``) or via
``pytest benchmarks/bench_service.py``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets import university_database  # noqa: E402
from repro.engine import KeywordSearchEngine  # noqa: E402
from repro.service import QueryService, ServiceConfig, ServiceRequest  # noqa: E402

# Worker-process sweep.  w1 keeps the historical shape — one worker
# thread, two queue slots, no process tier — because the engine is
# pure-Python CPU work and extra *threads* only time-slice the GIL; the
# pool configurations scale the queue with the worker count so admission
# control sheds on genuine overload, not on a two-slot artifact.
SWEEP = (
    {"name": "w1", "worker_processes": 0, "threads": 1, "queue_limit": 2},
    {"name": "w2", "worker_processes": 2, "threads": 4, "queue_limit": 16},
    {"name": "w4", "worker_processes": 4, "threads": 8, "queue_limit": 32},
)
MULTIPLIERS = (1, 2, 4)  # client fleets as multiples of the worker count
REQUESTS_PER_LEVEL = 192
SINGLE_CLIENT_REQUESTS = 48
MAX_P95_RATIO = 3.0  # w1: admitted p95 at 4x load vs single-client p95
MIN_SCALEOUT_SPEEDUP = 2.0  # w4 peak throughput vs w1 peak throughput
MAX_SCALEOUT_SHED_RATE = 0.10  # w4 at 4x load

QUERIES = [
    "COUNT Lecturer GROUPBY Course",
    "Green SUM Credit",
    "COUNT Student GROUPBY Course",
    "AVG Credit",
    "COUNT Student",
    "COUNT Student GROUPBY Grade",
    "COUNT Enrol",
    "MAX COUNT Student",
]

_HERE = Path(__file__).resolve().parent
RESULT_PATH = _HERE / "BENCH_service.json"


def _build_service(spec: Dict[str, object]) -> QueryService:
    engine = KeywordSearchEngine(university_database())
    service = QueryService(
        ServiceConfig(
            max_workers=int(spec["threads"]),
            queue_limit=int(spec["queue_limit"]),
            cache_ttl_s=0.0,  # every admitted request does real work
            default_deadline_s=30.0,
            worker_processes=int(spec["worker_processes"]),
        )
    )
    service.register_dataset("university", engine)
    return service


def percentile(samples: List[float], q: float) -> float:
    """The *q*-quantile (0..1) by nearest-rank on sorted samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _run_clients(
    service: QueryService, clients: int, total_requests: int
) -> Dict[str, object]:
    """Closed-loop fleet: each client fires its share back-to-back.

    Returns the per-request records plus the fleet's wall-clock seconds
    (start of the first client to the finish of the last), which is what
    throughput is computed from."""
    per_client = total_requests // clients
    records: List[Dict[str, object]] = []
    lock = threading.Lock()
    # all clients block on the barrier until the whole fleet exists, so
    # thread start-up cost never counts against the measured wall clock
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        barrier.wait(30.0)
        for i in range(per_client):
            query = QUERIES[(index * per_client + i) % len(QUERIES)]
            started = time.perf_counter()
            response = service.serve(
                ServiceRequest(query=query), timeout=120.0
            )
            latency_ms = (time.perf_counter() - started) * 1000.0
            with lock:
                records.append(
                    {"status": response.status, "latency_ms": latency_ms}
                )

    threads = [
        threading.Thread(
            target=client, args=(index,), name=f"bench-client-{index}", daemon=True
        )
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(30.0)
    fleet_started = time.perf_counter()
    for thread in threads:
        thread.join(300.0)
    wall_s = time.perf_counter() - fleet_started
    assert not any(thread.is_alive() for thread in threads), "client hang"
    return {"records": records, "wall_s": wall_s}


def _summarize(run: Dict[str, object], cores: int) -> Dict[str, object]:
    records = run["records"]
    wall_s = max(float(run["wall_s"]), 1e-9)
    admitted = [
        float(record["latency_ms"])
        for record in records
        if record["status"] == "ok"
    ]
    shed = sum(1 for record in records if record["status"] == "shed")
    other = sorted(
        {
            str(record["status"])
            for record in records
            if record["status"] not in ("ok", "shed")
        }
    )
    throughput = len(admitted) / wall_s
    return {
        "requests": len(records),
        "admitted": len(admitted),
        "shed": shed,
        "shed_rate": shed / len(records) if records else 0.0,
        "unexpected_statuses": other,
        "p50_ms": percentile(admitted, 0.50),
        "p95_ms": percentile(admitted, 0.95),
        "p99_ms": percentile(admitted, 0.99),
        "wall_s": wall_s,
        "throughput_rps": throughput,
        "throughput_per_core_rps": throughput / cores,
    }


def _measure_config(spec: Dict[str, object]) -> Dict[str, object]:
    workers = int(spec["worker_processes"])
    cores = max(1, min(workers or 1, os.cpu_count() or 1))
    service = _build_service(spec)
    with service:
        # warm the engines (pattern + plan caches) outside the timings
        _run_clients(service, 1, 2 * len(QUERIES))
        single = _summarize(
            _run_clients(service, 1, SINGLE_CLIENT_REQUESTS), cores
        )
        fleet_unit = workers or 1
        loads: Dict[str, Dict[str, object]] = {}
        for multiplier in MULTIPLIERS:
            loads[f"{multiplier}x"] = _summarize(
                _run_clients(
                    service, fleet_unit * multiplier, REQUESTS_PER_LEVEL
                ),
                cores,
            )
        counters = service.metrics_snapshot()["service"]["counters"]
    peak = loads[f"{MULTIPLIERS[-1]}x"]
    single_p95 = float(single["p95_ms"]) or 1e-9
    return {
        "name": spec["name"],
        "worker_processes": workers,
        "threads": int(spec["threads"]),
        "queue_limit": int(spec["queue_limit"]),
        "cores_used": cores,
        "single_client": single,
        "loads": loads,
        "p95_ratio_at_peak": float(peak["p95_ms"]) / single_p95,
        "shed_rate_at_peak": float(peak["shed_rate"]),
        "throughput_at_peak_rps": float(peak["throughput_rps"]),
        "throughput_per_core_at_peak_rps": float(
            peak["throughput_per_core_rps"]
        ),
        "counters_reconcile": counters["requests_admitted"]
        == counters.get("result_cache_hits", 0)
        + counters.get("result_cache_misses", 0)
        + counters.get("singleflight_coalesced", 0),
    }


def measure() -> Dict[str, object]:
    configs = {spec["name"]: _measure_config(spec) for spec in SWEEP}
    w1 = configs["w1"]
    w4 = configs["w4"]
    base_throughput = float(w1["throughput_at_peak_rps"]) or 1e-9
    return {
        "cpu_count": os.cpu_count() or 1,
        "configs": configs,
        "scaleout": {
            "speedup_at_peak_w4_vs_w1": float(w4["throughput_at_peak_rps"])
            / base_throughput,
            "shed_rate_at_peak_w4": float(w4["shed_rate_at_peak"]),
        },
    }


def check(result: Dict[str, object]) -> List[str]:
    """Failure messages (empty when the serving guarantees hold)."""
    failures: List[str] = []
    for name, config in result["configs"].items():
        for level, summary in config["loads"].items():
            if summary["unexpected_statuses"]:
                failures.append(
                    f"{name} {level}: non-clean outcomes under load: "
                    f"{summary['unexpected_statuses']}"
                )
            if summary["admitted"] == 0:
                failures.append(f"{name} {level}: no requests admitted at all")
        if not config["counters_reconcile"]:
            failures.append(f"{name}: counters do not reconcile after the run")
    # the original single-worker guarantee: overload sheds, the admitted
    # work does not slow down
    w1_ratio = float(result["configs"]["w1"]["p95_ratio_at_peak"])
    if w1_ratio > MAX_P95_RATIO:
        failures.append(
            f"w1: admitted p95 at peak load is {w1_ratio:.2f}x the "
            f"single-client p95 (allowed: {MAX_P95_RATIO:.1f}x) — overload "
            f"must shed, not slow down"
        )
    # the scale-out acceptance criteria: w4 at 4x load beats the w1
    # baseline by MIN_SCALEOUT_SPEEDUP and sheds almost nothing
    scaleout = result["scaleout"]
    speedup = float(scaleout["speedup_at_peak_w4_vs_w1"])
    if speedup < MIN_SCALEOUT_SPEEDUP:
        failures.append(
            f"w4 peak throughput is only {speedup:.2f}x the w1 baseline "
            f"(required: >= {MIN_SCALEOUT_SPEEDUP:.1f}x)"
        )
    shed_rate = float(scaleout["shed_rate_at_peak_w4"])
    if shed_rate > MAX_SCALEOUT_SHED_RATE:
        failures.append(
            f"w4 shed rate at 4x load is {100.0 * shed_rate:.0f}% "
            f"(allowed: <= {100.0 * MAX_SCALEOUT_SHED_RATE:.0f}%)"
        )
    return failures


def write_result(result: Dict[str, object]) -> None:
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_result(result: Dict[str, object]) -> str:
    lines: List[str] = []
    for name, config in result["configs"].items():
        lines.append(
            f"{name}: {config['worker_processes']} worker processes, "
            f"{config['threads']} threads, queue {config['queue_limit']}, "
            f"single-client p95 {config['single_client']['p95_ms']:.1f} ms"
        )
        for level, summary in config["loads"].items():
            lines.append(
                f"  {level:>3} load: p50 {summary['p50_ms']:.1f} ms, "
                f"p95 {summary['p95_ms']:.1f} ms, "
                f"p99 {summary['p99_ms']:.1f} ms, "
                f"shed {100.0 * summary['shed_rate']:.0f}% "
                f"({summary['shed']}/{summary['requests']}), "
                f"{summary['throughput_rps']:.0f} rps "
                f"({summary['throughput_per_core_rps']:.0f} rps/core)"
            )
    scaleout = result["scaleout"]
    lines.append(
        f"scale-out: w4 peak throughput "
        f"{scaleout['speedup_at_peak_w4_vs_w1']:.2f}x the w1 baseline "
        f"(required {MIN_SCALEOUT_SPEEDUP:.1f}x), shed "
        f"{100.0 * scaleout['shed_rate_at_peak_w4']:.0f}% "
        f"(allowed {100.0 * MAX_SCALEOUT_SHED_RATE:.0f}%)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest wiring (collected by `pytest benchmarks/`)
# ----------------------------------------------------------------------
_RESULT_CACHE: Optional[Dict[str, object]] = None


def _measured() -> Dict[str, object]:
    global _RESULT_CACHE
    if _RESULT_CACHE is None:
        _RESULT_CACHE = measure()
        write_result(_RESULT_CACHE)
    return _RESULT_CACHE


def test_service_survives_overload_and_scales_out():
    result = _measured()
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
