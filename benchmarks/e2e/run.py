#!/usr/bin/env python3
"""End-to-end, per-layer benchmark of the keyword-search service.

    python benchmarks/e2e/run.py                       # all four workloads
    python benchmarks/e2e/run.py --workload tpch_disk --seed 7 --seconds 20 --trace 0

With ``--workload`` this process runs that one workload and prints, as
the last line of its output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0`` (tracing off), the per-layer metrics with ``--trace 1``
(a traced replay).  Without ``--workload`` it runs every workload both
ways, each in a fresh subprocess so memory and caches are per workload,
and writes all runs to ``--out``.

The benchmark claims no gain; it is the ruler later changes are measured
with.  See ``README.md`` beside this file for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import repro  # noqa: E402,F401 - fails here, before any output, without src/

import loadgen  # noqa: E402
import workloads  # noqa: E402

DEFAULT_OUT = os.path.join(HERE, "out", "BENCH_e2e.json")
DEFAULT_SEED = 2016
#: cold set-ups per run; ``setup_s`` is their lower quartile
SETUP_REPEATS = 3
#: write cycles of a workload without writes of its own: half before
#: the measured phase and half after it, so that one noisy spell of the
#: machine cannot cover them all
WRITE_CYCLES = 6
#: metrics taken once per round of the request mix and reported as the
#: quiet quartile of the rounds (``loadgen.quiet_of``)
ROUND_METRICS = (
    "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_request",
    "scan_p50_ms", "probe_p50_ms",
)


class PhaseClock:
    """Wall seconds of each phase of a run, for the report."""

    def __init__(self) -> None:
        self.laps: List[Tuple[str, float]] = []
        self.last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.laps.append((name, now - self.last))
        self.last = now

    def line(self) -> str:
        return "wall of this run: " + ", ".join(
            f"{name} {seconds:.1f} s" for name, seconds in self.laps
        )


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One workload, tracing off: the end-to-end metrics
# ----------------------------------------------------------------------
def cold_setups(workload: workloads.Workload, repeats: int) -> Tuple[workloads.Stack, List[float]]:
    """Set up *repeats* times from scratch; keeps the last stack."""
    times: List[float] = []
    stack: Optional[workloads.Stack] = None
    for _ in range(repeats):
        if stack is not None:
            stack.close()
        start = time.perf_counter()
        stack = workload.build()
        times.append(time.perf_counter() - start)
    assert stack is not None
    return stack, times


def run_cycles(
    stack: workloads.Stack, cycles: Sequence[Sequence[workloads.Op]]
) -> List[loadgen.Sample]:
    """Run write cycles one operation at a time on one connection.

    A connection's first reply comes without the keep-alive idle (README,
    Findings 1) and every later one with it, so one request is sent and
    dropped first: every probe is then timed as a session's request is.
    """
    connection = stack.connect()
    try:
        loadgen.get(connection, "/healthz")
        return [stack.execute(connection, op) for cycle in cycles for op in cycle]
    finally:
        connection.close()


def round_values(
    samples: Sequence[loadgen.Sample], marks: Sequence[loadgen.Mark], round_len: int
) -> Dict[str, List[float]]:
    """Per round of the request mix, the values the timing metrics are
    taken from: quantiles of the round's GET latencies, and the CPU the
    process spent between the round's start and the next one's."""
    values: Dict[str, List[float]] = {name: [] for name in ROUND_METRICS}
    for index in range(len(marks) - 1):
        gets = [
            s for s in samples[index * round_len:(index + 1) * round_len]
            if s.op.kind == "get"
        ]
        latencies = [s.latency_ms for s in gets]
        values["latency_p50_ms"].append(statistics.median(latencies))
        values["latency_p90_ms"].append(loadgen.percentile(latencies, 0.90))
        values["cpu_ms_per_request"].append(
            (marks[index + 1].cpu - marks[index].cpu) * 1000.0 / len(gets)
        )
        for cls in ("scan", "probe"):
            values[f"{cls}_p50_ms"].append(statistics.median(
                s.latency_ms for s in gets if s.op.cls == cls and s.op.phase != "hit"
            ))
    return values


def measure(
    workload: workloads.Workload, seed: int, seconds: float, setup_repeats: int
) -> Dict[str, Any]:
    clock = PhaseClock()
    stack, setups = cold_setups(workload, setup_repeats)
    clock.lap("set-ups")
    try:
        base_ops = workload.base_ops(seed, stack)
        footprint = workloads.disk_bytes_per_user_byte(stack)
        cycles = workload.write_cycles(seed, stack, WRITE_CYCLES)
        written = run_cycles(stack, cycles[: len(cycles) // 2])
        oracle = (
            {} if workload.cold or workload.writes
            else workloads.compute_oracle(stack, base_ops)
        )
        clock.lap("footprint, first write cycles, oracle")
        samples, marks = loadgen.run_closed_loop(
            stack.connect, workload.stream(seed, stack), workload.clients,
            seconds, stack.execute, workload.round_len,
        )
        clock.lap("measured phase")
        if workload.cold:  # computed only now: the oracle compiles the texts
            oracle = workloads.compute_oracle(
                stack, [s.op for s in samples[:: workloads.ORACLE_SAMPLE_EVERY]]
            )
        written += run_cycles(stack, cycles[len(cycles) // 2:])
        clock.lap("last write cycles")
    finally:
        stack.close()

    if workload.writes:
        verdicts = workloads.verify_cycles(samples)
        visible = workloads.write_visible_ms(samples, verdicts)
        verdicts_all = verdicts
    else:
        verdicts = workloads.verify_reads(samples, oracle)
        written_verdicts = workloads.verify_cycles(written)
        visible = workloads.write_visible_ms(written, written_verdicts)
        verdicts_all = verdicts + written_verdicts
    gets = sum(1 for s in samples if s.op.kind == "get")
    correct = sum(1 for s, ok in zip(samples, verdicts) if ok and s.op.kind == "get")
    wall = marks[-1].wall - marks[0].wall
    rounds = round_values(samples, marks, workload.round_len)
    rounds["write_visible_p50_ms"] = visible
    clock.lap("verification")

    metrics: Dict[str, loadgen.Metric] = {
        "setup_s": loadgen.quiet_of(setups, "s"),
        "throughput_rps": (correct / wall, "1/s", correct),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
        ),
        "disk_bytes_per_user_byte": (footprint, "ratio", 1),
    }
    for name, values in rounds.items():
        metrics[name] = loadgen.quiet_of(values)
    return {
        "attempted": len(verdicts_all),
        "failed": sum(1 for ok in verdicts_all if not ok),
        "metrics": metrics,
        "workload_sha256": workloads.stream_sha256(base_ops),
        "report": [clock.line(), f"requests in the measured phase: {gets} GETs "
                   f"in {len(marks) - 1} rounds of {workload.round_len} operations"],
        "rounds": rounds,
    }


# ----------------------------------------------------------------------
# Driving one workload / all workloads
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    # every temporary file (disk backend, footprint) stays in the checkout
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    tempfile.tempdir = scratch
    try:
        scale = workloads.SMOKE if args.smoke else workloads.FULL
        workload = workloads.make_workload(args.workload, scale)
        if args.trace:
            import layers

            result = layers.traced_run(workload, args.seed, args.seconds)
        else:
            result = measure(
                workload, args.seed, args.seconds,
                1 if args.smoke else SETUP_REPEATS,
            )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    contract = load_contract()
    declared = contract["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}" + (" SMOKE (not comparable)" if args.smoke else ""))
    for line in result.get("report", []):
        print(line)
    for entry in declared:
        value, unit, count = metrics[entry["name"]]
        print(f"{entry['name']:<36} {value:>14.4f} {unit:<6} (n={count})")
    failed = result["failed"]
    print(f"attempted={result['attempted']} failed={failed} "
          f"failed_share={failed / result['attempted']:.6f}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "workload_sha256": result["workload_sha256"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": count}
            for name, (value, unit, count) in metrics.items()
        },
    }
    for key in ("rounds", "spans", "shares", "top_costs", "crosscheck"):
        if key in result:
            record[key] = result[key]
    with open(_run_file(args.out, args.workload, args.trace), "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            entry["name"]: {
                "value": metrics[entry["name"]][0], "unit": metrics[entry["name"]][1],
            }
            for entry in declared
        },
    }))
    return 0 if failed == 0 else 1


def _run_file(out: str, workload: str, trace: int) -> str:
    return os.path.join(
        os.path.dirname(os.path.abspath(out)), f"run-{workload}-trace{trace}.json"
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload, tracing off then on, each in a fresh subprocess."""
    runs: List[Dict[str, Any]] = []
    status = 0
    for _ in range(args.repeat):
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", args.out,
                ] + (["--smoke"] if args.smoke else [])
                completed = subprocess.run(command)
                status = status or completed.returncode
                path = _run_file(args.out, name, trace)
                if completed.returncode in (0, 1) and os.path.exists(path):
                    with open(path, encoding="utf-8") as handle:
                        runs.append(json.load(handle))
                    os.unlink(path)
    summary = {
        "benchmark": "e2e",
        "comparable": not args.smoke,
        "runs": runs,
        "claim": None,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "out": args.out, "runs": len(runs), "failed": failed,
        "comparable": not args.smoke, "claim": None,
    }))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", "--duration", type=float, default=None,
        help="measured phase per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="without --workload: runs per workload, for compare.py's spread",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="SF 1 and one set-up: proves the benchmark works, compares with nothing",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
