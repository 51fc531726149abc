"""Self-test of the benchmark (not of the program it measures).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  Every
run here is a ``--smoke`` run: SF 1, one set-up, a second or two of load;
its numbers compare with nothing.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _smoke(tmp_path, capsys, workload: str, trace: int, seconds: float = 1.5):
    """One smoke run in this process: (exit status, last-line result)."""
    status = run.main([
        "--workload", workload, "--trace", str(trace), "--smoke",
        "--seconds", str(seconds), "--seed", "5",
        "--out", str(tmp_path / "BENCH_e2e.json"),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert "SMOKE (not comparable)" in lines[0]
    return status, json.loads(lines[-1])


def _check_metrics(result, declared) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_yields_every_end_to_end_metric(tmp_path, capsys, workload):
    status, result = _smoke(tmp_path, capsys, workload, trace=0)
    assert status == 0
    _check_metrics(result, run.load_contract()["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_smoke_yields_every_per_layer_metric(tmp_path, capsys):
    # one workload is enough: every traced run measures every layer
    status, result = _smoke(tmp_path, capsys, "tpch_disk", trace=1)
    assert status == 0
    _check_metrics(result, run.load_contract()["per_layer"])
    with open(tmp_path / "run-tpch_disk-trace1.json", encoding="utf-8") as handle:
        record = json.load(handle)
    names = {span["name"] for span in record["spans"]}
    assert {"request", "service.http", "service.serve", "backends.execute",
            "storage.added", "relational.execute"} <= names
    assert len(record["top_costs"]) == 5


def test_a_wrong_answer_is_a_failed_operation(tmp_path, capsys, monkeypatch):
    honest = workloads.compute_oracle

    def tampered(stack, ops):
        oracle = honest(stack, ops)
        key = next(key for key, rows in oracle.items() if rows)
        oracle[key] = [tuple(reversed(oracle[key][0]))] + oracle[key][1:] + [(0,)]
        return oracle

    monkeypatch.setattr(workloads, "compute_oracle", tampered)
    status, result = _smoke(tmp_path, capsys, "tpch_memory", trace=0, seconds=1.0)
    assert status != 0
    assert result["failed"] > 0 and not result["correct"]


def test_streams_are_a_function_of_the_seed():
    for name in ("interpret_cold", "serve_churn", "tpch_memory"):
        workload = workloads.make_workload(name, workloads.SMOKE)
        stack = workload.build()
        try:
            first = workload.base_ops(7, stack)
            again = workload.base_ops(7, stack)
            other = workload.base_ops(8, stack)
        finally:
            stack.close()
        assert workloads.stream_sha256(first) == workloads.stream_sha256(again)
        assert len(first) == len(other)
        assert [op.kind for op in first] == [op.kind for op in other]
        if name == "interpret_cold":
            assert len({(op.dataset, op.query) for op in first}) == len(first)
            assert [op.query for op in first] != [op.query for op in other]
        if name == "serve_churn":
            assert [op.rows for op in first] != [op.rows for op in other]
            assert [op.query for op in first] == [op.query for op in other]


def test_the_loop_runs_whole_rounds_and_marks_each():
    class Connection:
        def close(self) -> None:
            pass

    def execute(connection, op):
        now = time.perf_counter()
        return loadgen.Sample(op, now, now, 200, b"")

    samples, marks = loadgen.run_closed_loop(
        Connection, itertools.count(), 2, 0.05, execute, 7)
    assert samples and len(samples) % 7 == 0
    assert len(marks) == len(samples) // 7 + 1
    assert [sample.op for sample in samples] == list(range(len(samples)))
    assert all(a.wall <= b.wall and a.cpu <= b.cpu for a, b in zip(marks, marks[1:]))


def _document(value: float) -> dict:
    run_record = {
        "workload": "tpch_memory", "trace": 0,
        "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}},
    }
    return {"comparable": True, "runs": [run_record]}


def test_compare_flags_a_regression_past_the_bound(tmp_path, capsys):
    contract = run.load_contract()
    bound = next(m["bound"] for m in contract["end_to_end"]
                 if m["name"] == "latency_p50_ms")
    paths = {}
    for label, value in (("base", 100.0), ("over", 100.0 * (1 + bound * 1.1)),
                         ("under", 100.0 * (1 + bound * 0.9))):
        paths[label] = str(tmp_path / f"{label}.json")
        with open(paths[label], "w", encoding="utf-8") as handle:
            json.dump(_document(value), handle)
    assert compare.main([paths["base"], paths["over"]]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([paths["base"], paths["under"]]) == 0
    assert compare.main([paths["over"], paths["base"]]) == 0  # an improvement


def test_compare_reports_noise_as_unresolved():
    noisy = [100.0, 130.0, 90.0, 120.0]
    assert compare.judge(noisy, [x * 1.12 for x in noisy], "lower", 0.1)[1] == "unresolved"
    assert compare.judge(noisy, [150.0, 160.0], "lower", 0.1)[1] == "worse"
    assert compare.judge([10.0, 10.1], [10.2, 10.3], "higher", 0.1)[1] == "ok"
