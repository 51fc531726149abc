"""The differential harness: memory vs SQLite on the whole workload.

The parametrized sweep below is the acceptance bar for the backend
subsystem: every statement the pipeline generates for the experiment
query sets — including the §4.1 fragment-rewritten SQL on the
unnormalized tpch/acmdl datasets — must produce the same canonical row
multiset on the in-memory engine and on real SQLite.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from repro.backends import MemoryBackend, SqliteBackend, create_backend
from repro.backends.differential import (
    DIFF_DATASETS,
    DiffReport,
    collect_statements,
    diff_dataset,
    diff_statement,
    run_diff,
)
from repro.datasets import university_database
from repro.observability import Tracer
from repro.sql.parser import parse
from repro.sql.render import render


@pytest.mark.parametrize("dataset", DIFF_DATASETS)
def test_workload_agrees_on_both_backends(dataset):
    report = diff_dataset(dataset)
    assert report.statements > 0
    assert report.ok, "\n".join(m.render() for m in report.mismatches)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("dataset", DIFF_DATASETS)
def test_rows_and_their_order_equal_the_recorded_ones(dataset):
    """``golden_rows.json`` holds, per statement of the sweep, a digest
    of its SQL and of ``(columns, rows)`` as the row-tuple executor
    before the column operators produced them, identical on memory and
    disk.  Row *order* is not part of any backend's contract (the
    differential compares multisets); it is pinned here so that a change
    to the executor that reorders groups or join output is a decision,
    not an accident."""
    path = os.path.join(os.path.dirname(__file__), "golden_rows.json")
    with open(path, encoding="utf-8") as handle:
        recorded = json.load(handle)[dataset]
    database, statements = collect_statements(dataset)
    assert [
        [qid, source, _digest(render(select))] for qid, source, select in statements
    ] == [entry[:3] for entry in recorded]
    backends = [create_backend(name, database) for name in ("memory", "disk")]
    try:
        for (qid, _, select), entry in zip(statements, recorded):
            for backend in backends:
                result = backend.execute(select)
                assert _digest(repr((result.columns, result.rows))) == entry[3], (
                    backend.name, qid, render(select)
                )
    finally:
        for backend in backends:
            backend.close()


def test_unnormalized_statements_are_rewritten_sql(tpch_unnorm):
    # §4.1: on the denormalized database every generated statement reads
    # the base table, not the synthesized normalized-view fragments.
    database, statements = collect_statements("tpch-unnorm", k=5, skip_sqak=True)
    assert statements
    base_tables = {relation.name for relation in database.schema}
    for _, source, select in statements:
        assert source == "semantic"
        sql = render(select)
        assert any(table in sql for table in base_tables), sql


def test_sqak_statements_included_for_experiment_datasets():
    _, statements = collect_statements("tpch", k=3)
    sources = {source for _, source, _ in statements}
    assert sources == {"semantic", "sqak"}
    _, skipped = collect_statements("tpch", k=3, skip_sqak=True)
    assert {source for _, source, _ in skipped} == {"semantic"}
    assert len(skipped) < len(statements)


def test_university_workload_is_semantic_only():
    _, statements = collect_statements("university", k=3)
    assert statements
    assert {source for _, source, _ in statements} == {"semantic"}


class TestDiffStatement:
    def _backends(self, left_db, right_db):
        memory = MemoryBackend()
        memory.load(left_db)
        sqlite = SqliteBackend()
        sqlite.load(right_db)
        return memory, sqlite

    def test_agreement_returns_none_and_counts(self, university_db):
        memory, sqlite = self._backends(university_db, university_db)
        tracer = Tracer()
        try:
            detail = diff_statement(
                memory, sqlite, parse("SELECT COUNT(*) FROM Student"), tracer
            )
        finally:
            sqlite.close()
        assert detail is None
        counters = tracer.registry.snapshot()["counters"]
        assert counters.get("diff_queries") == 1
        assert "diff_mismatches" not in counters

    def test_disagreement_is_described_and_counted(self, university_db):
        drifted = university_database()
        drifted.insert_dict("Student", {"Sid": 999, "Sname": "Newton", "Age": 30})
        memory, sqlite = self._backends(university_db, drifted)
        tracer = Tracer()
        try:
            detail = diff_statement(
                memory, sqlite, parse("SELECT COUNT(*) FROM Student"), tracer
            )
        finally:
            sqlite.close()
        assert detail is not None
        assert "memory=" in detail and "sqlite=" in detail
        assert tracer.registry.snapshot()["counters"].get("diff_mismatches") == 1

    def test_backend_error_becomes_a_mismatch(self, university_db):
        memory, sqlite = self._backends(university_db, university_db)
        try:
            detail = diff_statement(
                memory, sqlite, parse("SELECT Sid FROM NoSuchTable")
            )
        finally:
            sqlite.close()
        assert detail is not None and "backend error" in detail


class TestRunDiff:
    def test_clean_dataset_exits_zero(self):
        out = io.StringIO()
        code = run_diff(["--dataset", "university"], out)
        text = out.getvalue()
        assert code == 0
        assert "university:" in text and "ok" in text
        assert "0 mismatches" in text

    def test_flags_restrict_the_sweep(self):
        out = io.StringIO()
        code = run_diff(
            ["--dataset", "university", "--dataset", "enrolment", "--top", "2"],
            out,
        )
        text = out.getvalue()
        assert code == 0
        assert "enrolment:" in text
        assert "tpch" not in text

    def test_mismatch_reports_render_their_context(self):
        report = DiffReport()
        report.statements = 1
        from repro.backends.differential import Mismatch

        report.mismatches.append(
            Mismatch("university", "U1", "semantic", "SELECT ...", "memory=... vs sqlite=...")
        )
        assert not report.ok
        assert "U1" in report.mismatches[0].render()
