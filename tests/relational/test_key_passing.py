"""Sideways key passing into derived tables, and DISTINCT elision.

A derived scan that a decided join step reaches runs when the step
does; where the other side is already built its distinct join keys go
down to the base-table scan behind the join column, which starts from an
index when that costs less than the sequential scan.  Every test
compares against ``CompiledPlan(select, db)`` — no optimizer, so nothing
deferred, filtered or re-ordered — and reads the tracer to see whether
the filter fired.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.backends.normalize import rows_match
from repro.cancellation import CancellationToken, cancellation_scope
from repro.errors import DeadlineExceededError
from repro.observability import Tracer
from repro.planner import DP_RELATION_LIMIT
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.plan import CompiledPlan
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.sql.parser import parse
from repro.storage.heap import HeapFile

INT, FLOAT, TEXT = DataType.INT, DataType.FLOAT, DataType.TEXT

FACT_ROWS = 3000
REFS = 300


def fact_database() -> Database:
    """``Fact`` is the big relationship-like table (each ref/label value
    on ten rows with five distinct qty, NULL on every 50th row);
    ``Item`` and ``Dim`` are small."""
    schema = DatabaseSchema("keys")
    schema.add_relation(
        "Item",
        [("id", INT), ("ref", INT), ("label", TEXT), ("amount", FLOAT)],
        ["id"],
    )
    schema.add_relation(
        "Fact",
        [("fid", INT), ("ref", INT), ("label", TEXT), ("qty", INT)],
        ["fid"],
    )
    schema.add_relation("Dim", [("qty", INT), ("size", TEXT)], ["qty"])
    db = Database(schema)
    db.load(
        "Item",
        [
            (1, 7, "L007", 7.0),
            (2, 8, "L008", 8.0),
            (3, None, None, None),
            (4, 999, "nowhere", 999.5),
        ],
    )
    db.load(
        "Fact",
        [
            (
                fid,
                None if fid % 50 == 0 else fid % REFS,
                None if fid % 50 == 0 else f"L{fid % REFS:03d}",
                fid // REFS % 5,
            )
            for fid in range(FACT_ROWS)
        ],
    )
    db.load("Dim", [(q, f"size-{q}") for q in range(5)])
    return db


@pytest.fixture(scope="module")
def db() -> Database:
    return fact_database()


@pytest.fixture(scope="module")
def executor(db) -> Executor:
    return Executor(db)


def run(executor, sql):
    """(plan, result, counters) of one traced execution of *sql*."""
    select = parse(sql)
    tracer = Tracer()
    with tracer.span("run"):
        plan = executor.plan_for(select, tracer)
        result = plan.execute(tracer)
    return plan, result, tracer.trace.counters()


def reference(db, sql):
    plan = CompiledPlan(parse(sql), db)
    assert plan.decisions is None and not plan.deferred
    return plan.execute()


def assert_pushed(db, executor, sql, filters=1):
    plan, result, counters = run(executor, sql)
    assert counters.get("key_filters_pushed", 0) == filters, plan.explain()
    assert result == reference(db, sql)
    return plan, result, counters


def assert_not_pushed(db, executor, sql):
    plan, result, counters = run(executor, sql)
    assert "key_filters_pushed" not in counters, plan.explain()
    assert result == reference(db, sql)
    return plan, result, counters


JOIN_ON_REF = (
    "SELECT I.id, COUNT(F.qty) AS n FROM (SELECT DISTINCT ref, qty FROM Fact) F, "
    "Item I WHERE F.ref = I.ref AND I.id < 3 GROUP BY I.id"
)


class TestKeyFilter:
    def test_keys_reach_the_base_scan_through_the_index(self, db, executor):
        plan, result, counters = assert_pushed(db, executor, JOIN_ON_REF)
        assert plan.deferred == {"F"}
        assert counters["key_filter_keys"] == 2
        # 2 refs x 10 rows each fetched, not the 3000-row table
        assert counters["rows_scanned"] == 20 + len(db.table("Item").rows)
        assert sorted(result.rows) == [(1, 5), (2, 5)]
        explained = plan.explain()
        assert "keys from I.ref (2) via NumericIndex[Fact.ref] → 10 rows" in explained

    def test_explain_forecasts_before_any_execution(self, db):
        plan = Executor(db).plan_for(parse(JOIN_ON_REF))
        assert plan.last_run is None
        assert "keys from I.ref (est≈" in plan.explain()
        assert "via NumericIndex[Fact.ref] → est≈" in plan.explain()

    def test_too_many_keys_are_left_to_the_hash_join(self, db, executor):
        # every Fact.ref value is a key: probing 300 times costs more
        # than reading 3000 rows once
        sql = (
            "SELECT COUNT(F.qty) AS n FROM (SELECT DISTINCT ref, qty FROM Fact) F, "
            "(SELECT DISTINCT ref FROM Fact) G WHERE F.ref = G.ref"
        )
        plan, _, _ = assert_not_pushed(db, executor, sql)
        assert "not pushed (a sequential scan costs less)" in plan.explain()

    def test_null_keys_on_either_side_never_match(self, db, executor):
        # Item 3 has a NULL ref, every 50th Fact row too
        sql = (
            "SELECT I.id, F.qty FROM (SELECT DISTINCT ref, qty FROM Fact) F, Item I "
            "WHERE F.ref = I.ref AND I.id > 1"
        )
        _, result, counters = assert_pushed(db, executor, sql)
        assert counters["key_filter_keys"] == 2  # 8 and 999; NULL dropped
        assert {row[0] for row in result.rows} == {2}

    def test_empty_key_set_reads_nothing(self, db, executor):
        sql = (
            "SELECT COUNT(F.qty) AS n FROM (SELECT DISTINCT ref, qty FROM Fact) F, "
            "Item I WHERE F.ref = I.ref AND I.id = 3"
        )
        _, result, counters = assert_pushed(db, executor, sql)
        assert counters.get("key_filter_keys", 0) == 0
        # nothing of Fact: the four Item rows are all that is read
        assert counters["rows_scanned"] == len(db.table("Item").rows)
        assert result.rows == [(0,)]

    def test_empty_key_set_touches_no_table_page_on_disk(self, db, monkeypatch):
        sql = (
            "SELECT COUNT(F.qty) AS n FROM (SELECT DISTINCT ref, qty FROM Fact) F, "
            "Item I WHERE F.ref = I.ref AND I.id = 3"
        )
        touched = []
        original = HeapFile._page

        def recording(self, page_no, indexes):
            touched.append(self.schema.name)
            return original(self, page_no, indexes)

        backend = create_backend("disk", db, pool_capacity=8)
        try:
            backend.execute(parse(sql))  # plan, statistics, indexes warm
            monkeypatch.setattr(HeapFile, "_page", recording)
            assert backend.execute(parse(sql)).rows == [(0,)]
        finally:
            backend.close()
        assert "Fact" not in touched

    def test_int_column_matches_float_keys(self, db, executor):
        # 7 == 7.0 under the hash join's dict equality; 999.5 matches nothing
        sql = (
            "SELECT I.id, COUNT(F.qty) AS n FROM (SELECT DISTINCT ref, qty FROM Fact) F, "
            "Item I WHERE F.ref = I.amount GROUP BY I.id"
        )
        _, result, counters = assert_pushed(db, executor, sql)
        assert counters["key_filter_keys"] == 3
        assert sorted(result.rows) == [(1, 5), (2, 5)]

    def test_text_keys_go_through_the_hash_index(self, db, executor):
        sql = (
            "SELECT I.id, COUNT(F.qty) AS n FROM (SELECT DISTINCT label, qty FROM Fact) F, "
            "Item I WHERE F.label = I.label GROUP BY I.id"
        )
        plan, result, _ = assert_pushed(db, executor, sql)
        assert "via HashIndex[Fact.label]" in plan.explain()
        assert sorted(result.rows) == [(1, 5), (2, 5)]

    def test_text_and_numeric_columns_are_never_paired(self, db, executor):
        sql = (
            "SELECT COUNT(F.qty) AS n FROM (SELECT DISTINCT label, qty FROM Fact) F, "
            "Item I WHERE F.label = I.ref"
        )
        plan, result, _ = assert_not_pushed(db, executor, sql)
        assert plan.key_sources == {}
        assert result.rows == [(0,)]

    def test_nested_derived_table(self, db, executor):
        sql = (
            "SELECT I.id, COUNT(F.qty) AS n FROM (SELECT DISTINCT G.r AS ref, G.qty "
            "FROM (SELECT ref AS r, qty, fid FROM Fact) G) F, Item I "
            "WHERE F.ref = I.ref AND I.id < 3 GROUP BY I.id"
        )
        _, result, counters = assert_pushed(db, executor, sql)
        assert counters["rows_scanned"] == 20 + len(db.table("Item").rows)
        assert sorted(result.rows) == [(1, 5), (2, 5)]

    def test_sub_select_with_its_own_join(self, db, executor):
        sql = (
            "SELECT I.id, COUNT(F.size) AS n FROM (SELECT DISTINCT A.ref, D.size "
            "FROM Fact A, Dim D WHERE A.qty = D.qty) F, Item I "
            "WHERE F.ref = I.ref AND I.id < 3 GROUP BY I.id"
        )
        _, result, _ = assert_pushed(db, executor, sql)
        assert sorted(result.rows) == [(1, 5), (2, 5)]

    def test_column_names_are_case_insensitive(self, db, executor):
        sql = (
            "SELECT I.id, COUNT(F.QTY) AS n FROM (SELECT DISTINCT REF, qty FROM Fact) F, "
            "Item I WHERE F.Ref = I.REF AND I.id < 3 GROUP BY I.id"
        )
        _, result, _ = assert_pushed(db, executor, sql)
        assert sorted(result.rows) == [(1, 5), (2, 5)]

    def test_two_conjuncts_intersect(self, db, executor):
        sql = (
            "SELECT I.id, F.qty FROM (SELECT DISTINCT ref, label, qty FROM Fact) F, "
            "Item I WHERE F.ref = I.ref AND F.label = I.label AND I.id < 3"
        )
        _, result, counters = assert_pushed(db, executor, sql, filters=2)
        assert counters["rows_scanned"] == 20 + len(db.table("Item").rows)
        assert len(result.rows) == 10


class TestBailOuts:
    """Each shape leaves the scan unfiltered and the result unchanged."""

    def test_aggregated_sub_select(self, db, executor):
        sql = (
            "SELECT I.id, F.n FROM (SELECT ref, COUNT(fid) AS n FROM Fact "
            "GROUP BY ref) F, Item I WHERE F.ref = I.ref AND I.id < 3"
        )
        plan, result, _ = assert_not_pushed(db, executor, sql)
        assert plan.deferred == {"F"} and plan.key_sources == {}
        assert sorted(result.rows) == [(1, 10), (2, 10)]

    def test_limited_sub_select(self, db, executor):
        sql = (
            "SELECT COUNT(F.qty) AS n FROM (SELECT ref, qty FROM Fact LIMIT 100) F, "
            "Item I WHERE F.ref = I.ref AND I.id < 3"
        )
        _, result, _ = assert_not_pushed(db, executor, sql)
        assert result.rows == [(2,)]  # refs 7 and 8 once each in fids 0..99

    def test_computed_output_column(self, db, executor):
        sql = (
            "SELECT COUNT(F.qty) AS n FROM (SELECT DISTINCT ref + 0 AS ref, qty "
            "FROM Fact) F, Item I WHERE F.ref = I.ref AND I.id < 3"
        )
        _, result, _ = assert_not_pushed(db, executor, sql)
        assert result.rows == [(10,)]

    def test_keys_from_a_computed_column(self, db, executor):
        # the other side's join column is an aggregate, not a base column
        sql = (
            "SELECT COUNT(F.qty) AS n FROM (SELECT DISTINCT ref, qty FROM Fact) F, "
            "(SELECT MAX(ref) AS top FROM Item WHERE id < 3) M WHERE F.ref = M.top"
        )
        _, result, _ = assert_not_pushed(db, executor, sql)
        assert result.rows == [(5,)]

    def test_no_optimizer_no_deferral(self, db):
        plan = CompiledPlan(parse(JOIN_ON_REF), db)
        tracer = Tracer()
        with tracer.span("run"):
            result = plan.execute(tracer)
        assert not plan.deferred
        assert "key_filters_pushed" not in tracer.trace.counters()
        assert tracer.trace.counter("rows_scanned") == FACT_ROWS + 4
        assert sorted(result.rows) == [(1, 5), (2, 5)]

    def test_join_wider_than_the_dp_limit(self, db, executor):
        items = [f"I{i}" for i in range(DP_RELATION_LIMIT)]
        froms = ", ".join(f"Item {alias}" for alias in items)
        chain = " AND ".join(
            f"{a}.id = {b}.id" for a, b in zip(items, items[1:])
        )
        sql = (
            f"SELECT COUNT(F.qty) AS n FROM (SELECT DISTINCT ref, qty FROM Fact) F, "
            f"{froms} WHERE F.ref = I0.ref AND {chain} AND I0.id < 3"
        )
        plan, result, _ = assert_not_pushed(db, executor, sql)
        assert plan.decisions.search == "greedy-runtime" and not plan.deferred
        assert result.rows == [(10,)]


class TestSharedPlan:
    def test_eight_threads_one_cached_plan(self, db, executor):
        plan = executor.plan_for(parse(JOIN_ON_REF))
        assert executor.plan_for(parse(JOIN_ON_REF)) is plan
        expected = sorted(reference(db, JOIN_ON_REF).rows)
        outcomes, errors = [], []

        def worker():
            try:
                for _ in range(25):
                    outcomes.append(sorted(plan.execute().rows))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(outcomes) == 200
        assert all(rows == expected for rows in outcomes)


class TestDeadline:
    def test_deadline_aborts_inside_a_deferred_scan(self):
        schema = DatabaseSchema("explosive")
        schema.add_relation("T", [("id", INT)], ["id"])
        database = Database(schema)
        database.load("T", [(i,) for i in range(150)])
        # the derived table's own triple cross join (3.4M rows of the
        # three columns its parent reads) runs when the step D ⋈ S does;
        # 150 keys over 150 rows are not worth a probe
        sql = (
            "SELECT COUNT(D.b) + COUNT(D.c) FROM (SELECT A.id AS id, B.id AS b, "
            "C.id AS c FROM T A, T B, T C) D, T S WHERE D.id = S.id"
        )
        executor = Executor(database)
        plan = executor.plan_for(parse(sql))
        assert plan.deferred == {"D"}
        started = time.perf_counter()
        assert plan.execute().scalar() == 2 * 150**3
        full = time.perf_counter() - started
        if full < 0.15:
            pytest.skip(f"machine too fast for a meaningful abort ({full:.3f}s)")
        started = time.perf_counter()
        with cancellation_scope(CancellationToken.with_timeout(0.05)):
            with pytest.raises(DeadlineExceededError):
                plan.execute()
        assert time.perf_counter() - started < full * 0.8


class TestDistinctElision:
    @staticmethod
    def elided(db, sql):
        plan = Executor(db).plan_for(parse(sql))
        tracer = Tracer()
        with tracer.span("run"):
            result = plan.execute(tracer)
        assert result == reference(db, sql)
        fired = tracer.trace.counter("distinct_elided") > 0
        assert fired == (plan.distinct_elided_key is not None)
        return plan if fired else None

    def test_fires_when_the_projection_covers_the_key(self, db):
        plan = self.elided(db, "SELECT DISTINCT qty, fid FROM Fact")
        assert "distinct elided (keeps key fid)" in plan.explain()
        assert self.elided(db, "SELECT DISTINCT F.fid FROM Fact F WHERE F.qty = 1")

    def test_composite_key(self, university_db):
        assert self.elided(university_db, "SELECT DISTINCT Grade, Sid, Code FROM Enrol")
        assert not self.elided(university_db, "SELECT DISTINCT Sid, Grade FROM Enrol")

    def test_not_when_a_key_column_is_missing(self, db):
        assert not self.elided(db, "SELECT DISTINCT ref, qty FROM Fact")

    def test_not_when_an_item_is_an_expression(self, db):
        assert not self.elided(db, "SELECT DISTINCT fid + 0 AS fid, qty FROM Fact")

    def test_not_over_a_join(self, db):
        assert not self.elided(
            db,
            "SELECT DISTINCT A.fid, D.qty FROM Fact A, Dim D WHERE A.qty = D.qty",
        )

    def test_not_over_a_derived_table(self, db):
        assert not self.elided(
            db, "SELECT DISTINCT G.fid FROM (SELECT fid, qty FROM Fact) G"
        )

    def test_not_when_aggregated(self, db):
        assert not self.elided(db, "SELECT DISTINCT fid, COUNT(qty) AS n FROM Fact GROUP BY fid")


# ----------------------------------------------------------------------
# Property: generated three-table schemas, a DISTINCT projection of the
# relationship joined to a filtered object table — on its key or on a
# nullable, repeating column; any table possibly empty; one or two GROUP
# BY columns; COUNT alone or a mix of aggregates
# ----------------------------------------------------------------------
small = st.integers(min_value=0, max_value=6)
maybe_small = st.one_of(st.none(), small)

#: (select-list aggregates, whether they read the relationship's w)
AGGREGATES = [
    ("COUNT(D.b) AS n", False),
    ("COUNT(*) AS n, SUM(D.w) AS s, MIN(A.v) AS lo", True),
    (
        "COUNT(DISTINCT D.b) AS n, AVG(D.w) AS m, MAX(D.w) - MIN(D.w) AS spread",
        True,
    ),
]
#: (GROUP BY columns, whether they read the relationship's w)
GROUPS = [("A.id", False), ("A.id, D.w", True), ("A.v, D.b", False)]


@st.composite
def relationship_case(draw):
    a_rows = draw(st.lists(maybe_small, min_size=0, max_size=8))
    b_rows = draw(st.lists(maybe_small, min_size=0, max_size=8))
    r_rows = draw(
        st.lists(
            st.tuples(maybe_small, maybe_small, small), min_size=0, max_size=60
        )
    )
    aggregates, aggregates_read_w = draw(st.sampled_from(AGGREGATES))
    group, group_reads_w = draw(st.sampled_from(GROUPS))
    # which relationship columns the DISTINCT keeps beside the join
    # columns: with rid it covers the key and the DISTINCT is elided
    extras = [", w", ", rid, w"]
    if not (aggregates_read_w or group_reads_w):
        extras += ["", ", rid"]
    extra = draw(st.sampled_from(extras))
    literal = draw(small)
    comparison = draw(st.sampled_from(["=", "<", ">="]))
    join_b = draw(st.booleans())
    # A.id is a key; A.v is NULL on some rows and repeats on others, as
    # D.a is: NULL and duplicate join keys on both sides
    join_a = draw(st.sampled_from(["A.id", "A.v"]))
    return (
        a_rows, b_rows, r_rows, extra, literal, comparison, join_b, join_a,
        group, aggregates,
    )


def relationship_database(a_rows, b_rows, r_rows) -> Database:
    schema = DatabaseSchema("generated")
    schema.add_relation("A", [("id", INT), ("v", INT)], ["id"])
    schema.add_relation("B", [("id", INT), ("v", INT)], ["id"])
    schema.add_relation(
        "R", [("rid", INT), ("a", INT), ("b", INT), ("w", INT)], ["rid"]
    )
    db = Database(schema)
    db.load("A", list(enumerate(a_rows)))
    db.load("B", list(enumerate(b_rows)))
    db.load("R", [(rid, a, b, w) for rid, (a, b, w) in enumerate(r_rows)])
    return db


@settings(max_examples=80, deadline=None)
@given(relationship_case())
def test_cost_plan_matches_reference_and_sqlite(case):
    (
        a_rows, b_rows, r_rows, extra, literal, comparison, join_b, join_a,
        group, aggregates,
    ) = case
    db = relationship_database(a_rows, b_rows, r_rows)
    froms = f"(SELECT DISTINCT a, b{extra} FROM R) D, A"
    where = f"D.a = {join_a} AND A.v {comparison} {literal}"
    if join_b:
        froms += ", B"
        where += " AND D.b = B.id"
    sql = (
        f"SELECT {group}, {aggregates} FROM {froms} WHERE {where} GROUP BY {group}"
    )
    select = parse(sql)
    plan = Executor(db).plan_for(select)
    assert "D" in plan.deferred
    expected = CompiledPlan(select, db).execute().rows
    assert rows_match(plan.execute().rows, expected)
    sqlite = create_backend("sqlite", db)
    try:
        assert rows_match(sqlite.execute(select).rows, expected)
    finally:
        sqlite.close()
