"""Counting where the key lives: COUNT per key off the grouped column's
index, eager aggregation below a many-to-one join, and the merge of an
elided-DISTINCT derived table into its parent.

``key_counts(table, column)`` must equal a ``Counter`` over the column,
first-seen order and first positions included, on the memory tier (the
``NumericIndex``) and the disk tier (the B+-tree leaves plus the
unindexed tail), or say None where the index cannot answer exactly.  A
counted plan must return the rows of the same plan unrewritten — the
optimizer's plan with ``counting`` cleared — in the same order, on the
memory and disk backends, and SQLite's rows as a multiset.
"""

from __future__ import annotations

import copy
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.backends import DiskBackend, create_backend
from repro.backends.normalize import canonical_rows
from repro.errors import SqlExecutionError
from repro.observability import Tracer
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.plan import CompiledPlan
from repro.relational.project import EagerCount, KeyCount
from repro.relational.types import DataType
from repro.sql.parser import parse

INT, TEXT = DataType.INT, DataType.TEXT
PAGE = 128  # a handful of rows a page, a few keys a leaf


def reference(values):
    """``(keys, counts, firsts)`` of a Counter over *values*."""
    tally = Counter(values)
    firsts = {}
    for position, value in enumerate(values):
        firsts.setdefault(value, position)
    return list(tally), list(tally.values()), [firsts[key] for key in tally]


def exact(values):
    """Whether an index can count *values* exactly: no NULL, and every
    value a float stands for alone."""
    return all(value is not None and abs(value) < 2**53 for value in values)


def one_column_database(values):
    db = Database.from_definitions("counts", [("T", [("id", INT), ("g", INT)], ["id"], [])])
    db.load("T", list(enumerate(values)))
    return db


# ----------------------------------------------------------------------
# key_counts on both tiers
# ----------------------------------------------------------------------
GROUP_VALUES = st.one_of(
    st.none(),
    st.integers(-4, 4),
    st.sampled_from([2**53 - 1, -(2**53 - 1), 2**53, 2**60, -(2**63), 2**64]),
)
BATCHES = st.lists(st.lists(GROUP_VALUES, max_size=40), max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.lists(GROUP_VALUES, max_size=60), BATCHES)
def test_key_counts_equal_a_counter_on_both_tiers(built, batches):
    """Built rows, then appended batches: the disk tier answers from
    its B+-tree and the tail until a batch folds the directory."""
    db = one_column_database(built)
    with tempfile.TemporaryDirectory(prefix="key-counts-") as root:
        disk = DiskBackend(path=os.path.join(root, "disk"), page_size=PAGE, pool_capacity=4)
        disk.load(db)
        try:
            indexed = len(built)
            for batch in [[]] + batches:
                start = len(db.table("T").rows)
                db.load("T", [(start + i, value) for i, value in enumerate(batch)])
                disk.execute("SELECT COUNT(*) AS n FROM T")  # append, or fold
                engine = disk._engine
                if engine.indexed["T"] > indexed:
                    event("folded")
                indexed = engine.indexed["T"]
                values = [row[1] for row in db.table("T").rows]
                prefix, tail = values[: engine.indexed["T"]], values[engine.indexed["T"]:]
                expected = reference(values)
                found = db.key_counts("T", "g")
                assert (found is None) == (not exact(values))
                if found is not None:
                    assert tuple(found) == expected
                found = engine.key_counts("T", "g")
                assert (found is None) == (not exact(prefix) or None in tail)
                if found is not None:
                    assert tuple(found) == expected
                event(f"tail: {bool(tail)}")
        finally:
            disk.close()


def test_key_counts_answer_int_columns_only():
    db = Database.from_definitions(
        "types", [("T", [("id", INT), ("x", DataType.FLOAT), ("t", TEXT)], ["id"], [])]
    )
    db.load("T", [(1, 1.0, "a"), (2, 1.0, "a")])
    assert db.key_counts("T", "x") is None
    assert db.key_counts("T", "t") is None
    assert tuple(db.key_counts("T", "id")) == ([1, 2], [1, 1], [0, 1])


def test_an_empty_table_has_no_keys(tmp_path):
    db = one_column_database([])
    assert tuple(db.key_counts("T", "g")) == ([], [], [])
    disk = DiskBackend(path=str(tmp_path / "disk"), page_size=PAGE)
    disk.load(db)
    try:
        assert tuple(disk._engine.key_counts("T", "g")) == ([], [], [])
    finally:
        disk.close()


# ----------------------------------------------------------------------
# The single-table count
# ----------------------------------------------------------------------
def traced(plan):
    tracer = Tracer()
    with tracer.span("run"):
        result = plan.execute(tracer)
    return result, tracer.trace


def unrewritten(plan):
    """The same decided plan, scanning, joining and grouping."""
    plain = copy.copy(plan)
    plain.counting = None
    return plain


class TestCountByKey:
    SQL = "SELECT g, COUNT(*) AS n, COUNT(id) AS m FROM T GROUP BY g"

    def test_a_few_keys_are_counted_off_the_index(self):
        db = one_column_database([i % 7 - 3 for i in range(700)])
        plan = Executor(db).plan_for(parse(self.SQL))
        assert isinstance(plan.counting, KeyCount)
        result, trace = traced(plan)
        assert trace.counter("index_key_counts") == 1
        assert trace.counter("rows_scanned") == 0
        assert result.rows == unrewritten(plan).execute().rows
        assert result.rows[:2] == [(-3, 100, 100), (-2, 100, 100)]
        explained = plan.explain()
        assert "count T AS T by g via NumericIndex[T.g] (est≈7, actual 7 rows" in explained
        assert "scan T" not in explained

    def test_a_near_unique_key_keeps_the_counter(self):
        db = one_column_database([i // 2 for i in range(700)])
        plan = Executor(db).plan_for(parse(self.SQL))
        assert plan.count_target is not None and plan.counting is None
        result, trace = traced(plan)
        assert trace.counter("index_key_counts") == 0
        assert trace.counter("rows_scanned") == 700
        assert "scan T AS T" in plan.explain()
        assert len(result.rows) == 350

    def test_a_null_falls_back_to_the_scan(self):
        db = one_column_database([i % 3 for i in range(300)])
        plan = Executor(db).plan_for(parse(self.SQL))
        assert isinstance(plan.counting, KeyCount)
        db.load("T", [(300, None)])
        plan = Executor(db).plan_for(parse(self.SQL))
        result, trace = traced(plan)
        assert trace.counter("index_key_counts") == 0
        assert result.rows == [(0, 100, 100), (1, 100, 100), (2, 100, 100), (None, 1, 1)]
        assert "scan T AS T" in plan.explain()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT g, COUNT(g) AS n FROM T GROUP BY g",  # g may be NULL
            "SELECT g, MAX(id) AS n FROM T GROUP BY g",
            "SELECT g, COUNT(DISTINCT id) AS n FROM T GROUP BY g",
            "SELECT g, COUNT(*) AS n FROM T WHERE id > 3 GROUP BY g",
            "SELECT g + 1 AS h, COUNT(*) AS n FROM T GROUP BY g",
            "SELECT COUNT(*) AS n FROM T",
        ],
    )
    def test_what_a_count_cannot_answer_is_scanned(self, sql):
        db = one_column_database([i % 7 for i in range(700)])
        plan = Executor(db).plan_for(parse(sql))
        assert plan.count_target is None and plan.counting is None
        assert plan.execute() == CompiledPlan(parse(sql), db).execute()


def test_count_of_a_key_column_reads_no_column():
    # COUNT of a primary-key column is COUNT(*): nothing of T is read
    db = one_column_database([1, 2, 3])
    plan = CompiledPlan(parse("SELECT COUNT(id) AS n FROM T"), db)
    assert plan.scans[0].needed == []
    assert plan.execute().rows == [(3,)]


# ----------------------------------------------------------------------
# Merging an elided-DISTINCT derived table
# ----------------------------------------------------------------------
class TestMerge:
    @pytest.fixture(scope="class")
    def db(self):
        db = Database.from_definitions(
            "merge",
            [
                ("R", [("id", INT), ("f", INT), ("c", INT)], ["id"], []),
                ("S", [("k", INT), ("a", INT)], ["k"], []),
            ],
        )
        db.load("R", [(i, i % 5, i % 3) for i in range(50)])
        db.load("S", [(k, k % 2) for k in range(4)])
        return db

    def test_the_derived_table_becomes_its_base_table(self, db):
        sql = (
            "SELECT F.id, S.a FROM (SELECT DISTINCT id, f FROM R WHERE R.c = 1) F, S "
            "WHERE F.f = S.k"
        )
        plan = Executor(db).plan_for(parse(sql))
        assert plan.merged == {"F"}
        assert [type(scan).__name__ for scan in plan.scans] == ["TableScan", "TableScan"]
        result, trace = traced(plan)
        assert trace.counter("distinct_elided") == 1
        assert "derived" not in plan.explain()
        assert "push F.c = 1" in plan.explain()
        assert canonical_rows(result.rows) == canonical_rows(
            create_backend("sqlite", db).execute(sql).rows
        )

    @pytest.mark.parametrize(
        "sql",
        [
            # no key: the DISTINCT may remove rows
            "SELECT F.f FROM (SELECT DISTINCT f, c FROM R) F",
            # a renamed column
            "SELECT F.g FROM (SELECT DISTINCT id, f AS g FROM R) F",
            # a LIMIT
            "SELECT F.id FROM (SELECT DISTINCT id FROM R LIMIT 3) F",
        ],
    )
    def test_kept_where_a_merge_could_change_the_rows_or_names(self, db, sql):
        plan = CompiledPlan(parse(sql), db)
        assert plan.merged == frozenset()
        expected = create_backend("sqlite", db).execute(sql).rows
        assert canonical_rows(plan.execute().rows) == canonical_rows(expected)

    def test_kept_where_the_parent_names_a_dropped_column(self, db):
        # c is in R but not in F: merged, the parent's c would resolve
        sql = "SELECT c FROM (SELECT DISTINCT id, f FROM R) F, S WHERE F.f = S.k"
        plan = CompiledPlan(parse(sql), db)
        assert plan.merged == frozenset()
        with pytest.raises(SqlExecutionError, match="unknown column c"):
            plan.execute()

    def test_a_bound_statement_merges_alike(self, db):
        executor = Executor(db)
        shape = "SELECT F.id FROM (SELECT DISTINCT id, f FROM R WHERE R.c = {}) F"
        first = executor.plan_for(parse(shape.format(1)))
        second = executor.plan_for(parse(shape.format(2)))
        assert first.merged == second.merged == {"F"}
        assert second.execute().rows == [(i,) for i in range(50) if i % 3 == 2]


# ----------------------------------------------------------------------
# Eager aggregation below a many-to-one join
# ----------------------------------------------------------------------
def two_tables(s_rows, r_rows):
    db = Database.from_definitions(
        "eager",
        [
            ("S", [("k", INT), ("a", INT), ("b", TEXT)], ["k"], []),
            ("R", [("id", INT), ("f", INT), ("c", INT)], ["id"], []),
        ],
    )
    db.load("S", s_rows)
    db.load("R", r_rows)
    return db


EAGER_STATEMENTS = [
    "SELECT S.a, COUNT(*) AS n FROM R, S WHERE R.f = S.k GROUP BY S.a",
    "SELECT S.a, S.b, COUNT(R.id) AS n FROM R, S WHERE R.f = S.k AND S.a < 2 "
    "GROUP BY S.a, S.b",
    "SELECT S.k, COUNT(R.id) AS n FROM S, R WHERE S.k = R.f GROUP BY S.k",
    "SELECT COUNT(R.id) + 1 AS n FROM R, S WHERE R.f = S.k",
    "SELECT S.b, COUNT(*) AS n FROM R, S WHERE R.f = S.k AND R.c = 1 GROUP BY S.b",
    # merged: R's scan may be handed S's keys
    "SELECT S.a, COUNT(F.id) AS n FROM (SELECT DISTINCT id, f FROM R) F, S "
    "WHERE F.f = S.k GROUP BY S.a",
    "SELECT S.a, COUNT(F.id) AS n FROM (SELECT DISTINCT id, f FROM R) F, S "
    "WHERE F.f = S.k AND S.b = 'x' GROUP BY S.a",
    # c may be NULL: counted by the join, never eagerly
    "SELECT S.a, COUNT(R.c) AS n FROM R, S WHERE R.f = S.k GROUP BY S.a",
]

S_ROWS = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["x", "y", None])), max_size=30
).map(lambda rows: [(k, a, b) for k, (a, b) in enumerate(rows)])
#: foreign keys into S (some dangling, some NULL), a nullable column
R_ROWS = st.tuples(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-2, 32)),
            st.one_of(st.none(), st.integers(0, 2)),
        ),
        max_size=60,
    ),
    st.sampled_from([1, 5, 40]),
).map(lambda drawn: [(i, f, c) for i, (f, c) in enumerate(drawn[0] * drawn[1])])


@settings(max_examples=30, deadline=None)
@given(S_ROWS, R_ROWS)
def test_eager_aggregation_returns_the_unrewritten_rows_in_order(s_rows, r_rows):
    db = two_tables(s_rows, r_rows)
    backends = [create_backend("memory", db), create_backend("disk", db, page_size=PAGE)]
    sqlite = create_backend("sqlite", db)
    try:
        for sql in EAGER_STATEMENTS:
            expected = canonical_rows(sqlite.execute(sql).rows)
            for backend in backends:
                executor = backend._executor if backend.name == "disk" else backend.executor
                backend.execute(sql)  # a disk backend materializes first
                plan = executor.plan_for(parse(sql))
                result, trace = traced(plan)
                assert result.rows == unrewritten(plan).execute().rows, sql
                assert canonical_rows(result.rows) == expected, sql
                if isinstance(plan.counting, EagerCount):
                    assert trace.counter("eager_aggregations") == 1
                    event(f"eager on {backend.name}")
    finally:
        for backend in backends + [sqlite]:
            backend.close()


def test_eager_aggregation_counts_before_the_join():
    s_rows = [(k, k % 3, "x") for k in range(20)]
    r_rows = [(i, i % 25 if i % 11 else None, i % 2) for i in range(2000)]
    db = two_tables(s_rows, r_rows)
    sql = EAGER_STATEMENTS[0]
    plan = Executor(db).plan_for(parse(sql))
    assert isinstance(plan.counting, EagerCount)
    assert plan.counting.counted.use_index is False  # f holds NULLs
    result, trace = traced(plan)
    assert trace.counter("eager_aggregations") == 1
    assert trace.counter("hash_join_rows") == 0
    assert result.rows == unrewritten(plan).execute().rows
    explained = plan.explain()
    assert "count R AS R by f via scan (est≈" in explained
    assert "join order 1: count R ⋈ S (est≈" in explained
    assert "group by S.a over counts" in explained
