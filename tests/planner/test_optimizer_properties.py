"""Property-based planner guarantee: the cost-based optimizer never
changes results.  Over generated schemas, data and join-aggregate
queries, the cost-planned answer is multiset-identical to the
greedy-order answer of a plan built without an optimizer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.plan import CompiledPlan
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Literal,
    Select,
    SelectItem,
    TableRef,
    agg,
    eq,
)


def and_(left, right):
    return BinaryOp("AND", left, right)

INT = DataType.INT
TEXT = DataType.TEXT

tags = st.sampled_from(["red", "green", "blue"])
a_rows = st.lists(
    st.tuples(st.integers(0, 8), st.one_of(st.none(), st.integers(-4, 4)), tags),
    min_size=0,
    max_size=14,
)
b_rows = st.lists(
    st.tuples(st.integers(0, 8), st.integers(-4, 4)),
    min_size=0,
    max_size=10,
)
c_rows = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(-4, 4)),
    min_size=0,
    max_size=14,
)


def build_database(
    a: List[Tuple[int, Optional[int], str]],
    b: List[Tuple[int, int]],
    c: List[Tuple[int, int, int]],
) -> Database:
    schema = DatabaseSchema("prop")
    schema.add_relation("A", [("aid", INT), ("val", INT), ("tag", TEXT)], ["aid"])
    schema.add_relation("B", [("bid", INT), ("score", INT)], ["bid"])
    schema.add_relation("C", [("cid", INT), ("aref", INT), ("w", INT)], ["cid"])
    db = Database(schema)
    db.load("A", [(i, v, t) for i, (_, v, t) in enumerate(a)])
    db.load("B", [(i, s) for i, (_, s) in enumerate(b)])
    db.load("C", [(i, aref, w) for i, (_, aref, w) in enumerate(c)])
    return db


def assert_same_multiset(db: Database, select: Select) -> None:
    on = Executor(db).execute(select)
    off = CompiledPlan(select, db).execute()
    # QueryResult equality canonicalizes to a row multiset
    assert on == off
    assert sorted(map(repr, on.rows)) == sorted(map(repr, off.rows))


@settings(max_examples=60, deadline=None)
@given(a_rows, c_rows, st.integers(-4, 4))
def test_filtered_join_multiset_identical(a, c, threshold):
    db = build_database(a, [], c)
    select = Select(
        items=(SelectItem(ColumnRef("aid", "A")), SelectItem(ColumnRef("cid", "C"))),
        from_items=(TableRef.of("A"), TableRef.of("C")),
        where=and_(
            eq(ColumnRef("aref", "C"), ColumnRef("aid", "A")),
            BinaryOp(">", ColumnRef("w", "C"), Literal(threshold)),
        ),
    )
    assert_same_multiset(db, select)


@settings(max_examples=60, deadline=None)
@given(a_rows, b_rows, c_rows)
def test_three_way_join_aggregate_multiset_identical(a, b, c):
    db = build_database(a, b, c)
    select = Select(
        items=(
            SelectItem(ColumnRef("tag", "A")),
            SelectItem(agg("COUNT", ColumnRef("cid", "C")), alias="n"),
            SelectItem(agg("SUM", ColumnRef("score", "B")), alias="s"),
        ),
        from_items=(TableRef.of("A"), TableRef.of("B"), TableRef.of("C")),
        where=and_(
            eq(ColumnRef("aref", "C"), ColumnRef("aid", "A")),
            eq(ColumnRef("bid", "B"), ColumnRef("w", "C")),
        ),
        group_by=(ColumnRef("tag", "A"),),
    )
    assert_same_multiset(db, select)


@settings(max_examples=60, deadline=None)
@given(a_rows, st.sampled_from(["red", "green", "blue"]), st.integers(-4, 4))
def test_pushed_predicates_multiset_identical(a, tag, lo):
    db = build_database(a, [], [])
    select = Select(
        items=(SelectItem(ColumnRef("aid", "A")),),
        from_items=(TableRef.of("A"),),
        where=and_(
            eq(ColumnRef("tag", "A"), Literal(tag)),
            BinaryOp(">=", ColumnRef("val", "A"), Literal(lo)),
        ),
    )
    assert_same_multiset(db, select)
