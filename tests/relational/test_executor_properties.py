"""Property-based tests: the executor against a pure-Python oracle.

Random small tables and random (structured) queries; each engine answer is
recomputed with plain Python over the same rows.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.schema import DatabaseSchema, ForeignKey
from repro.relational.types import DataType
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    Literal,
    Select,
    SelectItem,
    TableRef,
    agg,
    eq,
)

INT = DataType.INT
TEXT = DataType.TEXT

names = st.sampled_from(["alpha", "beta", "gamma", "delta"])
maybe_values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))


def build_database(
    left_rows: List[Tuple[int, Optional[int], str]],
    right_rows: List[Tuple[int, int, Optional[int]]],
) -> Database:
    schema = DatabaseSchema("prop")
    schema.add_relation(
        "L", [("lid", INT), ("val", INT), ("tag", TEXT)], ["lid"]
    )
    schema.add_relation(
        "R",
        [("rid", INT), ("lid", INT), ("score", INT)],
        ["rid"],
    )
    db = Database(schema)
    db.load("L", [(i, v, t) for i, (k, v, t) in enumerate(left_rows)])
    # note: lid values in R intentionally may dangle; no FK is declared
    db.load("R", [(i, lid, s) for i, (k, lid, s) in enumerate(right_rows)])
    return db


left_rows_strategy = st.lists(
    st.tuples(st.integers(), maybe_values, names), min_size=0, max_size=12
)
right_rows_strategy = st.lists(
    st.tuples(st.integers(), st.integers(min_value=0, max_value=14), maybe_values),
    min_size=0,
    max_size=12,
)


@settings(max_examples=120, deadline=None)
@given(left_rows_strategy, st.integers(min_value=-5, max_value=5))
def test_filter_matches_python_oracle(rows, threshold):
    db = build_database(rows, [])
    select = Select(
        items=(SelectItem(ColumnRef("lid", "L")),),
        from_items=(TableRef.of("L"),),
        where=BinaryOp(">", ColumnRef("val", "L"), Literal(threshold)),
    )
    got = sorted(Executor(db).execute(select).rows)
    table = db.table("L").rows
    expected = sorted(
        (row[0],) for row in table if row[1] is not None and row[1] > threshold
    )
    assert got == expected


@settings(max_examples=120, deadline=None)
@given(left_rows_strategy)
def test_group_by_aggregates_match_python_oracle(rows):
    db = build_database(rows, [])
    select = Select(
        items=(
            SelectItem(ColumnRef("tag", "L")),
            SelectItem(agg("COUNT", ColumnRef("val", "L")), alias="n"),
            SelectItem(agg("SUM", ColumnRef("val", "L")), alias="s"),
            SelectItem(agg("MIN", ColumnRef("val", "L")), alias="lo"),
            SelectItem(agg("MAX", ColumnRef("val", "L")), alias="hi"),
        ),
        from_items=(TableRef.of("L"),),
        group_by=(ColumnRef("tag", "L"),),
    )
    got = {row[0]: row[1:] for row in Executor(db).execute(select).rows}

    groups = defaultdict(list)
    for row in db.table("L").rows:
        groups[row[2]].append(row[1])
    expected = {}
    for tag, values in groups.items():
        non_null = [v for v in values if v is not None]
        expected[tag] = (
            len(non_null),
            sum(non_null) if non_null else None,
            min(non_null) if non_null else None,
            max(non_null) if non_null else None,
        )
    assert got == expected


@settings(max_examples=120, deadline=None)
@given(left_rows_strategy, right_rows_strategy)
def test_equi_join_matches_nested_loop_oracle(left_rows, right_rows):
    db = build_database(left_rows, right_rows)
    select = Select(
        items=(
            SelectItem(ColumnRef("lid", "L")),
            SelectItem(ColumnRef("rid", "R")),
        ),
        from_items=(TableRef.of("L"), TableRef.of("R")),
        where=eq(ColumnRef("lid", "R"), ColumnRef("lid", "L")),
    )
    got = sorted(Executor(db).execute(select).rows)
    expected = sorted(
        (l[0], r[0])
        for l in db.table("L").rows
        for r in db.table("R").rows
        if r[1] == l[0]
    )
    assert got == expected


@settings(max_examples=120, deadline=None)
@given(left_rows_strategy)
def test_distinct_matches_set_semantics(rows):
    db = build_database(rows, [])
    select = Select(
        items=(SelectItem(ColumnRef("tag", "L")), SelectItem(ColumnRef("val", "L"))),
        from_items=(TableRef.of("L"),),
        distinct=True,
    )
    got = Executor(db).execute(select).rows
    expected = {(row[2], row[1]) for row in db.table("L").rows}
    assert len(got) == len(set(got))
    assert set(got) == expected


@settings(max_examples=80, deadline=None)
@given(left_rows_strategy)
def test_count_distinct_matches_oracle(rows):
    db = build_database(rows, [])
    select = Select(
        items=(
            SelectItem(
                agg("COUNT", ColumnRef("val", "L"), distinct=True), alias="n"
            ),
        ),
        from_items=(TableRef.of("L"),),
    )
    got = Executor(db).execute(select).scalar()
    expected = len(
        {row[1] for row in db.table("L").rows if row[1] is not None}
    )
    assert got == expected


@settings(max_examples=80, deadline=None)
@given(left_rows_strategy)
def test_derived_table_equals_direct_query(rows):
    """Wrapping a table scan in a derived table must not change anything."""
    from repro.sql.ast import DerivedTable

    db = build_database(rows, [])
    inner = Select(
        items=(
            SelectItem(ColumnRef("lid"), alias="lid"),
            SelectItem(ColumnRef("val"), alias="val"),
        ),
        from_items=(TableRef.of("L"),),
    )
    wrapped = Select(
        items=(SelectItem(agg("SUM", ColumnRef("val", "D")), alias="s"),),
        from_items=(DerivedTable(inner, "D"),),
    )
    direct = Select(
        items=(SelectItem(agg("SUM", ColumnRef("val", "L")), alias="s"),),
        from_items=(TableRef.of("L"),),
    )
    executor = Executor(db)
    assert executor.execute(wrapped) == executor.execute(direct)
