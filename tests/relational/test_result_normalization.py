"""Aggregate output types are pinned (repro.relational.result.normalize_aggregate).

Executed statements must produce the same Python types a real SQL
backend would: COUNT is int, AVG is float, SUM/MIN/MAX of an empty or
all-NULL group is NULL.  The differential
harness compares types strictly, so any drift here fails `repro diff`.
"""

from __future__ import annotations

import pytest

from repro.errors import SqlExecutionError
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.result import normalize_aggregate
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType


class TestNormalizeAggregate:
    def test_count_is_always_int(self):
        assert normalize_aggregate("COUNT", True) == 1
        assert type(normalize_aggregate("COUNT", True)) is int
        assert type(normalize_aggregate("count", 5)) is int

    def test_avg_is_always_float(self):
        assert normalize_aggregate("AVG", 3) == 3.0
        assert type(normalize_aggregate("AVG", 3)) is float

    def test_null_stays_null_except_count(self):
        for func in ("SUM", "MIN", "MAX", "AVG"):
            assert normalize_aggregate(func, None) is None

    def test_sum_of_bools_widens_to_int(self):
        assert normalize_aggregate("SUM", True) == 1
        assert type(normalize_aggregate("SUM", True)) is int

    def test_sum_of_ints_stays_int(self):
        assert type(normalize_aggregate("SUM", 7)) is int
        assert type(normalize_aggregate("SUM", 7.5)) is float


def _db():
    schema = DatabaseSchema("agg")
    schema.add_relation(
        "t",
        [
            ("Id", DataType.INT),
            ("n", DataType.INT),
            ("maybe", DataType.INT),
            ("flag", DataType.BOOL),
        ],
        primary_key=("Id",),
    )
    database = Database(schema)
    database.load(
        "t",
        [
            (1, 2, None, True),
            (2, 4, None, False),
            (3, 6, None, True),
        ],
    )
    return database


@pytest.fixture()
def executor():
    return Executor(_db())


class TestBothExecutionPaths:
    def test_count_of_empty_group_is_int_zero(self, executor):
        value = executor.execute("SELECT COUNT(*) FROM t WHERE Id = 0").scalar()
        assert value == 0 and type(value) is int

    def test_sum_of_empty_group_is_null(self, executor):
        assert executor.execute("SELECT SUM(n) FROM t WHERE Id = 0").scalar() is None

    def test_min_max_of_empty_group_is_null(self, executor):
        row = executor.execute(
            "SELECT MIN(n), MAX(n) FROM t WHERE Id = 0"
        ).rows[0]
        assert row == (None, None)

    def test_aggregates_over_all_null_column_are_null(self, executor):
        row = executor.execute(
            "SELECT SUM(maybe), MIN(maybe), MAX(maybe), AVG(maybe) FROM t"
        ).rows[0]
        assert row == (None, None, None, None)

    def test_avg_is_float_even_when_integral(self, executor):
        value = executor.execute("SELECT AVG(n) FROM t").scalar()
        assert value == 4.0 and type(value) is float

    def test_count_never_leaks_bool(self, executor):
        value = executor.execute("SELECT COUNT(flag) FROM t").scalar()
        assert value == 3 and type(value) is int

    def test_sum_over_bool_column_is_rejected(self, executor):
        # deliberate policy, enforced statically too (S010): SUM/AVG over
        # a boolean attribute is a translation bug, so the pipeline can
        # never ship such a statement to a backend that would accept it.
        with pytest.raises(SqlExecutionError, match="non-numeric"):
            executor.execute("SELECT SUM(flag) FROM t")

    def test_grouped_aggregates_normalized_per_group(self, executor):
        result = executor.execute(
            "SELECT flag, AVG(n), COUNT(*) FROM t GROUP BY flag"
        )
        for _, avg, count in result.rows:
            assert type(avg) is float
            assert type(count) is int
