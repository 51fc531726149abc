"""Table profiles over real datasets: exact counts, NULL handling, empty
tables and key columns (``repro.planner.stats``; the NDV and catalog
unit tests live in ``tests/planner/test_stats.py``)."""

import pytest

from repro.planner import StatisticsCatalog, join_selectivity, profile_table
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType


def profile(table):
    return profile_table(
        table.schema.name, tuple(table.schema.column_names), table.rows
    )


def single_table(columns, rows=()):
    schema = DatabaseSchema("s")
    schema.add_relation("R", columns, ["id"])
    db = Database(schema)
    db.load("R", list(rows))
    return db.table("R")


class TestAnalyzeTable:
    def test_student_profile(self, university_db):
        stats = profile(university_db.table("Student"))
        assert stats.rows == 3
        sname = stats.column("Sname")
        assert sname.ndv == 2  # George + Green
        assert sname.null_fraction == 0
        assert sname.minimum == "George" and sname.maximum == "Green"
        age = stats.column("Age")
        assert (age.minimum, age.maximum) == (21, 24)

    def test_null_handling(self):
        table = single_table(
            [("id", DataType.INT), ("x", DataType.INT)],
            [(1, None), (2, 5), (3, None)],
        )
        x = profile(table).column("x")
        assert x.null_fraction == pytest.approx(2 / 3)
        assert x.ndv == 1
        assert (x.minimum, x.maximum) == (5, 5)

    def test_empty_table(self):
        stats = profile(single_table([("id", DataType.INT)]))
        assert stats.rows == 0
        column = stats.column("id")
        assert column.minimum is None and column.maximum is None
        assert column.ndv == 0 and column.null_fraction == 0
        assert stats.sample == ()

    def test_format(self, university_db):
        text = profile(university_db.table("Student")).format()
        assert "Student: 3 rows" in text
        assert "Sname: ndv≈2 nulls=0.00 min='George' max='Green'" in text


class TestAnalyzeDatabase:
    def test_profiles_every_table(self, university_db):
        stats = StatisticsCatalog(university_db).profiles()
        assert set(stats) == set(university_db.schema.relation_names)
        assert stats["Enrol"].rows == 6

    def test_key_columns_have_full_distinct(self, tpch_db):
        # Part fits the reservoir sample, so its NDV is exact
        part = StatisticsCatalog(tpch_db).profile("Part")
        assert part.sampled_rows == part.rows
        assert part.column("partkey").ndv == part.rows


class TestSelectivity:
    def test_equi_join_selectivity(self, university_db):
        stats = StatisticsCatalog(university_db).profiles()
        selectivity = join_selectivity(
            stats["Enrol"].column("Sid").ndv, stats["Student"].column("Sid").ndv
        )
        assert selectivity == pytest.approx(1 / 3)

    def test_selectivity_never_zero_division(self):
        ndv = profile(single_table([("id", DataType.INT)])).column("id").ndv
        assert join_selectivity(ndv, ndv) == 1.0
