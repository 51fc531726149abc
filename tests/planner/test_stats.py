"""Statistics subsystem: NDV estimation, single-pass profiles, catalog
caching and invalidation, and ``repro stats`` printing the profiles the
planner plans with."""

import io
import re

import pytest

from repro.cli import run_stats
from repro.datasets import university_database
from repro.engine import KeywordSearchEngine
from repro.planner import (
    StatisticsCatalog,
    StatsConfig,
    estimate_ndv,
    profile_table,
)
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType


def small_database(rows):
    schema = DatabaseSchema("stats")
    schema.add_relation(
        "T",
        [("id", DataType.INT), ("v", DataType.INT), ("t", DataType.TEXT)],
        ["id"],
    )
    db = Database(schema)
    db.load("T", rows)
    return db


class TestNdvEstimation:
    def test_exact_when_sample_covers_table(self):
        counts = {1: 3, 2: 2, 3: 1}
        assert estimate_ndv(counts, rows=6, sampled=6) == 3.0

    def test_gee_scales_up_singletons(self):
        counts = {i: 1 for i in range(50)}
        estimate = estimate_ndv(counts, rows=5000, sampled=50)
        assert estimate > 50  # singleton-heavy sample implies many unseen
        assert estimate <= 5000

    def test_clamped_to_row_count(self):
        counts = {i: 1 for i in range(10)}
        assert estimate_ndv(counts, rows=11, sampled=10) <= 11


class TestProfileTable:
    def test_single_pass_exact_aggregates(self):
        rows = [(i, i % 5, None if i % 3 == 0 else "x") for i in range(30)]
        profile = profile_table("T", ("id", "v", "t"), rows)
        assert profile.rows == 30
        v = profile.column("v")
        assert v.minimum == 0 and v.maximum == 4
        assert v.ndv == pytest.approx(5.0)
        t = profile.column("t")
        assert t.null_fraction == pytest.approx(10 / 30)

    def test_int_ndv_is_capped_by_the_value_range(self):
        # a foreign-key-like column: 40 dense values on 4,000 rows, of
        # which a 64-row sample sees many once — GEE extrapolates those
        # singletons far past the 40 integers the range can hold
        rows = [(i, i * 7 % 40, float(i * 7 % 40), "t%d" % (i % 40)) for i in range(4000)]
        config = StatsConfig(sample_size=64)
        profile = profile_table("T", ("id", "fk", "f", "t"), rows, config)
        assert profile.column("fk").ndv <= 40.0
        assert profile.column("id").ndv <= 4000.0
        # only integers are countable by their range: the same values as
        # floats (or text) keep the uncapped estimate
        assert profile.column("f").ndv > 40.0
        assert profile.column("f").ndv == profile.column("t").ndv
        # and a bool column is not an INT column
        flags = profile_table("B", ("b",), [(i % 2 == 0,) for i in range(100)])
        assert flags.column("b").ndv == 2.0

    def test_deterministic_under_fixed_seed(self):
        rows = [(i, i * 7 % 113, "t%d" % (i % 9)) for i in range(2000)]
        config = StatsConfig(sample_size=64)
        a = profile_table("T", ("id", "v", "t"), rows, config)
        b = profile_table("T", ("id", "v", "t"), rows, config)
        assert a == b
        assert a.sampled_rows == 64

    def test_column_lookup_is_case_insensitive(self):
        profile = profile_table("T", ("Id",), [(1,), (2,)])
        assert profile.column("id") is not None
        assert profile.column("missing") is None


class TestCatalog:
    def test_profiles_cached_per_version(self):
        db = small_database([(i, i, "x") for i in range(10)])
        catalog = StatisticsCatalog(db)
        first = catalog.profile("T")
        assert catalog.profile("T") is first
        assert catalog.builds == 1

    def test_append_continues_the_pass_epoch_bump_restarts_it(self):
        db = small_database([(i, i, "x") for i in range(10)])
        catalog = StatisticsCatalog(db)
        before = catalog.profile("T")
        db.insert("T", (99, 99, "y"))
        after = catalog.profile("T")
        assert after is not before
        assert after.rows == before.rows + 1
        assert after.column("v").maximum == 99
        assert catalog.builds == 1  # the same pass, continued
        assert catalog.profile("T") is after
        db.table("T").update((99,), {"v": -5})
        updated = catalog.profile("T")
        assert updated.column("v").minimum == -5
        assert updated.column("v").maximum == 9
        assert catalog.builds == 2  # the epoch moved: a new pass
        db.table("T").delete((99,))
        assert catalog.profile("T") == before
        assert catalog.builds == 3

    def test_analyze_runs_every_pass_again(self):
        db = small_database([(1, 1, "x")])
        catalog = StatisticsCatalog(db)
        first = catalog.profile("T")
        assert catalog.cached_relations == ("t",)
        analyzed = catalog.analyze()
        assert analyzed["T"] == first and analyzed["T"] is not first
        assert catalog.builds == 2
        assert catalog.profile("T") is analyzed["T"]

    def test_profiles_covers_every_relation(self):
        catalog = StatisticsCatalog(university_database())
        profiles = catalog.profiles()
        assert set(profiles) == {
            relation.name for relation in catalog.database.schema
        }


class TestStatsCommand:
    def test_prints_the_profile_the_planner_plans_with(self, tpch_db):
        out = io.StringIO()
        assert run_stats(["--dataset", "tpch", "--table", "Customer"], out=out) == 0
        header, *columns, blank, footer = out.getvalue().splitlines()
        assert header.startswith("Customer: ")
        assert len(columns) == len(tpch_db.schema.relation("Customer").columns)
        line = re.compile(r"  \w+: ndv≈\d+ nulls=\d\.\d\d min=.+ max=.+$")
        assert all(line.match(column) for column in columns)
        assert blank == ""
        assert footer.startswith("profiled 1 tables (versions: Customer (")
        planned = KeywordSearchEngine(tpch_db).executor.optimizer.catalog.profile(
            "Customer"
        )
        assert "\n".join([header, *columns]) == planned.format()

    def test_buckets_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_stats(["--buckets", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --buckets" in capsys.readouterr().err
