"""Statistics subsystem: histograms, MCVs, NDV estimation, catalog
caching and invalidation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import university_database
from repro.planner import (
    StatisticsCatalog,
    StatsConfig,
    estimate_ndv,
    profile_table,
)
from repro.planner.stats import build_equi_height, build_mcv
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


class TestHistogram:
    def test_quantile_bounds_cover_data(self):
        hist = build_equi_height(list(range(100)), buckets=4)
        assert hist is not None
        assert hist.le_fraction(-1) == 0.0
        assert hist.le_fraction(99) == 1.0
        assert 0.4 < hist.le_fraction(49) < 0.6

    def test_none_on_empty_or_non_numeric(self):
        assert build_equi_height([], buckets=4) is None
        assert build_equi_height(["a", "b"], buckets=4) is None
        assert build_equi_height([True, False], buckets=4) is None

    def test_range_selectivity_bounds(self):
        hist = build_equi_height([1, 2, 3, 4, 5, 6, 7, 8], buckets=4)
        sel = hist.range_selectivity(low=2, high=6)
        assert 0.0 <= sel <= 1.0
        assert hist.range_selectivity(low=100) == 0.0
        assert hist.range_selectivity(high=100) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
        st.integers(-1200, 1200),
    )
    def test_le_fraction_always_in_unit_interval(self, values, probe):
        hist = build_equi_height(values, buckets=8)
        assert hist is not None
        assert 0.0 <= hist.le_fraction(probe) <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
        st.integers(-1200, 1200),
        st.integers(0, 500),
    )
    def test_le_fraction_monotone(self, values, probe, widen):
        # widening the range can never shrink the estimated fraction
        hist = build_equi_height(values, buckets=8)
        assert hist.le_fraction(probe) <= hist.le_fraction(probe + widen)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=100),
        st.integers(-120, 120),
        st.integers(-120, 120),
        st.integers(0, 50),
    )
    def test_range_selectivity_monotone_under_widening(
        self, values, low, high, widen
    ):
        hist = build_equi_height(values, buckets=8)
        narrow = hist.range_selectivity(low=low, high=high)
        wide = hist.range_selectivity(low=low - widen, high=high + widen)
        assert 0.0 <= narrow <= wide <= 1.0


class TestMcv:
    def test_fractions_and_coverage(self):
        mcv = build_mcv(["a"] * 6 + ["b"] * 3 + ["c"], size=2)
        assert mcv.values == ("a", "b")
        assert mcv.fraction_of("a") == pytest.approx(0.6)
        assert mcv.fraction_of("zzz") is None
        assert mcv.coverage == pytest.approx(0.9)

    def test_deterministic_tie_break(self):
        first = build_mcv(["b", "a", "b", "a", "c"], size=2)
        second = build_mcv(["a", "b", "a", "b", "c"], size=2)
        assert first.values == second.values == ("a", "b")


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
