"""Statistics subsystem: NDV estimation, single-pass profiles, table
profiles over real datasets (exact counts, NULL handling, empty tables,
key columns), catalog caching and invalidation, and ``repro stats``
printing the profiles the planner plans with."""

import io
import math
import random
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import run_stats
from repro.datasets import university_database
from repro.engine import KeywordSearchEngine
from repro.planner import (
    StatisticsCatalog,
    StatsConfig,
    estimate_ndv,
    join_selectivity,
    profile_table,
)
from repro.planner.stats import CHUNK_ROWS, DEFAULT_SEED, TablePass, feed_table
from repro.relational.algebra import null_safe_sort_key
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.storage import StorageEngine, materialize


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


class RowPass:
    """The statistics pass a row at a time: a reservoir step, then a NULL
    count and a sort-key comparison per value — what :class:`TablePass`
    must equal when fed the same rows as columns."""

    def __init__(self, width, sample_size):
        self.rng = random.Random(DEFAULT_SEED)
        self.size = max(1, sample_size)
        self.reservoir = []
        self.nulls = [0] * width
        self.minimums = [None] * width
        self.maximums = [None] * width
        self.total = 0

    def feed(self, rows):
        for row in rows:
            self.total += 1
            if len(self.reservoir) < self.size:
                self.reservoir.append(tuple(row))
            else:
                slot = self.rng.randrange(self.total)
                if slot < self.size:
                    self.reservoir[slot] = tuple(row)
            for index, value in enumerate(row):
                if value is None:
                    self.nulls[index] += 1
                    continue
                key = null_safe_sort_key(value)
                low, high = self.minimums[index], self.maximums[index]
                if low is None or key < null_safe_sort_key(low):
                    self.minimums[index] = value
                if high is None or key > null_safe_sort_key(high):
                    self.maximums[index] = value


def exactly(values):
    """*values* with their types and signs: ``-0.0`` is not ``0.0``, nor
    ``1`` ``1.0``, and NaN equals NaN."""
    return [(type(value), repr(value)) for value in values]


def assert_same_pass(table_pass, row_pass):
    assert table_pass.total == row_pass.total
    assert table_pass._rng.getstate() == row_pass.rng.getstate()
    assert [exactly(row) for row in table_pass._reservoir] == [
        exactly(row) for row in row_pass.reservoir
    ]
    assert table_pass._nulls == row_pass.nulls
    assert exactly(table_pass._minimums) == exactly(row_pass.minimums)
    assert exactly(table_pass._maximums) == exactly(row_pass.maximums)


def recount(reservoir, width):
    counts = [{} for _ in range(width)]
    for row in reservoir:
        for index, value in enumerate(row):
            if value is not None:
                counts[index][value] = counts[index].get(value, 0) + 1
    return counts


SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
#: any mix within one column: the extremes are then found by sort key
CELL = st.one_of(
    st.none(), st.integers(-5, 5), st.floats(-10, 10), SPECIAL, st.booleans(),
    st.sampled_from(["", "a", "B", "2024-02-29", "1999-01-01"]),
)
#: one type per column, as a table stores them
TYPED_ROW = st.tuples(
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(st.none(), st.floats(-10, 10), SPECIAL),
    st.one_of(st.none(), st.sampled_from(["a", "b", "B", ""])),
    st.one_of(st.none(), st.sampled_from(["2024-02-29", "1999-01-01"])),
    st.one_of(st.none(), st.booleans()),
)
TYPED_NAMES = ("i", "f", "t", "d", "b")


def columns_of(rows, width):
    return [[row[index] for row in rows] for index in range(width)]


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(TYPED_ROW, max_size=90),
            st.lists(st.tuples(CELL, CELL), max_size=90),
        ),
        st.lists(st.integers(0, 90), max_size=4),
        st.integers(1, 16),
    )
    def test_a_pass_fed_in_pieces_equals_one_fed_at_once(self, rows, cuts, sample_size):
        """Fed the columns whole, or in pieces (cut anywhere, across the
        sample size too), the pass holds what a row-at-a-time pass holds:
        the reservoir and its order, the generator's state, NULL counts and
        the extremes — with NULLs, NaN, ±0.0, ±inf, mixed types, text and
        dates — and profiles equal."""
        width = len(rows[0]) if rows else 2
        names = TYPED_NAMES[:width] if width == 5 else ("x", "y")
        config = StatsConfig(sample_size=sample_size)
        oracle = RowPass(width, sample_size)
        oracle.feed(rows)
        whole = TablePass("T", names, config)
        whole.feed(columns_of(rows, width))
        assert_same_pass(whole, oracle)
        pieces = TablePass("T", names, config)
        start = 0
        for cut in sorted(cuts) + [len(rows)]:
            pieces.feed(columns_of(rows[start:cut], width))
            pieces.profile()  # what the catalog does after each catch-up
            start = max(start, cut)
        assert_same_pass(pieces, oracle)
        assert pieces.profile() == whole.profile()
        # the kept counts are the reservoir's, counted afresh
        assert pieces._counts == recount(whole._reservoir, width)

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

    def test_append_continues_the_pass(self):
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
        db.load("T", [(100, -5, "z"), (101, 7, "y")])
        grown = catalog.profile("T")
        assert grown.column("v").minimum == -5
        assert grown.column("v").maximum == 99
        assert catalog.builds == 1  # still the first pass
        assert grown == profile_table("T", ("id", "v", "t"), db.table("T").rows)

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
        assert footer == f"profiled 1 tables (versions: Customer {len(tpch_db.table('Customer'))})"
        planned = KeywordSearchEngine(tpch_db).executor.optimizer.catalog.profile(
            "Customer"
        )
        assert "\n".join([header, *columns]) == planned.format()

    def test_buckets_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_stats(["--buckets", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --buckets" in capsys.readouterr().err


def heap_database(rows):
    schema = DatabaseSchema("heap")
    schema.add_relation(
        "T",
        [
            ("id", DataType.INT), ("i", DataType.INT), ("f", DataType.FLOAT),
            ("t", DataType.TEXT), ("d", DataType.DATE), ("b", DataType.BOOL),
        ],
        ["id"],
    )
    db = Database(schema)
    db.load("T", [(at, *row) for at, row in enumerate(rows)])
    return db


@settings(max_examples=40, deadline=None)
@given(st.lists(TYPED_ROW, max_size=120), st.integers(0, 120), st.integers(1, 16))
def test_a_pass_over_a_table_equals_the_row_pass_on_both_tiers(rows, cut, sample_size):
    """:func:`feed_table` reads a memory table and a disk heap (several
    pages) by column, in two pieces: the same pass as rows fed one by
    one, on either tier."""
    db = heap_database(rows)
    table = db.table("T")
    names = tuple(table.schema.column_names)
    config = StatsConfig(sample_size=sample_size)
    oracle = RowPass(len(names), sample_size)
    oracle.feed(table.rows)
    with tempfile.TemporaryDirectory() as directory:
        materialize(db, directory, page_size=256)
        engine = StorageEngine(directory, db.schema, pool_capacity=4)
        try:
            heap = engine.table("T")
            assert heap.page_count > 1 or len(rows) < 20
            for source in (table, heap):
                table_pass = TablePass("T", names, config)
                cut = min(cut, len(rows))
                feed_table(table_pass, source, 0, cut)
                feed_table(table_pass, source, cut, len(rows))
                assert_same_pass(table_pass, oracle)
        finally:
            engine.close()
    assert not table._vectors  # nothing kept that no statement read


def test_a_pass_reads_a_table_a_chunk_at_a_time():
    rows = [(i, i % 7, None if i % 5 else "v") for i in range(2 * CHUNK_ROWS + 3)]
    db = small_database(rows)
    reads = []
    table = db.table("T")
    columns = table.columns
    table.columns = lambda indexes, positions=None: reads.append(positions) or columns(
        indexes, positions
    )
    profile = StatisticsCatalog(db).profile("T")
    assert [len(chunk) for chunk in reads] == [CHUNK_ROWS, CHUNK_ROWS, 3]
    assert profile == profile_table("T", ("id", "v", "t"), rows)


# ----------------------------------------------------------------------
# Table profiles over real datasets
# ----------------------------------------------------------------------
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
