"""Sampled table statistics for the cost-based planner.

A :class:`TableProfile` is built in one pass over a table: exact row
count, per-column null fractions and min/max, a reservoir sample of row
tuples (``random.Random`` seeded with :data:`DEFAULT_SEED`, so profiles
are deterministic) and each column's sampled NDV (a GEE-style
extrapolation when the table is larger than the sample, capped by the
value range for INT columns).  That is everything the planner reads:
pushed predicates are estimated by running their closures over the
sample, joins and GROUP BY from NDV.

:class:`TablePass` is that single pass as an object: the reservoir and
its value counts, the generator's state, null counts, min/max and the
row total, fed a table's columns :data:`CHUNK_ROWS` rows at a time
(:func:`feed_table`).  Because a
reservoir pass over ``rows[:n]`` followed by ``rows[n:]`` *is* the pass
over ``rows``, and tables are append-only, :class:`StatisticsCatalog`
keeps each table's pass and, when the table's version (its row count)
grew, continues it over the new rows only — the profile that results
equals :func:`profile_table` over the whole table, sample order
included, so there is nothing to tune and no staleness to bound.
:meth:`StatisticsCatalog.analyze` (``engine.analyze_stats()``, ANALYZE)
starts every table's pass over.

Lint rule LR009 confines statistics *sampling* (and the cost-model
constants next door in ``repro.planner.cost``) to this package.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observability import NULL_TRACER
from repro.relational.algebra import null_safe_sort_key
from repro.relational.types import not_null

__all__ = [
    "StatsConfig",
    "ColumnProfile",
    "TableProfile",
    "TablePass",
    "StatisticsCatalog",
    "estimate_ndv",
    "profile_table",
]

#: reservoir size: large enough for stable estimates, small enough that
#: profiling never dominates even a disk-backed ANALYZE pass
DEFAULT_SAMPLE_SIZE = 512
#: fixed sampling seed — profiles must be reproducible across runs
DEFAULT_SEED = 2016

#: selectivity assumed for predicates the estimator cannot model
DEFAULT_PREDICATE_SELECTIVITY = 1.0 / 3.0
#: rows the catalog reads at a time: a chunk's columns are read, fed to
#: the pass and dropped, so a pass holds no whole column of a table
CHUNK_ROWS = 4096

#: value types that order among themselves as
#: :func:`~repro.relational.algebra.null_safe_sort_key` orders them
_NUMBERS = {int, float}
_ALONE = ({str}, {bool})


@dataclass(frozen=True)
class StatsConfig:
    """Knobs of the statistics collector."""

    sample_size: int = DEFAULT_SAMPLE_SIZE


@dataclass(frozen=True)
class ColumnProfile:
    """Planner-facing summary of one column."""

    column: str
    ndv: float
    null_fraction: float
    minimum: Optional[Any]
    maximum: Optional[Any]

    def format(self) -> str:
        return (
            f"{self.column}: ndv≈{self.ndv:.0f} nulls={self.null_fraction:.2f} "
            f"min={self.minimum!r} max={self.maximum!r}"
        )


@dataclass(frozen=True)
class TableProfile:
    """Planner-facing summary of one table, plus its row sample."""

    relation: str
    rows: int
    sample: Tuple[Tuple[Any, ...], ...]
    columns: Tuple[ColumnProfile, ...]

    def column(self, name: str) -> Optional[ColumnProfile]:
        lowered = name.lower()
        for profile in self.columns:
            if profile.column.lower() == lowered:
                return profile
        return None

    @property
    def sampled_rows(self) -> int:
        return len(self.sample)

    def format(self) -> str:
        lines = [
            f"{self.relation}: {self.rows} rows (sampled {self.sampled_rows})"
        ]
        lines.extend("  " + profile.format() for profile in self.columns)
        return "\n".join(lines)


def estimate_ndv(sample_counts: Dict[Any, int], rows: int, sampled: int) -> float:
    """Estimate a column's distinct count from sample value frequencies.

    Exact when the sample covers the whole table; otherwise the GEE
    estimator ``sqrt(N/n) * f1 + (d - f1)`` scales up the singleton count
    (values seen exactly once are the ones a sample under-reports).
    """
    distinct = len(sample_counts)
    if distinct == 0:
        return 0.0
    if sampled >= rows or sampled == 0:
        return float(distinct)
    singletons = sum(1 for count in sample_counts.values() if count == 1)
    estimate = math.sqrt(rows / sampled) * singletons + (distinct - singletons)
    return float(min(rows, max(distinct, estimate)))


class TablePass:
    """One single pass over a table's rows, resumable, fed a column at a
    time.

    :meth:`feed` takes the next rows as their columns and visits each row
    exactly once, in order; :meth:`profile` summarizes everything fed so
    far.  Feeding ``rows[:n]`` and then ``rows[n:]`` leaves the same
    state — reservoir contents *and* order, generator state, counts,
    extremes — as feeding ``rows`` at once, which is what lets the
    catalog continue a pass after an append, and read a table a chunk of
    rows at a time.  The work is per column: NULLs are counted and the
    extremes found by builtins, and the reservoir makes one
    ``randrange`` draw per row past the first ``sample_size``, the draws
    a row-at-a-time pass makes.  Once a profile has counted the
    reservoir's values per column, the counts are kept as rows enter and
    leave it, so a profile after a short catch-up does not recount the
    sample — while a first pass counts once, at its end.
    """

    def __init__(
        self,
        relation: str,
        column_names: Tuple[str, ...],
        config: StatsConfig,
    ) -> None:
        self.relation = relation
        self.column_names = column_names
        self.config = config
        width = len(column_names)
        self._rng = random.Random(DEFAULT_SEED)
        self._reservoir: List[Tuple[Any, ...]] = []
        self._nulls = [0] * width
        self._minimums: List[Optional[Any]] = [None] * width
        self._maximums: List[Optional[Any]] = [None] * width
        #: per column, how often each non-NULL value is in the reservoir;
        #: counted by the first profile, then kept as rows enter and leave
        self._counts: Optional[List[Dict[Any, int]]] = None
        #: rows fed so far
        self.total = 0

    def feed(self, columns: Sequence[Sequence[Any]]) -> None:
        """Continue the pass over the next rows, given as their columns:
        one sequence per column name, all of one length (an in-memory
        table's or a heap file's :meth:`columns`)."""
        rows = len(columns[0]) if columns else 0
        self._sample(columns, rows)
        for index, column in enumerate(columns):
            nulls = column.count(None)
            self._nulls[index] += nulls
            present = list(filter(not_null, column)) if nulls else column
            if not present:
                continue
            low, high = self._minimums[index], self._maximums[index]
            kinds = set(map(type, present))
            if low is not None:
                kinds.update((type(low), type(high)))
            # where the sort key orders values as they order themselves,
            # compare the values; either way the first extreme met is kept
            key = None if kinds <= _NUMBERS or kinds in _ALONE else null_safe_sort_key
            seen = () if low is None else (low,)
            self._minimums[index] = min(chain(seen, present), key=key)
            seen = () if high is None else (high,)
            self._maximums[index] = max(chain(seen, present), key=key)
        self.total += rows

    def _sample(self, columns: Sequence[Sequence[Any]], rows: int) -> None:
        """The reservoir over the next *rows* rows: the first fill it,
        each later one draws its slot — ``randrange(rows seen so far)`` —
        and replaces the row there when the slot is inside the sample."""
        reservoir = self._reservoir
        counts = self._counts
        size = max(1, self.config.sample_size)
        fill = min(rows, size - len(reservoir))
        if fill > 0:
            entering = list(zip(*[column[:fill] for column in columns]))
            reservoir += entering
            if counts is not None:
                for row in entering:
                    _count(counts, row, 1)
        if fill >= rows:
            return
        draws = range(self.total + fill + 1, self.total + rows + 1)
        slots = list(map(self._rng.randrange, draws))
        for offset in compress(range(fill, rows), map(size.__gt__, slots)):
            slot = slots[offset - fill]
            row = tuple(map(itemgetter(offset), columns))
            if counts is not None:
                _count(counts, reservoir[slot], -1)
                _count(counts, row, 1)
            reservoir[slot] = row

    def profile(self) -> TableProfile:
        """The profile of the rows fed so far."""
        total = self.total
        reservoir = self._reservoir
        if self._counts is None:
            self._counts = [{} for _ in self.column_names]
            for row in reservoir:
                _count(self._counts, row, 1)
        columns = []
        for index, name in enumerate(self.column_names):
            ndv = estimate_ndv(self._counts[index], total, len(reservoir))
            low, high = self._minimums[index], self._maximums[index]
            if type(low) is int and type(high) is int:
                # an INT column cannot hold more distinct values than its
                # range has integers (dense keys: GEE over-extrapolates)
                ndv = float(min(ndv, high - low + 1))
            columns.append(
                ColumnProfile(
                    column=name,
                    ndv=ndv,
                    null_fraction=self._nulls[index] / total if total else 0.0,
                    minimum=self._minimums[index],
                    maximum=self._maximums[index],
                )
            )
        return TableProfile(
            relation=self.relation,
            rows=total,
            sample=tuple(reservoir),
            columns=tuple(columns),
        )


def _count(counts: List[Dict[Any, int]], row: Any, step: int) -> None:
    """Add *step* to each column's count of *row*'s non-NULL value,
    dropping a value whose count falls to 0."""
    for column, value in zip(counts, row):
        if value is None:
            continue
        held = column.get(value, 0) + step
        if held:
            column[value] = held
        else:
            del column[value]


def profile_table(
    relation: str,
    column_names: Tuple[str, ...],
    rows: Any,
    config: StatsConfig = StatsConfig(),
) -> TableProfile:
    """Profile one table in a single pass over *rows* (ANALYZE
    semantics: every row is visited exactly once)."""
    table_pass = TablePass(relation, column_names, config)
    table_pass.feed(list(zip(*rows)) or [()] * len(column_names))
    return table_pass.profile()


def feed_table(table_pass: TablePass, table: Any, start: int, stop: int) -> None:
    """Continue *table_pass* over rows ``start..stop`` of *table* (a
    :class:`~repro.relational.table.Table` or a heap file), reading
    :data:`CHUNK_ROWS` rows' columns at a time through ``columns(indexes,
    positions)``: nothing of the table is kept, and no column vector is
    built that no statement reads."""
    every = range(len(table.schema.columns))
    for low in range(start, stop, CHUNK_ROWS):
        table_pass.feed(table.columns(every, range(low, min(low + CHUNK_ROWS, stop))))


class _Kept:
    """What the catalog keeps per relation: the pass and the profile of
    the rows it has seen."""

    __slots__ = ("table_pass", "profile")

    def __init__(self, table_pass: TablePass, profile: TableProfile) -> None:
        self.table_pass = table_pass
        self.profile = profile


class StatisticsCatalog:
    """One :class:`TableProfile` per relation, kept in step with the
    relation's :attr:`~repro.relational.table.Table.version`.

    Accepts anything duck-typed like
    :class:`~repro.relational.database.Database` (``schema``,
    ``table()`` whose result has ``schema``, ``version`` and
    ``columns(indexes, positions)``) — the disk
    backend's :class:`~repro.storage.engine.StorageEngine`, whose tables
    are its heap files, included.  A profile is served as long as
    its table's version stands; after an append the table's pass is
    continued over the new rows.  Other tables' profiles are untouched.
    """

    def __init__(self, database: Any, config: Optional[StatsConfig] = None) -> None:
        self.database = database
        self.config = config or StatsConfig()
        self._kept: Dict[str, _Kept] = {}  # guarded-by: _lock
        # held across a pass: a pass mutates its state, so two threads
        # must never continue the same one
        self._lock = threading.Lock()
        #: full passes run (a continued pass is not one)
        self.builds = 0  # guarded-by: _lock

    @property
    def cached_relations(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._kept))

    def profile(self, relation: str, tracer: Any = NULL_TRACER) -> TableProfile:
        """The profile of *relation* at its current version."""
        table = self.database.table(relation)
        rows = table.version
        key = relation.lower()
        with self._lock:
            kept = self._kept.get(key)
            if kept is None:
                return self._full_pass(key, table, rows, tracer)
            seen = kept.table_pass.total
            if seen == rows:
                tracer.count("planner_stats_hits")
                return kept.profile
            feed_table(kept.table_pass, table, seen, rows)
            kept.profile = kept.table_pass.profile()
            tracer.count("planner_stats_catchups")
            tracer.count("planner_stats_rows_profiled", rows - seen)
            return kept.profile

    def _full_pass(
        self, key: str, table: Any, rows: int, tracer: Any
    ) -> TableProfile:
        """Run a new pass over the first *rows* rows of *table* and keep
        it (caller holds ``_lock``)."""
        table_pass = TablePass(
            table.schema.name, tuple(table.schema.column_names), self.config
        )
        with tracer.span("analyze_table", relation=table.schema.name):
            feed_table(table_pass, table, 0, rows)
        built = table_pass.profile()
        tracer.count("planner_stats_builds")
        tracer.count("planner_stats_rows_profiled", built.rows)
        self._kept[key] = _Kept(table_pass, built)
        self.builds += 1
        return built

    def profiles(self, tracer: Any = NULL_TRACER) -> Dict[str, TableProfile]:
        """Profiles for every relation of the schema."""
        return {
            relation.name: self.profile(relation.name, tracer)
            for relation in self.database.schema
        }

    def analyze(self, tracer: Any = NULL_TRACER) -> Dict[str, TableProfile]:
        """ANALYZE: profile every relation in a new full pass, whatever
        is kept, and keep the results."""
        profiles = {}
        for relation in self.database.schema:
            table = self.database.table(relation.name)
            with self._lock:
                profiles[relation.name] = self._full_pass(
                    relation.name.lower(), table, table.version, tracer
                )
        return profiles
