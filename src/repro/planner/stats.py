"""Sampled table statistics for the cost-based planner.

A :class:`TableProfile` is built in one pass over a table: exact row
count, per-column null fractions and min/max, a reservoir sample of row
tuples (``random.Random`` seeded with :data:`DEFAULT_SEED`, so profiles
are deterministic) and each column's sampled NDV (a GEE-style
extrapolation when the table is larger than the sample, capped by the
value range for INT columns).  That is everything the planner reads:
pushed predicates are estimated by running their closures over the
sample, joins and GROUP BY from NDV.

:class:`TablePass` is that single pass as an object: the reservoir, the
generator's state, null counts, min/max and the row total.  Because a
reservoir pass over ``rows[:n]`` followed by ``rows[n:]`` *is* the pass
over ``rows``, :class:`StatisticsCatalog` keeps each table's pass and,
when the table's version says "same epoch, more rows", continues it over
the new rows only — the profile that results equals
:func:`profile_table` over the whole table, sample order included, so
there is nothing to tune and no staleness to bound.  An epoch bump
(update, delete) starts that table's pass over;
:meth:`StatisticsCatalog.analyze` (``engine.analyze_stats()``, ANALYZE)
starts every table's over.

Lint rule LR009 confines statistics *sampling* (and the cost-model
constants next door in ``repro.planner.cost``) to this package.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.observability import NULL_TRACER
from repro.relational.algebra import null_safe_sort_key

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
    """One single pass over a table's rows, resumable.

    :meth:`feed` visits rows exactly once each, in order; :meth:`profile`
    summarizes everything fed so far.  Feeding ``rows[:n]`` and then
    ``rows[n:]`` leaves the same state — reservoir contents *and* order,
    generator state, counts, extremes — as feeding ``rows`` at once,
    which is what lets the catalog continue a pass after an append.
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
        self._min_keys: List[Any] = [None] * width
        self._max_keys: List[Any] = [None] * width
        #: rows fed so far
        self.total = 0

    def feed(self, rows: Iterable[Any]) -> None:
        """Continue the pass over *rows* (any iterable of tuples — an
        in-memory table's row list or a disk table's lazy heap-backed
        sequence)."""
        width = len(self.column_names)
        rng = self._rng
        reservoir = self._reservoir
        nulls = self._nulls
        minimums, maximums = self._minimums, self._maximums
        min_keys, max_keys = self._min_keys, self._max_keys
        total = self.total
        sample_size = max(1, self.config.sample_size)
        for row in rows:
            total += 1
            if len(reservoir) < sample_size:
                reservoir.append(tuple(row))
            else:
                slot = rng.randrange(total)
                if slot < sample_size:
                    reservoir[slot] = tuple(row)
            for index in range(width):
                value = row[index]
                if value is None:
                    nulls[index] += 1
                    continue
                key = null_safe_sort_key(value)
                if minimums[index] is None or key < min_keys[index]:
                    minimums[index] = value
                    min_keys[index] = key
                if maximums[index] is None or key > max_keys[index]:
                    maximums[index] = value
                    max_keys[index] = key
        self.total = total

    def profile(self) -> TableProfile:
        """The profile of the rows fed so far."""
        total = self.total
        reservoir = self._reservoir
        columns = []
        for index, name in enumerate(self.column_names):
            counts: Dict[Any, int] = {}
            for row in reservoir:
                value = row[index]
                if value is None:
                    continue
                counts[value] = counts.get(value, 0) + 1
            ndv = estimate_ndv(counts, total, len(reservoir))
            low, high = self._minimums[index], self._maximums[index]
            if type(low) is int and type(high) is int:
                # an INT column cannot hold more distinct values than its
                # range has integers (dense keys: GEE over-extrapolates)
                ndv = min(ndv, float(high - low + 1))
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


def profile_table(
    relation: str,
    column_names: Tuple[str, ...],
    rows: Any,
    config: StatsConfig = StatsConfig(),
) -> TableProfile:
    """Profile one table in a single pass over *rows* (ANALYZE
    semantics: every row is visited exactly once)."""
    table_pass = TablePass(relation, column_names, config)
    table_pass.feed(rows)
    return table_pass.profile()


class _Kept:
    """What the catalog keeps per relation: the pass, the epoch it runs
    under and the profile of the rows it has seen."""

    __slots__ = ("epoch", "table_pass", "profile")

    def __init__(self, epoch: int, table_pass: TablePass, profile: TableProfile) -> None:
        self.epoch = epoch
        self.table_pass = table_pass
        self.profile = profile


class StatisticsCatalog:
    """One :class:`TableProfile` per relation, kept in step with the
    relation's :attr:`~repro.relational.table.Table.version`.

    Accepts anything duck-typed like
    :class:`~repro.relational.database.Database` (``schema``,
    ``table()`` whose result has ``version`` and ``rows``) — the disk
    backend's ``DiskDatabase`` included.  A profile is served as long as
    its table's version stands; after an append the table's pass is
    continued over the new rows, after an epoch bump it is run again.
    Other tables' profiles are untouched either way.
    """

    def __init__(self, database: Any, config: Optional[StatsConfig] = None) -> None:
        self.database = database
        self.config = config or StatsConfig()
        self._kept: Dict[str, _Kept] = {}
        # held across a pass: a pass mutates its state, so two threads
        # must never continue the same one
        self._lock = threading.Lock()
        #: full passes run (a continued pass is not one)
        self.builds = 0

    @property
    def cached_relations(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._kept))

    def profile(self, relation: str, tracer: Any = NULL_TRACER) -> TableProfile:
        """The profile of *relation* at its current version."""
        table = self.database.table(relation)
        epoch, rows = table.version
        key = relation.lower()
        with self._lock:
            kept = self._kept.get(key)
            if kept is None or kept.epoch != epoch:
                return self._full_pass(key, table, epoch, rows, tracer)
            seen = kept.table_pass.total
            if seen == rows:
                tracer.count("planner_stats_hits")
                return kept.profile
            kept.table_pass.feed(table.rows[seen:rows])
            kept.profile = kept.table_pass.profile()
            tracer.count("planner_stats_catchups")
            tracer.count("planner_stats_rows_profiled", rows - seen)
            return kept.profile

    def _full_pass(
        self, key: str, table: Any, epoch: int, rows: int, tracer: Any
    ) -> TableProfile:
        """Run a new pass over the first *rows* rows of *table* and keep
        it (caller holds ``_lock``)."""
        table_pass = TablePass(
            table.schema.name, tuple(table.schema.column_names), self.config
        )
        with tracer.span("analyze_table", relation=table.schema.name):
            table_pass.feed(islice(table.rows, rows))
        built = table_pass.profile()
        tracer.count("planner_stats_builds")
        tracer.count("planner_stats_rows_profiled", built.rows)
        self._kept[key] = _Kept(epoch, table_pass, built)
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
            epoch, rows = table.version
            with self._lock:
                profiles[relation.name] = self._full_pass(
                    relation.name.lower(), table, epoch, rows, tracer
                )
        return profiles
