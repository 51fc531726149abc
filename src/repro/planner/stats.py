"""Sampled table statistics for the cost-based planner.

A :class:`TableProfile` is built in one pass over a table: exact row
count, per-column null fractions and min/max, a reservoir sample of row
tuples (``random.Random`` seeded from :class:`StatsConfig`, so profiles
are deterministic), and per-column summaries derived from the sample —
sampled NDV (a GEE-style extrapolation when the table is larger than the
sample), an equi-height histogram and an MCV list (both built by the
deterministic, sampling-free :func:`build_equi_height` and
:func:`build_mcv` below).

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
    "EquiHeightHistogram",
    "MostCommonValues",
    "build_equi_height",
    "build_mcv",
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
DEFAULT_HISTOGRAM_BUCKETS = 16
DEFAULT_MCV_SIZE = 8
#: fixed sampling seed — profiles must be reproducible across runs
DEFAULT_SEED = 2016

#: selectivity assumed for predicates the estimator cannot model
DEFAULT_PREDICATE_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class StatsConfig:
    """Knobs of the statistics collector."""

    sample_size: int = DEFAULT_SAMPLE_SIZE
    histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS
    mcv_size: int = DEFAULT_MCV_SIZE
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class EquiHeightHistogram:
    """An equi-height (equi-depth) histogram over numeric values.

    ``bounds`` holds ``buckets + 1`` non-decreasing bucket boundaries;
    every bucket summarizes the same number of values (``total /
    buckets``).  Selectivities are estimated by linear interpolation
    inside the containing bucket, so they are guaranteed to stay within
    ``[0, 1]`` and to be monotone under range widening — the two
    invariants the planner's property tests pin down.
    """

    bounds: Tuple[float, ...]
    total: int

    @property
    def buckets(self) -> int:
        return len(self.bounds) - 1

    def le_fraction(self, value: float) -> float:
        """Estimated fraction of summarized values ``<= value``.

        Monotone non-decreasing in *value* and clamped to ``[0, 1]``.
        """
        bounds = self.bounds
        buckets = self.buckets
        if self.total <= 0 or buckets <= 0:
            return 0.0
        if value < bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        per_bucket = 1.0 / buckets
        acc = 0.0
        for i in range(buckets):
            low, high = bounds[i], bounds[i + 1]
            if value >= high:
                acc += per_bucket
                continue
            if value < low:  # pragma: no cover - bounds are non-decreasing
                break
            width = high - low
            if width > 0:
                acc += per_bucket * ((value - low) / width)
            break
        return min(1.0, max(0.0, acc))

    def range_selectivity(
        self, low: Optional[float] = None, high: Optional[float] = None
    ) -> float:
        """Estimated fraction of values in ``[low, high]``.

        ``None`` leaves that end open.  Bucket-boundary mass is
        approximated by interpolation, so point predicates should go
        through MCV/NDV estimates instead; the guarantee here is the
        pair of invariants above, not point accuracy.
        """
        high_fraction = 1.0 if high is None else self.le_fraction(high)
        low_fraction = 0.0 if low is None else self.le_fraction(low)
        return min(1.0, max(0.0, high_fraction - low_fraction))


@dataclass(frozen=True)
class MostCommonValues:
    """The most frequent values of a column with their frequency.

    ``fractions`` are relative to the summarized (non-null) values; the
    planner combines them with the column's null fraction.
    """

    values: Tuple[Any, ...]
    fractions: Tuple[float, ...]

    @property
    def coverage(self) -> float:
        """Fraction of non-null values captured by the list."""
        return min(1.0, sum(self.fractions))

    def fraction_of(self, value: Any) -> Optional[float]:
        for candidate, fraction in zip(self.values, self.fractions):
            if candidate == value:
                return fraction
        return None


def _numeric_values(values: Iterable[Any]) -> List[float]:
    return [
        float(value)
        for value in values
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]


def build_equi_height(
    values: Iterable[Any], buckets: int = 16
) -> Optional[EquiHeightHistogram]:
    """Build an equi-height histogram from the numeric values in *values*.

    Non-numeric and NULL values are ignored; returns None when nothing
    numeric remains.  Deterministic: no sampling happens here.
    """
    data = sorted(_numeric_values(values))
    count = len(data)
    if count == 0:
        return None
    buckets = max(1, min(buckets, count))
    bounds = [data[0]]
    for k in range(1, buckets + 1):
        index = min(count - 1, math.ceil(k * count / buckets) - 1)
        bounds.append(data[index])
    return EquiHeightHistogram(bounds=tuple(bounds), total=count)


def build_mcv(values: Iterable[Any], size: int = 8) -> Optional[MostCommonValues]:
    """Build a most-common-value list from the non-null values in *values*.

    Ties are broken by value order (via :func:`null_safe_sort_key`) so the
    result is deterministic.  Returns None when every value is NULL.
    """
    counts: Dict[Any, int] = {}
    total = 0
    for value in values:
        if value is None:
            continue
        total += 1
        counts[value] = counts.get(value, 0) + 1
    if not total or size <= 0:
        return None
    ranked = sorted(
        counts.items(), key=lambda item: (-item[1], null_safe_sort_key(item[0]))
    )[:size]
    return MostCommonValues(
        values=tuple(value for value, _ in ranked),
        fractions=tuple(count / total for _, count in ranked),
    )


@dataclass(frozen=True)
class ColumnProfile:
    """Planner-facing summary of one column."""

    column: str
    ndv: float
    null_fraction: float
    minimum: Optional[Any]
    maximum: Optional[Any]
    histogram: Optional[EquiHeightHistogram]
    mcv: Optional[MostCommonValues]

    def eq_selectivity(self, value: Any) -> float:
        """Estimated fraction of rows with ``column = value``."""
        if value is None:
            return 0.0
        non_null = 1.0 - self.null_fraction
        if non_null <= 0.0:
            return 0.0
        if self.mcv is not None:
            known = self.mcv.fraction_of(value)
            if known is not None:
                return min(1.0, known * non_null)
            remaining_mass = non_null * max(0.0, 1.0 - self.mcv.coverage)
            remaining_ndv = max(1.0, self.ndv - len(self.mcv.values))
            return min(1.0, remaining_mass / remaining_ndv)
        return min(1.0, non_null / max(1.0, self.ndv))

    def range_selectivity(self, op: str, value: Any) -> float:
        """Estimated fraction of rows satisfying ``column <op> value``."""
        if (
            self.histogram is None
            or not isinstance(value, (int, float))
            or isinstance(value, bool)
        ):
            return DEFAULT_PREDICATE_SELECTIVITY
        below = self.histogram.le_fraction(float(value))
        if op in ("<", "<="):
            fraction = below
        elif op in (">", ">="):
            fraction = 1.0 - below
        else:
            return DEFAULT_PREDICATE_SELECTIVITY
        return min(1.0, max(0.0, fraction * (1.0 - self.null_fraction)))

    def format(self) -> str:
        parts = [
            f"ndv≈{self.ndv:.0f}",
            f"nulls={self.null_fraction:.2f}",
            f"min={self.minimum!r}",
            f"max={self.maximum!r}",
        ]
        if self.histogram is not None:
            parts.append(f"histogram[{self.histogram.buckets}]")
        if self.mcv is not None:
            parts.append(f"mcv[{len(self.mcv.values)}]")
        return f"{self.column}: " + " ".join(parts)


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
        self._rng = random.Random(config.seed)
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
            sample_values = [row[index] for row in reservoir]
            counts: Dict[Any, int] = {}
            for value in sample_values:
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
                    histogram=build_equi_height(
                        sample_values, buckets=self.config.histogram_buckets
                    ),
                    mcv=build_mcv(sample_values, size=self.config.mcv_size),
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
