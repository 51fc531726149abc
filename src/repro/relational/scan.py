"""Scan operators: the leaves of a compiled plan.

A :class:`TableScan` hands out the columns of one base table that its
statement references — and only those: the plan tells it at compile time
(:meth:`TableScan.read`), the table or heap file is asked for exactly
them (``table.columns(indexes[, positions])``), and on disk only their
minipages are decoded.  Pushed-down predicates are matched to an index
strategy (:class:`IndexLookup`) so a scan starts from index row positions
instead of the full table, then verified column-wise over the
candidates.  Join keys a sibling already holds arrive as
:class:`KeyFilter` arguments (*sideways key passing*,
``docs/PLANNER.md``) and are answered from an index when the optimizer's
cost comparison on the actual key count says so.

A :class:`DerivedScan` runs a nested :class:`~repro.relational.plan.
CompiledPlan`, asks it for the output columns its parent reads, and
routes key filters through plain-column projections to the base scan
beneath.

Both emit :class:`~repro.relational.expressions.Columns` keyed by the
enclosing plan's slots: a scan's column *i* is slot ``base + i``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.cancellation import current_token
from repro.errors import SqlExecutionError
from repro.observability import NULL_TRACER
from repro.relational.database import Database
from repro.relational.expressions import (
    Binding,
    ColumnLabel,
    Columns,
    Kernel,
    ScalarFn,
    compile_kernel,
)
from repro.relational.types import DataType
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Contains,
    Expr,
    Literal,
    TableRef,
)
from repro.sql.render import render_expr

_TEXT_TYPES = (DataType.TEXT, DataType.DATE)
_NUMERIC_TYPES = (DataType.INT, DataType.FLOAT)


class IndexLookup:
    """How one pushed-down predicate is answered from an index.

    ``positions()`` returns candidate row positions (a superset of the
    matching rows for ``numeric-eq``, exact for the others) or None when the
    index cannot answer; the scan verifies candidates with the compiled
    predicate either way.  Results are memoized per version of the table
    probed.
    """

    __slots__ = ("kind", "table", "column", "value", "_cached", "_cached_version", "_lock")

    def __init__(self, kind: str, table: str, column: str, value: Any) -> None:
        self.kind = kind  # 'contains' | 'numeric-eq' | 'hash-eq' | 'never'
        self.table = table
        self.column = column
        self.value = value
        self._cached: Optional[Set[int]] = None
        self._cached_version: Any = None
        # plans are shared across service workers via the executor's plan
        # cache; the memo write must be atomic with its version stamp
        self._lock = threading.Lock()

    def positions(self, database: Database) -> Optional[Set[int]]:
        version = database.table(self.table).version
        with self._lock:
            if self._cached_version == version:
                return self._cached
        if self.kind == "contains":
            found = database.text_index.positions_for_contains(
                self.table, self.column, self.value
            )
        elif self.kind == "numeric-eq":
            found = database.numeric_index.positions_for_value(
                self.table, self.column, self.value
            )
        elif self.kind == "hash-eq":
            found = database.hash_index(self.table, (self.column,)).positions(
                (self.value,)
            )
        else:  # 'never': comparison against NULL matches nothing
            found = set()
        with self._lock:
            self._cached = found
            self._cached_version = version
        return found

    def describe(self) -> str:
        if self.kind == "never":
            return "never (NULL comparison)"
        index_name = {
            "contains": "InvertedIndex",
            "numeric-eq": "NumericIndex",
            "hash-eq": "HashIndex",
        }[self.kind]
        return f"{index_name}[{self.table}.{self.column} ~ {self.value!r}]"


@dataclass(eq=False)
class Pushed:
    """A single-scan predicate: compiled kernel plus optional index path.

    ``closure`` is the same predicate over a whole row of the scanned
    table, which is what the optimizer runs over its row sample (None on
    a derived scan, which has no sample).  ``use_lookup`` is the
    access-path switch: the cost-based optimizer sets it to False when a
    sequential scan beats the index probe (the kernel verifies every row
    either way, so the choice is purely physical).  Without an optimizer
    it stays True — index whenever one exists."""

    expr: Expr
    kernel: Kernel
    closure: Optional[ScalarFn] = None
    lookup: Optional[IndexLookup] = None
    use_lookup: bool = True


class KeyFilter:
    """The distinct non-NULL join keys one side of an equi-join already
    holds, offered to the scan that feeds the other side.

    Made per execution and handed down as an ``execute`` argument, never
    stored on the (shared, cached) plan.  The table scan owning the
    column decides from the key count whether to start from an index and
    writes the outcome here, which is how the caller records and explains
    it.  ``keys`` is None in an explain-only forecast, where ``count`` is
    an estimate."""

    __slots__ = ("source", "keys", "count", "outcome", "est_rows")

    def __init__(
        self, source: str, keys: Optional[Set[Any]], count: Optional[float] = None
    ) -> None:
        self.source = source
        self.keys = keys
        self.count = len(keys) if keys is not None else count
        self.outcome = ""
        self.est_rows: Optional[float] = None  # set when pushed

    def describe(self, actual: Optional[int]) -> str:
        if self.keys is None:
            text = f"keys from {self.source} (est≈{self.count:,.0f}) {self.outcome}"
            if self.est_rows is not None:
                text += f" → est≈{self.est_rows:,.0f} rows"
            return text
        text = f"keys from {self.source} ({self.count:,}) {self.outcome}"
        if self.est_rows is not None and actual is not None:
            text += f" → {actual:,} rows"
        return text


class KeyTarget(NamedTuple):
    """The base-table column behind a scan's output column."""

    scan: "TableScan"
    column: str

    @property
    def numeric(self) -> bool:
        return self.scan._dtype(self.column) in _NUMERIC_TYPES


#: a scan's key filters: (its own column name, the keys offered for it)
KeyFilters = Sequence[Tuple[str, KeyFilter]]


def rows_note(
    estimate: Optional[float], actual: Optional[int], elapsed_ms: Optional[float] = None
) -> str:
    """`` (est≈N, actual M rows, T ms)`` suffix for explain lines: the
    estimate when decided, the rest once executed."""
    if estimate is None:
        return ""
    note = f" (est≈{estimate:,.0f}"
    if actual is not None:
        note += f", actual {actual:,}"
    note += " rows"
    if elapsed_ms is not None:
        note += f", {elapsed_ms:.2f} ms"
    return note + ")"


def filtered(columns: Columns, mask: Sequence[Any], tracer: Any) -> Columns:
    """The rows of *columns* that *mask* keeps, the others counted."""
    kept = columns.keep(mask)
    tracer.count("rows_filtered", columns.rows - kept.rows)
    return kept


def _apply_pushed(columns: Columns, pushed: Iterable[Pushed], tracer: Any) -> Columns:
    for pred in pushed:
        columns = filtered(columns, pred.kernel(columns), tracer)
        tracer.count("predicates_pushed")
    return columns


class TableScan:
    """Scan of one base table, with pushed-down predicates."""

    def __init__(
        self, item: TableRef, database: Database, base: int, optimizer: Any = None
    ) -> None:
        table = database.table(item.table)
        self._optimizer = optimizer
        self.table_name = item.table
        self.alias = item.alias
        self.schema = table.schema
        self.base = base
        self.labels: Tuple[ColumnLabel, ...] = tuple(
            (item.alias, name) for name in table.schema.column_names
        )
        self.pushed: List[Pushed] = []
        #: indexes of the columns the statement reads, and their slots
        self.needed: List[int] = []
        self.slots: List[int] = []

    def push(self, expr: Expr, binding: Binding) -> None:
        kernel = compile_kernel(expr, binding)
        self.pushed.append(
            Pushed(
                expr, kernel, kernel.row_closure(self.base), self._index_strategy(expr)
            )
        )

    def read(self, slots: Iterable[int]) -> None:
        """Compile-time: *slots* are all this scan will be asked for."""
        self.slots = sorted(slots)
        self.needed = [slot - self.base for slot in self.slots]

    def _index_strategy(self, expr: Expr) -> Optional[IndexLookup]:
        """Match a pushed conjunct to an index, when sound.

        Gated on column/literal type agreement so the index path can never
        diverge from the predicate closure (which raises on mixed-type
        comparisons that a hash lookup would silently miss)."""
        if isinstance(expr, Contains):
            column = self._own_column(expr.column)
            if column is not None and self._dtype(column) in _TEXT_TYPES:
                return IndexLookup("contains", self.table_name, column, expr.phrase)
            return None
        if isinstance(expr, BinaryOp) and expr.op == "=":
            sides = (expr.left, expr.right)
            for ref, literal in (sides, sides[::-1]):
                if not isinstance(ref, ColumnRef) or not isinstance(literal, Literal):
                    continue
                column = self._own_column(ref)
                if column is None:
                    continue
                value = literal.value
                if value is None:
                    return IndexLookup("never", self.table_name, column, None)
                dtype = self._dtype(column)
                if dtype in _NUMERIC_TYPES and isinstance(
                    value, (int, float)
                ) and not isinstance(value, bool):
                    return IndexLookup(
                        "numeric-eq", self.table_name, column, value
                    )
                if dtype in _TEXT_TYPES and isinstance(value, str):
                    return IndexLookup("hash-eq", self.table_name, column, value)
                return None
        return None

    def _own_column(self, expr: Expr) -> Optional[str]:
        """The scan's column name referenced by *expr*, or None."""
        if not isinstance(expr, ColumnRef):
            return None
        if expr.qualifier is not None and expr.qualifier != self.alias:
            return None
        if not self.schema.has_column(expr.name):
            for name in self.schema.column_names:
                if name.lower() == expr.name.lower():
                    return name
            return None
        return expr.name

    def _dtype(self, column: str) -> DataType:
        return self.schema.column(column).dtype

    def key_target(self, column: str) -> Optional[KeyTarget]:
        """This scan's *column* as a key-filter target: set when an index
        can answer equality on it (numeric or text), else None."""
        name = self._own_column(ColumnRef(column))
        if name is None or self._dtype(name) not in _NUMERIC_TYPES + _TEXT_TYPES:
            return None
        return KeyTarget(self, name)

    def cost_key_filter(self, column: str, key_filter: KeyFilter) -> bool:
        """Whether to answer *key_filter* from the index on *column*:
        the optimizer's index-vs-sequential comparison, on the filter's
        key count.  Writes the outcome onto the filter."""
        est_rows = self._optimizer.key_filter_rows(
            self.table_name, column, key_filter.count
        )
        if est_rows is None:
            key_filter.outcome = "not pushed (a sequential scan costs less)"
            return False
        numeric = self._dtype(column) in _NUMERIC_TYPES
        index_name = "NumericIndex" if numeric else "HashIndex"
        key_filter.outcome = f"via {index_name}[{self.table_name}.{column}]"
        key_filter.est_rows = est_rows
        return True

    def _key_positions(
        self, database: Database, column: str, keys: Set[Any]
    ) -> Optional[Set[int]]:
        """Candidate positions of rows whose *column* is one of *keys*,
        through the seams :class:`IndexLookup` uses; None when the index
        cannot answer for some key."""
        found: List[Optional[Set[int]]]
        if self._dtype(column) in _NUMERIC_TYPES:
            index = database.numeric_index
            found = [
                index.positions_for_value(self.table_name, column, key) for key in keys
            ]
        else:
            hashed = database.hash_index(self.table_name, (column,))
            found = [hashed.positions((key,)) for key in keys]
        if None in found:
            return None
        return set().union(*found)  # type: ignore[arg-type]

    def execute(
        self,
        database: Database,
        tracer: Any = NULL_TRACER,
        key_filters: KeyFilters = (),
    ) -> Columns:
        current_token().check()
        table = database.table(self.table_name)
        positions: Optional[Set[int]] = None
        lookups = 0
        for pred in self.pushed:
            if pred.lookup is None or not pred.use_lookup:
                continue
            found = pred.lookup.positions(database)
            if found is None:
                continue
            lookups += 1
            positions = found if positions is None else positions & found
        # (slot of the column, keys): candidates are verified by set
        # membership, the hash join's own equality
        verify: List[Tuple[int, Set[Any]]] = []
        for column, key_filter in key_filters:
            column = self._own_column(ColumnRef(column))  # as the schema spells it
            if not self.cost_key_filter(column, key_filter):
                continue
            found = self._key_positions(database, column, key_filter.keys)
            if found is None:
                key_filter.outcome = "not pushed (no index answers)"
                key_filter.est_rows = None
                continue
            lookups += 1
            tracer.count("key_filters_pushed")
            tracer.count("key_filter_keys", len(key_filter.keys))
            positions = found if positions is None else positions & found
            verify.append(
                (self.base + self.schema.column_index(column), key_filter.keys)
            )
        if positions is not None:
            tracer.count("index_scans", lookups)
            tracer.count("rows_skipped_by_index", len(table) - len(positions))
            vectors = table.columns(self.needed, sorted(positions))
            rows = len(positions)
        else:
            vectors = table.columns(self.needed)
            rows = len(vectors[0]) if vectors else len(table)
        columns = Columns(rows, dict(zip(self.slots, vectors)))
        tracer.count("rows_scanned", rows)
        for slot, keys in verify:
            mask = list(map(keys.__contains__, columns.vectors[slot]))
            columns = filtered(columns, mask, tracer)
        return _apply_pushed(columns, self.pushed, tracer)

    def describe(self, indent: str, note: str, key_filters: Sequence[str] = ()) -> List[str]:
        lines = [f"{indent}scan {self.table_name} AS {self.alias}{note}"]
        for pred in self.pushed:
            if pred.lookup is not None and not pred.use_lookup:
                via = f"compiled filter (seq scan; skipped {pred.lookup.describe()})"
            elif pred.lookup is not None:
                via = pred.lookup.describe()
            else:
                via = "compiled filter"
            lines.append(f"{indent}  push {render_expr(pred.expr)} via {via}")
        return lines


class DerivedScan:
    """A derived table: a nested compiled sub-plan."""

    def __init__(self, alias: str, subplan: Any, base: int) -> None:
        self.alias = alias
        self.subplan = subplan  # a repro.relational.plan.CompiledPlan
        self.base = base
        self.labels: Tuple[ColumnLabel, ...] = tuple(
            (alias, name) for name in subplan.output_columns
        )
        self.pushed: List[Pushed] = []
        self._hops = self._key_hops()

    def push(self, expr: Expr, binding: Binding) -> None:
        self.pushed.append(Pushed(expr, compile_kernel(expr, binding)))

    def read(self, slots: Iterable[int]) -> None:
        """Compile-time: *slots* are all this scan will be asked for, so
        the sub-plan need not produce its other output columns."""
        self.subplan.narrow(sorted(slot - self.base for slot in slots))

    def _key_hops(self) -> Dict[str, Tuple[Any, str]]:
        """Lowercased output column -> (sub-plan scan, its column), for
        every output that is a plain column of a non-aggregated,
        un-LIMITed sub-select.  Selecting on such a column commutes with
        the projection, its DISTINCT and the sub-select's own joins, so
        join keys offered for it may be handed to that scan instead."""
        sub = self.subplan
        if sub.project.aggregated or sub.select.limit is not None:
            return {}
        scans = {scan.alias: scan for scan in sub.scans}
        hops: Dict[str, Tuple[Any, str]] = {}
        for name, item in zip(sub.output_columns, sub.select.items):
            if not isinstance(item.expr, ColumnRef):
                continue
            try:
                scan = scans.get(sub._alias_of_ref(item.expr))
            except SqlExecutionError:
                continue  # unknown / ambiguous: fails when executed
            if scan is not None:
                hops.setdefault(name.lower(), (scan, item.expr.name))
        return hops

    def key_target(self, column: str) -> Optional[KeyTarget]:
        """The base-table column *column* is a plain copy of (through
        nested derived tables too), when keys can be pushed that far."""
        hop = self._hops.get(column.lower())
        return hop[0].key_target(hop[1]) if hop else None

    def execute(
        self,
        database: Database,
        tracer: Any = NULL_TRACER,
        key_filters: KeyFilters = (),
    ) -> Columns:
        handed: Dict[str, List[Tuple[str, KeyFilter]]] = {}
        for column, key_filter in key_filters:
            scan, inner_column = self._hops[column.lower()]
            handed.setdefault(scan.alias, []).append((inner_column, key_filter))
        inner = self.subplan.run(tracer, handed)
        columns = Columns(
            inner.rows,
            {self.base + output: vector for output, vector in inner.vectors.items()},
        )
        return _apply_pushed(columns, self.pushed, tracer)

    def describe(self, indent: str, note: str, key_filters: Sequence[str] = ()) -> List[str]:
        lines = [f"{indent}derived {self.alias}{note}:"]
        lines.extend(self.subplan.describe(indent + "  "))
        lines.extend(f"{indent}  {text}" for text in key_filters)
        for pred in self.pushed:
            lines.append(
                f"{indent}  push {render_expr(pred.expr)} via compiled filter"
            )
        return lines
