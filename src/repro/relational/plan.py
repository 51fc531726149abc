"""Compiled physical query plans.

A :class:`CompiledPlan` is built once from a :class:`~repro.sql.ast.Select`
and executed many times.  Compilation does everything that is independent of
the data up front:

* every WHERE conjunct is classified (single-table pushdown vs. join
  predicate vs. residual filter) and its referenced aliases are resolved
  once;
* pushed-down ``contains`` and equality predicates are matched to an index
  strategy (:class:`~repro.relational.index.InvertedIndex`,
  :class:`~repro.relational.index.NumericIndex` or a per-table
  :class:`~repro.relational.index.HashIndex`) so scans start from index row
  positions instead of the full table;
* predicates, projections, GROUP BY keys and aggregate outputs are compiled
  into closures (:func:`~repro.relational.expressions.compile_scalar` and
  friends), eliminating the per-row AST walk and column re-resolution.

Join *order* comes from the cost-based optimizer (``repro.planner``) the
executor passes in: its :class:`PlanDecisions` are computed at compile
time — a DP-chosen join order (applied step by step in
:meth:`CompiledPlan._join`), per-predicate index-vs-seq-scan choices, and
per-operator row estimates that :meth:`CompiledPlan.execute` pairs with
actuals in :attr:`CompiledPlan.last_run` (surfaced by ``--explain``).
Where there are no decided steps to follow — a join component wider than
the optimizer's DP limit, decisions that stopped matching the runtime
components, or a plan constructed without an optimizer — the order is a
greedy runtime decision, smallest size product first.  Either order
produces the same result *set*; ``tests/integration/test_plan_equivalence.py``
runs every experiment statement through both.

Decided steps also say *when* a derived table runs: a
:class:`_DerivedScan` a step reaches is executed with that step, and if
the other side is built by then its distinct join keys are handed down
(:class:`_KeyFilter`, an ``execute`` argument) through plain-column
projections to the base :class:`_TableScan`, which starts from an index
on them when the optimizer's cost comparison on the actual key count
says so — *sideways key passing*, ``docs/PLANNER.md``.  A DISTINCT whose
projection keeps a whole primary key is elided at compile time.

Executor-level caching and invalidation (by rendered SQL and the
versions of the tables a statement reads) live in
:class:`~repro.relational.executor.Executor`.
"""

from __future__ import annotations

import operator
import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cancellation import CHECK_STRIDE, current_token
from repro.errors import SqlExecutionError
from repro.observability import NULL_TRACER
from repro.relational.algebra import (
    Rowset,
    cross_join,
    distinct,
    hash_join,
    null_safe_sort_key,
)
from repro.relational.database import Database
from repro.relational.expressions import (
    Binding,
    ColumnLabel,
    compile_aggregate,
    compile_predicate,
    compile_scalar,
)
from repro.relational.result import QueryResult
from repro.relational.types import DataType
from repro.sql.render import render_expr
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Contains,
    DerivedTable,
    Expr,
    Literal,
    Select,
    TableRef,
)

_TEXT_TYPES = (DataType.TEXT, DataType.DATE)
_NUMERIC_TYPES = (DataType.INT, DataType.FLOAT)


class IndexLookup:
    """How one pushed-down predicate is answered from an index.

    ``positions()`` returns candidate row positions (a superset of the
    matching rows for ``numeric-eq``, exact for the others) or None when the
    index cannot answer; the scan verifies candidates with the compiled
    predicate closures either way.  Results are memoized per version of
    the table probed.
    """

    __slots__ = (
        "kind",
        "table",
        "column",
        "value",
        "_cached",
        "_cached_version",
        "_lock",
    )

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


class _Pushed:
    """A single-scan predicate: compiled closure plus optional index path.

    ``use_lookup`` is the access-path switch: the cost-based optimizer
    sets it to False when a sequential scan beats the index probe (the
    closure verifies every row either way, so the choice is purely
    physical).  Without an optimizer it stays True — index whenever one
    exists."""

    __slots__ = ("expr", "closure", "lookup", "use_lookup")

    def __init__(self, expr: Expr, closure, lookup: Optional[IndexLookup]) -> None:
        self.expr = expr
        self.closure = closure
        self.lookup = lookup
        self.use_lookup = True


class _KeyFilter:
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


class _KeyTarget(NamedTuple):
    """The base-table column behind a scan's output column."""

    scan: "_TableScan"
    column: str

    @property
    def numeric(self) -> bool:
        return self.scan._dtype(self.column) in _NUMERIC_TYPES


#: a scan's key filters: (its own column name, the keys offered for it)
KeyFilters = Sequence[Tuple[str, _KeyFilter]]


class _TableScan:
    """Scan of one base table, with pushed-down predicates."""

    def __init__(
        self, item: TableRef, database: Database, optimizer: Any = None
    ) -> None:
        table = database.table(item.table)
        self._optimizer = optimizer
        self.table_name = item.table
        self.alias = item.alias
        self.schema = table.schema
        self.labels: Tuple[ColumnLabel, ...] = tuple(
            (item.alias, name) for name in table.schema.column_names
        )
        self.binding = Binding(self.labels)
        self.pushed: List[_Pushed] = []

    def push(self, expr: Expr, database: Database) -> None:
        self.pushed.append(
            _Pushed(
                expr,
                compile_predicate(expr, self.binding),
                self._index_strategy(expr),
            )
        )

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

    def key_target(self, column: str) -> Optional[_KeyTarget]:
        """This scan's *column* as a key-filter target: set when an index
        can answer equality on it (numeric or text), else None."""
        name = self._own_column(ColumnRef(column))
        if name is None or self._dtype(name) not in _NUMERIC_TYPES + _TEXT_TYPES:
            return None
        return _KeyTarget(self, name)

    def cost_key_filter(self, column: str, key_filter: _KeyFilter) -> bool:
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
        if self._dtype(column) in _NUMERIC_TYPES:
            index = database.numeric_index

            def lookup(key: Any) -> Optional[Set[int]]:
                return index.positions_for_value(self.table_name, column, key)

        else:
            hashed = database.hash_index(self.table_name, (column,))

            def lookup(key: Any) -> Optional[Set[int]]:
                return hashed.positions((key,))

        positions: Set[int] = set()
        for key in keys:
            found = lookup(key)
            if found is None:
                return None
            positions |= found
        return positions

    def execute(
        self,
        database: Database,
        tracer=NULL_TRACER,
        key_filters: KeyFilters = (),
    ) -> Rowset:
        current_token().check()
        table = database.table(self.table_name)
        rows = table.rows
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
        # (row position of the column, keys): candidates are verified by
        # set membership, the hash join's own equality
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
            verify.append((self.schema.column_index(column), key_filter.keys))
        if positions is not None:
            tracer.count("index_scans", lookups)
            tracer.count("rows_skipped_by_index", len(rows) - len(positions))
            ordered = sorted(positions)
            rows_at = getattr(rows, "rows_at", None)  # a heap: page by page
            selected: List[Tuple[Any, ...]] = (
                rows_at(ordered) if rows_at else [rows[pos] for pos in ordered]
            )
        else:
            selected = list(rows)
        tracer.count("rows_scanned", len(selected))
        for index, keys in verify:
            before = len(selected)
            selected = [row for row in selected if row[index] in keys]
            tracer.count("rows_filtered", before - len(selected))
        for pred in self.pushed:
            before = len(selected)
            fn = pred.closure
            selected = [row for row in selected if fn(row)]
            tracer.count("predicates_pushed")
            tracer.count("rows_filtered", before - len(selected))
        return Rowset(self.binding, selected)

    def describe(
        self, indent: str = "", estimate: Optional[float] = None,
        actual: Optional[int] = None,
    ) -> List[str]:
        header = f"{indent}scan {self.table_name} AS {self.alias}"
        header += _rows_note(estimate, actual)
        lines = [header]
        for pred in self.pushed:
            if pred.lookup is not None and not pred.use_lookup:
                via = f"compiled filter (seq scan; skipped {pred.lookup.describe()})"
            elif pred.lookup is not None:
                via = pred.lookup.describe()
            else:
                via = "compiled filter"
            lines.append(f"{indent}  push {render_expr(pred.expr)} via {via}")
        return lines


class _DerivedScan:
    """A derived table: a nested compiled sub-plan."""

    def __init__(
        self,
        item: DerivedTable,
        database: Database,
        optimizer: Any = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.alias = item.alias
        self.subplan = CompiledPlan(
            item.select, database, optimizer=optimizer, tracer=tracer
        )
        self.labels: Tuple[ColumnLabel, ...] = tuple(
            (item.alias, name) for name in self.subplan.output_columns
        )
        self.binding = Binding(self.labels)
        self.pushed: List[_Pushed] = []
        self._hops = self._key_hops()

    def push(self, expr: Expr, database: Database) -> None:
        self.pushed.append(_Pushed(expr, compile_predicate(expr, self.binding), None))

    def _key_hops(self) -> Dict[str, Tuple[Any, str]]:
        """Lowercased output column -> (sub-plan scan, its column), for
        every output that is a plain column of a non-aggregated,
        un-LIMITed sub-select.  Selecting on such a column commutes with
        the projection, its DISTINCT and the sub-select's own joins, so
        join keys offered for it may be handed to that scan instead."""
        sub = self.subplan
        if sub._aggregated or sub.select.limit is not None:
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

    def key_target(self, column: str) -> Optional[_KeyTarget]:
        """The base-table column *column* is a plain copy of (through
        nested derived tables too), when keys can be pushed that far."""
        hop = self._hops.get(column.lower())
        return hop[0].key_target(hop[1]) if hop else None

    def execute(
        self,
        database: Database,
        tracer=NULL_TRACER,
        key_filters: KeyFilters = (),
    ) -> Rowset:
        handed: Dict[str, List[Tuple[str, _KeyFilter]]] = {}
        for column, key_filter in key_filters:
            scan, inner_column = self._hops[column.lower()]
            handed.setdefault(scan.alias, []).append((inner_column, key_filter))
        inner = self.subplan.execute(tracer, handed)
        selected = inner.rows
        for pred in self.pushed:
            before = len(selected)
            fn = pred.closure
            selected = [row for row in selected if fn(row)]
            tracer.count("predicates_pushed")
            tracer.count("rows_filtered", before - len(selected))
        return Rowset(self.binding, selected)

    def describe(
        self, indent: str = "", estimate: Optional[float] = None,
        actual: Optional[int] = None,
        key_filters: Sequence[_KeyFilter] = (),
    ) -> List[str]:
        lines = [f"{indent}derived {self.alias}{_rows_note(estimate, actual)}:"]
        lines.extend(self.subplan.describe(indent + "  "))
        for key_filter in key_filters:
            lines.append(f"{indent}  {key_filter.describe(actual)}")
        for pred in self.pushed:
            lines.append(
                f"{indent}  push {render_expr(pred.expr)} via compiled filter"
            )
        return lines


def _rows_note(estimate: Optional[float], actual: Optional[int]) -> str:
    """`` (est≈N, actual M rows)`` suffix for explain lines, when known."""
    if estimate is None:
        return ""
    note = f" (est≈{estimate:,.0f}"
    if actual is not None:
        note += f", actual {actual:,}"
    return note + " rows)"


class Observation:
    """Estimated vs. actual output rows of one executed operator."""

    __slots__ = ("label", "estimated", "actual")

    def __init__(self, label: str, estimated: float, actual: int) -> None:
        self.label = label
        self.estimated = estimated
        self.actual = actual

    @property
    def q_error(self) -> float:
        """``max(est/actual, actual/est)`` with both floored at one row."""
        estimated = max(1.0, float(self.estimated))
        actual = max(1.0, float(self.actual))
        return max(estimated / actual, actual / estimated)


class PlanRun:
    """Per-operator estimated-vs-actual rows for one plan execution.

    Stored on :attr:`CompiledPlan.last_run` after every optimized
    execution; the plan-quality benchmark and ``--explain`` read it."""

    __slots__ = ("operators", "key_filters")

    def __init__(self) -> None:
        self.operators: List[Observation] = []
        #: alias of a deferred scan -> the sibling keys it was offered
        self.key_filters: Dict[str, List[_KeyFilter]] = {}

    def record(self, label: str, estimated: float, actual: int) -> None:
        self.operators.append(Observation(label, estimated, actual))

    def observation(self, label: str) -> Optional[Observation]:
        for observation in self.operators:
            if observation.label == label:
                return observation
        return None

    def actual_for(self, label: str) -> Optional[int]:
        observation = self.observation(label)
        return observation.actual if observation else None

    def q_errors(self) -> List[float]:
        return [observation.q_error for observation in self.operators]


class _Conjunct:
    """A WHERE conjunct spanning several FROM items, with its alias set and
    equi-join shape resolved at compile time."""

    __slots__ = (
        "expr",
        "aliases",
        "is_equi",
        "left_ref",
        "right_ref",
        "left_alias",
        "_closures",
    )

    def __init__(
        self,
        expr: Expr,
        aliases: frozenset,
        is_equi: bool,
        left_ref: Optional[ColumnRef] = None,
        right_ref: Optional[ColumnRef] = None,
        left_alias: Optional[str] = None,
    ) -> None:
        self.expr = expr
        self.aliases = aliases
        self.is_equi = is_equi
        self.left_ref = left_ref
        self.right_ref = right_ref
        self.left_alias = left_alias
        self._closures: Dict[Tuple[ColumnLabel, ...], Callable] = {}

    def closure_for(self, binding: Binding):
        key = binding.labels
        fn = self._closures.get(key)
        if fn is None:
            fn = self._closures.setdefault(key, compile_predicate(self.expr, binding))
        return fn


class _KeySource(NamedTuple):
    """An equi-conjunct through which a deferred scan can be offered the
    other side's join keys: its own *column*, the other side's ref."""

    column: str
    other_ref: ColumnRef
    other_alias: str


def _one_alias_sides(step: Any):
    """``(alias, other side)`` for each side of a decided join step that
    is a single FROM item — the way every alias enters its join tree."""
    for own, other in ((step.left, step.right), (step.right, step.left)):
        if len(own) == 1:
            (alias,) = own
            yield alias, other


class _Component:
    """A connected group of FROM items during join execution."""

    __slots__ = ("aliases", "rowset")

    def __init__(self, aliases: Set[str], rowset: Rowset) -> None:
        self.aliases = aliases
        self.rowset = rowset


class CompiledPlan:
    """A reusable physical plan for one ``Select`` over one database."""

    def __init__(
        self,
        select: Select,
        database: Database,
        optimizer: Any = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.select = select
        self.database = database
        # duck-typed repro.planner.Optimizer (this module must not import
        # upper layers); None leaves the join order to the greedy runtime
        # heuristic and every index in use
        self._optimizer = optimizer
        self._compile_tracer = tracer
        self.decisions: Any = None
        self.last_run: Optional[PlanRun] = None
        self.output_columns: List[str] = [
            item.output_name(default=f"col{i + 1}")
            for i, item in enumerate(select.items)
        ]
        self._output_binding = Binding([(None, name) for name in self.output_columns])
        self._aggregated = select.has_aggregates() or bool(select.group_by)
        self.scans: List[Any] = []
        self.pending: List[_Conjunct] = []
        self._build_scans()
        self._alias_owners = self._column_owner_map()
        self._classify_conjuncts()
        self._order_keys = [
            (self._compile_order_value(item.expr), item.descending)
            for item in select.order_by
        ]
        # lazy per-binding caches; bindings after joins depend on the
        # runtime join order, so these are keyed by the binding's labels
        self._projector_cache: Dict[Tuple[ColumnLabel, ...], Callable] = {}
        self._group_key_cache: Dict[Tuple[ColumnLabel, ...], Callable] = {}
        self._aggregate_cache: Dict[Tuple[ColumnLabel, ...], List[Callable]] = {}
        #: the primary key that makes this statement's DISTINCT a no-op
        self.distinct_elided_key = self._redundant_distinct_key()
        #: derived scans run when their decided join step does, and the
        #: conjuncts that can then hand them the other side's keys
        self.deferred: frozenset = frozenset()
        self.key_sources: Dict[str, List[_KeySource]] = {}
        if self._optimizer is not None:
            self.decisions = self._optimizer.decide(self, tracer)
            self._apply_index_choices()
            self._plan_deferrals()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _build_scans(self) -> None:
        if not self.select.from_items:
            raise SqlExecutionError("FROM clause is empty")
        seen: Set[str] = set()
        for item in self.select.from_items:
            if item.alias in seen:
                raise SqlExecutionError(f"duplicate alias {item.alias!r} in FROM")
            seen.add(item.alias)
            if isinstance(item, TableRef):
                self.scans.append(
                    _TableScan(item, self.database, self._optimizer)
                )
            elif isinstance(item, DerivedTable):
                self.scans.append(
                    _DerivedScan(
                        item,
                        self.database,
                        optimizer=self._optimizer,
                        tracer=self._compile_tracer,
                    )
                )
            else:  # pragma: no cover - defensive
                raise SqlExecutionError(f"unknown FROM item {item!r}")

    def _column_owner_map(self) -> Dict[str, List[str]]:
        """lowercased column name -> aliases providing it (for resolving
        unqualified references)."""
        owners: Dict[str, List[str]] = {}
        for scan in self.scans:
            for alias, name in scan.labels:
                owners.setdefault(name.lower(), []).append(alias)
        return owners

    def _aliases_of(self, expr: Expr) -> frozenset:
        aliases: Set[str] = set()
        for node in expr.walk():
            if not isinstance(node, ColumnRef):
                continue
            aliases.add(self._alias_of_ref(node))
        return frozenset(aliases)

    def _alias_of_ref(self, ref: ColumnRef) -> str:
        if ref.qualifier is not None:
            return ref.qualifier
        owners = set(self._alias_owners.get(ref.name.lower(), ()))
        if not owners:
            raise SqlExecutionError(f"unknown column {ref}")
        if len(owners) > 1:
            raise SqlExecutionError(f"ambiguous column {ref}")
        return next(iter(owners))

    def _classify_conjuncts(self) -> None:
        scans_by_alias = {scan.alias: scan for scan in self.scans}
        for expr in self.select.where_conjuncts():
            aliases = self._aliases_of(expr)
            if len(aliases) <= 1:
                owner = (
                    scans_by_alias.get(next(iter(aliases)))
                    if aliases
                    else self.scans[0]  # constant predicate: first scan
                )
                if owner is not None:
                    owner.push(expr, self.database)
                    continue
                # unknown qualifier: leave pending; fails per-row at the
                # end of the join phase
                self.pending.append(_Conjunct(expr, aliases, False))
                continue
            is_equi = (
                isinstance(expr, BinaryOp)
                and expr.op == "="
                and isinstance(expr.left, ColumnRef)
                and isinstance(expr.right, ColumnRef)
            )
            if is_equi:
                assert isinstance(expr, BinaryOp)
                left_ref, right_ref = expr.left, expr.right
                self.pending.append(
                    _Conjunct(
                        expr,
                        aliases,
                        True,
                        left_ref,
                        right_ref,
                        self._alias_of_ref(left_ref),
                    )
                )
            else:
                self.pending.append(_Conjunct(expr, aliases, False))

    def _apply_index_choices(self) -> None:
        """Turn the optimizer's access-path choices into scan behavior."""
        for scan in self.scans:
            decision = self.decisions.scans.get(scan.alias)
            if decision is None:
                continue
            for pred, choice in zip(scan.pushed, decision.index_choices):
                if choice is False and pred.lookup is not None:
                    pred.use_lookup = False

    def _redundant_distinct_key(self) -> Optional[Tuple[str, ...]]:
        """The primary key this statement's DISTINCT projection keeps
        whole, so that it cannot remove a row — else None.

        Holds for a non-aggregated select of plain columns over exactly
        one base table: ``Table`` enforces key uniqueness on every insert
        (and the disk tier is materialized from it), so rows that differ
        on the key stay distinct under any projection covering it."""
        if not self.select.distinct or self._aggregated or len(self.scans) != 1:
            return None
        scan = self.scans[0]
        if not isinstance(scan, _TableScan):
            return None
        projected = {scan._own_column(item.expr) for item in self.select.items}
        key = scan.schema.primary_key
        table = self.database.table(scan.table_name)
        if (
            None in projected
            or not set(key) <= projected
            or not getattr(table, "enforce_key", True)
        ):
            return None
        return key

    def _plan_deferrals(self) -> None:
        """Defer every derived scan a decided join step reaches (each
        alias of an ordered component enters through a one-alias side),
        and list the equi-conjuncts whose two columns are plain copies of
        same-typed base columns: through those, the step can hand the
        scan the keys its other side holds."""
        scans = {scan.alias: scan for scan in self.scans}
        self.deferred = frozenset(
            alias
            for step in self.decisions.join_steps
            for alias, _ in _one_alias_sides(step)
            if isinstance(scans[alias], _DerivedScan)
        )
        for conjunct in self.pending:
            if not conjunct.is_equi or len(conjunct.aliases) != 2:
                continue
            refs = (conjunct.left_ref, conjunct.right_ref)
            for own_ref, other_ref in (refs, refs[::-1]):
                own_alias = self._alias_of_ref(own_ref)
                other = scans.get(self._alias_of_ref(other_ref))
                if own_alias not in self.deferred or other is None:
                    continue
                own_target = scans[own_alias].key_target(own_ref.name)
                other_target = other.key_target(other_ref.name)
                if (
                    own_target is not None
                    and other_target is not None
                    and own_target.numeric == other_target.numeric
                ):
                    self.key_sources.setdefault(own_alias, []).append(
                        _KeySource(own_ref.name, other_ref, other.alias)
                    )

    @property
    def compiled_predicates(self) -> int:
        """Number of predicate closures compiled into this plan (pushed +
        pending, including nested sub-plans)."""
        total = len(self.pending)
        for scan in self.scans:
            total += len(scan.pushed)
            if isinstance(scan, _DerivedScan):
                total += scan.subplan.compiled_predicates
        return total

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        tracer=NULL_TRACER,
        key_filters: Optional[Dict[str, KeyFilters]] = None,
    ) -> QueryResult:
        """Run the plan.  *key_filters* (alias -> filters) is how an
        enclosing plan hands this sub-plan's scans the join keys it
        already holds; it travels as an argument because the plan itself
        is shared between executions."""
        # cancellation checkpoints: the ambient token (repro.cancellation)
        # is polled at operator boundaries here and strided inside the
        # algebra join loops, so a served query with a deadline aborts
        # mid-plan instead of hogging its worker
        token = current_token()
        token.check()
        run = PlanRun() if self.decisions is not None else None
        handed = key_filters or {}
        components: List[_Component] = []
        deferred: Dict[str, Any] = {}
        for scan in self.scans:
            if scan.alias in self.deferred:
                deferred[scan.alias] = scan
            else:
                components.append(
                    self._run_scan(scan, handed.get(scan.alias, ()), tracer, run)
                )
        pending = list(self.pending)
        pending = self._apply_pending(components, pending, tracer)
        merged = self._join(components, deferred, handed, pending, tracer, run)
        token.check()
        result = self._project(merged.rowset, tracer)
        if run is not None:
            run.record("output", self.decisions.est_output, len(result.rows))
            # single reference assignment: racing executions each publish
            # a complete PlanRun; readers see one or the other
            self.last_run = run
            tracer.count("planner_runs_observed")
        return result

    def _run_scan(
        self, scan: Any, key_filters: KeyFilters, tracer, run: Optional[PlanRun]
    ) -> _Component:
        rowset = scan.execute(self.database, tracer, key_filters)
        decision = self.decisions.scans.get(scan.alias) if run is not None else None
        if decision is not None:
            # a pushed key filter re-estimated the scan from the actual
            # key count; that, not the unfiltered estimate, is what ran
            estimate = min(
                [decision.est_rows]
                + [f.est_rows for _, f in key_filters if f.est_rows is not None]
            )
            run.record(f"scan {scan.alias}", estimate, len(rowset))
        return _Component({scan.alias}, rowset)

    def _sibling_keys(
        self, scan: Any, other: frozenset, components: List[_Component]
    ) -> List[Tuple[str, _KeyFilter]]:
        """Key filters for deferred *scan* from the component its join
        step pairs it with — none when that side is not built yet."""
        holder = next((c for c in components if c.aliases == other), None)
        if holder is None:
            return []
        filters: List[Tuple[str, _KeyFilter]] = []
        for source in self.key_sources.get(scan.alias, ()):
            if source.other_alias not in other:
                continue
            position = holder.rowset.binding.resolve(source.other_ref)
            keys = set(map(operator.itemgetter(position), holder.rowset.rows))
            keys.discard(None)  # NULL never joins
            filters.append((source.column, _KeyFilter(str(source.other_ref), keys)))
        return filters

    def _apply_pending(
        self,
        components: List[_Component],
        pending: List[_Conjunct],
        tracer,
    ) -> List[_Conjunct]:
        remaining: List[_Conjunct] = []
        for conjunct in pending:
            owner = None
            for component in components:
                if conjunct.aliases <= component.aliases:
                    owner = component
                    break
            if owner is not None:
                fn = conjunct.closure_for(owner.rowset.binding)
                before = len(owner.rowset)
                owner.rowset = Rowset(
                    owner.rowset.binding,
                    [row for row in owner.rowset.rows if fn(row)],
                )
                tracer.count("predicates_pushed")
                tracer.count("rows_filtered", before - len(owner.rowset))
            else:
                remaining.append(conjunct)
        return remaining

    def _join(
        self,
        components: List[_Component],
        deferred: Dict[str, Any],
        handed: Dict[str, KeyFilters],
        pending: List[_Conjunct],
        tracer,
        run: Optional[PlanRun] = None,
    ) -> _Component:
        token = current_token()
        steps: List[Any] = []
        if self.decisions is not None:
            steps = list(self.decisions.join_steps)
        while len(components) + len(deferred) > 1:
            token.check()
            pair = None
            step = None
            if steps:
                candidate = steps.pop(0)
                for alias, other in _one_alias_sides(candidate):
                    scan = deferred.pop(alias, None)
                    if scan is None:
                        continue
                    offered = self._sibling_keys(scan, other, components)
                    run.key_filters[scan.alias] = [f for _, f in offered]
                    offered.extend(handed.get(scan.alias, ()))
                    components.append(self._run_scan(scan, offered, tracer, run))
                pair = self._find_step_pair(components, candidate)
                if pair is None:
                    # the decided order no longer matches the runtime
                    # components: abandon it, fall back to the greedy order
                    steps = []
                    tracer.count("planner_step_fallbacks")
                else:
                    step = candidate
                    tracer.count("planner_steps_applied")
            if pair is None:
                # no decided step will reach them: run what is left now,
                # unfiltered, as a plan without decisions does up front
                for scan in deferred.values():
                    components.append(
                        self._run_scan(scan, handed.get(scan.alias, ()), tracer, run)
                    )
                deferred.clear()
                pair = self._pick_join_pair(components, pending)
            if pair is None:
                # no connecting predicate: cartesian product of two smallest
                components.sort(key=lambda component: len(component.rowset))
                left, right = components[0], components[1]
                merged_rowset = cross_join(left.rowset, right.rowset)
                merged = _Component(left.aliases | right.aliases, merged_rowset)
                components = [merged] + components[2:]
                tracer.count("cross_joins")
                tracer.count("cross_join_rows", len(merged_rowset))
            else:
                left, right = pair
                merged = self._hash_join_pair(left, right, pending)
                components = [
                    component
                    for component in components
                    if component is not left and component is not right
                ]
                components.append(merged)
                tracer.count("hash_joins")
                tracer.count("hash_join_rows", len(merged.rowset))
            pending = self._apply_pending(components, pending, tracer)
            if run is not None and step is not None:
                # measured after residual predicates, like the estimate
                run.record(
                    f"join {step.describe()}", step.est_rows, len(merged.rowset)
                )
        if pending:
            only = components[0]
            binding = only.rowset.binding
            for conjunct in pending:
                fn = conjunct.closure_for(binding)
                only.rowset = Rowset(
                    binding, [row for row in only.rowset.rows if fn(row)]
                )
        return components[0]

    @staticmethod
    def _find_step_pair(
        components: List[_Component], step: Any
    ) -> Optional[Tuple[_Component, _Component]]:
        """The component pair a decided join step names, by exact alias-set
        match — or None when the decisions went stale."""
        left = right = None
        for component in components:
            if component.aliases == step.left:
                left = component
            elif component.aliases == step.right:
                right = component
        if left is None or right is None:
            return None
        return (left, right)

    def _pick_join_pair(
        self, components: List[_Component], pending: List[_Conjunct]
    ) -> Optional[Tuple[_Component, _Component]]:
        """The joinable component pair with the smallest size product —
        a cheap greedy join order that keeps intermediate results small."""
        best: Optional[Tuple[_Component, _Component]] = None
        best_cost: Optional[int] = None
        for conjunct in pending:
            if not conjunct.is_equi:
                continue
            touched = [
                component
                for component in components
                if conjunct.aliases & component.aliases
            ]
            if len(touched) != 2:
                continue
            cost = len(touched[0].rowset) * len(touched[1].rowset)
            if best_cost is None or cost < best_cost:
                best = (touched[0], touched[1])
                best_cost = cost
        return best

    def _hash_join_pair(
        self, left: _Component, right: _Component, pending: List[_Conjunct]
    ) -> _Component:
        """Join two components on every equi-predicate linking them."""
        left_positions: List[int] = []
        right_positions: List[int] = []
        used: List[_Conjunct] = []
        for conjunct in pending:
            if not conjunct.is_equi:
                continue
            if not (conjunct.aliases & left.aliases and conjunct.aliases & right.aliases):
                continue
            if not conjunct.aliases <= (left.aliases | right.aliases):
                continue
            if conjunct.left_alias in left.aliases:
                left_positions.append(left.rowset.binding.resolve(conjunct.left_ref))
                right_positions.append(right.rowset.binding.resolve(conjunct.right_ref))
            else:
                left_positions.append(left.rowset.binding.resolve(conjunct.right_ref))
                right_positions.append(right.rowset.binding.resolve(conjunct.left_ref))
            used.append(conjunct)
        for conjunct in used:
            pending.remove(conjunct)
        joined = hash_join(left.rowset, right.rowset, left_positions, right_positions)
        return _Component(left.aliases | right.aliases, joined)

    # ------------------------------------------------------------------
    # Projection / grouping
    # ------------------------------------------------------------------
    def _projector_for(self, binding: Binding):
        key = binding.labels
        projector = self._projector_cache.get(key)
        if projector is not None:
            return projector
        items = self.select.items
        if all(isinstance(item.expr, ColumnRef) for item in items):
            positions = [binding.resolve(item.expr) for item in items]
            if len(positions) == 1:
                getter = operator.itemgetter(positions[0])
                projector = lambda row: (getter(row),)  # noqa: E731
            else:
                projector = operator.itemgetter(*positions)
        else:
            fns = [compile_scalar(item.expr, binding) for item in items]
            projector = lambda row: tuple(fn(row) for fn in fns)  # noqa: E731
        return self._projector_cache.setdefault(key, projector)

    def _group_key_for(self, binding: Binding):
        key = binding.labels
        keyfn = self._group_key_cache.get(key)
        if keyfn is not None:
            return keyfn
        exprs = self.select.group_by
        if all(isinstance(expr, ColumnRef) for expr in exprs):
            positions = [binding.resolve(expr) for expr in exprs]
            keyfn = operator.itemgetter(*positions)
        else:
            fns = [compile_scalar(expr, binding) for expr in exprs]
            keyfn = lambda row: tuple(fn(row) for fn in fns)  # noqa: E731
        return self._group_key_cache.setdefault(key, keyfn)

    def _aggregates_for(self, binding: Binding) -> List[Callable]:
        key = binding.labels
        fns = self._aggregate_cache.get(key)
        if fns is not None:
            return fns
        fns = [compile_aggregate(item.expr, binding) for item in self.select.items]
        return self._aggregate_cache.setdefault(key, fns)

    def _group_rows(self, rowset: Rowset) -> List[List[Tuple[Any, ...]]]:
        if not self.select.group_by:
            return [rowset.rows]
        keyfn = self._group_key_for(rowset.binding)
        token = current_token()
        groups: Dict[Any, List[Tuple[Any, ...]]] = {}
        order: List[Any] = []
        for i, row in enumerate(rowset.rows):
            if not (i & (CHECK_STRIDE - 1)):
                token.check()
            group_key = keyfn(row)
            bucket = groups.get(group_key)
            if bucket is None:
                groups[group_key] = bucket = []
                order.append(group_key)
            bucket.append(row)
        return [groups[group_key] for group_key in order]

    def _compile_order_value(self, expr: Expr):
        """An ORDER BY key as a closure over an output row: an unqualified
        output-column reference wins, then a select-item match."""
        if isinstance(expr, ColumnRef) and expr.qualifier is None:
            try:
                index = self._output_binding.resolve(expr)
                return operator.itemgetter(index)
            except SqlExecutionError:
                pass
        for index, item in enumerate(self.select.items):
            if item.expr == expr:
                return operator.itemgetter(index)
        return _order_error(expr)

    def _project(self, rowset: Rowset, tracer) -> QueryResult:
        if self._aggregated:
            groups = self._group_rows(rowset)
            tracer.count("groups_formed", len(groups))
            fns = self._aggregates_for(rowset.binding)
            out_rows = [tuple(fn(group) for fn in fns) for group in groups]
        else:
            projector = self._projector_for(rowset.binding)
            out_rows = list(map(projector, rowset.rows))
        result = Rowset(self._output_binding, out_rows)
        if self.distinct_elided_key is not None:
            tracer.count("distinct_elided")
        elif self.select.distinct:
            result = distinct(result)
        rows = result.rows
        if self._order_keys:
            # stable multi-key sort honouring each key's direction: sort by
            # the least-significant key first, most-significant last
            rows = list(rows)
            for fn, descending in reversed(self._order_keys):
                rows.sort(
                    key=lambda row, fn=fn: null_safe_sort_key(fn(row)),
                    reverse=descending,
                )
        if self.select.limit is not None:
            rows = rows[: self.select.limit]
        tracer.count("rows_output", len(rows))
        return QueryResult(self.output_columns, rows)

    # ------------------------------------------------------------------
    # Rendering (repro --explain)
    # ------------------------------------------------------------------
    def describe(self, indent: str = "") -> List[str]:
        lines: List[str] = []
        run = self.last_run
        key_filters = run.key_filters if run else self._forecast_key_filters()
        for scan in self.scans:
            estimate = actual = None
            observed = run.observation(f"scan {scan.alias}") if run else None
            if observed is not None:
                estimate, actual = observed.estimated, observed.actual
            elif self.decisions is not None:
                decision = self.decisions.scans.get(scan.alias)
                if decision is not None:
                    estimate = decision.est_rows
            if scan.alias in self.deferred:
                lines.extend(
                    scan.describe(
                        indent, estimate, actual, key_filters.get(scan.alias, ())
                    )
                )
            else:
                lines.extend(scan.describe(indent, estimate, actual))
        for conjunct in self.pending:
            kind = "equi-join" if conjunct.is_equi else "filter"
            lines.append(f"{indent}{kind} {render_expr(conjunct.expr)}")
        if self.decisions is not None and self.decisions.join_steps:
            for number, step in enumerate(self.decisions.join_steps, 1):
                actual = run.actual_for(f"join {step.describe()}") if run else None
                lines.append(
                    f"{indent}join order {number}: {step.describe()}"
                    + _rows_note(step.est_rows, actual)
                )
        summary: List[str] = []
        if self._aggregated:
            if self.select.group_by:
                keys = ", ".join(render_expr(expr) for expr in self.select.group_by)
                summary.append(f"group by {keys}")
            summary.append("aggregate " + ", ".join(self.output_columns))
        else:
            summary.append("project " + ", ".join(self.output_columns))
        if self.distinct_elided_key is not None:
            kept = ", ".join(self.distinct_elided_key)
            summary.append(f"distinct elided (keeps key {kept})")
        elif self.select.distinct:
            summary.append("distinct")
        if self.select.order_by:
            summary.append("sort")
        if self.select.limit is not None:
            summary.append(f"limit {self.select.limit}")
        summary_line = indent + "; ".join(summary)
        if self.decisions is not None:
            actual = run.actual_for("output") if run else None
            summary_line += _rows_note(self.decisions.est_output, actual)
        lines.append(summary_line)
        return lines

    def _forecast_key_filters(self) -> Dict[str, List[_KeyFilter]]:
        """Explain before any execution: walk the decided steps as
        :meth:`_join` will and cost each deferred scan's key filters on
        the optimizer's row estimate of the side that will supply them,
        in place of the actual key count."""
        if not self.deferred:
            return {}
        scans = {scan.alias: scan for scan in self.scans}
        built = {
            frozenset((alias,)): decision.est_rows
            for alias, decision in self.decisions.scans.items()
            if alias not in self.deferred
        }
        forecast: Dict[str, List[_KeyFilter]] = {}
        for step in self.decisions.join_steps:
            for alias, other in _one_alias_sides(step):
                own = frozenset((alias,))
                if own in built:
                    continue
                forecast[alias] = []
                for source in self.key_sources.get(alias, ()):
                    if other not in built or source.other_alias not in other:
                        continue
                    key_filter = _KeyFilter(str(source.other_ref), None, built[other])
                    target = scans[alias].key_target(source.column)
                    target.scan.cost_key_filter(target.column, key_filter)
                    forecast[alias].append(key_filter)
                built[own] = self.decisions.scans[alias].est_rows
            built[step.left | step.right] = step.est_rows
        return forecast

    def explain(self) -> str:
        """Human-readable physical plan, shown by ``repro --explain``."""
        return "\n".join(self.describe())


def _order_error(expr: Expr):
    def fail(_row: Sequence[Any]) -> Any:
        raise SqlExecutionError(
            f"ORDER BY expression {expr!r} must reference an output column"
        )

    return fail
