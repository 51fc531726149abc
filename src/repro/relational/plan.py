"""Compiled physical query plans.

A :class:`CompiledPlan` is built once from a :class:`~repro.sql.ast.Select`
and executed many times.  It is a small tree of operators, each in its
own module — :class:`~repro.relational.scan.TableScan` /
:class:`~repro.relational.scan.DerivedScan` leaves, the
:class:`~repro.relational.join.Join` phase with its
:class:`~repro.relational.join.HashJoin` steps, and
:class:`~repro.relational.project.Group` /
:class:`~repro.relational.project.Project` on top — and what flows
between them is :class:`~repro.relational.expressions.Columns`: plain
lists, one per referenced column, never rows (``docs/PLANNER.md``
§Operators and columns).  Compilation does everything that is
independent of the data up front: every column reference is resolved to
a *slot* in the one list of labels the FROM clause provides; every WHERE
conjunct is classified (single-table pushdown, matched to an index
strategy where one applies, vs. join predicate vs. residual filter);
predicates, GROUP BY keys and select items are compiled into kernels;
and each scan is told which of its columns anything reads — select
items, GROUP BY, WHERE and, for a derived table, what the enclosing plan
reads of it — so that nothing else is fetched, decoded or gathered.

Join *order* comes from the cost-based optimizer (``repro.planner``) the
executor passes in: a DP-chosen join order, per-predicate
index-vs-seq-scan choices, and per-operator row estimates that an
execution pairs with actual rows and elapsed time in
:attr:`CompiledPlan.last_run` (surfaced by ``--explain``).  Where there
are no decided steps to follow — a join component wider than the
optimizer's DP limit, or a plan constructed without an optimizer — the
order is a greedy runtime decision, smallest size product first.  Either
order produces the same result *set*;
``tests/integration/test_plan_equivalence.py`` runs every experiment
statement through both.  A DISTINCT whose projection keeps a whole
primary key is elided at compile time.

Executor-level caching and invalidation (by rendered SQL and the
versions of the tables a statement reads) live in
:class:`~repro.relational.executor.Executor`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.cancellation import current_token
from repro.errors import SqlExecutionError
from repro.observability import NULL_TRACER
from repro.relational.database import Database
from repro.relational.expressions import Binding, Columns
from repro.relational.join import (
    Component,
    Conjunct,
    Join,
    KeySource,
    one_alias_sides,
)
from repro.relational.project import Project
from repro.relational.result import QueryResult
from repro.relational.scan import (
    DerivedScan,
    KeyFilter,
    KeyFilters,
    TableScan,
    rows_note,
)
from repro.sql.render import render_expr
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    DerivedTable,
    Expr,
    Select,
    TableRef,
)


class Observation(NamedTuple):
    """One executed operator: estimated vs. actual output rows, and the
    time it took."""

    label: str
    estimated: float
    actual: int
    elapsed_ms: float

    @property
    def q_error(self) -> float:
        """``max(est/actual, actual/est)`` with both floored at one row."""
        estimated = max(1.0, float(self.estimated))
        actual = max(1.0, float(self.actual))
        return max(estimated / actual, actual / estimated)


class PlanRun:
    """Per-operator estimate, actual rows and elapsed time of one plan
    execution (EXPLAIN ANALYZE).

    Stored on :attr:`CompiledPlan.last_run` after every optimized
    execution; the plan-quality tests and ``--explain`` read it.  An
    operator's time excludes the operators beneath it: a scan is timed
    alone, a join from when both its sides are built."""

    __slots__ = ("operators", "key_filters")

    def __init__(self) -> None:
        self.operators: List[Observation] = []
        #: alias of a deferred scan -> the sibling keys it was offered
        self.key_filters: Dict[str, List[KeyFilter]] = {}

    def record(self, label: str, estimated: float, actual: int, started: float) -> None:
        """*started* is the operator's ``perf_counter()`` reading."""
        elapsed_ms = (perf_counter() - started) * 1000.0
        self.operators.append(Observation(label, estimated, actual, elapsed_ms))

    def observation(self, label: str) -> Optional[Observation]:
        return next((seen for seen in self.operators if seen.label == label), None)

    def q_errors(self) -> List[float]:
        return [observation.q_error for observation in self.operators]


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
        self.scans: List[Any] = []
        self.pending: List[Conjunct] = []
        self._build_scans()
        #: every label the FROM clause provides; a column's position in
        #: it is its slot, the key of its vector wherever it flows
        self.binding = Binding([label for scan in self.scans for label in scan.labels])
        self._classify_conjuncts()
        #: the primary key that makes this statement's DISTINCT a no-op
        self.distinct_elided_key = self._redundant_distinct_key()
        self.project = Project(
            select, self.binding, self.output_columns,
            self.distinct_elided_key is not None,
        )
        self.join = Join()
        self._read_columns()
        #: derived scans run when their decided join step does, and the
        #: conjuncts that can then hand them the other side's keys
        self.deferred: frozenset = frozenset()
        self.key_sources: Dict[str, List[KeySource]] = {}
        if self._optimizer is not None:
            self.decisions = self._optimizer.decide(self, tracer)
            self._apply_index_choices()
            self.join.decided(self.decisions.join_steps)
            self._plan_deferrals()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _build_scans(self) -> None:
        if not self.select.from_items:
            raise SqlExecutionError("FROM clause is empty")
        seen: Set[str] = set()
        base = 0
        for item in self.select.from_items:
            if item.alias in seen:
                raise SqlExecutionError(f"duplicate alias {item.alias!r} in FROM")
            seen.add(item.alias)
            scan: Any
            if isinstance(item, TableRef):
                scan = TableScan(item, self.database, base, self._optimizer)
            elif isinstance(item, DerivedTable):
                subplan = CompiledPlan(
                    item.select,
                    self.database,
                    optimizer=self._optimizer,
                    tracer=self._compile_tracer,
                )
                scan = DerivedScan(item.alias, subplan, base)
            else:  # pragma: no cover - defensive
                raise SqlExecutionError(f"unknown FROM item {item!r}")
            self.scans.append(scan)
            base += len(scan.labels)

    def _refs_of(self, expr: Expr) -> Tuple[frozenset, frozenset]:
        """``(aliases, slots)`` *expr* references.  A reference no slot
        answers to is left out of the slots: its kernel raises when a row
        is evaluated."""
        aliases: Set[str] = set()
        slots: Set[int] = set()
        for node in expr.walk():
            if not isinstance(node, ColumnRef):
                continue
            aliases.add(self._alias_of_ref(node))
            try:
                slots.add(self.binding.resolve(node))
            except SqlExecutionError:
                pass
        return frozenset(aliases), frozenset(slots)

    def _alias_of_ref(self, ref: ColumnRef) -> str:
        """The FROM item *ref* reads: its qualifier, or the one alias
        providing an unqualified name (unknown / ambiguous raise)."""
        if ref.qualifier is not None:
            return ref.qualifier
        return self.binding.labels[self.binding.resolve(ref)][0]  # type: ignore[return-value]

    def _classify_conjuncts(self) -> None:
        scans_by_alias = {scan.alias: scan for scan in self.scans}
        for expr in self.select.where_conjuncts():
            aliases, slots = self._refs_of(expr)
            if len(aliases) <= 1:
                owner = (
                    scans_by_alias.get(next(iter(aliases)))
                    if aliases
                    else self.scans[0]  # constant predicate: first scan
                )
                if owner is not None:
                    owner.push(expr, self.binding)
                    continue
                # unknown qualifier: leave pending; fails per-row at the
                # end of the join phase
                self.pending.append(Conjunct(expr, aliases, slots, False))
                continue
            if (
                isinstance(expr, BinaryOp)
                and expr.op == "="
                and isinstance(expr.left, ColumnRef)
                and isinstance(expr.right, ColumnRef)
            ):
                self.pending.append(
                    Conjunct(
                        expr,
                        aliases,
                        slots,
                        True,
                        expr.left,
                        expr.right,
                        self._alias_of_ref(expr.left),
                    )
                )
            else:
                self.pending.append(Conjunct(expr, aliases, slots, False))

    def _read_columns(self) -> None:
        """Tell every scan which of its columns the statement reads: the
        projection's, the conjuncts' and its own pushed predicates'."""
        #: the slots the projection reads — live through every join
        self.output_slots = self.project.slots
        slots = set(self.output_slots)
        for conjunct in self.pending:
            slots |= conjunct.slots
        for scan in self.scans:
            for pred in scan.pushed:
                slots.update(pred.kernel.slots)
        for scan in self.scans:
            scan.read(
                slot for slot in slots
                if scan.base <= slot < scan.base + len(scan.labels)
            )

    def narrow(self, outputs: Sequence[int]) -> None:
        """Compile-time, from the plan this one is a derived table of:
        only *outputs* (indexes of select items) will be read.  A
        narrowed plan serves its parent through :meth:`run`; its
        :meth:`execute` answers with those columns alone."""
        self.project.keep(outputs)
        self._read_columns()

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
        select = self.select
        if (
            not select.distinct
            or select.has_aggregates()
            or select.group_by
            or len(self.scans) != 1
        ):
            return None
        scan = self.scans[0]
        if not isinstance(scan, TableScan):
            return None
        projected = {scan._own_column(item.expr) for item in select.items}
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
            for alias, _ in one_alias_sides(step)
            if isinstance(scans[alias], DerivedScan)
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
                        KeySource(own_ref.name, other_ref, other.alias)
                    )

    @property
    def compiled_predicates(self) -> int:
        """Number of predicates compiled into this plan (pushed +
        pending, including nested sub-plans)."""
        total = len(self.pending)
        for scan in self.scans:
            total += len(scan.pushed)
            if isinstance(scan, DerivedScan):
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
        """Run the plan: the statement's result, as rows."""
        rows = self._run(self.project.rows, tracer, key_filters)
        names = [self.output_columns[output] for output in self.project.wanted]
        return QueryResult(names, rows)

    def run(
        self,
        tracer=NULL_TRACER,
        key_filters: Optional[Dict[str, KeyFilters]] = None,
    ) -> Columns:
        """Run the plan for the one it is a derived table of: the result
        as column vectors keyed by output index."""
        return self._run(self.project.columns, tracer, key_filters)

    def _run(
        self, project: Any, tracer: Any, key_filters: Optional[Dict[str, KeyFilters]]
    ) -> Any:
        """Scans, joins, then *project*.  *key_filters* (alias ->
        filters) is how an enclosing plan hands this sub-plan's scans
        the join keys it already holds; it travels as an argument
        because the plan itself is shared between executions."""
        # cancellation checkpoints: the ambient token (repro.cancellation)
        # is polled at every operator boundary (and per outer row of a
        # cross join), so a served query with a deadline aborts mid-plan
        # instead of hogging its worker
        token = current_token()
        token.check()
        run = PlanRun() if self.decisions is not None else None
        handed = key_filters or {}
        components: List[Component] = []
        deferred: Dict[str, Any] = {}
        for scan in self.scans:
            if scan.alias in self.deferred:
                deferred[scan.alias] = scan
            else:
                components.append(
                    self.run_scan(scan, handed.get(scan.alias, ()), tracer, run)
                )
        merged = self.join.execute(self, components, deferred, handed, tracer, run)
        token.check()
        started = perf_counter()
        result = project(merged.columns, tracer)
        if run is not None:
            run.record("output", self.decisions.est_output, len(result), started)
            # single reference assignment: racing executions each publish
            # a complete PlanRun; readers see one or the other
            self.last_run = run
            tracer.count("planner_runs_observed")
        return result

    def run_scan(
        self, scan: Any, key_filters: KeyFilters, tracer: Any, run: Optional[PlanRun]
    ) -> Component:
        started = perf_counter()
        columns = scan.execute(self.database, tracer, key_filters)
        decision = self.decisions.scans.get(scan.alias) if run is not None else None
        if decision is not None:
            # a pushed key filter re-estimated the scan from the actual
            # key count; that, not the unfiltered estimate, is what ran
            estimate = min(
                [decision.est_rows]
                + [f.est_rows for _, f in key_filters if f.est_rows is not None]
            )
            run.record(f"scan {scan.alias}", estimate, columns.rows, started)
        return Component({scan.alias}, columns)

    # ------------------------------------------------------------------
    # Rendering (repro --explain)
    # ------------------------------------------------------------------
    def _note(self, run: Optional[PlanRun], label: str, estimate: Optional[float]) -> str:
        """The ``(est≈, actual, ms)`` suffix of one operator's line."""
        observed = run.observation(label) if run else None
        if observed is not None:
            return rows_note(observed.estimated, observed.actual, observed.elapsed_ms)
        return rows_note(estimate, None)

    def describe(self, indent: str = "") -> List[str]:
        lines: List[str] = []
        run = self.last_run
        key_filters = run.key_filters if run else self.join.forecast_key_filters(self)
        for scan in self.scans:
            estimate = None
            if self.decisions is not None and scan.alias in self.decisions.scans:
                estimate = self.decisions.scans[scan.alias].est_rows
            label = f"scan {scan.alias}"
            observed = run.observation(label) if run else None
            offered = [
                key_filter.describe(observed.actual if observed else None)
                for key_filter in key_filters.get(scan.alias, ())
                if scan.alias in self.deferred
            ]
            lines.extend(
                scan.describe(indent, self._note(run, label, estimate), offered)
            )
        for conjunct in self.pending:
            kind = "equi-join" if conjunct.is_equi else "filter"
            lines.append(f"{indent}{kind} {render_expr(conjunct.expr)}")
        for number, step in enumerate(self.join.steps, 1):
            lines.append(
                f"{indent}join order {number}: {step.step.describe()}"
                + self._note(run, step.label, step.est_rows)
            )
        summary = self.project.describe()
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
            summary_line += self._note(run, "output", self.decisions.est_output)
        lines.append(summary_line)
        return lines

    def explain(self) -> str:
        """Human-readable physical plan, shown by ``repro --explain``."""
        return "\n".join(self.describe())
