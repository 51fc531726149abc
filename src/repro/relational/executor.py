"""SQL executor: runs a :class:`~repro.sql.ast.Select` against a
:class:`~repro.relational.database.Database`.

Every statement is compiled into a
:class:`~repro.relational.plan.CompiledPlan` — single-table predicates
pushed down to (index-backed) scans, equality predicates driving hash
joins in the order the cost-based :class:`repro.planner.Optimizer`
chose, remaining components combined by cartesian product — and the plan
is cached, per statement and per statement shape.  This runs every SQL statement the semantic engine and the
SQAK baseline generate, including derived tables, self-joins, DISTINCT
projections, GROUP BY and nested aggregates.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Union

from repro.errors import SqlExecutionError
from repro.observability import NULL_TRACER
from repro.relational.database import Database
from repro.relational.lru import StampedLRU
from repro.relational.plan import CompiledPlan
from repro.relational.result import QueryResult
from repro.sql.ast import Select
from repro.sql.parser import parse
from repro.sql.render import render_shape

__all__ = ["Executor", "QueryResult", "execute_sql"]


class Executor:
    """Executes SELECT statements against one database.

    Plans are cached at two levels of 256 entries each
    (:class:`~repro.relational.lru.StampedLRU`).  The *shape* level,
    keyed by the statement with its literals as placeholders
    (:func:`~repro.sql.render.render_shape`), holds the first
    :class:`~repro.relational.plan.CompiledPlan` compiled for that shape
    (closure predicates, index-backed scans; join order, access paths and
    per-operator row estimates from a lazily built
    :class:`repro.planner.Optimizer`).  The *statement* level, keyed by
    shape plus literals, holds that plan bound to one statement's
    literals (:meth:`CompiledPlan.bind`) and decided for them: its pushed
    predicates, decisions, index memos and last run.  The optimizer's
    memo, keyed by shape and sample hits, makes deciding a bound plan a
    lookup when its hits were seen before, and a bound plan decides
    exactly what a fresh compile would.  Entries of both levels are
    stamped with the versions of the tables the statement reads, so a
    write invalidates the plans over the table it touched and no others;
    :meth:`clear_plan_cache` drops them all.

    ``validate=True`` runs the static SQL analyzers
    (:func:`repro.analysis.analyze_select`) over every statement before
    executing it and raises :class:`SqlExecutionError` on error-severity
    diagnostics — the debug-mode assertion that gives hand-written SQL the
    same gate as engine-generated SQL.
    """

    def __init__(
        self,
        database: Database,
        tracer=None,
        validate: bool = False,
        backend_label: str = "memory",
    ) -> None:
        self.database = database
        self.tracer = tracer or NULL_TRACER
        self.validate = validate
        # shown as the execute-span's backend attribute; the disk backend
        # runs this same executor over paged storage under its own label
        self.backend_label = backend_label
        self._optimizer: Any = None  # guarded-by: _plan_lock
        # (shape, literals) -> bound plan; shape -> the shape's first plan
        self._plan_cache = StampedLRU(256)
        self._shape_plans = StampedLRU(256)
        self._plan_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, query: Union[Select, str], tracer=None) -> QueryResult:
        """Execute a :class:`Select` AST or SQL text.

        *tracer* overrides the executor-level tracer for this call: an
        ``execute`` span with per-operator row counters (``rows_scanned``,
        ``hash_join_rows``, ``rows_output``, ...).
        """
        tracer = tracer or self.tracer
        select = parse(query) if isinstance(query, str) else query
        if self.validate:
            self._validate(select, tracer)
        with tracer.span("execute", backend=self.backend_label):
            return self.plan_for(select, tracer).execute(tracer)

    def plan_for(self, select: Select, tracer=NULL_TRACER) -> CompiledPlan:
        """The cached :class:`CompiledPlan` for *select*: from the
        statement level, else bound from the shape level, else compiled.

        Keyed by the statement's canonical rendered SQL (as shape plus
        literals), so structurally identical ASTs share one plan.  An
        entry is stale — and replaced — once a table the statement reads
        moves past the version the plan was compiled under (its
        estimates and join order would otherwise describe other data).
        """
        shape, literals = render_shape(select)
        versions = self.database.versions(select.tables())
        plan = self._plan_cache.get((shape, literals), versions)
        if plan is not None:
            tracer.count("plan_cache_hits")
            return plan
        shaped = self._shape_plans.get(shape, versions)
        if shaped is not None:
            plan = shaped.bind(select, tracer)
            tracer.count("plan_shape_hits")
        else:
            plan = CompiledPlan(
                select, self.database, optimizer=self.optimizer, tracer=tracer
            )
            tracer.count("plan_cache_misses")
            tracer.count("compiled_predicates", plan.compiled_predicates)
            if plan.shareable:
                self._shape_plans.put(plan.shape, plan, versions)
        # keyed by the plan's copy of the shape, the one the optimizer's
        # memo and every plan bound from it share
        self._plan_cache.put((plan.shape, literals), plan, versions)
        return plan

    def _validate(self, select: Select, tracer=NULL_TRACER) -> None:
        """Debug-mode static gate: raise on error-severity diagnostics."""
        # imported lazily: repro.analysis depends on repro.relational, so a
        # module-level import here would be circular
        from repro.analysis.diagnostics import Severity
        from repro.analysis.sql_analyzers import analyze_select

        with tracer.span("validate"):
            diagnostics = analyze_select(select, self.database.schema)
        tracer.count("diagnostics", len(diagnostics))
        errors = [d for d in diagnostics if d.severity is Severity.ERROR]
        if errors:
            summary = "; ".join(str(d) for d in errors)
            raise SqlExecutionError(f"statement failed validation: {summary}")

    @property
    def optimizer(self) -> Any:
        """The lazily built :class:`repro.planner.Optimizer`."""
        with self._plan_lock:
            if self._optimizer is None:
                # imported lazily: repro.planner depends on repro.relational,
                # so a module-level import here would be circular
                from repro.planner import Optimizer, params_for_backend

                self._optimizer = Optimizer(
                    self.database,
                    cost_params=params_for_backend(self.backend_label),
                )
            return self._optimizer

    def statistics(self, tracer=NULL_TRACER) -> Dict[str, Any]:
        """Profile every relation afresh (``engine.analyze_stats()``,
        ANALYZE) into the optimizer's statistics catalog, so a later
        query costs nothing to plan."""
        return self.optimizer.catalog.analyze(tracer)

    def clear_plan_cache(self) -> None:
        """Drop cached plans and the optimizer's decision memo (what is
        derived from statements; statistics are derived from data and
        follow the tables' versions instead)."""
        self._plan_cache.clear()
        self._shape_plans.clear()
        with self._plan_lock:
            optimizer = self._optimizer
        if optimizer is not None:
            optimizer.invalidate()


def execute_sql(
    database: Database,
    sql: Union[Select, str],
    validate: bool = False,
) -> QueryResult:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(database, validate=validate).execute(sql)
