"""SQL executor: runs a :class:`~repro.sql.ast.Select` against a
:class:`~repro.relational.database.Database`.

Every statement is compiled into a
:class:`~repro.relational.plan.CompiledPlan` — single-table predicates
pushed down to (index-backed) scans, equality predicates driving hash
joins in the order the cost-based :class:`repro.planner.Optimizer`
chose, remaining components combined by cartesian product — and the plan
is cached.  This runs every SQL statement the semantic engine and the
SQAK baseline generate, including derived tables, self-joins, DISTINCT
projections, GROUP BY and nested aggregates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Tuple, Union

from repro.errors import SqlExecutionError
from repro.observability import NULL_TRACER
from repro.relational.database import Database
from repro.relational.plan import CompiledPlan
from repro.relational.result import QueryResult
from repro.sql.ast import Select
from repro.sql.parser import parse
from repro.sql.render import render

__all__ = ["Executor", "QueryResult", "execute_sql"]


class Executor:
    """Executes SELECT statements against one database.

    Every ``Select`` is compiled once into a
    :class:`~repro.relational.plan.CompiledPlan` (closure predicates,
    index-backed scans; join order, access paths and per-operator row
    estimates from a lazily built :class:`repro.planner.Optimizer`) and
    cached by its rendered SQL.  An entry is stamped with the versions
    of the tables the statement reads, so a write invalidates the plans
    over the table it touched and no others; :meth:`clear_plan_cache`
    drops them all.

    ``validate=True`` runs the static SQL analyzers
    (:func:`repro.analysis.analyze_select`) over every statement before
    executing it and raises :class:`SqlExecutionError` on error-severity
    diagnostics — the debug-mode assertion that gives hand-written SQL the
    same gate as engine-generated SQL.
    """

    plan_cache_capacity = 256

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
        self._optimizer: Any = None
        # rendered SQL -> (tables read, their versions at compile, plan)
        self._plan_cache: "OrderedDict[str, Tuple[Any, Any, CompiledPlan]]" = (
            OrderedDict()
        )
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
        """The cached :class:`CompiledPlan` for *select*, compiling on miss.

        Keyed by the statement's canonical rendered SQL, so structurally
        identical ASTs share one plan.  An entry is stale — and recompiled —
        once a table the statement reads moves past the version the plan
        was compiled under (its estimates and join order would otherwise
        describe other data).
        """
        key = render(select)
        with self._plan_lock:
            entry = self._plan_cache.get(key)
            if entry is not None and entry[1] == self.database.versions(entry[0]):
                self._plan_cache.move_to_end(key)
                tracer.count("plan_cache_hits")
                return entry[2]
        tables = select.tables()
        versions = self.database.versions(tables)
        plan = CompiledPlan(
            select, self.database, optimizer=self.optimizer, tracer=tracer
        )
        tracer.count("plan_cache_misses")
        tracer.count("compiled_predicates", plan.compiled_predicates)
        with self._plan_lock:
            self._plan_cache[key] = (tables, versions, plan)
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > self.plan_cache_capacity:
                self._plan_cache.popitem(last=False)
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
        with self._plan_lock:
            self._plan_cache.clear()
            optimizer = self._optimizer
        if optimizer is not None:
            optimizer.invalidate()

    @property
    def plan_cache_len(self) -> int:
        with self._plan_lock:
            return len(self._plan_cache)


def execute_sql(
    database: Database,
    sql: Union[Select, str],
    validate: bool = False,
) -> QueryResult:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(database, validate=validate).execute(sql)
