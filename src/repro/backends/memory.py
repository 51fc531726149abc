"""The in-memory execution backend: the existing engine, behind the
:class:`~repro.backends.base.Backend` protocol.

Execution is delegated unchanged to
:class:`~repro.relational.executor.Executor` (compiled physical plans,
plan cache, index-backed scans).  A :class:`MemoryBackend` can wrap an
existing executor — the engine does exactly that, so backend execution
shares the engine's plan cache — or build its own on :meth:`load`.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.backends.base import Backend, register_backend
from repro.observability import NULL_TRACER
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.result import QueryResult
from repro.sql.ast import Select
from repro.sql.render import ANSI_DIALECT

__all__ = ["MemoryBackend"]


class MemoryBackend(Backend):
    """Executes on the repo's own in-memory engine (the default backend)."""

    name = "memory"
    dialect = ANSI_DIALECT

    def __init__(self, executor: Optional[Executor] = None) -> None:
        super().__init__()
        self._executor = executor
        if executor is not None:
            self.database = executor.database

    @property
    def executor(self) -> Executor:
        if self._executor is None:
            self._executor = Executor(self._require_database())
        return self._executor

    def load(self, database: Database, tracer: Any = NULL_TRACER) -> None:
        # nothing is copied — the backend executes over the database
        # in place — but the span keeps setup reporting uniform across
        # backends (sqlite/disk do real work here)
        with tracer.span("materialize", backend=self.name):
            if self._executor is not None and self._executor.database is not database:
                self._executor = None
            self.database = database
            tracer.count(
                "materialized_rows",
                sum(len(table) for table in database.tables()),
            )

    def clear_plan_cache(self) -> None:
        if self._executor is not None:
            self._executor.clear_plan_cache()

    def execute(self, query: Union[Select, str], tracer: Any = NULL_TRACER) -> QueryResult:
        result = self.executor.execute(query, tracer=tracer)
        tracer.count("backend_rows", len(result.rows))
        return result


register_backend("memory", MemoryBackend)
