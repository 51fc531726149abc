"""The execution-backend abstraction.

A :class:`Backend` turns a :class:`~repro.relational.database.Database`
plus a :class:`~repro.sql.ast.Select` into a
:class:`~repro.relational.result.QueryResult`.  Two implementations ship
with the repo:

* :class:`~repro.backends.memory.MemoryBackend` — the hand-rolled
  in-memory engine (``repro.relational.executor`` / ``CompiledPlan``),
  unchanged; the default everywhere.
* :class:`~repro.backends.sqlite.SqliteBackend` — materializes the
  database into a real ``sqlite3`` database and executes the rendered SQL
  there, so the translated SQL is checked against an independent SQL
  implementation.

Backends are registered by name; :func:`create_backend` is the one
construction path the engine, service, CLI and differential harness share.
Capability flags describe what a backend can and cannot do so callers can
route around limitations instead of discovering them as runtime errors.
"""

from __future__ import annotations

import abc
import inspect
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Union

from repro.errors import BackendError
from repro.observability import NULL_TRACER
from repro.relational.database import Database
from repro.relational.result import QueryResult
from repro.sql.ast import Select
from repro.sql.render import ANSI_DIALECT, SqlDialect

__all__ = [
    "Backend",
    "accepted_options",
    "available_backends",
    "create_backend",
    "register_backend",
]


class Backend(abc.ABC):
    """One way of executing SELECT statements against a database.

    Class attributes (per implementation):

    ``name``
        The registry key (``"memory"``, ``"sqlite"``).
    ``dialect``
        The :class:`~repro.sql.render.SqlDialect` the backend's SQL text
        is rendered in.
    ``capabilities``
        Frozen set of capability flags.  The ones currently meaningful:
        ``"python-values"`` (results carry native Python values, e.g.
        ``bool``), ``"persistent"`` (can keep data on disk),
        ``"compiled-plans"`` (executes through the repo's own physical
        plans), ``"sql-text"`` (executes the rendered SQL text itself, so
        rendering bugs are observable).
    """

    name: str = "abstract"
    dialect: SqlDialect = ANSI_DIALECT
    capabilities: FrozenSet[str] = frozenset()

    def __init__(self) -> None:
        self.database: Optional[Database] = None

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def load(self, database: Database, tracer: Any = NULL_TRACER) -> None:
        """Bind (and materialize, where applicable) *database*.

        Implementations report setup work inside a ``materialize`` span
        on *tracer* (with row/page counters), so ``--explain`` output
        attributes backend setup time instead of folding it into the
        first query."""

    @abc.abstractmethod
    def execute(self, query: Union[Select, str], tracer: Any = NULL_TRACER) -> QueryResult:
        """Execute a SELECT AST (or SQL text) and return its result."""

    def sql_for(self, select: Select) -> str:
        """The SQL text this backend would execute for *select*."""
        from repro.sql.render import render

        return render(select, self.dialect)

    def close(self) -> None:
        """Release backend resources (connections, file handles)."""

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require_database(self) -> Database:
        if self.database is None:
            raise BackendError(f"backend {self.name!r} has no database loaded")
        return self.database

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        db = self.database.schema.name if self.database is not None else None
        return f"{type(self).__name__}(database={db!r})"


_REGISTRY: Dict[str, Callable[..., Backend]] = {}


def register_backend(name: str, factory: Callable[..., Backend]) -> None:
    """Register a backend factory under *name* (last registration wins)."""
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Registered backend names, default first."""
    names = sorted(_REGISTRY)
    if "memory" in names:
        names.remove("memory")
        names.insert(0, "memory")
    return names


def _factory(name: str) -> Callable[..., Backend]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r} (available: {', '.join(available_backends())})"
        ) from None


def accepted_options(name: str, options: Dict[str, Any]) -> Dict[str, Any]:
    """The subset of *options* the factory registered as *name* takes as
    keyword arguments (all of them for a ``**kwargs`` factory), so one
    option set can be offered to several backends."""
    parameters = inspect.signature(_factory(name)).parameters.values()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
        return dict(options)
    names = {
        p.name
        for p in parameters
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    return {key: value for key, value in options.items() if key in names}


def create_backend(
    name: str,
    database: Database,
    tracer: Any = NULL_TRACER,
    **options: Any,
) -> Backend:
    """Construct the backend registered as *name* and load *database*.

    ``options`` are forwarded to the backend factory (``path=...`` selects
    an on-disk location for the SQLite and disk backends, ``executor=...``
    shares an existing executor with the memory backend).  *tracer*
    observes the initial materialization (``materialize`` span).
    """
    backend = _factory(name)(**options)
    backend.load(database, tracer=tracer)
    return backend
