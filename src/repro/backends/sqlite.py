"""The SQLite execution backend: run the rendered SQL on a real RDBMS.

:class:`SqliteBackend` materializes any
:class:`~repro.relational.database.Database` into a ``sqlite3`` database —
in-memory by default, on disk when constructed with ``path=...`` — with:

* **typed columns** (INT → ``INTEGER``, FLOAT → ``REAL``, TEXT/DATE →
  ``TEXT``, BOOL → ``INTEGER``, matching SQLite's storage classes);
* **primary keys and foreign keys** straight from the schema catalog,
  validated after load via ``PRAGMA foreign_key_check`` (the same deferred
  discipline as :meth:`Database.check_foreign_keys` — datasets load parents
  and children in one pass);
* **indexes mirroring** ``repro/relational/index.py``: one index per
  foreign key (the hash-join columns :meth:`Database.hash_index` serves)
  plus the automatic primary-key index.  The inverted text index has no
  SQLite counterpart — ``LIKE '%...%'`` cannot use a B-tree — which is
  exactly the kind of asymmetry the differential harness exists to keep
  honest.

Statements are rendered with :data:`~repro.sql.render.SQLITE_DIALECT`
(identifiers quoted in backticks, integer booleans, escaped LIKE wildcards,
``CAST``-protected division) and executed by SQLite itself, so translator
bugs that the in-memory executor would share cannot hide.

The copy follows each table's :attr:`~repro.relational.table.Table.
version`, lazily: the first ``execute`` after a write inserts the
rows each appended table gained; tables the write did not touch are
not touched here either.  This is the only module in the repo allowed
to import ``sqlite3`` (lint rule LR006).
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.backends.base import Backend, register_backend
from repro.errors import BackendError
from repro.observability import NULL_TRACER
from repro.relational.database import Database
from repro.relational.result import QueryResult
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.sql.ast import Select
from repro.sql.render import SQLITE_DIALECT, quote_identifier, render

__all__ = ["SqliteBackend"]

_TYPE_AFFINITY = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.TEXT: "TEXT",
    DataType.DATE: "TEXT",
    DataType.BOOL: "INTEGER",
}


def _q(name: str) -> str:
    return quote_identifier(name, SQLITE_DIALECT)


def _to_storage(value: Any) -> Any:
    """Convert one Python cell value to its SQLite storage value."""
    if isinstance(value, bool):
        return int(value)
    return value


class SqliteBackend(Backend):
    """Executes rendered SQL on a ``sqlite3`` database built from the
    bound :class:`Database`."""

    name = "sqlite"
    dialect = SQLITE_DIALECT
    # bound by Backend.__init__; rebound only under the lock
    database: Optional[Database]  # guarded-by: _lock

    def __init__(
        self,
        path: Optional[str] = None,
        index_hints: Union[str, Iterable[Tuple[str, str]], None] = None,
    ) -> None:
        """*index_hints* adds secondary indexes beyond the foreign-key
        ones: ``"auto"`` derives them from planner statistics
        (:func:`repro.planner.recommend_indexes`, what the engine passes
        when its optimizer is on), an iterable of ``(table, column)``
        pairs names them explicitly, None (the default) keeps the
        foreign-key-only behavior."""
        super().__init__()
        self.path = path
        self.index_hints = index_hints
        self._conn: Optional[sqlite3.Connection] = None  # guarded-by: _lock
        # table -> the version of it the SQLite side holds
        self._loaded: Dict[str, int] = {}  # guarded-by: _lock
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Loading / materialization
    # ------------------------------------------------------------------
    def load(self, database: Database, tracer: Any = NULL_TRACER) -> None:
        with self._lock:
            self.database = database
            self._materialize(tracer)

    def _materialize(self, tracer: Any = NULL_TRACER) -> None:
        """Build the SQLite side from nothing: tables, rows, indexes."""
        database = self._require_database()
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        target = self.path if self.path is not None else ":memory:"
        # one connection shared across threads, serialized by self._lock
        conn = sqlite3.connect(target, check_same_thread=False)
        self._loaded = {}
        with tracer.span("materialize", backend=self.name):
            try:
                for relation in database.schema:
                    conn.execute(f"DROP TABLE IF EXISTS {_q(relation.name)}")
                    conn.execute(self._create_table_sql(relation))
                self._copy_changes(conn, self._stale(database), tracer)
                for statement in self._index_sql(database):
                    conn.execute(statement)
                conn.commit()
            except sqlite3.Error as exc:
                conn.close()
                raise BackendError(f"sqlite materialization failed: {exc}") from exc
        self._conn = conn

    def _stale(self, database: Database) -> List[Table]:
        """The tables whose version is not the one the SQLite side holds."""
        tables = (database.table(relation.name) for relation in database.schema)
        return [
            table
            for table in tables
            if self._loaded.get(table.schema.name) != table.version
        ]

    def _copy_changes(
        self, conn: sqlite3.Connection, stale: List[Table], tracer: Any
    ) -> None:
        """Bring each of *stale* up to date: insert the rows it gained."""
        rows_loaded = 0
        # a delta may name its parent rows later in the same pass (the
        # datasets load parents and children together), so enforcement
        # is off while copying; foreign_key_violations() checks the whole
        conn.execute("PRAGMA foreign_keys = OFF")
        for table in stale:
            relation = table.schema
            start, rows = self._loaded.get(relation.name, 0), table.version
            placeholders = ", ".join("?" for _ in relation.columns)
            conn.executemany(
                f"INSERT INTO {_q(relation.name)} VALUES ({placeholders})",
                (
                    tuple(_to_storage(v) for v in row)
                    for row in table.rows[start:rows]
                ),
            )
            rows_loaded += rows - start
            self._loaded[relation.name] = rows
        conn.commit()
        conn.execute("PRAGMA foreign_keys = ON")
        tracer.count("materialized_rows", rows_loaded)

    def _create_table_sql(self, relation: RelationSchema) -> str:
        columns = [
            f"{_q(col.name)} {_TYPE_AFFINITY[col.dtype]}" for col in relation.columns
        ]
        constraints = [
            "PRIMARY KEY (" + ", ".join(_q(c) for c in relation.primary_key) + ")"
        ]
        for fk in relation.foreign_keys:
            constraints.append(
                "FOREIGN KEY ("
                + ", ".join(_q(c) for c in fk.columns)
                + f") REFERENCES {_q(fk.ref_table)} ("
                + ", ".join(_q(c) for c in fk.ref_columns)
                + ")"
            )
        body = ", ".join(columns + constraints)
        return f"CREATE TABLE {_q(relation.name)} ({body})"

    def _index_sql(self, database: Database) -> List[str]:
        """One index per foreign key (the columns
        :meth:`Database.hash_index` builds hash joins over), plus any
        hinted secondary indexes."""
        statements: List[str] = []
        seen: set = set()
        for relation in database.schema:
            for fk in relation.foreign_keys:
                key = (relation.name, fk.columns)
                if key in seen:
                    continue
                seen.add(key)
                statements.append(self._create_index_sql(relation.name, fk.columns))
        for table, column in self._hinted_indexes(database):
            key = (table, (column,))
            if key in seen:
                continue
            seen.add(key)
            statements.append(self._create_index_sql(table, (column,)))
        return statements

    def _hinted_indexes(self, database: Database) -> List[Tuple[str, str]]:
        """Resolve ``index_hints`` into concrete ``(table, column)`` pairs."""
        hints = self.index_hints
        if hints is None:
            return []
        if hints == "auto":
            # imported lazily: repro.planner sits above the backends'
            # dependencies and is only needed when hints are requested
            from repro.planner import StatisticsCatalog, recommend_indexes

            return recommend_indexes(StatisticsCatalog(database))
        return [(table, column) for table, column in hints]

    @staticmethod
    def _create_index_sql(table: str, columns: Tuple[str, ...]) -> str:
        index_name = "ix_" + "_".join((table,) + tuple(columns))
        return (
            f"CREATE INDEX IF NOT EXISTS {_q(index_name)} ON {_q(table)} ("
            + ", ".join(_q(c) for c in columns)
            + ")"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _ensure_fresh(self, tracer: Any = NULL_TRACER) -> sqlite3.Connection:
        database = self._require_database()
        stale = self._stale(database)
        if self._conn is None:
            self._materialize(tracer)
        elif stale:
            with tracer.span("materialize", backend=self.name):
                try:
                    self._copy_changes(self._conn, stale, tracer)
                except sqlite3.Error as exc:
                    # half-copied: start from nothing next time
                    self._conn.close()
                    self._conn = None
                    raise BackendError(f"sqlite refresh failed: {exc}") from exc
        assert self._conn is not None
        return self._conn

    def execute(self, query: Union[Select, str], tracer: Any = NULL_TRACER) -> QueryResult:
        if isinstance(query, str):
            from repro.sql.parser import parse

            select = parse(query)
        else:
            select = query
        sql = render(select, self.dialect)
        columns = [
            item.output_name(default=f"col{i + 1}")
            for i, item in enumerate(select.items)
        ]
        with self._lock:
            conn = self._ensure_fresh(tracer)
            with tracer.span("execute", backend=self.name):
                try:
                    cursor = conn.execute(sql)
                    rows = [tuple(row) for row in cursor.fetchall()]
                except sqlite3.Error as exc:
                    raise BackendError(
                        f"sqlite execution failed: {exc} (sql: {sql})"
                    ) from exc
                tracer.count("backend_rows", len(rows))
        return QueryResult(columns, rows)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def foreign_key_violations(self) -> List[Tuple[str, int, str, int]]:
        """Rows of ``PRAGMA foreign_key_check`` (empty when integrity holds)."""
        with self._lock:
            conn = self._ensure_fresh()
            return [tuple(row) for row in conn.execute("PRAGMA foreign_key_check")]

    def row_counts(self) -> Dict[str, int]:
        """Materialized per-table row counts, straight from SQLite."""
        database = self._require_database()
        counts: Dict[str, int] = {}
        with self._lock:
            conn = self._ensure_fresh()
            for relation in database.schema:
                cursor = conn.execute(
                    f"SELECT COUNT(*) FROM {_q(relation.name)}"
                )
                counts[relation.name] = int(cursor.fetchone()[0])
        return counts

    def index_names(self) -> List[str]:
        """Names of the explicitly created indexes (``ix_*``)."""
        with self._lock:
            conn = self._ensure_fresh()
            cursor = conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND name LIKE 'ix_%' ORDER BY name"
            )
            return [row[0] for row in cursor.fetchall()]

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


register_backend("sqlite", SqliteBackend)
