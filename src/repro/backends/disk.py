"""The disk execution backend: paged storage behind the Backend protocol.

:class:`DiskBackend` materializes the bound
:class:`~repro.relational.database.Database` into a directory of
heap files of column-wise pages and secondary indexes
(:func:`repro.storage.materialize.materialize`), then serves SELECTs by
running the **same** compiled-plan executor
(:class:`~repro.relational.executor.Executor`) over the
:class:`~repro.storage.engine.StorageEngine` itself — its heap files are
the executor's tables, its ``candidates`` the index probe, and every
page access goes through a fixed-capacity LRU buffer pool.  Fidelity
therefore comes from reusing the engine's physical plans; what differs
is purely the storage tier underneath them, which is exactly what the
differential harness (``python -m repro diff --backend disk``) pins
down.

The directory follows each table's :attr:`~repro.relational.table.Table.
version`, lazily, like the SQLite backend: the first ``execute`` after a
write compares versions table by table.  Where tables only gained rows,
the rows are appended to the heap files in place
(:meth:`~repro.storage.engine.StorageEngine.append`) and the open
engine, its pool and the executor with its plans and statistics carry
on; the index files cover each table's first ``indexed`` rows, and a
probe hands the rows past them (the tail) to the plan to verify.  Once
a table's tail would outgrow its indexed rows, the directory is rebuilt
whole instead — a *fold*, which indexes every row again, so the limit
doubles each time and each row is indexed O(1) times amortized.  A
stale or half-written directory — manifests are written last,
atomically — is rebuilt whole too.  With no ``path`` given, the backend
materializes into a private temporary directory removed on
:meth:`close`.

Buffer-pool counters (hits, misses, evictions, write-backs, pins) are
emitted as tracer counter deltas after every statement, flowing into the
engine's :class:`~repro.observability.MetricsRegistry`; the pool's page
budget is asserted after every statement — residency beyond capacity is
a :class:`~repro.errors.StorageError`, not a soft miss.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from typing import Any, Dict, Optional, Union

from repro.backends.base import Backend, register_backend
from repro.errors import StorageError
from repro.observability import NULL_TRACER
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.result import QueryResult
from repro.sql.ast import Select
from repro.sql.render import ANSI_DIALECT
from repro.storage.engine import DEFAULT_POOL_CAPACITY, StorageEngine
from repro.storage.materialize import materialization_is_fresh, materialize
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.spimi import DEFAULT_BLOCK_BUDGET

__all__ = ["DiskBackend"]

#: pool statistics emitted as tracer counter deltas per statement
_MONOTONIC_COUNTERS = ("hits", "misses", "evictions", "writebacks", "pins")


class DiskBackend(Backend):
    """Executes compiled plans over paged on-disk storage."""

    name = "disk"
    dialect = ANSI_DIALECT
    # bound by Backend.__init__; rebound only under the lock
    database: Optional[Database]  # guarded-by: _lock

    def __init__(
        self,
        path: Optional[str] = None,
        pool_capacity: int = DEFAULT_POOL_CAPACITY,
        page_size: int = DEFAULT_PAGE_SIZE,
        block_budget: int = DEFAULT_BLOCK_BUDGET,
    ) -> None:
        super().__init__()
        self.path = path  # guarded-by: _lock
        self.pool_capacity = pool_capacity
        self.page_size = page_size
        self.block_budget = block_budget
        self._tempdir: Optional[str] = None  # guarded-by: _lock
        self._engine: Optional[StorageEngine] = None  # guarded-by: _lock
        self._executor: Optional[Executor] = None  # guarded-by: _lock
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Loading / materialization
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        """The materialization directory (created lazily when unset)."""
        with self._lock:
            if self.path is None:
                self._tempdir = tempfile.mkdtemp(prefix="repro-disk-")
                self.path = self._tempdir
            return self.path

    def load(self, database: Database, tracer: Any = NULL_TRACER) -> None:
        with self._lock:
            self.database = database
            self._materialize(tracer)

    def _materialize(self, tracer: Any = NULL_TRACER) -> None:
        database = self._require_database()
        directory = self.directory
        if self._engine is not None:
            self._engine.close()
            self._engine = None
            self._executor = None
        with tracer.span("materialize", backend=self.name, path=directory):
            if materialization_is_fresh(directory, database, self.page_size):
                tracer.count("materializations_reused")
            else:
                manifest = materialize(
                    database,
                    directory,
                    page_size=self.page_size,
                    block_budget=self.block_budget,
                )
                tracer.count("materializations")
                tracer.count("materialized_rows", manifest["totals"]["rows"])
                tracer.count("materialized_pages", manifest["totals"]["pages"])
            self._engine = StorageEngine(
                directory, database.schema, pool_capacity=self.pool_capacity
            )
        # the label selects disk-calibrated cost coefficients (index
        # probes pay page reads) as well as naming the execute span
        self._executor = Executor(
            self._engine,  # type: ignore[arg-type]  # duck-typed Database
            backend_label=self.name,
        )

    def _ensure_fresh(self, tracer: Any = NULL_TRACER) -> Executor:
        database = self._require_database()
        if self._engine is None or self._executor is None:
            self._materialize(tracer)
        else:
            names = [relation.name for relation in database.schema]
            held = self._engine.versions(names)
            wanted = database.versions(names)
            if held != wanted:
                indexed = self._engine.indexed
                # no tail longer than its prefix
                if all(
                    have <= want <= 2 * indexed[name]
                    for name, have, want in zip(names, held, wanted)
                ):
                    self._append(database, tracer)
                else:
                    self._materialize(tracer)
        assert self._executor is not None
        return self._executor

    def _append(self, database: Database, tracer: Any) -> None:
        """Tables only gained rows: grow the open heap files in place."""
        assert self._engine is not None
        with tracer.span("materialize", backend=self.name, path=self.directory):
            try:
                rows = self._engine.append(database)
            except BaseException:
                # half-appended, manifest gone: rebuild next time
                self._engine.close()
                self._engine = None
                self._executor = None
                raise
            tracer.count("materialized_rows", rows)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: Union[Select, str], tracer: Any = NULL_TRACER) -> QueryResult:
        with self._lock:
            executor = self._ensure_fresh(tracer)
            assert self._engine is not None
            before = dict(self._engine.pool.stats)
            result = executor.execute(query, tracer=tracer)
            self._emit_pool_counters(before, tracer)
            self._assert_page_budget()
            tracer.count("backend_rows", len(result.rows))
        return result

    def clear_plan_cache(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.clear_plan_cache()

    def _emit_pool_counters(self, before: Dict[str, int], tracer: Any) -> None:
        stats = self._engine.pool.stats  # type: ignore[union-attr]
        for key in _MONOTONIC_COUNTERS:
            delta = stats[key] - before.get(key, 0)
            if delta:
                tracer.count(f"buffer_pool_{key}", delta)

    def _assert_page_budget(self) -> None:
        """The pool's capacity is a hard promise; verify it held."""
        pool = self._engine.pool  # type: ignore[union-attr]
        if pool.resident > pool.capacity or pool.stats["max_resident"] > pool.capacity:
            raise StorageError(
                f"buffer pool exceeded its page budget: "
                f"{pool.stats['max_resident']} resident frames, "
                f"capacity {pool.capacity}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pool_counters(self) -> Dict[str, int]:
        """Buffer-pool statistics of the current materialization."""
        with self._lock:
            if self._engine is None:
                return {}
            return self._engine.counters()

    def storage_manifest(self) -> Dict[str, Any]:
        """The manifest of the current materialization."""
        with self._lock:
            if self._engine is None:
                raise StorageError("disk backend has no materialization yet")
            return self._engine.manifest

    def close(self) -> None:
        with self._lock:
            if self._engine is not None:
                self._engine.close()
                self._engine = None
            self._executor = None
            if self._tempdir is not None:
                shutil.rmtree(self._tempdir, ignore_errors=True)
                if self.path == self._tempdir:
                    self.path = None
                self._tempdir = None


register_backend("disk", DiskBackend)
