"""The storage engine: serving a materialized directory for execution.

:class:`StorageEngine` opens a directory written by
:func:`~repro.storage.materialize.materialize` — one buffer pool shared
by every heap and index file — and exposes it as a
:class:`DiskDatabase`, a duck-typed stand-in for
:class:`~repro.relational.database.Database` implementing exactly the
surface :class:`~repro.relational.executor.Executor` and the operators of
:class:`~repro.relational.plan.CompiledPlan` consume:

* ``schema`` / ``table(name)`` → :class:`DiskTable`, whose
  ``columns(indexes[, positions])`` decodes only the minipages a scan
  names, whose ``rows`` is a lazy page-at-a-time sequence
  (:class:`~repro.storage.heap.HeapRows`) and whose ``version`` is the source table's version as of the last
  rebuild or append, so the executor's plan cache, ``IndexLookup`` memos
  and statistics follow a write exactly as they do in memory;
* ``versions(names)`` — those versions, in order;
* ``text_index`` / ``numeric_index`` / ``hash_index(...)`` — adapters
  answering index probes from the on-disk SPIMI, B+-tree and hash
  structures.  Each may return a *superset* of the matching positions
  (float-keyed trees, hash collisions, unverified ``contains``
  candidates): sound, because the compiled plan re-verifies every
  candidate row against its predicate closures.

Writes come in one shape: :meth:`StorageEngine.append` grows the open
directory in place by the rows the source tables gained — through the
same pool, so the page budget holds while it runs and every handle
(heaps, trees, hash files, the executor above them) stays valid.
Anything else (update, delete) is a full rebuild, which is
:class:`~repro.backends.disk.DiskBackend`'s decision; ``docs/STORAGE.md``
§Writes has the protocol and its crash ordering.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import StorageError, UnknownTableError
from repro.relational.index import tokenize_text
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.storage.bptree import BPlusTree
from repro.storage.hashindex import HashFile
from repro.storage.heap import HeapFile, HeapRows
from repro.storage.materialize import (
    DELTA_DICT_FILE,
    DELTA_POSTINGS_FILE,
    MANIFEST_FILE,
    NUMERIC,
    TEXTUAL,
    column_items,
    load_manifest,
    manifest_versions,
    write_manifest,
)
from repro.storage.pager import BufferPool, Pager
from repro.storage.spimi import DEFAULT_BLOCK_BUDGET, SpimiIndex

__all__ = ["DEFAULT_POOL_CAPACITY", "DiskDatabase", "DiskTable", "StorageEngine"]

DEFAULT_POOL_CAPACITY = 64


class StorageEngine:
    """Handle over one materialized directory: reads, and appends."""

    def __init__(
        self,
        directory: str,
        schema: DatabaseSchema,
        pool_capacity: int = DEFAULT_POOL_CAPACITY,
    ) -> None:
        self.directory = str(directory)
        self.schema = schema
        self.manifest = load_manifest(directory)
        if self.manifest["database"] != schema.name:
            raise StorageError(
                f"{directory}: materialization of "
                f"{self.manifest['database']!r}, not {schema.name!r}"
            )
        self.page_size = int(self.manifest["page_size"])
        self.pool = BufferPool(pool_capacity)
        self._pagers: List[Pager] = []
        self._heaps: Dict[str, HeapFile] = {}
        self._bpt_files: Dict[Tuple[str, str], str] = {}
        self._bptrees: Dict[Tuple[str, str], BPlusTree] = {}
        self._hash_files: Dict[Tuple[str, str], str] = {}
        self._hashes: Dict[Tuple[str, str], HashFile] = {}
        try:
            self._open_files()
            spimi = self.manifest["spimi"]
            self.spimi = SpimiIndex(
                os.path.join(self.directory, spimi["postings"]),
                os.path.join(self.directory, spimi["dict"]),
            )
            if "delta" in spimi:
                self.spimi.delta = SpimiIndex(
                    os.path.join(self.directory, spimi["delta"]["postings"]),
                    os.path.join(self.directory, spimi["delta"]["dict"]),
                )
        except Exception:
            self.close()
            raise
        self.database = DiskDatabase(self)

    def _register(self, file_name: str) -> str:
        pager = Pager(os.path.join(self.directory, file_name), self.page_size)
        self._pagers.append(pager)
        self.pool.register(file_name, pager)
        return file_name

    def _open_files(self) -> None:
        for table_name, entry in self.manifest["tables"].items():
            relation = self.schema.find_relation(table_name)
            if relation is None:
                raise StorageError(
                    f"{self.directory}: manifest table {table_name!r} "
                    "is not in the schema"
                )
            self._heaps[table_name] = HeapFile(
                self.pool,
                self._register(entry["heap"]),
                relation,
                entry["page_counts"],
            )
            if self._heaps[table_name].row_count != entry["rows"]:
                raise StorageError(
                    f"{table_name}: manifest rows {entry['rows']} != "
                    f"page counts total {self._heaps[table_name].row_count}"
                )
            for column, file_name in entry["numeric"].items():
                self._bpt_files[(table_name, column)] = self._register(file_name)
            for column, file_name in entry["hash"].items():
                self._hash_files[(table_name, column)] = self._register(file_name)

    # ------------------------------------------------------------------
    # Handles (index objects constructed on first probe)
    # ------------------------------------------------------------------
    def heap(self, table_name: str) -> HeapFile:
        try:
            return self._heaps[table_name]
        except KeyError:
            raise StorageError(f"no heap file for table {table_name!r}") from None

    def bptree(self, table_name: str, column: str) -> Optional[BPlusTree]:
        key = (table_name, column)
        tree = self._bptrees.get(key)
        if tree is None:
            file_id = self._bpt_files.get(key)
            if file_id is None:
                return None
            tree = self._bptrees.setdefault(key, BPlusTree(self.pool, file_id))
        return tree

    def hash_file(self, table_name: str, column: str) -> Optional[HashFile]:
        key = (table_name, column)
        index = self._hashes.get(key)
        if index is None:
            file_id = self._hash_files.get(key)
            if file_id is None:
                return None
            index = self._hashes.setdefault(key, HashFile(self.pool, file_id))
        return index

    # ------------------------------------------------------------------
    # Append in place
    # ------------------------------------------------------------------
    def epoch(self, table_name: str) -> int:
        """The source table's epoch the directory was built under."""
        return manifest_versions(self.manifest)[table_name][0]

    def append(self, database: Any, block_budget: int = DEFAULT_BLOCK_BUDGET) -> int:
        """Append to every table the rows *database* holds beyond those
        materialized; returns how many.  The caller has checked that
        this is all that differs (same epochs, no table shorter).

        Order is the rebuild's: the manifest goes first, so a crash
        anywhere below leaves a directory that reads as stale; then the
        heaps, trees, hash files and the SPIMI delta segment, flushed
        and synced; then the new manifest with the new row counts and
        file sizes."""
        manifest_path = os.path.join(self.directory, MANIFEST_FILE)
        if os.path.exists(manifest_path):
            os.unlink(manifest_path)
        tokens: List[Tuple[str, str, str, int]] = []
        appended = 0
        for relation in self.schema:
            name = relation.name
            heap = self._heaps[name]
            start = heap.row_count
            source = database.table(name)
            stop = source.version[1]
            if stop == start:
                continue
            rows = source.rows[start:stop]
            heap.append(rows)
            for col_idx, column in enumerate(relation.columns):
                if column.dtype in NUMERIC:
                    tree = self.bptree(name, column.name)
                    for key, pos in column_items(rows, col_idx, float, start):
                        tree.insert(key, pos)
                elif column.dtype in TEXTUAL:
                    hashed = self.hash_file(name, column.name)
                    for value, pos in column_items(rows, col_idx, str, start):
                        hashed.insert(value, pos)
                        tokens.extend(
                            (token, name, column.name, pos)
                            for token in set(tokenize_text(value))
                        )
            entry = self.manifest["tables"][name]
            entry["rows"] = heap.row_count
            entry["page_counts"] = list(heap.page_counts)
            appended += stop - start
        if tokens:
            spimi = self.manifest["spimi"]
            spimi["delta"] = {"postings": DELTA_POSTINGS_FILE, "dict": DELTA_DICT_FILE}
            self.spimi.append(
                tokens,
                os.path.join(self.directory, DELTA_POSTINGS_FILE),
                os.path.join(self.directory, DELTA_DICT_FILE),
                block_budget,
            )
        self.pool.flush()
        for pager in self._pagers:
            pager.sync()
        self.manifest["totals"] = {
            "rows": sum(heap.row_count for heap in self._heaps.values()),
            "pages": sum(heap.page_count for heap in self._heaps.values()),
        }
        write_manifest(self.directory, self.manifest)
        return appended

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return self.pool.counters()

    def close(self) -> None:
        spimi = getattr(self, "spimi", None)
        if spimi is not None:
            spimi.close()
        # an append flushes what it dirtied, so clear() finds nothing
        # to write back
        self.pool.clear()
        for pager in self._pagers:
            pager.close()
        self._pagers = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StorageEngine({self.directory!r}, tables={len(self._heaps)}, "
            f"pool={self.pool.resident}/{self.pool.capacity})"
        )


class DiskTable:
    """Duck-typed ``Table``: schema plus a lazy on-disk row sequence."""

    __slots__ = ("schema", "_heap", "_epoch")

    def __init__(self, schema: RelationSchema, heap: HeapFile, epoch: int) -> None:
        self.schema = schema
        self._heap = heap
        self._epoch = epoch

    @property
    def rows(self) -> HeapRows:
        return self._heap.rows

    def columns(
        self, indexes: Sequence[int], positions: Optional[Sequence[int]] = None
    ) -> List[List[Any]]:
        """What the executor's scans read (:meth:`HeapFile.columns`)."""
        return self._heap.columns(indexes, positions)

    @property
    def version(self) -> Tuple[int, int]:
        """The source table's ``(epoch, rows)`` this directory holds: the
        epoch is fixed for the engine's lifetime (a new one means a
        rebuild, and a new engine), the rows grow with every append."""
        return (self._epoch, self._heap.row_count)

    def __len__(self) -> int:
        return self._heap.row_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiskTable({self.schema.name!r}, rows={len(self)})"


class _DiskTextIndex:
    """``contains`` probes from the SPIMI index (candidate supersets)."""

    def __init__(self, engine: StorageEngine) -> None:
        self._engine = engine

    def positions_for_contains(
        self, relation: str, attribute: str, phrase: str
    ) -> Optional[Set[int]]:
        schema = self._engine.schema.find_relation(relation)
        if schema is None:
            return None
        if schema.column(attribute).dtype not in TEXTUAL:
            return None  # only text columns are indexed; scan instead
        tokens = tokenize_text(phrase)
        if not tokens:
            return None
        return self._engine.spimi.candidate_positions(tokens[0], relation, attribute)


class _DiskNumericIndex:
    """``numeric-eq`` probes from the per-column B+-trees."""

    def __init__(self, engine: StorageEngine) -> None:
        self._engine = engine

    def positions_for_value(
        self, relation: str, attribute: str, value: Any
    ) -> Optional[Set[int]]:
        try:
            needle = float(value)
        except (TypeError, ValueError):
            return None
        tree = self._engine.bptree(relation, attribute)
        if tree is None:
            return None  # not a materialized numeric column; scan instead
        return set(tree.search_eq(needle))


class _DiskHashAdapter:
    """Single-text-column ``hash-eq`` probes from a :class:`HashFile`."""

    __slots__ = ("_index",)

    def __init__(self, index: HashFile) -> None:
        self._index = index

    def positions(self, key: Tuple[Any, ...]) -> Set[int]:
        (value,) = tuple(key)
        if not isinstance(value, str):
            return set()  # text columns hold only str/None; no match
        return self._index.positions(value)


class DiskDatabase:
    """Duck-typed ``Database`` over a :class:`StorageEngine`."""

    def __init__(self, engine: StorageEngine) -> None:
        self._engine = engine
        self.schema = engine.schema
        self._tables: Dict[str, DiskTable] = {}
        self._text_index = _DiskTextIndex(engine)
        self._numeric_index = _DiskNumericIndex(engine)

    def versions(self, table_names: Sequence[str]) -> Tuple[Tuple[int, int], ...]:
        """The :attr:`DiskTable.version` of each named table, in order."""
        return tuple(self.table(name).version for name in table_names)

    def table(self, name: str) -> DiskTable:
        table = self._tables.get(name)
        if table is None:
            relation = self.schema.find_relation(name)
            if relation is None:
                raise UnknownTableError(
                    f"no table {name!r} in database {self.schema.name!r}"
                )
            table = self._tables.setdefault(
                name,
                DiskTable(relation, self._engine.heap(name), self._engine.epoch(name)),
            )
        return table

    def tables(self) -> List[DiskTable]:
        return [self.table(relation.name) for relation in self.schema]

    def __contains__(self, name: str) -> bool:
        return name in self.schema

    # ------------------------------------------------------------------
    # Index seams consumed by IndexLookup.positions
    # ------------------------------------------------------------------
    @property
    def text_index(self) -> _DiskTextIndex:
        return self._text_index

    @property
    def numeric_index(self) -> _DiskNumericIndex:
        return self._numeric_index

    def hash_index(self, table_name: str, columns: Sequence[str]) -> _DiskHashAdapter:
        """The on-disk hash file of ``table(column)``: the executor probes
        a hash index on one TEXT/DATE column only, and
        :func:`~repro.storage.materialize.materialize` writes one for
        every such column."""
        (column,) = columns
        index = self._engine.hash_file(table_name, column)
        if index is None:
            raise StorageError(f"no hash file for {table_name}.{column}")
        return _DiskHashAdapter(index)

    def row_counts(self) -> Dict[str, int]:
        return {relation.name: len(self.table(relation.name)) for relation in self.schema}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiskDatabase({self.schema.name!r}, dir={self._engine.directory!r})"
