"""The storage engine: serving a materialized directory for execution.

:class:`StorageEngine` opens a directory written by
:func:`~repro.storage.materialize.materialize` — one buffer pool shared
by every heap and index file — and is itself what
:class:`~repro.relational.executor.Executor` and the operators of
:class:`~repro.relational.plan.CompiledPlan` read on the disk tier.  It
answers the three calls they make of a
:class:`~repro.relational.database.Database`:

* ``table(name)`` → the table's :class:`~repro.storage.heap.HeapFile`,
  whose ``columns(indexes[, positions])`` decodes only the minipages a
  scan names, whose ``rows`` is a lazy page-at-a-time sequence
  (:class:`~repro.storage.heap.HeapRows`) and whose ``version`` is the
  source table's version as of the last rebuild or append, so the
  executor's plan cache, ``IndexLookup`` memos and statistics follow a
  write exactly as they do in memory;
* ``versions(names)`` — those versions, in order;
* ``candidates(kind, table, column, values)`` — index probes answered
  from the on-disk SPIMI, B+-tree and hash structures.  The answer may
  be a *superset* of the matching positions (float-keyed trees, hash
  collisions, unverified ``contains`` candidates, the tail below):
  sound, because the compiled plan re-verifies every candidate row
  against its predicate closures.

A table's index files cover a *prefix* of its rows, the first
``indexed[table]`` (recorded in the manifest); the rows past them are
its *tail*, and every answer ``candidates`` gives includes the tail
whole.  Writes come in one shape: :meth:`StorageEngine.append` grows the
heap files by the rows the source tables gained and leaves the index
files alone, so the tail grows — through the same pool, so the page
budget holds while it runs and every handle (heaps, trees, hash files,
the executor above them) stays valid.  A *fold* — once a tail outgrows
its table's indexed rows — is a full rebuild instead,
:class:`~repro.backends.disk.DiskBackend`'s decision;
``docs/STORAGE.md`` §Writes has the protocol and its crash ordering.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import StorageError, UnknownTableError
from repro.relational.index import KeyCounts, key_counts_of_runs, tokenize_text, union_of
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.storage.bptree import BPlusTree
from repro.storage.hashindex import HashFile
from repro.storage.heap import HeapFile
from repro.storage.materialize import (
    MANIFEST_FILE,
    TEXTUAL,
    load_manifest,
    write_manifest,
)
from repro.storage.pager import BufferPool, Pager
from repro.storage.spimi import SpimiIndex

__all__ = ["DEFAULT_POOL_CAPACITY", "StorageEngine"]

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
        #: (table, column) -> (file, root page) / (file, bucket count)
        self._bpt_files: Dict[Tuple[str, str], Tuple[str, int]] = {}
        self._bptrees: Dict[Tuple[str, str], BPlusTree] = {}
        self._hash_files: Dict[Tuple[str, str], Tuple[str, int]] = {}
        self._hashes: Dict[Tuple[str, str], HashFile] = {}
        #: per table, the rows its index files cover: the rows before
        #: the tail, fixed while the engine is open
        self.indexed: Dict[str, int] = {}
        try:
            self._open_files()
            spimi = self.manifest["spimi"]
            self.spimi = SpimiIndex(
                os.path.join(self.directory, spimi["postings"]),
                os.path.join(self.directory, spimi["dict"]),
            )
        except Exception:
            self.close()
            raise

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
            if not 0 <= entry["indexed"] <= entry["rows"]:
                raise StorageError(
                    f"{table_name}: {entry['indexed']} rows indexed of "
                    f"{entry['rows']}"
                )
            self.indexed[table_name] = entry["indexed"]
            for column, index in entry["numeric"].items():
                self._bpt_files[(table_name, column)] = (
                    self._register(index["file"]), index["root"]
                )
            for column, index in entry["hash"].items():
                self._hash_files[(table_name, column)] = (
                    self._register(index["file"]), index["buckets"]
                )

    # ------------------------------------------------------------------
    # What the executor reads
    # ------------------------------------------------------------------
    def table(self, name: str) -> HeapFile:
        """The heap file of table *name*: the executor's table."""
        heap = self._heaps.get(name)
        if heap is None:
            raise UnknownTableError(
                f"no table {name!r} in database {self.schema.name!r}"
            )
        return heap

    def versions(self, table_names: Sequence[str]) -> Tuple[int, ...]:
        """The :attr:`HeapFile.version` of each named table, in order."""
        return tuple(self.table(name).version for name in table_names)

    def candidates(
        self, kind: str, table: str, column: str, values: Iterable[Any]
    ) -> Optional[Set[int]]:
        """Candidate positions of the rows of *table* whose *column*
        matches one of *values*: ``contains`` from the SPIMI index,
        ``numeric-eq`` from the column's B+-tree, ``hash-eq`` from its
        hash file, plus the table's tail — a superset the compiled plan
        verifies.  None when the structure cannot answer for some value:
        a column of the other family, a value ``float()`` rejects, a
        phrase with no token (the scan reads the table instead)."""
        found: Iterable[Optional[Set[int]]]
        if kind == "contains":
            if self.table(table).schema.column(column).dtype not in TEXTUAL:
                return None
            found = (
                self.spimi.candidate_positions(tokens[0], table, column)
                if tokens else None
                for tokens in map(tokenize_text, values)
            )
        elif kind == "numeric-eq":
            tree = self.bptree(table, column)
            if tree is None:
                return None
            found = (_tree_probe(tree, value) for value in values)
        elif kind == "hash-eq":
            index = self.hash_file(table, column)
            if index is None:
                raise StorageError(f"no hash file for {table}.{column}")
            # text columns hold only str (or NULL): another type matches nothing
            found = (
                index.positions(value) if isinstance(value, str) else set()
                for value in values
            )
        else:
            raise StorageError(f"unknown index probe {kind!r}")
        answer = union_of(found)
        if answer is not None:
            answer.update(range(self.indexed[table], self.table(table).row_count))
        return answer

    def key_counts(self, table: str, column: str) -> Optional[KeyCounts]:
        """Each value of the INT *column* of *table* with its row count
        and first position, in first-seen order: the runs of the
        column's B+-tree leaves, then a ``Counter`` over the tail.  None
        when the tree does not hold every indexed row (a NULL, or an
        integer beyond float range), a key is not exact, or the tail
        holds a NULL — the answer ``Database.key_counts`` gives."""
        heap = self.table(table)
        if heap.schema.column(column).dtype is not DataType.INT:
            return None
        tree = self.bptree(table, column)
        if tree is None:
            return None
        keys, counts, firsts = tree.key_runs()
        indexed = self.indexed[table]
        if sum(counts) != indexed:
            return None
        tail: Sequence[Any] = ()
        if heap.row_count > indexed:
            tail = heap.columns(
                [heap.schema.column_index(column)], range(indexed, heap.row_count)
            )[0]
        return key_counts_of_runs(keys, counts, firsts, tail, indexed)

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
            file = self._bpt_files.get(key)
            if file is None:
                return None
            tree = self._bptrees.setdefault(key, BPlusTree(self.pool, *file))
        return tree

    def hash_file(self, table_name: str, column: str) -> Optional[HashFile]:
        key = (table_name, column)
        index = self._hashes.get(key)
        if index is None:
            file = self._hash_files.get(key)
            if file is None:
                return None
            index = self._hashes.setdefault(key, HashFile(self.pool, *file))
        return index

    # ------------------------------------------------------------------
    # Append in place
    # ------------------------------------------------------------------
    def append(self, database: Any) -> int:
        """Append to every heap file the rows *database* holds beyond
        those materialized; returns how many.  The index files are not
        touched: the rows join their tables' tails.  The caller has
        checked that no table is shorter than its heap file.

        Order is the rebuild's: the manifest goes first, so a crash
        anywhere below leaves a directory that reads as stale; then the
        heap pages, flushed, and the files the flush wrote synced; then
        the new manifest with the new row counts and file sizes."""
        manifest_path = os.path.join(self.directory, MANIFEST_FILE)
        if os.path.exists(manifest_path):
            os.unlink(manifest_path)
        appended = 0
        for name, heap in self._heaps.items():
            start = heap.row_count
            source = database.table(name)
            stop = source.version
            if stop == start:
                continue
            heap.append(source.rows[start:stop])
            entry = self.manifest["tables"][name]
            entry["rows"] = heap.row_count
            entry["page_counts"] = list(heap.page_counts)
            appended += stop - start
        for file_id in self.pool.flush():
            self.pool.pager(file_id).sync()
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



def _tree_probe(tree: BPlusTree, value: Any) -> Optional[Set[int]]:
    """Positions keyed ``float(value)`` in *tree*; None when ``float()``
    rejects *value* (not a number, or an integer beyond float range):
    the tree holds no such key, and the scan verifies instead."""
    try:
        needle = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return set(tree.search_eq(needle))
