"""Materializing a :class:`~repro.relational.database.Database` to disk.

:func:`materialize` lays the whole database out as one directory:

* ``<table>.heap`` — heap file of column-wise pages per table;
* ``<table>.<column>.bpt`` — B+-tree per numeric (INT/FLOAT) column,
  keyed by ``float(value)`` exactly like the in-memory ``NumericIndex``;
* ``<table>.<column>.hash`` — hash index per text (TEXT/DATE) column,
  serving the ``hash-eq`` lookups;
* ``postings.bin`` + ``postings.dict.json`` — one SPIMI inverted index
  over every text column of every table, serving ``contains`` lookups;
* ``MANIFEST.json`` — written **last**, atomically (tmp + ``os.replace``).

An in-place append (:meth:`repro.storage.engine.StorageEngine.append`)
later grows the heap and index files and adds ``postings.delta.bin`` +
``postings.delta.dict.json``, the postings of the appended rows; the
next :func:`materialize` folds them back into the base and removes
them.

Crash consistency is manifest-ordering, not journaling: a rebuild *and*
an append first *delete* the manifest, then write the data files, then
write the new manifest.  A crash at any point leaves a directory whose
manifest is either absent or inconsistent with the files (sizes are
recorded and re-checked), which :func:`materialization_is_fresh`
reports as stale — the backend then rebuilds instead of serving torn
data.  The manifest also records each table's source
:attr:`~repro.relational.table.Table.version` (``rows`` and ``epoch``),
so ordinary staleness (a write since materialization) is detected the
same way, per table.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.errors import StorageError
from repro.relational.database import Database
from repro.relational.index import tokenize_text
from repro.relational.types import DataType
from repro.storage.bptree import BPlusTree
from repro.storage.hashindex import HashFile
from repro.storage.heap import build_heap
from repro.storage.pager import DEFAULT_PAGE_SIZE, BufferPool, Pager
from repro.storage.spimi import DEFAULT_BLOCK_BUDGET, SpimiBuilder

__all__ = [
    "MANIFEST_FILE",
    "MANIFEST_FORMAT",
    "load_manifest",
    "manifest_versions",
    "materialization_is_fresh",
    "materialize",
]

MANIFEST_FILE = "MANIFEST.json"
#: 2: column-wise heap pages.  A directory written under another format
#: reads as stale and is rebuilt, never decoded.
MANIFEST_FORMAT = 2
POSTINGS_FILE = "postings.bin"
DICT_FILE = "postings.dict.json"
DELTA_POSTINGS_FILE = "postings.delta.bin"
DELTA_DICT_FILE = "postings.delta.dict.json"
NUMERIC = (DataType.INT, DataType.FLOAT)
TEXTUAL = (DataType.TEXT, DataType.DATE)
#: pool used only while bulk-building B+-trees; independent of (and
#: irrelevant to) the serving pool's capacity promise
_BUILD_POOL_CAPACITY = 64


def materialize(
    database: Database,
    directory: str,
    page_size: int = DEFAULT_PAGE_SIZE,
    block_budget: int = DEFAULT_BLOCK_BUDGET,
) -> Dict[str, Any]:
    """Write *database* into *directory*; returns the manifest."""
    os.makedirs(directory, exist_ok=True)
    # Invalidate before touching data files: a crash mid-rebuild must not
    # leave an old manifest pointing at half-rewritten files.
    for stale in (MANIFEST_FILE, DELTA_POSTINGS_FILE, DELTA_DICT_FILE):
        if os.path.exists(os.path.join(directory, stale)):
            os.unlink(os.path.join(directory, stale))

    build_pool = BufferPool(_BUILD_POOL_CAPACITY)
    spimi = SpimiBuilder(directory, block_budget)
    tables: Dict[str, Any] = {}
    totals = {"rows": 0, "pages": 0}

    for relation in database.schema:
        table = database.table(relation.name)
        epoch, count = table.version
        rows = table.rows[:count]
        heap_file = f"{relation.name}.heap"
        page_counts = build_heap(
            os.path.join(directory, heap_file), relation, rows, page_size
        )
        entry: Dict[str, Any] = {
            "rows": len(rows),
            "heap": heap_file,
            "page_counts": page_counts,
            "numeric": {},
            "hash": {},
        }
        if epoch:  # absent means 0, in this manifest and in older ones
            entry["epoch"] = epoch
        totals["rows"] += len(rows)
        totals["pages"] += len(page_counts)

        for col_idx, column in enumerate(relation.columns):
            if column.dtype in NUMERIC:
                file_name = f"{relation.name}.{column.name}.bpt"
                _build_bptree(
                    build_pool, os.path.join(directory, file_name), file_name,
                    sorted(column_items(rows, col_idx, float)), page_size,
                )
                entry["numeric"][column.name] = file_name
            elif column.dtype in TEXTUAL:
                file_name = f"{relation.name}.{column.name}.hash"
                HashFile.build(
                    os.path.join(directory, file_name),
                    column_items(rows, col_idx, str),
                    page_size,
                )
                entry["hash"][column.name] = file_name
                for value, pos in column_items(rows, col_idx, str):
                    for token in set(tokenize_text(value)):
                        spimi.add(token, relation.name, column.name, pos)
        tables[relation.name] = entry

    spimi_stats = spimi.finalize(
        os.path.join(directory, POSTINGS_FILE),
        os.path.join(directory, DICT_FILE),
    )

    manifest = {
        "format": MANIFEST_FORMAT,
        "database": database.schema.name,
        "page_size": page_size,
        "tables": tables,
        "spimi": {
            "postings": POSTINGS_FILE,
            "dict": DICT_FILE,
            "stats": spimi_stats,
        },
        "totals": totals,
    }
    write_manifest(directory, manifest)
    return manifest


def column_items(
    rows: Sequence[Tuple[Any, ...]],
    col_idx: int,
    key: Callable[[Any], Any],
    start: int = 0,
) -> Iterator[Tuple[Any, int]]:
    """``(key(value), position)`` of every non-NULL value of one column
    — what that column's index file holds — for *rows* whose first sits
    at position *start*."""
    return (
        (key(row[col_idx]), pos)
        for pos, row in enumerate(rows, start)
        if row[col_idx] is not None
    )


def write_manifest(directory: str, manifest: Dict[str, Any]) -> None:
    """Record the size of every data file *manifest* names, then write
    it — the last step of a rebuild and of an append, atomic (tmp +
    ``os.replace``)."""
    names: List[str] = []
    for entry in manifest["tables"].values():
        names.append(entry["heap"])
        names.extend(entry["numeric"].values())
        names.extend(entry["hash"].values())
    spimi = manifest["spimi"]
    names += [spimi["postings"], spimi["dict"]]
    names += spimi.get("delta", {}).values()
    manifest["files"] = {
        name: os.path.getsize(os.path.join(directory, name)) for name in names
    }
    manifest_path = os.path.join(directory, MANIFEST_FILE)
    tmp = manifest_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    os.replace(tmp, manifest_path)


def _build_bptree(
    pool: BufferPool,
    path: str,
    file_id: str,
    items: List[Tuple[float, int]],
    page_size: int,
) -> None:
    pager = Pager(path, page_size, create=True)
    try:
        pool.register(file_id, pager)
        BPlusTree.bulk_build(pool, file_id, items)
        pool.flush()
        pager.sync()
    finally:
        pool.drop_file(file_id)
        pager.close()


def load_manifest(directory: str) -> Dict[str, Any]:
    """The parsed manifest of *directory*; raises :class:`StorageError`
    when absent or unreadable."""
    path = os.path.join(directory, MANIFEST_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise StorageError(f"no materialization manifest at {path}: {exc}") from exc
    except ValueError as exc:
        raise StorageError(f"corrupt manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise StorageError(
            f"{path}: unsupported manifest format "
            f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}"
        )
    return manifest


def manifest_versions(manifest: Dict[str, Any]) -> Dict[str, Tuple[int, int]]:
    """``{table: (epoch, rows)}`` as *manifest* records them.  An epoch
    is recorded once it is not 0 — which also reads a manifest written
    before epochs existed correctly: every table it describes was only
    ever appended to."""
    return {
        name: (entry.get("epoch", 0), entry["rows"])
        for name, entry in manifest["tables"].items()
    }


def materialization_is_fresh(
    directory: str,
    database: Database,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> bool:
    """Whether *directory* holds a complete, current materialization of
    *database* (at *page_size*).

    False for a missing/corrupt/foreign manifest, any table whose
    version differs from the one recorded, or any data file that is
    missing or has an unexpected size (the half-written shapes a crash
    during :func:`materialize` or an append leaves)."""
    try:
        manifest = load_manifest(directory)
    except StorageError:
        return False
    if manifest.get("database") != database.schema.name:
        return False
    if manifest.get("page_size") != page_size:
        return False
    try:
        recorded = manifest_versions(manifest)
    except (AttributeError, KeyError, TypeError):
        return False
    current = {
        relation.name: database.table(relation.name).version
        for relation in database.schema
    }
    if recorded != current:
        return False
    files = manifest.get("files")
    if not isinstance(files, dict):
        return False
    for file_name, size in files.items():
        path = os.path.join(directory, file_name)
        try:
            if os.path.getsize(path) != size:
                return False
        except OSError:
            return False
    return True
