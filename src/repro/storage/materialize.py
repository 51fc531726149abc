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

Crash consistency is manifest-ordering, not journaling: a rebuild first
*deletes* the manifest, then rewrites the data files, then writes the
new manifest.  A crash at any point leaves a directory whose manifest is
either absent or inconsistent with the files (sizes are recorded and
re-checked), which :func:`materialization_is_fresh` reports as stale —
the backend then rebuilds instead of serving torn data.  The manifest
also records the source :attr:`Database.data_version`, so ordinary
staleness (new rows loaded since materialization) is detected the same
way.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

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
    "materialization_is_fresh",
    "materialize",
]

MANIFEST_FILE = "MANIFEST.json"
#: 2: column-wise heap pages.  A directory written under another format
#: reads as stale and is rebuilt, never decoded.
MANIFEST_FORMAT = 2
POSTINGS_FILE = "postings.bin"
DICT_FILE = "postings.dict.json"
_NUMERIC = (DataType.INT, DataType.FLOAT)
_TEXTUAL = (DataType.TEXT, DataType.DATE)
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
    manifest_path = os.path.join(directory, MANIFEST_FILE)
    # Invalidate before touching data files: a crash mid-rebuild must not
    # leave an old manifest pointing at half-rewritten files.
    if os.path.exists(manifest_path):
        os.unlink(manifest_path)

    data_version = database.data_version
    build_pool = BufferPool(_BUILD_POOL_CAPACITY)
    spimi = SpimiBuilder(directory, block_budget)
    tables: Dict[str, Any] = {}
    files: Dict[str, int] = {}
    totals = {"rows": 0, "pages": 0}

    for relation in database.schema:
        rows = list(database.table(relation.name).rows)
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
        totals["rows"] += len(rows)
        totals["pages"] += len(page_counts)

        for col_idx, column in enumerate(relation.columns):
            if column.dtype in _NUMERIC:
                file_name = f"{relation.name}.{column.name}.bpt"
                items = sorted(
                    (float(row[col_idx]), pos)
                    for pos, row in enumerate(rows)
                    if row[col_idx] is not None
                )
                _build_bptree(
                    build_pool, os.path.join(directory, file_name),
                    file_name, items, page_size,
                )
                entry["numeric"][column.name] = file_name
            elif column.dtype in _TEXTUAL:
                file_name = f"{relation.name}.{column.name}.hash"
                HashFile.build(
                    os.path.join(directory, file_name),
                    (
                        (str(row[col_idx]), pos)
                        for pos, row in enumerate(rows)
                        if row[col_idx] is not None
                    ),
                    page_size,
                )
                entry["hash"][column.name] = file_name
                for pos, row in enumerate(rows):
                    value = row[col_idx]
                    if value is None:
                        continue
                    for token in set(tokenize_text(str(value))):
                        spimi.add(token, relation.name, column.name, pos)
        tables[relation.name] = entry

    spimi_stats = spimi.finalize(
        os.path.join(directory, POSTINGS_FILE),
        os.path.join(directory, DICT_FILE),
    )

    for entry in tables.values():
        for file_name in (
            [entry["heap"]]
            + list(entry["numeric"].values())
            + list(entry["hash"].values())
        ):
            files[file_name] = os.path.getsize(os.path.join(directory, file_name))
    for file_name in (POSTINGS_FILE, DICT_FILE):
        files[file_name] = os.path.getsize(os.path.join(directory, file_name))

    manifest = {
        "format": MANIFEST_FORMAT,
        "database": database.schema.name,
        "page_size": page_size,
        "data_version": list(data_version),
        "tables": tables,
        "spimi": {
            "postings": POSTINGS_FILE,
            "dict": DICT_FILE,
            "stats": spimi_stats,
        },
        "totals": totals,
        "files": files,
    }
    tmp = manifest_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    os.replace(tmp, manifest_path)
    return manifest


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


def materialization_is_fresh(
    directory: str,
    database: Database,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> bool:
    """Whether *directory* holds a complete, current materialization of
    *database* (at *page_size*).

    False for a missing/corrupt/foreign manifest, a stale data version,
    or any data file that is missing or has an unexpected size (the
    half-written shapes a crash during :func:`materialize` leaves)."""
    try:
        manifest = load_manifest(directory)
    except StorageError:
        return False
    if manifest.get("database") != database.schema.name:
        return False
    if manifest.get("page_size") != page_size:
        return False
    if tuple(manifest.get("data_version", ())) != database.data_version:
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
