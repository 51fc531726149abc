"""Materializing a :class:`~repro.relational.database.Database` to disk.

:func:`materialize` lays the whole database out as one directory:

* ``<table>.heap`` — heap file of column-wise pages per table;
* ``<table>.<column>.bpt`` — B+-tree per numeric (INT/FLOAT) column,
  keyed by ``float(value)`` exactly like the in-memory ``NumericIndex``;
* ``<table>.<column>.hash`` — hash index per text (TEXT/DATE) column,
  serving the ``hash-eq`` lookups;
* ``postings.bin`` + ``postings.dict.json`` — one SPIMI inverted index
  over every text column of every table, serving ``contains`` lookups;
* ``MANIFEST.json`` — written **last**, atomically (tmp + ``os.replace``);
  its ``format`` (:data:`MANIFEST_FORMAT`, 7) names the file layouts,
  and it records each B+-tree's root page and each hash file's bucket
  count, so no index file spends a page on them.

Every index file stores each distinct key once — a B+-tree key, a hash,
a token's slot — followed by the positions carrying it, as one
width-coded unsigned array (:func:`~repro.storage.page.pack_uints`), or,
in a B+-tree leaf whose positions are consecutive, as the first of them.
Once the manifest is written, files with a storage suffix
(:data:`STORAGE_SUFFIXES`) that it does not name — left by an older
format — are deleted; other files in the directory are left alone.

The index files of a table cover a *prefix* of its rows: the first
``indexed``, which the manifest records per table.  :func:`materialize`
indexes every row; an in-place append
(:meth:`repro.storage.engine.StorageEngine.append`) then grows only the
heap files, and the rows past ``indexed`` — the *tail* — are handed to
the plan by every index probe, to verify like any other candidate.  The
next :func:`materialize` (a *fold*) indexes the tail too.

Crash consistency is manifest-ordering, not journaling: a rebuild *and*
an append first *delete* the manifest, then write the data files, then
write the new manifest.  A crash at any point leaves a directory whose
manifest is either absent or inconsistent with the files (sizes are
recorded and re-checked), which :func:`materialization_is_fresh`
reports as stale — the backend then rebuilds instead of serving torn
data.  The manifest also records each table's source
:attr:`~repro.relational.table.Table.version` (``rows``), so ordinary
staleness (an append since materialization) is detected the same way,
per table.
"""

from __future__ import annotations

import json
import os
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import StorageError
from repro.relational.database import Database
from repro.relational.index import sorted_float_keys, tokenize_text
from repro.relational.types import DataType
from repro.storage.bptree import BPlusTree
from repro.storage.hashindex import HashFile
from repro.storage.heap import build_heap
from repro.storage.page import column_scales
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
#: 7: INT minipages may be offsets from the page's least value (a
#: manifest recording a table's ``epoch``, written while rows could
#: change in place, is of an older format);
#: 6: FLOAT minipages and B+-tree leaf keys may be scaled decimals,
#: and DATE minipages day numbers;
#: 5: index files have no meta page (the manifest records B+-tree roots
#: and hash bucket counts), B+-tree leaves may store consecutive
#: positions implicitly, and text minipages may be dictionary-coded;
#: 4: each table's index files cover its first ``indexed`` rows; 3:
#: index files store each key (hash, token slot) once, with a
#: width-coded position list; 2: column-wise heap pages.  A directory
#: written under another format reads as stale and is rebuilt, never
#: decoded.
MANIFEST_FORMAT = 7
POSTINGS_FILE = "postings.bin"
DICT_FILE = "postings.dict.json"
#: the names of the files this module writes end in one of these
STORAGE_SUFFIXES = (".heap", ".bpt", ".hash", ".bin", ".dict.json")
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
    if os.path.exists(os.path.join(directory, MANIFEST_FILE)):
        os.unlink(os.path.join(directory, MANIFEST_FILE))

    build_pool = BufferPool(_BUILD_POOL_CAPACITY)
    spimi = SpimiBuilder(directory, block_budget)
    tables: Dict[str, Any] = {}
    totals = {"rows": 0, "pages": 0}

    for relation in database.schema:
        table = database.table(relation.name)
        rows = table.rows[: table.version]
        heap_file = f"{relation.name}.heap"
        # each FLOAT column's decimal scales, found once for its heap
        # pages and its B+-tree
        scales = {
            col_idx: column_scales(list(map(itemgetter(col_idx), rows)))
            for col_idx, column in enumerate(relation.columns)
            if column.dtype is DataType.FLOAT
        }
        page_counts = build_heap(
            os.path.join(directory, heap_file), relation, rows, page_size, scales
        )
        entry: Dict[str, Any] = {
            "rows": len(rows),
            "indexed": len(rows),
            "heap": heap_file,
            "page_counts": page_counts,
            "numeric": {},
            "hash": {},
        }
        totals["rows"] += len(rows)
        totals["pages"] += len(page_counts)

        for col_idx, column in enumerate(relation.columns):
            if column.dtype not in NUMERIC + TEXTUAL:
                continue
            # one column of the table at a time, dropped once indexed
            values = list(map(itemgetter(col_idx), rows))
            if column.dtype in NUMERIC:
                file_name = f"{relation.name}.{column.name}.bpt"
                keys, positions = sorted_float_keys(values)
                root = _build_bptree(
                    build_pool, os.path.join(directory, file_name), file_name,
                    keys, positions, page_size, scales.get(col_idx),
                )
                entry["numeric"][column.name] = {"file": file_name, "root": root}
            else:
                file_name = f"{relation.name}.{column.name}.hash"
                groups = positions_by_value(values)
                buckets = HashFile.build(os.path.join(directory, file_name), groups, page_size)
                entry["hash"][column.name] = {"file": file_name, "buckets": buckets}
                for value, positions in groups.items():
                    for token in set(tokenize_text(value)):
                        spimi.add_run(token, relation.name, column.name, positions)
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
    named = set(manifest["files"])
    for name in os.listdir(directory):
        if name.endswith(STORAGE_SUFFIXES) and name not in named:
            os.unlink(os.path.join(directory, name))
    return manifest


def positions_by_value(values: Sequence[Any]) -> Dict[str, List[int]]:
    """The text index of one column: each distinct non-NULL value, in the
    order first met, with the ascending positions holding it.  A value's
    hash and tokens are then computed once, however many rows hold it."""
    groups: Dict[str, List[int]] = {}
    for position, value in enumerate(values):
        if value is not None:
            held = groups.get(value)
            if held is None:
                groups[value] = [position]
            else:
                held.append(position)
    return groups


def write_manifest(directory: str, manifest: Dict[str, Any]) -> None:
    """Record the size of every data file *manifest* names, then write
    it — the last step of a rebuild and of an append, atomic (tmp +
    ``os.replace``)."""
    names: List[str] = []
    for entry in manifest["tables"].values():
        names.append(entry["heap"])
        names.extend(index["file"] for index in entry["numeric"].values())
        names.extend(index["file"] for index in entry["hash"].values())
    spimi = manifest["spimi"]
    names += [spimi["postings"], spimi["dict"]]
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
    keys: List[float],
    positions: List[int],
    page_size: int,
    scales: Optional[Sequence[int]],
) -> int:
    """Write the B+-tree file at *path*; returns its root page."""
    pager = Pager(path, page_size, create=True)
    try:
        pool.register(file_id, pager)
        root = BPlusTree.bulk_build(pool, file_id, keys, positions, scales).root
        pool.flush()
        pager.sync()
        return root
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
    wrong = _malformed(manifest)
    if wrong is not None:
        raise StorageError(f"{path}: malformed manifest ({wrong})")
    return manifest


#: what the storage engine reads of a manifest, field by field: of the
#: manifest, its ``spimi`` entry, each table entry, and each entry of a
#: table's two index families
_MANIFEST_FIELDS = {"database": str, "page_size": int, "tables": dict, "spimi": dict, "files": dict}
_SPIMI_FIELDS = {"postings": str, "dict": str}
_TABLE_FIELDS = {
    "rows": int, "indexed": int, "heap": str, "page_counts": list, "numeric": dict, "hash": dict,
}
_INDEX_FIELDS = {"numeric": {"file": str, "root": int}, "hash": {"file": str, "buckets": int}}


def _malformed(manifest: Dict[str, Any]) -> Optional[str]:
    """What is wrong with *manifest*: the first field the storage engine
    reads that is absent or of another type, or a field no current
    manifest records, as a dotted path and why; None when nothing is.
    Such a manifest reads as stale, so the directory is rebuilt rather
    than served until a lookup fails."""
    def wrong(record: Any, fields: Dict[str, type], where: str) -> Optional[str]:
        if not isinstance(record, dict):
            return f"{where} missing or mistyped"
        for name, kind in fields.items():
            if not isinstance(record.get(name), kind):
                return f"{where}.{name} missing or mistyped"
        return None

    def problems() -> Iterator[Optional[str]]:
        # checked in order, each only once everything it reads is there
        yield wrong(manifest, _MANIFEST_FIELDS, "manifest")
        yield wrong(manifest["spimi"], _SPIMI_FIELDS, "spimi")
        for table, entry in manifest["tables"].items():
            where = f"tables.{table}"
            yield wrong(entry, _TABLE_FIELDS, where)
            if not all(isinstance(count, int) for count in entry["page_counts"]):
                yield f"{where}.page_counts missing or mistyped"
            for family, fields in _INDEX_FIELDS.items():
                for column, index in entry[family].items():
                    yield wrong(index, fields, f"{where}.{family}.{column}")

    return next(filter(None, problems()), None)


def materialization_is_fresh(
    directory: str,
    database: Database,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> bool:
    """Whether *directory* holds a complete, current materialization of
    *database* (at *page_size*).

    False for a missing/corrupt/foreign manifest or one lacking a field
    the storage engine reads, any table whose version differs from the
    one recorded, or any data file that is missing or has an unexpected
    size (the half-written shapes a crash during :func:`materialize` or
    an append leaves)."""
    try:
        manifest = load_manifest(directory)
    except StorageError:
        return False
    if manifest["database"] != database.schema.name:
        return False
    if manifest["page_size"] != page_size:
        return False
    recorded = {name: entry["rows"] for name, entry in manifest["tables"].items()}
    current = {
        relation.name: database.table(relation.name).version
        for relation in database.schema
    }
    if recorded != current:
        return False
    for file_name, size in manifest["files"].items():
        path = os.path.join(directory, file_name)
        try:
            if os.path.getsize(path) != size:
                return False
        except OSError:
            return False
    return True
