"""Materialization: manifest discipline, crash shapes, the storage engine."""

import hashlib
import json
import os

import pytest

from repro.errors import StorageError
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.backends import DiskBackend, create_backend
from repro.observability import Tracer
from repro.storage import (
    MANIFEST_FILE,
    StorageEngine,
    load_manifest,
    materialization_is_fresh,
    materialize,
)
from repro.datasets import generate_acmdl, generate_tpch, university_database

PAGE = 256


def small_db(name="mini"):
    schema = DatabaseSchema(name)
    schema.add_relation(
        "T",
        [
            ("id", DataType.INT),
            ("name", DataType.TEXT),
            ("score", DataType.FLOAT),
        ],
        ["id"],
    )
    db = Database(schema)
    db.load(
        "T",
        [
            (1, "alpha", 1.5),
            (2, "beta", 2.5),
            (3, "alpha", 3.5),
            (4, None, None),
        ],
    )
    return db


class TestManifest:
    def test_materialize_roundtrip(self, tmp_path):
        db = small_db()
        manifest = materialize(db, str(tmp_path), page_size=PAGE)
        assert manifest["database"] == "mini"
        assert manifest["totals"]["rows"] == 4
        assert manifest["tables"]["T"]["rows"] == 4
        assert load_manifest(str(tmp_path)) == manifest
        assert materialization_is_fresh(str(tmp_path), db, page_size=PAGE)

    def test_every_listed_file_exists_with_recorded_size(self, tmp_path):
        db = small_db()
        manifest = materialize(db, str(tmp_path), page_size=PAGE)
        for file_name, size in manifest["files"].items():
            assert os.path.getsize(tmp_path / file_name) == size

    def test_missing_manifest_is_stale(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        (tmp_path / MANIFEST_FILE).unlink()
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        with pytest.raises(StorageError, match="no materialization manifest"):
            load_manifest(str(tmp_path))

    def test_corrupt_manifest_is_stale(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        (tmp_path / MANIFEST_FILE).write_text("{not json", encoding="utf-8")
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        with pytest.raises(StorageError, match="corrupt manifest"):
            load_manifest(str(tmp_path))

    def test_unsupported_format_is_rejected(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        path = tmp_path / MANIFEST_FILE
        document = json.loads(path.read_text(encoding="utf-8"))
        document["format"] = 999
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(StorageError, match="unsupported manifest format"):
            load_manifest(str(tmp_path))

    def test_format_1_directory_is_stale(self, tmp_path):
        """A directory of the record-at-a-time heap format (manifest
        format 1), of index files holding a key per position (format
        2), of index files covering every row (format 3), of index files
        with a meta page and plain text minipages (format 4), of f64
        floats and ISO-string dates throughout (format 5), or of INT
        minipages that are always signed arrays (format 6), must be
        rebuilt, never decoded as this format."""
        db = small_db()
        for old in (1, 2, 3, 4, 5, 6):
            materialize(db, str(tmp_path), page_size=PAGE)
            path = tmp_path / MANIFEST_FILE
            document = json.loads(path.read_text(encoding="utf-8"))
            assert document["format"] == 7
            document["format"] = old
            path.write_text(json.dumps(document), encoding="utf-8")
            assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
            with pytest.raises(StorageError, match=f"unsupported manifest format {old}"):
                StorageEngine(str(tmp_path), db.schema)
            TestAppendCrashShapes.assert_rebuilt(tmp_path, db)

    @pytest.mark.parametrize("field", ["root", "buckets", "indexed"])
    def test_entry_lacking_a_field_is_stale_and_rebuilt(self, tmp_path, field):
        """A manifest that parses, names the current versions and the
        files' sizes, but lacks a field the storage engine reads: the
        directory is rebuilt, and a statement answers as memory does."""
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        path = tmp_path / MANIFEST_FILE
        document = json.loads(path.read_text(encoding="utf-8"))
        entry = document["tables"]["T"]
        owner = {
            "root": entry["numeric"]["score"],
            "buckets": entry["hash"]["name"],
            "indexed": entry,
        }[field]
        del owner[field]
        path.write_text(json.dumps(document), encoding="utf-8")
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        with pytest.raises(StorageError, match=f"malformed manifest .*{field}"):
            StorageEngine(str(tmp_path), db.schema)
        TestAppendCrashShapes.assert_rebuilt(tmp_path, db)
        sql = "SELECT T.name, COUNT(*) AS n, SUM(T.score) AS s FROM T GROUP BY T.name"
        answers = []
        for backend in (
            create_backend("memory", db),
            DiskBackend(path=str(tmp_path), page_size=PAGE, pool_capacity=4),
        ):
            try:
                backend.load(db)
                answers.append(sorted(backend.execute(sql).rows, key=repr))
            finally:
                backend.close()
        assert answers[0] == answers[1]

    def test_truncated_data_file_is_stale(self, tmp_path):
        """The half-written shape a crash during rebuild leaves."""
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        heap = tmp_path / "T.heap"
        heap.write_bytes(heap.read_bytes()[:-10])
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)

    def test_missing_data_file_is_stale(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        (tmp_path / "T.score.bpt").unlink()
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)

    def test_other_page_size_is_stale(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE * 2)

    def test_data_version_bump_is_stale(self, tmp_path):
        db = small_db()
        for row in MORE:
            materialize(db, str(tmp_path), page_size=PAGE)
            assert materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
            db.insert("T", row)
            assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        manifest = materialize(db, str(tmp_path), page_size=PAGE)
        assert manifest["tables"]["T"]["rows"] == db.table("T").version == 7

    def test_foreign_database_is_stale(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        assert not materialization_is_fresh(
            str(tmp_path), small_db("other"), page_size=PAGE
        )

    def test_rebuild_invalidates_manifest_first(self, tmp_path, monkeypatch):
        """A crash mid-rebuild must leave no manifest, not a stale one."""
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)

        # The package re-exports the materialize *function*, which
        # shadows the submodule on attribute access — go via sys.modules.
        import importlib

        module = importlib.import_module("repro.storage.materialize")

        def boom(*args, **kwargs):
            raise RuntimeError("simulated crash during rebuild")

        monkeypatch.setattr(module, "build_heap", boom)
        with pytest.raises(RuntimeError):
            materialize(db, str(tmp_path), page_size=PAGE)
        assert not (tmp_path / MANIFEST_FILE).exists()
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)


MORE = [(5, "gamma delta", 9.0), (6, "alpha", None), (7, None, 2.5)]


def appended(directory, db):
    """Materialize *db*, load ``MORE`` and append it in place."""
    materialize(db, str(directory), page_size=PAGE)
    engine = StorageEngine(str(directory), db.schema, pool_capacity=4)
    try:
        db.load("T", MORE)
        assert engine.append(db) == len(MORE)
    finally:
        engine.close()
    return load_manifest(str(directory))


class TestAppendCrashShapes:
    """An append writes only heap pages, and keeps the rebuild's
    ordering — manifest unlinked first, written last with the new sizes
    — so every half-done or damaged shape reads as stale and is
    rebuilt, never decoded."""

    def test_completed_append_is_fresh_and_lists_what_it_touched(self, tmp_path):
        db = small_db()
        before = materialize(db, str(tmp_path), page_size=PAGE)
        index_bytes = {
            name: (tmp_path / name).read_bytes()
            for name in before["files"] if name != "T.heap"
        }
        manifest = appended(tmp_path, db)
        assert materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        assert manifest["tables"]["T"]["rows"] == 7
        assert manifest["totals"]["rows"] == 7
        # the rows join the tail: the index files still cover the first 4
        assert manifest["tables"]["T"]["indexed"] == 4
        assert set(manifest["files"]) == set(before["files"])
        for file_name, size in manifest["files"].items():
            assert os.path.getsize(tmp_path / file_name) == size
        for name, data in index_bytes.items():
            assert (tmp_path / name).read_bytes() == data, name

    def test_truncated_or_missing_file_is_stale_and_rebuilt(self, tmp_path):
        db = small_db()
        manifest = appended(tmp_path, db)
        # the heap, every .bpt and .hash, and the postings: each one
        # truncated, then dropped
        assert len(manifest["files"]) == 6
        for file_name in manifest["files"]:
            path = tmp_path / file_name
            intact = path.read_bytes()
            for damage in (lambda: path.write_bytes(intact[:-1]), path.unlink):
                damage()
                assert not materialization_is_fresh(
                    str(tmp_path), db, page_size=PAGE
                ), file_name
                self.assert_rebuilt(tmp_path, db)
                manifest_now = appended(tmp_path, small_db())
                assert manifest_now["files"] == manifest["files"]

    def test_stop_before_the_manifest_is_stale_and_rebuilt(
        self, tmp_path, monkeypatch
    ):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        engine = StorageEngine(str(tmp_path), db.schema, pool_capacity=4)
        db.load("T", MORE)

        def crash(*args, **kwargs):
            raise RuntimeError("simulated crash before the manifest")

        monkeypatch.setattr("repro.storage.engine.write_manifest", crash)
        try:
            with pytest.raises(RuntimeError):
                engine.append(db)
        finally:
            engine.close()
        monkeypatch.undo()
        assert not (tmp_path / MANIFEST_FILE).exists()
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        self.assert_rebuilt(tmp_path, db)

    def test_backend_drops_the_engine_an_append_failed_in(
        self, tmp_path, monkeypatch
    ):
        db = small_db()
        backend = DiskBackend(path=str(tmp_path), page_size=PAGE, pool_capacity=4)
        tracer = Tracer()
        try:
            backend.load(db, tracer=tracer)
            db.load("T", MORE[:2])  # a tail no longer than the 4 rows indexed
            with monkeypatch.context() as patched:
                patched.setattr(
                    "repro.storage.heap.HeapFile.append",
                    lambda *args: (_ for _ in ()).throw(StorageError("disk full")),
                )
                with pytest.raises(StorageError, match="disk full"):
                    backend.execute("SELECT COUNT(*) FROM T")
            count = backend.execute("SELECT COUNT(*) FROM T", tracer=tracer)
            assert count.scalar() == 6
            assert tracer.registry.counter("materializations") == 2
        finally:
            backend.close()

    @staticmethod
    def assert_rebuilt(directory, db):
        tracer = Tracer()
        backend = DiskBackend(path=str(directory), page_size=PAGE, pool_capacity=4)
        try:
            backend.load(db, tracer=tracer)
            assert tracer.registry.counter("materializations") == 1
            assert tracer.registry.counter("materializations_reused") == 0
            rows = backend.execute("SELECT id, name, score FROM T").rows
            assert sorted(rows, key=lambda row: row[0]) == db.table("T").rows
            entry = backend.storage_manifest()["tables"]["T"]
            assert entry["indexed"] == entry["rows"] == len(db.table("T").rows)
        finally:
            backend.close()


class TestParentManifest:
    """Directories of manifest format 6: every INT minipage was a signed
    array, under a manifest of the same shape — some recording a table's
    epoch, written when tables could still change rows in place.  Such a
    directory reads as stale and is rebuilt, and the rebuild deletes the
    files of older formats no manifest names."""

    def as_parent_wrote_it(self, directory, db):
        manifest = materialize(db, str(directory), page_size=PAGE)
        manifest["format"] = 6
        (directory / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )

    def test_reads_as_stale_and_is_rebuilt(self, tmp_path):
        db = small_db()
        self.as_parent_wrote_it(tmp_path, db)
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        with pytest.raises(StorageError, match="unsupported manifest format 6"):
            StorageEngine(str(tmp_path), db.schema, pool_capacity=4)
        TestAppendCrashShapes.assert_rebuilt(tmp_path, db)
        assert load_manifest(str(tmp_path))["format"] == 7

    def test_is_stale_once_an_epoch_moved(self, tmp_path):
        """A format-6 manifest that records a table's epoch, moved when
        a row changed in place, may describe other rows than the ones a
        table of the same row count holds now: stale on its format,
        rebuilt, never served."""
        db = small_db()
        changed = Database(db.schema)
        changed.load("T", [(1, "omega", 1.5), *db.table("T").rows[1:]])
        manifest = materialize(changed, str(tmp_path), page_size=PAGE)
        manifest["format"] = 6
        manifest["tables"]["T"]["epoch"] = 1
        (tmp_path / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        with pytest.raises(StorageError, match="unsupported manifest format 6"):
            StorageEngine(str(tmp_path), db.schema)
        TestAppendCrashShapes.assert_rebuilt(tmp_path, db)
        assert "epoch" not in load_manifest(str(tmp_path))["tables"]["T"]

    def test_rebuild_deletes_what_no_manifest_names(self, tmp_path):
        """Format 3's delta postings, an index file of a dropped column:
        deleted.  A file without a storage suffix is not this module's
        and survives."""
        db = small_db()
        self.as_parent_wrote_it(tmp_path, db)
        leftovers = ["postings.delta.bin", "postings.delta.dict.json", "T.gone.bpt"]
        foreign = ["notes.txt", "T.heap.orig", "README.json"]
        for name in leftovers + foreign:
            (tmp_path / name).write_bytes(b"left here")
        manifest = materialize(db, str(tmp_path), page_size=PAGE)
        assert sorted(os.listdir(tmp_path)) == sorted(
            [MANIFEST_FILE, *manifest["files"], *foreign]
        )
        assert all((tmp_path / name).read_bytes() == b"left here" for name in foreign)


class TestStorageEngine:
    def test_serves_rows_and_indexes(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        engine = StorageEngine(str(tmp_path), db.schema, pool_capacity=8)
        try:
            assert list(engine.table("T").rows) == list(db.table("T").rows)
            tree = engine.bptree("T", "score")
            assert tree is not None and tree.search_eq(2.5) == [1]
            hash_file = engine.hash_file("T", "name")
            assert hash_file is not None and hash_file.positions("alpha") == {0, 2}
            # numeric column has no hash index, text column no B+-tree
            assert engine.hash_file("T", "score") is None
            assert engine.bptree("T", "name") is None
            counters = engine.counters()
            assert counters["max_resident"] <= 8
        finally:
            engine.close()

    def test_append_syncs_only_the_heap_files_it_wrote(self, tmp_path, monkeypatch):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        engine = StorageEngine(str(tmp_path), db.schema, pool_capacity=4)
        synced = []
        monkeypatch.setattr(
            "repro.storage.pager.Pager.sync", lambda pager: synced.append(pager.path)
        )
        try:
            db.load("T", MORE)
            engine.append(db)
            assert [os.path.basename(path) for path in synced] == ["T.heap"]
            synced.clear()
            assert engine.append(db) == 0  # nothing new: nothing written
            assert synced == []
        finally:
            engine.close()

    def test_rejects_foreign_manifest(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        with pytest.raises(StorageError, match="mini"):
            StorageEngine(str(tmp_path), small_db("other").schema, pool_capacity=8)

    def test_missing_directory_raises(self, tmp_path):
        db = small_db()
        with pytest.raises(StorageError, match="manifest"):
            StorageEngine(str(tmp_path / "absent"), db.schema, pool_capacity=8)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden_materialize.json")
#: name in golden_materialize.json -> (database, materialize() options)
GOLDEN_BUILDS = {
    "tpch": (generate_tpch, {}),
    # many spilled SPIMI blocks: the merge, and the manifest's block count
    "tpch-block-budget-1000": (generate_tpch, {"block_budget": 1000}),
    "university": (university_database, {}),
    "acmdl": (generate_acmdl, {}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
def test_materialized_bytes_equal_the_recorded_ones(name, tmp_path):
    """The sha256 of every file a ``materialize()`` at the default page
    size leaves — heap, B+-tree, hash and SPIMI files, and the manifest
    — as recorded in ``golden_materialize.json``.  Any change to how the
    builders lay out a byte fails here: a format change is a decision
    (re-record, and bump ``MANIFEST_FORMAT``), never an accident of a
    faster build."""
    with open(GOLDEN, encoding="utf-8") as handle:
        recorded = json.load(handle)[name]
    build, options = GOLDEN_BUILDS[name]
    materialize(build(), str(tmp_path), **options)
    written = {
        file_name: hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest()
        for file_name in sorted(os.listdir(tmp_path))
    }
    assert written == recorded
