"""Materialization: manifest discipline, crash shapes, the storage engine."""

import json
import os

import pytest

from repro.errors import StorageError
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.backends import DiskBackend
from repro.observability import Tracer
from repro.storage import (
    MANIFEST_FILE,
    StorageEngine,
    load_manifest,
    materialization_is_fresh,
    materialize,
)
from repro.storage.materialize import manifest_versions

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
        format 1) must be rebuilt, never decoded as column-wise pages."""
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        path = tmp_path / MANIFEST_FILE
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["format"] == 2
        document["format"] = 1
        path.write_text(json.dumps(document), encoding="utf-8")
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        with pytest.raises(StorageError, match="unsupported manifest format 1"):
            StorageEngine(str(tmp_path), db.schema)

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
        table = db.table("T")
        for write in (
            lambda: db.load("T", [(5, "gamma", 9.0)]),
            lambda: table.update((5,), {"score": 1.0}),
            lambda: table.delete((5,)),
            # back to the first row count, under another epoch
            lambda: (table.delete((4,)), table.insert((4, None, None))),
        ):
            materialize(db, str(tmp_path), page_size=PAGE)
            assert materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
            write()
            assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        manifest = materialize(db, str(tmp_path), page_size=PAGE)
        assert manifest_versions(manifest) == {"T": table.version} == {"T": (3, 4)}

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
    """An append keeps the rebuild's ordering — manifest unlinked first,
    written last with the new sizes — so every half-done or damaged
    shape reads as stale and is rebuilt, never decoded."""

    def test_completed_append_is_fresh_and_lists_what_it_touched(self, tmp_path):
        db = small_db()
        before = materialize(db, str(tmp_path), page_size=PAGE)
        manifest = appended(tmp_path, db)
        assert materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        assert manifest_versions(manifest) == {"T": (0, 7)}
        assert manifest["totals"]["rows"] == 7
        added = set(manifest["files"]) - set(before["files"])
        assert added == {"postings.delta.bin", "postings.delta.dict.json"}
        for file_name, size in manifest["files"].items():
            assert os.path.getsize(tmp_path / file_name) == size

    def test_truncated_or_missing_file_is_stale_and_rebuilt(self, tmp_path):
        db = small_db()
        manifest = appended(tmp_path, db)
        # the heap, every .bpt and .hash, both delta files (and the
        # untouched base postings): each one truncated, then dropped
        assert len(manifest["files"]) == 8
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
            db.load("T", MORE)
            with monkeypatch.context() as patched:
                patched.setattr(
                    "repro.storage.hashindex.HashFile.insert",
                    lambda *args: (_ for _ in ()).throw(StorageError("disk full")),
                )
                with pytest.raises(StorageError, match="disk full"):
                    backend.execute("SELECT COUNT(*) FROM T")
            assert backend.execute("SELECT COUNT(*) FROM T", tracer=tracer).scalar() == 7
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
            assert "delta" not in backend.storage_manifest()["spimi"]
        finally:
            backend.close()


class TestParentManifest:
    """The data files a fresh ``materialize()`` writes did not change
    with per-table versions, only the manifest did: the parent commit's
    carried one database-wide ``data_version`` and no epochs."""

    def as_parent_wrote_it(self, directory, db):
        manifest = materialize(db, str(directory), page_size=PAGE)
        assert not any("epoch" in entry for entry in manifest["tables"].values())
        manifest["data_version"] = [1, manifest["totals"]["rows"]]
        (directory / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )

    def test_opens_serves_and_takes_appends(self, tmp_path):
        db = small_db()
        self.as_parent_wrote_it(tmp_path, db)
        assert materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        engine = StorageEngine(str(tmp_path), db.schema, pool_capacity=4)
        try:
            table = engine.database.table("T")
            assert table.version == db.table("T").version == (0, 4)
            assert list(table.rows) == db.table("T").rows
            db.load("T", MORE)
            engine.append(db)
            assert list(table.rows) == db.table("T").rows
            assert engine.hash_file("T", "name").positions("alpha") == {0, 2, 5}
        finally:
            engine.close()
        assert materialization_is_fresh(str(tmp_path), db, page_size=PAGE)

    def test_is_stale_once_an_epoch_moved(self, tmp_path):
        db = small_db()
        self.as_parent_wrote_it(tmp_path, db)
        db.table("T").update((1,), {"name": "omega"})
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)


class TestStorageEngine:
    def test_serves_rows_and_indexes(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        engine = StorageEngine(str(tmp_path), db.schema, pool_capacity=8)
        try:
            disk_db = engine.database
            assert list(disk_db.table("T").rows) == list(db.table("T").rows)
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

    def test_rejects_foreign_manifest(self, tmp_path):
        db = small_db()
        materialize(db, str(tmp_path), page_size=PAGE)
        with pytest.raises(StorageError, match="mini"):
            StorageEngine(str(tmp_path), small_db("other").schema, pool_capacity=8)

    def test_missing_directory_raises(self, tmp_path):
        db = small_db()
        with pytest.raises(StorageError, match="manifest"):
            StorageEngine(str(tmp_path / "absent"), db.schema, pool_capacity=8)
