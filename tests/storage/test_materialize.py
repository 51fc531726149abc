"""Materialization: manifest discipline, crash shapes, the storage engine."""

import json
import os

import pytest

from repro.errors import StorageError
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.storage import (
    MANIFEST_FILE,
    StorageEngine,
    load_manifest,
    materialization_is_fresh,
    materialize,
)

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
        materialize(db, str(tmp_path), page_size=PAGE)
        db.load("T", [(5, "gamma", 9.0)])
        assert not materialization_is_fresh(str(tmp_path), db, page_size=PAGE)
        materialize(db, str(tmp_path), page_size=PAGE)
        assert materialization_is_fresh(str(tmp_path), db, page_size=PAGE)

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
