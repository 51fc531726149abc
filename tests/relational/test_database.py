"""Unit tests for the Database facade (loading, FK checking, indexes)."""

import pytest

from repro.errors import ForeignKeyError, UnknownTableError
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, ForeignKey
from repro.relational.types import DataType

INT = DataType.INT
TEXT = DataType.TEXT


def make_db() -> Database:
    schema = DatabaseSchema("toy")
    schema.add_relation("Parent", [("pid", INT), ("name", TEXT)], ["pid"])
    schema.add_relation(
        "Child",
        [("cid", INT), ("pid", INT)],
        ["cid"],
        [ForeignKey(("pid",), "Parent", ("pid",))],
    )
    return Database(schema)


class TestLoading:
    def test_load_and_counts(self):
        db = make_db()
        db.load("Parent", [(1, "a"), (2, "b")])
        db.load("Child", [(10, 1)])
        assert db.row_counts() == {"Parent": 2, "Child": 1}

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError):
            make_db().table("Nope")

    def test_contains(self):
        db = make_db()
        assert "Parent" in db
        assert "Nope" not in db

    def test_insert_dict(self):
        db = make_db()
        db.insert_dict("Parent", {"pid": 1, "name": "x"})
        assert len(db.table("Parent")) == 1


class TestForeignKeys:
    def test_valid_references_pass(self):
        db = make_db()
        db.load("Parent", [(1, "a")])
        db.load("Child", [(10, 1)])
        db.check_foreign_keys()

    def test_dangling_reference_fails(self):
        db = make_db()
        db.load("Parent", [(1, "a")])
        db.load("Child", [(10, 99)])
        with pytest.raises(ForeignKeyError):
            db.check_foreign_keys()

    def test_null_fk_allowed(self):
        db = make_db()
        db.load("Parent", [(1, "a")])
        db.load("Child", [(10, None)])
        db.check_foreign_keys()


class TestIndexes:
    def test_text_index_lazily_built_and_invalidated(self):
        db = make_db()
        db.load("Parent", [(1, "apple pie")])
        assert db.hits("apple")[0][0] == "Parent"
        db.load("Parent", [(2, "apple cake")])
        column = db.hits("apple")[0][1]
        assert db.candidates("contains", "Parent", column, ["apple"]) == {0, 1}

    def test_hash_index_cached(self):
        db = make_db()
        db.load("Parent", [(1, "a")])
        first = db.hash_index("Parent", ["pid"])
        second = db.hash_index("Parent", ["pid"])
        assert first is second

    def test_summary_mentions_tables(self):
        db = make_db()
        text = db.summary()
        assert "Parent" in text and "Child" in text
