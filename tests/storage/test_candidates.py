"""One index probe on both tiers: ``candidates(kind, table, column, values)``.

The memory :class:`~repro.relational.database.Database` answers from its
inverted, numeric and key indexes, the disk
:class:`~repro.storage.engine.StorageEngine` from its SPIMI index,
B+-trees and hash files.  The executor verifies whatever either returns,
so the contract is containment: every row the predicate keeps is in the
memory answer, and the memory answer is in the disk answer.
"""

import pytest

from repro.errors import UnknownTableError
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.storage import StorageEngine, materialize

PAGE = 256

COLUMNS = ("id", "name", "qty", "price")
ROWS = [
    (1, "royal olive", 10, 1.5),
    (2, "Royal blue", 20, 2.5),
    (3, "plain olive", 10, 3.5),
    (4, None, None, None),
    (5, "viceroy", 30, 1.5),
    (6, "olive royal", 2**60, 2**60 + 1),
]


def make_db():
    schema = DatabaseSchema("probes")
    schema.add_relation(
        "T",
        list(zip(COLUMNS, (DataType.INT, DataType.TEXT, DataType.INT, DataType.FLOAT))),
        ["id"],
    )
    db = Database(schema)
    db.load("T", ROWS)
    return db


@pytest.fixture(scope="module")
def tiers(tmp_path_factory):
    db = make_db()
    directory = str(tmp_path_factory.mktemp("candidates"))
    materialize(db, directory, page_size=PAGE)
    engine = StorageEngine(directory, db.schema, pool_capacity=8)
    yield db, engine
    engine.close()


def kept(kind, column, value):
    """Positions of the rows the predicate itself keeps."""
    cells = [row[COLUMNS.index(column)] for row in ROWS]
    if kind == "contains":
        return {
            pos
            for pos, cell in enumerate(cells)
            if cell is not None and value.lower() in cell.lower()
        }
    return {pos for pos, cell in enumerate(cells) if cell is not None and cell == value}


PROBES = [
    # (kind, column, a value that hits, a value that misses)
    ("contains", "name", "roy", "zebra"),
    ("contains", "name", "royal olive", "olive blue"),
    ("numeric-eq", "qty", 10, 11),
    ("numeric-eq", "price", 1.5, 9.5),
    ("numeric-eq", "qty", 2**60, 2**60 + 1),
    ("hash-eq", "name", "plain olive", "plain"),
]


@pytest.mark.parametrize("kind, column, hit, miss", PROBES)
def test_disk_contains_memory_contains_kept(tiers, kind, column, hit, miss):
    db, engine = tiers
    for value in (hit, miss):
        memory = db.candidates(kind, "T", column, (value,))
        disk = engine.candidates(kind, "T", column, (value,))
        assert memory is not None and disk is not None
        assert disk >= memory >= kept(kind, column, value)
    assert kept(kind, column, hit)


@pytest.mark.parametrize("kind, column, hit, miss", PROBES)
def test_many_values_answer_their_union(tiers, kind, column, hit, miss):
    for tier in tiers:
        union = set().union(
            *(tier.candidates(kind, "T", column, (value,)) for value in (hit, miss))
        )
        assert tier.candidates(kind, "T", column, (hit, miss)) == union
        assert tier.candidates(kind, "T", column, ()) == set()


@pytest.mark.parametrize(
    "kind, column, value",
    [
        ("numeric-eq", "qty", "ten"),
        ("numeric-eq", "qty", None),
        ("numeric-eq", "qty", 10**400),
        ("numeric-eq", "name", 10),
        ("contains", "qty", "10"),
        ("contains", "name", "--"),
    ],
)
def test_disk_cannot_answer(tiers, kind, column, value):
    _, engine = tiers
    assert engine.candidates(kind, "T", column, (value,)) is None
    # one value it cannot answer spoils the whole call
    assert engine.candidates(kind, "T", column, ("10", value)) is None


def test_non_text_hash_value_matches_nothing(tiers):
    _, engine = tiers
    assert engine.candidates("hash-eq", "T", "name", (10,)) == set()


def test_unknown_table_raises(tiers):
    _, engine = tiers
    with pytest.raises(UnknownTableError):
        engine.table("Nope")


def test_append_carries_the_source_version(tmp_path):
    db = make_db()
    db.table("T").update((4,), {"name": "filled"})  # epoch 1
    materialize(db, str(tmp_path), page_size=PAGE)
    engine = StorageEngine(str(tmp_path), db.schema, pool_capacity=8)
    try:
        assert engine.table("T").version == db.table("T").version == (1, 6)
        db.load("T", [(7, "fresh olive", 40, 4.5), (8, "late", 10, 0.5)])
        assert engine.table("T").version != db.table("T").version
        engine.append(db)
        assert engine.table("T").version == db.table("T").version
        assert engine.versions(["T"]) == db.versions(["T"])
        assert engine.candidates("numeric-eq", "T", "qty", (10,)) >= {0, 2, 7}
        assert engine.candidates("contains", "T", "name", ("fresh",)) >= {6}
    finally:
        engine.close()
