"""One index probe on both tiers: ``candidates(kind, table, column, values)``.

The memory :class:`~repro.relational.database.Database` answers from its
inverted, numeric and key indexes, the disk
:class:`~repro.storage.engine.StorageEngine` from its SPIMI index,
B+-trees and hash files.  The executor verifies whatever either returns,
so the contract is containment: every row the predicate keeps is in the
memory answer, and the memory answer is in the disk answer.
"""

import pytest

from repro.backends import create_backend
from repro.errors import UnknownTableError
from repro.keywords.matcher import NormalizedCatalog
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


def object_count(catalog, column, value):
    """The catalog's count of the rows holding *value*: a phrase's by
    substring, a number's by ``==``."""
    if isinstance(value, str):
        return catalog.distinct_object_count("T", column, value)
    return catalog.distinct_object_count("T", column, str(value), value)


def holding(rows, column, value):
    """The ids of *rows* whose *column* holds *value*, tested as above."""
    at = COLUMNS.index(column)
    if isinstance(value, str):
        return {r[0] for r in rows if r[at] is not None and value.lower() in r[at].lower()}
    return {r[0] for r in rows if r[at] == value}


@pytest.mark.parametrize("kind, column, hit, miss", PROBES)
def test_catalog_counts_alike_on_either_tier(tmp_path, kind, column, hit, miss):
    """A catalog over the disk tier counts what one over memory counts,
    the unindexed tail of an append included."""
    db = make_db()
    materialize(db, str(tmp_path), page_size=PAGE)
    engine = StorageEngine(str(tmp_path), db.schema, pool_capacity=8)
    rows = list(ROWS)
    # each holds every probe's hit once
    tail = [(7, "fresh royal olive", 10, 1.5), (8, "plain olive", 2**60, 2.5)]
    try:
        memory, disk = NormalizedCatalog(db), NormalizedCatalog(engine)
        for appended in ([], tail):
            if appended:
                db.load("T", appended)
                engine.append(db)
                assert engine.indexed["T"] < engine.table("T").row_count
                assert len(holding(appended, column, hit)) == 1
                rows += appended
            for value in (hit, miss):
                expected = len(holding(rows, column, value))
                assert object_count(memory, column, value) == expected
                assert object_count(disk, column, value) == expected
    finally:
        engine.close()


def test_unknown_table_raises(tiers):
    _, engine = tiers
    with pytest.raises(UnknownTableError):
        engine.table("Nope")


def test_append_carries_the_source_version(tmp_path):
    db = make_db()
    materialize(db, str(tmp_path), page_size=PAGE)
    engine = StorageEngine(str(tmp_path), db.schema, pool_capacity=8)
    try:
        assert engine.table("T").version == db.table("T").version == 6
        db.load("T", [(7, "fresh olive", 40, 4.5), (8, "late", 10, 0.5)])
        assert engine.table("T").version != db.table("T").version
        engine.append(db)
        assert engine.table("T").version == db.table("T").version
        assert engine.versions(["T"]) == db.versions(["T"])
        assert engine.candidates("numeric-eq", "T", "qty", (10,)) >= {0, 2, 7}
        assert engine.candidates("contains", "T", "name", ("fresh",)) >= {6}
    finally:
        engine.close()


#: cells no float key can stand for: NaN orders against no key, and an
#: integer beyond float range has no float at all
UNKEYED = {
    DataType.FLOAT: [5.0, float("nan"), 1.0, 3.0, float("nan"), 2.0, 4.0, 0.5],
    DataType.INT: [3, 10**400, 1, -(10**400), 2, 10**400, 5],
}


@pytest.mark.parametrize("dtype", sorted(UNKEYED, key=str))
def test_cells_without_a_key_stay_out_of_the_tree(tmp_path, dtype):
    """Memory's ``NumericIndex`` and the disk B+-tree leave out the same
    cells, so every probe answers alike on both tiers — and a statement
    over the column counts alike — however often the column repeats."""
    schema = DatabaseSchema("unkeyed")
    schema.add_relation("T", [("id", DataType.INT), ("v", dtype)], ["id"])
    db = Database(schema)
    cells = UNKEYED[dtype] * 50
    db.load("T", list(enumerate(cells)))
    materialize(db, str(tmp_path), page_size=4 * PAGE)  # a page holds 10**400
    engine = StorageEngine(str(tmp_path), db.schema, pool_capacity=8)
    try:
        for value in [*UNKEYED[dtype], float("nan"), 99, 2.5]:
            memory = db.candidates("numeric-eq", "T", "v", (value,))
            assert engine.candidates("numeric-eq", "T", "v", (value,)) == memory, value
        every = len(UNKEYED[dtype])
        first = UNKEYED[dtype].index(2)
        assert engine.candidates("numeric-eq", "T", "v", (2,)) == set(
            range(first, len(cells), every)
        )
    finally:
        engine.close()
    sql = "SELECT COUNT(*) AS n FROM T WHERE T.v = 2"
    answers = []
    for name in ("memory", "disk"):
        backend = create_backend(name, db)
        try:
            answers.append(backend.execute(sql).scalar())
        finally:
            backend.close()
    assert answers == [50, 50]


def test_an_append_whose_rows_escape_answers_as_memory(tmp_path):
    """Rows appended onto pages of scaled decimals and day numbers that
    those layouts cannot hold — an inexact float, ``-0.0``, NaN, a date
    ``date.isoformat`` does not write back — re-encode their page in the
    wide layouts; the disk tier answers every statement and probe as
    memory does."""
    schema = DatabaseSchema("escapes")
    schema.add_relation(
        "T", [("id", DataType.INT), ("price", DataType.FLOAT), ("day", DataType.DATE)], ["id"]
    )
    db = Database(schema)
    db.load("T", [(i, i / 4, f"2016-03-{i % 28 + 1:02d}") for i in range(40)])
    escapes = [
        (40, 0.1 + 0.2, "2016-02-30"),
        (41, -0.0, "2016-03-01"),
        (42, float("nan"), None),
        (43, 2.5, "2016-03-02"),
    ]
    statements = [
        "SELECT T.id, T.price, T.day FROM T",
        "SELECT T.day, COUNT(*) AS n, SUM(T.price) AS s FROM T GROUP BY T.day",
        "SELECT COUNT(*) AS n FROM T WHERE T.day = '2016-02-30'",
        "SELECT COUNT(*) AS n FROM T WHERE T.price = 2.5",
    ]
    backends = {name: create_backend(name, db) for name in ("memory", "disk")}
    try:
        for name, backend in backends.items():
            backend.execute(statements[0])  # materialized before the append
        db.load("T", escapes)
        answers = {
            name: [sorted(map(repr, backend.execute(sql).rows)) for sql in statements]
            for name, backend in backends.items()
        }
        engine = backends["disk"]._engine
        assert engine.indexed["T"] == 40 and engine.table("T").row_count == 44
        for value in (0.1 + 0.2, 2.5, 0.0):
            disk = engine.candidates("numeric-eq", "T", "price", (value,))
            assert disk >= db.candidates("numeric-eq", "T", "price", (value,))
    finally:
        for backend in backends.values():
            backend.close()
    assert answers["disk"] == answers["memory"]
    assert {"(41, -0.0, '2016-03-01')", "(42, nan, None)"} <= set(answers["disk"][0])
