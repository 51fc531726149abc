"""Index files cover a prefix of each table; probes hand the tail to the plan.

An append writes only heap pages, so after it a table's index files
cover its first ``indexed`` rows and the rest — the tail — is added to
every index answer for the plan to verify.  Once a tail would outgrow its
prefix, the disk backend folds: a full ``materialize()`` indexes every
row again.  The property here interleaves appends to a table built with
rows and to one built empty, reopens of the directory (which then opens
with a tail), and after every step runs the ``contains``, ``numeric-eq``
and ``hash-eq`` probes and a key-filtered join on the memory, SQLite and
disk backends: the answers must be equal, every disk probe must hold its
tail whole, and the directory must have been rebuilt exactly when the
fold rule says so.
"""

import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.backends import DiskBackend, create_backend
from repro.backends.normalize import canonical_rows
from repro.observability import Tracer
from repro.relational.database import Database
from repro.relational.types import DataType

PAGE = 128  # a handful of rows a page: appends cross pages

NAMES = st.sampled_from([None, "royal olive", "olive oil", "plain bread", "tea"])
QUANTITIES = st.one_of(st.none(), st.integers(0, 5))
PRICES = st.sampled_from([None, 0.5, 1.5, 2.5])
#: rows to append to T: a few generated ones, repeated so that one step
#: can carry the tail past T's 300 indexed rows
T_ROWS = st.tuples(
    st.lists(st.tuples(NAMES, QUANTITIES, PRICES), min_size=1, max_size=8),
    st.sampled_from([1, 10, 80]),
).map(lambda drawn: drawn[0] * drawn[1])
U_ROWS = st.lists(st.tuples(st.integers(0, 400), NAMES), min_size=1, max_size=4)

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("T"), T_ROWS),
        st.tuples(st.just("U"), U_ROWS),
        st.tuples(st.just("reopen")),
    ),
    min_size=1,
    max_size=8,
)

STATEMENTS = [
    "SELECT id FROM T WHERE name LIKE '%olive%'",
    "SELECT id FROM T WHERE name LIKE '%roy%'",
    "SELECT id FROM T WHERE qty = 3",
    "SELECT id FROM T WHERE price = 1.5",
    "SELECT id FROM T WHERE name = 'tea'",
    "SELECT uid FROM U WHERE tag = 'tea'",
    "SELECT T.id, U.uid FROM T, U WHERE T.id = U.tid",
    # U's keys go down to T's scan: a key filter on T.id, one on T.name
    "SELECT U.uid, COUNT(F.qty) AS n FROM (SELECT DISTINCT id, qty FROM T) F, U "
    "WHERE F.id = U.tid GROUP BY U.uid",
    "SELECT U.uid, COUNT(F.qty) AS n FROM (SELECT DISTINCT name, qty FROM T) F, U "
    "WHERE F.name = U.tag GROUP BY U.uid",
]

#: (kind, table, column, value) probed straight on the disk engine
PROBES = [
    ("contains", "T", "name", "olive"),
    ("numeric-eq", "T", "qty", 3),
    ("numeric-eq", "T", "id", 7),
    ("hash-eq", "T", "name", "tea"),
    ("hash-eq", "U", "tag", "royal olive"),
    ("numeric-eq", "U", "tid", 2),
]
#: rows T is built with — enough that probes and key filters beat a
#: sequential scan; U is built empty
T_BUILT = 300


def new_database():
    db = Database.from_definitions(
        "prefix",
        [
            (
                "T",
                [
                    ("id", DataType.INT),
                    ("name", DataType.TEXT),
                    ("qty", DataType.INT),
                    ("price", DataType.FLOAT),
                ],
                ["id"],
                [],
            ),
            (
                "U",
                [("uid", DataType.INT), ("tid", DataType.INT), ("tag", DataType.TEXT)],
                ["uid"],
                [],
            ),
        ],
    )
    planted = ["royal olive", "tea", "olive oil", None, "tea", "plain bread"]
    db.load(
        "T",
        [
            (i, planted[i] if i < len(planted) else f"item {i}", i, i * 0.5)
            for i in range(T_BUILT)
        ],
    )
    return db


def open_disk(path, db, tracer):
    backend = DiskBackend(path=path, page_size=PAGE, pool_capacity=4)
    backend.load(db, tracer=tracer)
    return backend


def assert_same_answers(backends, tracer):
    memory, sqlite, disk = backends
    for sql in STATEMENTS:
        expected = canonical_rows(memory.execute(sql).rows)
        assert canonical_rows(sqlite.execute(sql).rows) == expected, sql
        assert canonical_rows(disk.execute(sql, tracer=tracer).rows) == expected, sql


def kept(db, kind, table, column, value):
    """Positions of the rows the predicate keeps."""
    index = db.table(table).schema.column_index(column)
    cells = [row[index] for row in db.table(table).rows]
    if kind == "contains":
        return {p for p, cell in enumerate(cells) if cell is not None and value in cell}
    return {p for p, cell in enumerate(cells) if cell is not None and cell == value}


@settings(max_examples=25, deadline=None)
@given(STEPS)
def test_answers_equal_memory_and_sqlite_across_the_fold_limit(steps):
    db = new_database()
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="prefix-tail-") as root:
        path = os.path.join(root, "disk")
        backends = [
            create_backend("memory", db),
            create_backend("sqlite", db),
            open_disk(path, db, tracer),
        ]
        rebuilds = 1
        next_id = {"T": T_BUILT, "U": 0}
        try:
            for step in steps:
                if step[0] == "reopen":
                    backends[2].close()
                    # the manifest is current: reused, tail and all
                    backends[2] = open_disk(path, db, tracer)
                else:
                    table, payloads = step
                    rows = [(next_id[table] + i, *p) for i, p in enumerate(payloads)]
                    next_id[table] += len(rows)
                    indexed = backends[2]._engine.indexed[table]
                    db.load(table, rows)
                    # a tail longer than its prefix folds
                    rebuilds += len(db.table(table).rows) > 2 * indexed
                assert_same_answers(backends, tracer)
                assert tracer.registry.counter("materializations") == rebuilds
                engine = backends[2]._engine
                for kind, table, column, value in PROBES:
                    found = engine.candidates(kind, table, column, [value])
                    tail = set(range(engine.indexed[table], len(db.table(table).rows)))
                    assert found >= kept(db, kind, table, column, value) | tail
        finally:
            for backend in backends:
                backend.close()
    event(f"folds: {rebuilds - 1}")


def test_index_probes_and_key_filters_read_the_tail(tmp_path):
    """With a tail on both tables, the disk plans still start from the
    index probes and push key filters — and find the tail's rows."""
    db = new_database()
    db.load("U", [(0, 3, "tea"), (1, 301, "olive oil")])
    tracer = Tracer()
    backends = [
        create_backend("memory", db),
        create_backend("sqlite", db),
        open_disk(str(tmp_path / "disk"), db, tracer),
    ]
    try:
        db.load("T", [(300, "royal olive tea", 3, 1.5), (301, "tea", 3, None)])
        db.load("U", [(2, 300, "tea")])
        assert_same_answers(backends, tracer)
        engine = backends[2]._engine
        assert engine.indexed == {"T": T_BUILT, "U": 2}
        assert tracer.registry.counter("materializations") == 1
        assert tracer.registry.counter("index_scans") > 0
        assert tracer.registry.counter("key_filters_pushed") > 0
        assert engine.candidates("numeric-eq", "T", "qty", [3]) == {3, 300, 301}
        assert engine.candidates("hash-eq", "T", "name", ["nothing"]) == {300, 301}
    finally:
        for backend in backends:
            backend.close()
