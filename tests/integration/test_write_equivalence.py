"""What a write maintains in place equals what a rebuild would build.

Every structure derived from table data follows its table's
``(epoch, rows)`` version: an append is applied as a delta, an update or
delete starts the structure over.  The properties here interleave
``load`` / ``insert`` / ``update`` / ``delete`` at random and, after
every single write, compare each maintained structure with one built
from scratch over the same rows:

* in memory — ``HashIndex``, ``NumericIndex`` and ``InvertedIndex``
  postings, and the ``TableProfile`` (``==``, sample order included);
* on disk — heap rows (and the heap file's bytes), ``BPlusTree.items()``,
  ``HashFile.positions`` and the SPIMI base+delta ``postings()``.

They also count full passes and rebuilds, so they cannot pass by
rebuilding on every write.  The last test is the end-to-end form: the
TPC-H workload's statements on memory, SQLite and disk agree after every
one of a run of interleaved writes, with no ``clear_cache()`` anywhere.
"""

import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import DiskBackend, create_backend
from repro.backends.differential import collect_statements
from repro.backends.normalize import canonical_rows, rows_match
from repro.observability import Tracer
from repro.planner import StatisticsCatalog, StatsConfig, profile_table
from repro.relational.database import Database
from repro.relational.index import HashIndex, InvertedIndex, NumericIndex
from repro.relational.types import DataType
from repro.storage import StorageEngine, materialize

PAGE = 128  # a handful of rows a page: appends cross pages, trees split

NAMES = st.sampled_from(
    [None, "royal olive", "olive oil", "plain bread", "Roy's tea", "tea", "ÖL"]
)
SCORES = st.sampled_from([None, 0.5, 1.5, 2.5, 1e9])
QUANTITIES = st.one_of(st.none(), st.integers(-3, 3), st.just(2**40))
DAYS = st.sampled_from([None, "1995-01-02", "1996-03-04"])
PAYLOADS = st.tuples(NAMES, SCORES, QUANTITIES, DAYS)

WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("load"), st.lists(PAYLOADS, min_size=1, max_size=9)),
        st.tuples(st.just("insert"), PAYLOADS),
        st.tuples(
            st.just("update"),
            st.integers(0, 1_000),
            st.fixed_dictionaries(
                {},
                optional={
                    "name": NAMES, "score": SCORES, "qty": QUANTITIES, "day": DAYS
                },
            ).filter(bool),
        ),
        st.tuples(st.just("delete"), st.integers(0, 1_000)),
        st.tuples(st.just("other"), NAMES),
    ),
    min_size=1,
    max_size=8,
)


def new_database():
    db = Database.from_definitions(
        "writes",
        [
            (
                "T",
                [
                    ("id", DataType.INT),
                    ("name", DataType.TEXT),
                    ("score", DataType.FLOAT),
                    ("qty", DataType.INT),
                    ("day", DataType.DATE),
                ],
                ["id"],
                [],
            ),
            ("U", [("id", DataType.INT), ("tag", DataType.TEXT)], ["id"], []),
        ],
    )
    db.load("T", [(0, "royal olive", 1.5, 1, "1995-01-02")])
    return db


class Writer:
    """Applies generated writes to a database, keys from a counter."""

    def __init__(self, db):
        self.db = db
        self.next_id = 1
        #: writes applied that moved T's epoch
        self.epoch_bumps = 0

    def fresh_rows(self, payloads):
        rows = [(self.next_id + i,) + payload for i, payload in enumerate(payloads)]
        self.next_id += len(rows)
        return rows

    def apply(self, write):
        table = self.db.table("T")
        kind = write[0]
        if kind == "load":
            self.db.load("T", self.fresh_rows(write[1]))
        elif kind == "insert":
            self.db.insert("T", self.fresh_rows([write[1]])[0])
        elif kind == "other":
            self.db.insert("U", self.fresh_rows([(write[1],)])[0])
        elif table.rows:
            key = table.rows[write[1] % len(table.rows)][:1]
            if kind == "delete":
                table.delete(key)
            else:
                table.update(key, write[2])
            self.epoch_bumps += 1


@settings(max_examples=40, deadline=None)
@given(WRITES)
def test_memory_indexes_and_profile_equal_from_scratch(writes):
    db = new_database()
    writer = Writer(db)
    config = StatsConfig(sample_size=4)
    catalog = StatisticsCatalog(db, config)
    kept = (db.hash_index("T", ("name",)), db.numeric_index, db.text_index)
    catalog.profile("T")
    table = db.table("T")
    width = len(table.schema.columns)
    table.column(1)  # built before the writes, maintained through them
    for write in writes:
        writer.apply(write)
        # the column vectors the executor scans: maintained ones and
        # ones first asked for now, whole and at positions
        for index in range(width):
            assert table.column(index) == [row[index] for row in table.rows]
        assert table.columns(range(width)) == [list(c) for c in zip(*table.rows)] or (
            not table.rows and table.columns(range(width)) == [[]] * width
        )
        odd = list(range(1, len(table.rows), 2))
        assert table.columns([3, 1], odd) == [
            [table.rows[pos][index] for pos in odd] for index in (3, 1)
        ]
        by_name = db.hash_index("T", ("name",))
        # maintained, never replaced
        assert (by_name, db.numeric_index, db.text_index) == kept
        scratch = HashIndex(table, ("name",))
        assert len(by_name) == len(scratch)
        for key in {row[1:2] for row in table.rows}:
            assert by_name.positions(key) == scratch.positions(key)
        for maintained, kind in ((db.numeric_index, NumericIndex), (db.text_index, InvertedIndex)):
            rebuilt = kind()
            rebuilt.add_tables(db.tables())
            assert maintained.postings() == rebuilt.postings()
        columns = tuple(table.schema.column_names)
        assert catalog.profile("T") == profile_table("T", columns, table.rows, config)
    # one full pass to start with and one per epoch bump: appends only
    # ever continued the pass they found
    assert catalog.builds == 1 + writer.epoch_bumps


@settings(max_examples=15, deadline=None)
@given(WRITES)
def test_disk_structures_equal_from_scratch(writes):
    db = new_database()
    writer = Writer(db)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="write-eq-") as root:
        backend = DiskBackend(
            path=os.path.join(root, "kept"), page_size=PAGE, pool_capacity=4
        )
        try:
            backend.load(db, tracer=tracer)
            for step, write in enumerate(writes):
                writer.apply(write)
                count = backend.execute("SELECT COUNT(*) FROM T", tracer=tracer)
                assert count.scalar() == len(db.table("T").rows)
                scratch_dir = os.path.join(root, f"scratch{step}")
                materialize(db, scratch_dir, page_size=PAGE)
                scratch = StorageEngine(scratch_dir, db.schema, pool_capacity=4)
                try:
                    assert_same_structures(backend._engine, scratch, db)
                finally:
                    scratch.close()
        finally:
            backend.close()
    # appends went in place: only epoch bumps rebuilt the directory
    assert tracer.registry.counter("materializations") == 1 + writer.epoch_bumps


def assert_same_structures(kept, scratch, db):
    for relation in db.schema:
        name = relation.name
        rows = db.table(name).rows
        assert list(kept.heap(name).rows) == list(scratch.heap(name).rows) == rows
        assert kept.heap(name).page_counts == scratch.heap(name).page_counts
        for index in range(len(relation.columns)):
            assert kept.heap(name).columns([index]) == [[row[index] for row in rows]]
        with open(os.path.join(kept.directory, f"{name}.heap"), "rb") as left, open(
            os.path.join(scratch.directory, f"{name}.heap"), "rb"
        ) as right:
            assert left.read() == right.read()
        for index, column in enumerate(relation.columns):
            values = {row[index] for row in rows if row[index] is not None}
            if column.dtype in (DataType.INT, DataType.FLOAT):
                kept_tree = kept.bptree(name, column.name)
                assert list(kept_tree.items()) == list(
                    scratch.bptree(name, column.name).items()
                )
                for value in values:
                    assert sorted(kept_tree.search_eq(float(value))) == [
                        pos for pos, row in enumerate(rows)
                        if row[index] is not None and float(row[index]) == float(value)
                    ]
            else:
                for value in values:
                    assert kept.hash_file(name, column.name).positions(
                        value
                    ) == scratch.hash_file(name, column.name).positions(value)
    assert set(kept.spimi.vocabulary()) == set(scratch.spimi.vocabulary())
    assert len(kept.spimi) == len(scratch.spimi)
    for token in scratch.spimi.vocabulary():
        assert kept.spimi.postings(token) == scratch.spimi.postings(token)


def test_three_backends_agree_after_interleaved_writes():
    """TPC-H's workload statements on memory, SQLite and disk after each
    of a run of writes to four tables — appends, an update, a delete, a
    re-insert — with no cache cleared in between."""
    database, statements = collect_statements("tpch", k=2, skip_sqak=True)
    rng = random.Random(21)
    backends = [
        create_backend(name, database, **options)
        for name, options in (
            ("memory", {}),
            ("sqlite", {}),
            ("disk", {"pool_capacity": 16}),
        )
    ]
    order, lineitem = database.table("Order"), database.table("Lineitem")
    part, customer = database.table("Part"), database.table("Customer")
    customers = len(customer.rows)

    def new_orders(base, count):
        return [
            (base + i, rng.randint(1, customers), round(rng.uniform(1e3, 1e5), 2),
             "1997-01-01", "1-URGENT")
            for i in range(count)
        ]

    def new_lineitem():
        partkey, suppkey, _, quantity = lineitem.rows[0]
        return [(partkey, suppkey, order.rows[-1][0], quantity)]  # of the newest order

    writes = [
        lambda: database.load("Order", new_orders(9_000_000, 50)),
        lambda: database.load("Lineitem", new_lineitem()),
        lambda: part.update(part.rows[3][:1], {"pname": part.rows[5][1]}),
        lambda: database.load("Order", new_orders(9_100_000, 5)),
        lambda: order.delete(order.rows[7][:1]),
        lambda: database.insert("Order", new_orders(9_200_000, 1)[0]),
        lambda: customer.update(customer.rows[0][:1], {"cname": customer.rows[1][1]}),
    ]
    try:
        for write in [lambda: None] + writes:
            write()
            for qid, _, select in statements:
                reference = canonical_rows(backends[0].execute(select).rows)
                for backend in backends[1:]:
                    assert rows_match(
                        reference, canonical_rows(backend.execute(select).rows)
                    ), (qid, backend.name)
    finally:
        for backend in backends:
            backend.close()
