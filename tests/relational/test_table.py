"""Unit tests for row storage."""

import random
import sys
import threading
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, IntegrityError, SchemaError
from repro.relational.database import Database
from repro.relational.schema import Column, RelationSchema
from repro.relational.table import Table
from repro.relational.types import DataType, coerce

INT = DataType.INT
TEXT = DataType.TEXT


@pytest.fixture
def student_table() -> Table:
    schema = RelationSchema(
        "Student",
        [Column("Sid", TEXT), Column("Sname", TEXT), Column("Age", INT)],
        ["Sid"],
    )
    return Table(schema)


class TestInsert:
    def test_insert_and_len(self, student_table):
        student_table.insert(("s1", "George", 22))
        assert len(student_table) == 1

    def test_insert_coerces_types(self, student_table):
        row = student_table.insert(("s1", "George", "22"))
        assert row[2] == 22

    def test_wrong_arity_rejected(self, student_table):
        with pytest.raises(SchemaError):
            student_table.insert(("s1", "George"))

    def test_duplicate_key_rejected(self, student_table):
        student_table.insert(("s1", "George", 22))
        with pytest.raises(DuplicateKeyError):
            student_table.insert(("s1", "Other", 30))

    def test_null_key_rejected(self, student_table):
        with pytest.raises(DuplicateKeyError):
            student_table.insert((None, "George", 22))

    def test_insert_dict(self, student_table):
        row = student_table.insert_dict({"Sid": "s1", "Sname": "Green"})
        assert row == ("s1", "Green", None)

    def test_insert_dict_unknown_column(self, student_table):
        with pytest.raises(SchemaError):
            student_table.insert_dict({"Sid": "s1", "Nope": 1})

    def test_extend(self, student_table):
        student_table.extend([("s1", "a", 1), ("s2", "b", 2)])
        assert len(student_table) == 2


def per_value_extend(schema, held, rows):
    """What storing *rows* after the rows *held* gives when each value
    is coerced on its own, a row at a time (the oracle of the column
    path): the rows stored, and the error of the first row that fails."""
    width = len(schema.columns)
    key_at = [schema.column_index(column) for column in schema.primary_key]
    keys = {tuple(row[i] for i in key_at) for row in held}
    stored = []
    for row in rows:
        try:
            if len(row) != width:
                raise SchemaError(f"{schema.name}: expected {width} values, got {len(row)}")
            new = tuple(coerce(value, col.dtype) for value, col in zip(row, schema.columns))
        except Exception as exc:
            return stored, exc
        key = tuple(new[i] for i in key_at)
        if None in key:
            return stored, DuplicateKeyError(
                f"{schema.name}: NULL in primary key {schema.primary_key}"
            )
        if key in keys:
            return stored, DuplicateKeyError(f"{schema.name}: duplicate primary key {key!r}")
        keys.add(key)
        stored.append(new)
    return stored, None


def typed(rows):
    """Rows with each value's type: ``1 == 1.0 == True`` must not pass."""
    return [[(type(value), repr(value)) for value in row] for row in rows]


WIDE_SCHEMA = RelationSchema(
    "W",
    [
        Column("id", INT),
        Column("f", DataType.FLOAT),
        Column("d", DataType.DATE),
        Column("t", TEXT),
        Column("b", DataType.BOOL),
    ],
    ["id"],
)
#: per column, values that store as they are, convert, or fail
CELLS = [
    st.one_of(st.integers(0, 6), st.none(), st.booleans(), st.sampled_from([2.0, 2.5, "3", "x"])),
    st.one_of(
        st.floats(allow_nan=False), st.integers(-3, 3), st.none(), st.booleans(),
        st.sampled_from(["1.5", "inf", "x"]),
    ),
    st.one_of(
        st.sampled_from(["2024-02-29", "1999-12-31", "2024-2-1", "", "x"]),
        st.none(), st.integers(0, 9),
    ),
    st.one_of(st.text(max_size=4), st.none(), st.integers(0, 9), st.floats(0, 1)),
    st.one_of(st.booleans(), st.none(), st.integers(0, 2)),
]
ROWS = st.one_of(
    st.tuples(*CELLS),
    st.tuples(*CELLS).map(list),
    st.lists(st.integers(0, 6), max_size=6),  # a width, right or wrong
)
#: rows that store as given: the column path keeps the caller's tuples
STORED_AS_IS = st.tuples(
    st.integers(0, 6), st.one_of(st.floats(), st.none()),
    st.sampled_from(["2024-02-29", None]), st.text(max_size=4), st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(ROWS, STORED_AS_IS), max_size=8), min_size=1, max_size=3))
def test_extend_by_column_equals_coercing_each_value(batches):
    """The column path stores the rows a per-value ``coerce`` stores, and
    raises what it raises, once the rows before the failing one are in:
    list and tuple rows, int to float widening, bool in INT / FLOAT, a
    bad DATE, a wrong width, a NULL or taken key mid-batch."""
    table = Table(WIDE_SCHEMA)
    for batch in batches:
        expected, error = per_value_extend(WIDE_SCHEMA, table.rows, batch)
        before = list(table.rows)
        try:
            table.extend(batch)
        except Exception as exc:
            assert error is not None, exc
            assert (type(exc), str(exc)) == (type(error), str(error))
        else:
            assert error is None, error
        assert typed(table.rows) == typed(before + expected)
        assert all(type(row) is tuple for row in table.rows)
        assert list(table.key_index.order) == sorted(
            range(len(table)), key=lambda at: (table.rows[at][0], at)
        )


def test_rows_that_need_no_conversion_are_kept_as_given(student_table):
    rows = [("s1", "George", 22), ("s2", "Green", 24)]
    student_table.extend(rows)
    assert all(kept is given for kept, given in zip(student_table.rows, rows))
    student_table.extend([["s3", "Gray", 21], ("s4", "Grey", "23")])
    assert student_table.rows[2:] == [("s3", "Gray", 21), ("s4", "Grey", 23)]


class TestAccess:
    def test_version_is_the_row_count(self, student_table):
        assert student_table.version == 0
        student_table.insert(("s1", "George", 22))
        assert student_table.version == 1
        with pytest.raises(DuplicateKeyError):
            student_table.extend([("s2", "Green", 24), ("s1", "Again", 30)])
        assert student_table.version == 2  # the rows before the clash are in

    def test_key_lookup(self, student_table):
        student_table.insert(("s1", "George", 22))
        assert student_table.key_index.positions(("s1",)) == {0}
        assert student_table.key_index.positions(("sX",)) == set()

    def test_iteration_order_is_insertion_order(self, student_table):
        student_table.extend([("s2", "b", 2), ("s1", "a", 1)])
        assert [row[0] for row in student_table] == ["s2", "s1"]


class TestKeyArity:
    @pytest.mark.parametrize("key", ["s1", ("s1", "George"), ()])
    def test_a_key_of_the_wrong_arity_raises_naming_the_key_columns(
        self, student_table, key
    ):
        student_table.insert(("s1", "George", 22))
        with pytest.raises(IntegrityError, match="Sid"):
            student_table.key_index.positions(key)
        assert student_table.rows == [("s1", "George", 22)]
        assert student_table.version == 1

    def test_a_key_of_another_type_finds_nothing(self, student_table):
        student_table.insert(("s1", "George", 22))
        assert student_table.key_index.positions((1,)) == set()
        assert student_table.key_index.positions((None,)) == set()


# ----------------------------------------------------------------------
# The key index against a dict-of-keys oracle
# ----------------------------------------------------------------------
COLUMNS = {"S": ("id", "name"), "T": ("a", "b", "name")}
KEY_WIDTH = {"S": 1, "T": 2}
NAMES = [None, "tea", "olive", "Tea"]
#: (a, b, name): S takes (a, name), T all three; small domains, so keys clash
CELLS = st.tuples(
    st.one_of(st.none(), st.integers(0, 5)),
    st.sampled_from([None, "x", "y"]),
    st.sampled_from(NAMES),
)
WRITE = st.tuples(
    st.sampled_from(["insert", "extend"]),
    st.sampled_from(sorted(COLUMNS)),
    st.lists(CELLS, min_size=1, max_size=8),
)


class KeyOracle:
    """One table as a list of rows checked against a dict of its keys,
    one row at a time."""

    def __init__(self, name):
        self.columns = COLUMNS[name]
        self.width = KEY_WIDTH[name]
        self.rows = []

    def keys(self):
        return {row[: self.width]: at for at, row in enumerate(self.rows)}

    def extend(self, rows):
        for row in rows:
            key = row[: self.width]
            if None in key or key in self.keys():
                return DuplicateKeyError
            self.rows.append(row)
        return None


def key_database():
    return Database.from_definitions(
        "keys",
        [
            ("S", [("id", INT), ("name", TEXT)], ["id"], []),
            ("T", [("a", INT), ("b", TEXT), ("name", TEXT)], ["a", "b"], []),
        ],
    )


def probes(name):
    """Keys a lookup on *name* is asked for: every key of the domain, a
    NULL and a key of another type."""
    if name == "S":
        return [(i,) for i in range(6)] + [(None,), ("zz",)]
    return list(product(range(6), ["x", "y"])) + [(None, "x"), (1, None), ("x", "y")]


def apply(table, oracle, kind, rows):
    """Run one write on *table* and *oracle*; returns the error class
    each raised (or None)."""
    if kind == "insert":
        expected, call, args = oracle.extend(rows[:1]), table.insert, (rows[0],)
    else:
        expected, call, args = oracle.extend(rows), table.extend, (rows,)
    try:
        call(*args)
    except IntegrityError as exc:
        return type(exc), expected
    return None, expected


@settings(max_examples=80, deadline=None)
@given(st.lists(WRITE, max_size=30))
def test_key_index_equals_dict_of_keys(writes):
    db = key_database()
    oracles = {name: KeyOracle(name) for name in COLUMNS}
    for kind, name, cells in writes:
        table, oracle = db.table(name), oracles[name]
        rows = [cell[:1] + cell[2:] if name == "S" else cell for cell in cells]
        raised, expected = apply(table, oracle, kind, rows)
        assert raised is expected, (kind, rows)
        # the rows, those a failed batch left in included
        assert table.rows == oracle.rows
        width = oracle.width
        assert list(table.key_index.order) == sorted(
            range(len(oracle.rows)), key=lambda at: oracle.rows[at][:width]
        )
        keys = oracle.keys()
        primary = db.hash_index(name, table.schema.primary_key)
        for probe in probes(name):
            at = keys.get(probe)
            assert table.key_index.positions(probe) == ({at} if at is not None else set())
            assert primary.positions(probe) == ({at} if at is not None else set())
        # a non-key index, NULL cells included: S.name, T.(b, name)
        columns = oracle.columns[width - 1 :] if name == "T" else ("name",)
        cells_at = [row[-len(columns) :] for row in oracle.rows]
        index = db.hash_index(name, columns)
        for probe in product(*([[None, "x", "y", 1]] * (len(columns) - 1) + [NAMES + ["zz"]])):
            expected = {at for at, cells in enumerate(cells_at) if cells == probe}
            assert index.positions(probe) == expected


# ----------------------------------------------------------------------
# Readers beside a writer
# ----------------------------------------------------------------------
def test_readers_never_see_a_half_published_key_order():
    """Readers bisect the key index while a writer loads batches: every
    order a reader picks up is a whole number of batches, sorted by key,
    and finds every row of a batch that finished before it was read."""
    table = Table(RelationSchema("K", [Column("k", INT), Column("v", TEXT)], ["k"]))
    rng = random.Random(2016)
    keys = list(range(6000))
    rng.shuffle(keys)
    sizes = [1, 2, 900, 3, 40, 1500, 1, 7, 600, 2, 30, 1200, 5, 1, 800, 908]
    assert sum(sizes) == len(keys)
    bounds = [0, *accumulate(sizes)]
    whole = set(bounds)
    loaded = [0]  # rows of the batches that finished loading
    stop = threading.Event()
    failures = []

    def read(seed):
        probe_rng = random.Random(seed)
        while not stop.is_set():
            done = loaded[0]
            order = table.key_index.order
            rows = table.rows
            found = [rows[position][0] for position in order]
            if len(order) not in whole or len(order) < done:
                failures.append(f"order of {len(order)} rows, {done} loaded")
            elif found != sorted(found) or len(set(order)) != len(order):
                failures.append(f"order of {len(order)} rows out of key order")
            for key in probe_rng.sample(keys[:done], min(done, 20)):
                if not table.key_index.positions((key,)):
                    failures.append(f"key {key} of a loaded batch not found")

    readers = [threading.Thread(target=read, args=(seed,)) for seed in range(3)]
    for reader in readers:
        reader.start()
    try:
        for low, high in zip(bounds, bounds[1:]):
            table.extend((key, f"v{key}") for key in keys[low:high])
            loaded[0] = high
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=30)
    assert not any(reader.is_alive() for reader in readers)
    assert not failures, failures[:5]
    assert [table.rows[p][0] for p in table.key_index.order] == sorted(keys)


def test_a_probe_covers_the_version_read_before_it():
    """Readers read a table's version, then probe ``hash_index`` on its
    primary key, while a writer loads batches: every key of the rows
    that version counts is found, also between a batch's append and the
    writer publishing its order."""
    database = Database.from_definitions(
        "keys", [("K", [("k", TEXT), ("v", INT)], ["k"], [])]
    )
    table = database.table("K")
    rng = random.Random(2016)
    keys = [f"k{n:05d}" for n in range(6000)]
    rng.shuffle(keys)
    sizes = [1, 2, 900, 3, 40, 1500, 1, 7, 600, 2, 30, 1200, 5, 1, 800, 908]
    bounds = [0, *accumulate(sizes)]
    stop = threading.Event()
    failures = []

    def read(seed):
        probe_rng = random.Random(seed)
        while not stop.is_set():
            counted = table.version
            for key in probe_rng.sample(keys[:counted], min(counted, 5)):
                if not database.hash_index("K", ("k",)).positions((key,)):
                    failures.append(f"key {key} of the first {counted} rows not found")

    readers = [threading.Thread(target=read, args=(seed,)) for seed in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # let readers in between any two steps of a load
    for reader in readers:
        reader.start()
    try:
        for low, high in zip(bounds, bounds[1:]):
            table.extend((key, n) for n, key in enumerate(keys[low:high]))
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not failures, failures[:5]
