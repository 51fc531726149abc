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
from repro.relational.types import DataType

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


class TestUpdateDelete:
    @pytest.fixture
    def three(self, student_table):
        student_table.extend(
            [("s1", "George", 22), ("s2", "Green", 24), ("s3", "Gray", 26)]
        )
        return student_table

    def test_insert_grows_rows_under_one_epoch(self, student_table):
        assert student_table.version == (0, 0)
        student_table.insert(("s1", "George", 22))
        assert student_table.version == (0, 1)

    def test_update_keeps_position_and_bumps_epoch(self, three):
        row = three.update(("s2",), {"Age": "25"})
        assert row == ("s2", "Green", 25)  # coerced like an insert
        assert three.rows[1] == row
        assert three.get_by_key(("s2",)) == row
        assert three.version == (1, 3)

    def test_update_may_move_the_key(self, three):
        three.update(("s2",), {"Sid": "s9"})
        assert three.get_by_key(("s2",)) is None
        assert three.get_by_key(("s9",)) == ("s9", "Green", 24)
        three.insert(("s2", "Again", 30))  # the old key is free again

    def test_update_cannot_take_a_used_or_null_key(self, three):
        with pytest.raises(DuplicateKeyError):
            three.update(("s2",), {"Sid": "s1"})
        with pytest.raises(DuplicateKeyError):
            three.update(("s2",), {"Sid": None})
        assert three.version == (0, 3)  # nothing changed
        assert three.get_by_key(("s2",)) == ("s2", "Green", 24)

    def test_update_unknown_column_or_key(self, three):
        with pytest.raises(SchemaError):
            three.update(("s2",), {"Nope": 1})
        with pytest.raises(IntegrityError):
            three.update(("s7",), {"Age": 1})

    def test_delete_moves_later_rows_up(self, three):
        assert three.delete(("s1",)) == ("s1", "George", 22)
        assert three.rows == [("s2", "Green", 24), ("s3", "Gray", 26)]
        assert three.get_by_key(("s1",)) is None
        assert three.get_by_key(("s3",)) == ("s3", "Gray", 26)
        assert three.version == (1, 2)
        three.insert(("s1", "Back", 20))
        assert three.get_by_key(("s1",)) == ("s1", "Back", 20)

    def test_delete_unknown_key(self, three):
        with pytest.raises(IntegrityError):
            three.delete(("s7",))
        assert three.version == (0, 3)


class TestAccess:
    def test_get_by_key(self, student_table):
        student_table.insert(("s1", "George", 22))
        assert student_table.get_by_key(("s1",))[1] == "George"
        assert student_table.get_by_key(("sX",)) is None

    def test_column_values(self, student_table):
        student_table.extend([("s1", "a", 1), ("s2", "b", None)])
        assert student_table.column_values("Age") == [1, None]

    def test_distinct_key_count(self, student_table):
        student_table.extend(
            [("s1", "Green", 1), ("s2", "Green", 2), ("s3", "Blue", 3)]
        )
        assert student_table.distinct_key_count(["Sname"]) == 2
        assert student_table.distinct_key_count(["Sid", "Sname"]) == 3

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
            student_table.get_by_key(key)
        with pytest.raises(IntegrityError, match="Sid"):
            student_table.update(key, {"Age": 30})
        with pytest.raises(IntegrityError, match="Sid"):
            student_table.delete(key)
        assert student_table.rows == [("s1", "George", 22)]
        assert student_table.version == (0, 1)

    def test_a_key_of_another_type_finds_nothing(self, student_table):
        student_table.insert(("s1", "George", 22))
        assert student_table.get_by_key((1,)) is None
        with pytest.raises(IntegrityError, match="no row"):
            student_table.delete((None,))


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
    st.sampled_from(["insert", "extend", "update", "delete"]),
    st.sampled_from(sorted(COLUMNS)),
    st.lists(CELLS, min_size=1, max_size=8),
    st.integers(0, 60),
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

    def update(self, key, values):
        at = self.keys().get(key)
        if at is None:
            return IntegrityError
        new = tuple(values.get(col, old) for col, old in zip(self.columns, self.rows[at]))
        moved = new[: self.width]
        if moved != key and (None in moved or moved in self.keys()):
            return DuplicateKeyError
        self.rows[at] = new
        return None

    def delete(self, key):
        at = self.keys().get(key)
        if at is None:
            return IntegrityError
        del self.rows[at]
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


def apply(table, oracle, kind, rows, pick):
    """Run one write on *table* and *oracle*; returns the error class
    each raised (or None)."""
    if kind == "insert":
        expected, call, args = oracle.extend(rows[:1]), table.insert, (rows[0],)
    elif kind == "extend":
        expected, call, args = oracle.extend(rows), table.extend, (rows,)
    else:
        width, held = oracle.width, oracle.rows
        key = held[pick % len(held)][:width] if held and pick % 4 else rows[0][:width]
        if kind == "delete":
            expected, call, args = oracle.delete(key), table.delete, (key,)
        else:  # an even pick moves the key, an odd one sets the name only
            values = dict(zip(oracle.columns, rows[-1]))
            if pick % 2:
                values = {"name": values["name"]}
            expected, call, args = oracle.update(key, values), table.update, (key, values)
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
    for kind, name, cells, pick in writes:
        table, oracle = db.table(name), oracles[name]
        rows = [cell[:1] + cell[2:] if name == "S" else cell for cell in cells]
        raised, expected = apply(table, oracle, kind, rows, pick)
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
            assert table.get_by_key(probe) == (None if at is None else oracle.rows[at])
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
                if table.get_by_key((key,)) is None:
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
            _, counted = table.version
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
