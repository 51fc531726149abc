"""Unit tests for hash, numeric and inverted indexes."""

import gc
import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.datasets import generate_scaled
from repro.relational import database as database_module
from repro.relational import index as index_module
from repro.relational import table as table_module
from repro.relational.database import Database
from repro.relational.index import (
    InvertedIndex,
    KeyIndex,
    NumericIndex,
    tokenize_text,
)
from repro.relational.schema import Column, RelationSchema
from repro.relational.table import Table
from repro.relational.types import DataType

INT = DataType.INT
FLOAT = DataType.FLOAT
TEXT = DataType.TEXT


def make_parts() -> Table:
    schema = RelationSchema(
        "Part", [Column("partkey", INT), Column("pname", TEXT)], ["partkey"]
    )
    table = Table(schema)
    table.extend(
        [
            (1, "royal olive"),
            (2, "royal olive"),
            (3, "olive branch"),
            (4, "Indian black chocolate"),
            (5, None),
        ]
    )
    return table


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize_text("Royal Olive") == ["royal", "olive"]

    def test_strips_punctuation(self):
        assert tokenize_text("a-b, c.d!") == ["a", "b", "c", "d"]

    def test_keeps_digits(self):
        assert tokenize_text("Supplier#0042") == ["supplier", "0042"]

    def test_empty(self):
        assert tokenize_text("  ") == []


class TestHashIndex:
    def test_lookup(self):
        table = make_parts()
        index = KeyIndex(table, ["pname"])
        assert len(index.positions(("royal olive",))) == 2
        assert index.positions(("missing",)) == set()

    def test_composite_key(self):
        table = make_parts()
        index = KeyIndex(table, ["partkey", "pname"])
        assert len(index.positions((1, "royal olive"))) == 1

    def test_null_values_indexed_separately(self):
        table = make_parts()
        index = KeyIndex(table, ["pname"])
        assert len(index.positions((None,))) == 1


class TestInvertedIndex:
    @pytest.fixture
    def index(self) -> InvertedIndex:
        idx = InvertedIndex()
        idx.add_tables([make_parts()])
        return idx

    def test_single_token(self, index):
        assert index.slots_with_words("olive") == [("Part", "pname")]
        assert index.positions_for_contains("Part", "pname", "olive") == {0, 1, 2}

    def test_phrase_requires_adjacency_by_substring(self, index):
        assert index.positions_for_contains("Part", "pname", "royal olive") == {0, 1}

    def test_phrase_not_matching_scattered_tokens(self, index):
        # 'olive royal' tokens share rows but never form the substring:
        # the slot is a candidate, and the check keeps no row of it
        assert index.slots_with_words("olive royal") == [("Part", "pname")]
        assert index.positions_for_contains("Part", "pname", "olive royal") == set()

    def test_case_insensitive(self, index):
        assert index.slots_with_words("INDIAN BLACK") == [("Part", "pname")]
        assert index.positions_for_contains("Part", "pname", "INDIAN BLACK") == {3}

    def test_unknown_token(self, index):
        assert index.slots_with_words("zzz") == []
        assert index.slots_with_words("olive zzz") == []

    def test_empty_phrase(self, index):
        assert index.slots_with_words("") == []

    def test_int_columns_not_indexed(self):
        idx = InvertedIndex()
        idx.add_tables([make_parts()])
        # '1' appears only as an INT partkey, never as text
        assert idx.slots_with_words("1") == []


class TestNumericIndex:
    def test_integer_beyond_float_range_is_not_indexed(self):
        db = Database.from_definitions(
            "big", [("T", [("id", INT), ("v", INT)], ["id"], [])]
        )
        db.load("T", [(1, 10**400), (2, 5)])
        assert db.numeric_index.positions_for_value("T", "v", 10**400) is None
        assert db.numeric_index.positions_for_value("T", "v", 5) == {1}
        backend = create_backend("memory", db)
        try:
            assert backend.execute("SELECT id FROM T WHERE v = 5").rows == [(2,)]
            assert backend.execute(
                f"SELECT id FROM T WHERE v = {10**400}"
            ).rows == [(1,)]
        finally:
            backend.close()


INTS = st.sampled_from([None, 0, -3, 7, 2**53, 2**53 + 1, -(2**53)])
FLOATS = st.sampled_from(
    [None, math.nan, 0.0, -0.0, math.inf, -math.inf, -1.5, 7.0, 2.0**53]
)
LABELS = st.sampled_from([None, "royal olive", "olive oil", "tea"])
PAYLOADS = st.tuples(INTS, FLOATS, LABELS)
PROBES = [0, -0.0, -3, 7.0, 2**53, 2**53 + 1, -(2**53), -1.5, math.inf, -math.inf, math.nan]
SLOTS = [("S", "x"), ("T", "n"), ("T", "x")]

WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("load"), st.lists(PAYLOADS, min_size=1, max_size=5)),
        st.tuples(st.just("insert"), PAYLOADS),
        # more rows than the table holds, cycling through the payloads
        st.tuples(st.just("flood"), st.lists(PAYLOADS, min_size=1, max_size=3)),
    ),
    min_size=1,
    max_size=8,
)


def numbers_database():
    db = Database.from_definitions(
        "numbers",
        [
            ("T", [("id", INT), ("n", INT), ("x", FLOAT), ("label", TEXT)], ["id"], []),
            ("S", [("id", INT), ("x", FLOAT)], ["id"], []),
        ],
    )
    db.load("S", [(0, 0.0), (1, 2.0**53), (2, -1.5), (3, None)])
    return db


def dict_of_sets(db):
    """The index as the dict-of-sets layout kept it: ``float(value) ->
    {(relation, attribute): positions}``, without NULL and NaN."""
    postings = {}
    for table in db.tables():
        for index, column in enumerate(table.schema.columns):
            if column.dtype not in (INT, FLOAT):
                continue
            for pos, row in enumerate(table.rows):
                value = row[index]
                if value is not None and value == value:
                    slots = postings.setdefault(float(value), {})
                    slots.setdefault((table.schema.name, column.name), set()).add(pos)
    return postings


@settings(max_examples=60, deadline=None)
@given(WRITES)
def test_numeric_index_equals_dict_of_sets(writes):
    db = numbers_database()
    kept = (db.numeric_index, db.text_index)
    table = db.table("T")
    next_id = iter(range(10**6))

    def fresh(payloads):
        return [(next(next_id),) + payload for payload in payloads]

    for write in writes:
        kind = write[0]
        if kind == "load":
            db.load("T", fresh(write[1]))
        elif kind == "insert":
            db.insert("T", fresh([write[1]])[0])
        else:  # a flood
            count = len(table.rows) + 1
            db.load("T", fresh([write[1][i % len(write[1])] for i in range(count)]))
        numeric, text = db.numeric_index, db.text_index
        assert (numeric, text) == kept  # caught up, never replaced
        expected = dict_of_sets(db)
        assert numeric.postings() == expected
        for probe in PROBES:
            found = expected.get(float(probe), {}) if probe == probe else {}
            for slot in SLOTS:
                assert numeric.positions_for_value(*slot, probe) == found.get(
                    slot, set()
                )
            assert numeric.slots_with_key(float(probe)) == sorted(found)
        rebuilt = InvertedIndex()
        rebuilt.add_tables(db.tables())
        assert text.postings() == rebuilt.postings()


#: tracemalloc bytes per indexed (non-NULL) cell of TPC-H SF 1, with
#: headroom over the sorted arrays' ≈ 12.5 numeric and ≈ 53 text; the
#: dict-of-sets layout took ≈ 141 and ≈ 208, so a return to per-value
#: containers fails here
BYTES_PER_CELL = {"numeric": 20, "text": 80}


def test_tpch_sf1_index_footprint():
    db = generate_scaled("tpch", 1)
    kinds = {INT: "numeric", FLOAT: "numeric", TEXT: "text", DataType.DATE: "text"}
    cells = dict.fromkeys(BYTES_PER_CELL, 0)
    for table in db.tables():
        for index, column in enumerate(table.schema.columns):
            if column.dtype in kinds:
                cells[kinds[column.dtype]] += sum(
                    row[index] is not None for row in table.rows
                )
    per_cell = {}
    tracemalloc.start()
    try:
        for kind in BYTES_PER_CELL:
            before = tracemalloc.get_traced_memory()[0]
            assert getattr(db, f"{kind}_index") is not None
            per_cell[kind] = (tracemalloc.get_traced_memory()[0] - before) / cells[kind]
    finally:
        tracemalloc.stop()
    for kind, budget in BYTES_PER_CELL.items():
        assert 0 < per_cell[kind] <= budget, per_cell


#: tracemalloc bytes per row that the row store's own modules hold beyond
#: the rows after loading TPC-H SF 1, FK check included: the key indexes,
#: one 4-byte position a row (≈ 5.7 measured); the key dict and the FK
#: check's hash indexes took ≈ 172, so a return to them fails here
KEY_BYTES_PER_ROW = 16


def test_tpch_sf1_key_index_footprint():
    store = [
        tracemalloc.Filter(True, module.__file__)
        for module in (table_module, index_module, database_module)
    ]
    tracemalloc.start()
    try:
        db = generate_scaled("tpch", 1)
        gc.collect()  # the FK check's transients are freed
        snapshot = tracemalloc.take_snapshot()
        tables = db.tables()
        # a row the generator built as stored is kept, not copied: only
        # the rows the store allocated itself are the store's
        rows = sum(sys.getsizeof(t.rows) for t in tables) + sum(
            sys.getsizeof(row)
            for t in tables
            for row in t.rows
            if _allocated_in(tracemalloc.get_object_traceback(row), store)
        )
    finally:
        tracemalloc.stop()
    held = sum(trace.size for trace in snapshot.filter_traces(store).traces)
    count = sum(len(table) for table in tables)
    assert all(len(table.key_index.order) == len(table) for table in tables)
    assert 0 < (held - rows) / count <= KEY_BYTES_PER_ROW


def _allocated_in(traceback, filters):
    return traceback is not None and any(
        traceback[0].filename == keep.filename_pattern for keep in filters
    )


TEXTS = st.text(alphabet="ab AB-1\u00e9\u212a", max_size=12)
PHRASES = st.one_of(st.text(alphabet="abAB1\u212a", min_size=1, max_size=3), TEXTS)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.none(), TEXTS), min_size=1, max_size=12), PHRASES)
def test_one_token_phrases_skip_verification_with_the_same_answer(values, phrase):
    """A phrase that lowers to one token is answered from the postings
    alone; the answer equals the verified substring test's."""
    table = Table(RelationSchema("P", [Column("k", INT), Column("v", TEXT)], ["k"]))
    table.extend(enumerate(values))
    index = InvertedIndex()
    index.add_tables([table])
    tokens = tokenize_text(phrase)
    needle = phrase.lower()
    contains = {at for at, value in enumerate(values) if value and needle in value.lower()}
    assert index.positions_for_contains("P", "v", phrase) == (contains if tokens else None)
    # the slot is a candidate when a value holds each of the phrase's tokens
    whole = [value for value in values if value and set(tokens) <= set(tokenize_text(value))]
    assert index.slots_with_words(phrase) == ([("P", "v")] if tokens and whole else [])
