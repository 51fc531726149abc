"""Filling column-wise pages: exact size accounting, many small pages."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.storage import BufferPool, HeapFile, Pager
from repro.storage.heap import build_heap
from repro.storage.page import MAX_PAGE_SIZE, PageFill, decode_page, encode_page
from repro.storage.pager import MIN_PAGE_SIZE

#: ints on both sides of each width boundary, the last beyond 64 bits
EDGE_INTS = [
    edge + step
    for bits in (7, 15, 31, 63)
    for edge in (-(1 << bits), (1 << bits) - 1)
    for step in (-1, 0, 1)
]
#: every value encodes to at most 26 bytes with its per-column overhead,
#: so a row of two columns always fits the 64-byte minimum page and a row
#: of four a 128-byte one
VALUES = {
    DataType.INT: st.one_of(
        st.integers(-5, 5),
        st.sampled_from(EDGE_INTS),
        st.integers(-(1 << 64), 1 << 64),
    ),
    DataType.FLOAT: st.floats(allow_nan=False),
    DataType.BOOL: st.booleans(),
    DataType.TEXT: st.text(max_size=5),
    DataType.DATE: st.sampled_from(["2016-03-15", "1999-12-31"]),
}


def relation(dtypes):
    schema = DatabaseSchema("pages")
    schema.add_relation(
        "T", [(f"c{i}", dtype) for i, dtype in enumerate(dtypes)], ["c0"]
    )
    return schema.relation("T")


@st.composite
def tables(draw, max_columns):
    """A generated schema (columns of any dtype) and rows for it, NULLs
    in any column, from empty to a few dozen rows."""
    dtypes = draw(
        st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=max_columns)
    )
    row = st.tuples(*(st.one_of(st.none(), VALUES[dtype]) for dtype in dtypes))
    return relation(dtypes), draw(st.lists(row, max_size=40))


def types_of(rows):
    return [[type(value) for value in row] for row in rows]


class TestPageFill:
    @settings(max_examples=150, deadline=None)
    @given(tables(max_columns=6))
    def test_predicted_size_is_the_encoded_size(self, table):
        schema, rows = table
        fill = PageFill(schema, MAX_PAGE_SIZE)
        for row in rows:
            assert fill.add(row)
            page = encode_page(fill.rows, schema, MAX_PAGE_SIZE)
            assert struct.unpack_from("<HH", page) == (len(fill.rows), fill.size)

    def test_refused_row_leaves_the_page_as_it_was(self):
        schema = relation([DataType.INT, DataType.TEXT])
        fill = PageFill(schema, 64)
        assert fill.add((1, "a" * 20))
        size = fill.size
        # would widen the INT array, add a bitmap and overflow the page
        assert not fill.add((2**40, "b" * 40))
        assert (fill.rows, fill.size) == ([(1, "a" * 20)], size)
        assert fill.add((None, "c"))
        page = encode_page(fill.rows, schema, 64)
        assert struct.unpack_from("<HH", page) == (2, fill.size)

    def test_reset_starts_a_blank_page(self):
        schema = relation([DataType.INT])
        fill = PageFill(schema, 64)
        blank = fill.size
        assert fill.add((2**70,)) and fill.add((None,))
        fill.reset()
        assert (fill.rows, fill.size) == ([], blank)
        assert fill.add((1,))
        assert fill.size == blank + 1  # narrow again, no bitmap

    def test_page_size_ceiling(self):
        with pytest.raises(StorageError, match="above maximum"):
            PageFill(relation([DataType.INT]), MAX_PAGE_SIZE + 1)


def check_heap_roundtrip(directory, schema, rows, page_size):
    """Values *and* types survive build -> scan / point reads, and every
    page but the last is packed full."""
    path = str(directory / "T.heap")
    page_counts = build_heap(path, schema, rows, page_size)
    assert sum(page_counts) == len(rows) and 0 not in page_counts
    pager = Pager(path, page_size)
    try:
        pool = BufferPool(2)
        pool.register("T.heap", pager)
        heap = HeapFile(pool, "T.heap", schema, page_counts)
        scanned = list(heap.scan())
        assert scanned == rows and types_of(scanned) == types_of(rows)
        points = [heap.row(position) for position in range(len(rows))]
        assert points == rows and types_of(points) == types_of(rows)
        first = 0
        for page_no, count in enumerate(page_counts[:-1]):
            fill = PageFill(schema, page_size)
            assert all(fill.add(row) for row in rows[first:first + count])
            assert not fill.add(rows[first + count])
            assert len(decode_page(pager.read_page(page_no), schema)) == count
            first += count
    finally:
        pager.close()


class TestManySmallPages:
    @settings(max_examples=150, deadline=None)
    @given(tables(max_columns=2))
    def test_heap_roundtrip_at_the_minimum_page_size(self, tmp_path_factory, table):
        check_heap_roundtrip(tmp_path_factory.mktemp("heap"), *table, MIN_PAGE_SIZE)

    @settings(max_examples=100, deadline=None)
    @given(tables(max_columns=4))
    def test_heap_roundtrip_with_more_columns(self, tmp_path_factory, table):
        check_heap_roundtrip(tmp_path_factory.mktemp("heap"), *table, 2 * MIN_PAGE_SIZE)

    def test_single_row_table(self, tmp_path):
        schema = relation([DataType.INT, DataType.TEXT])
        path = str(tmp_path / "T.heap")
        assert build_heap(path, schema, [(1, "one")], MIN_PAGE_SIZE) == [1]

    def test_record_that_cannot_fit_a_blank_page(self, tmp_path):
        schema = relation([DataType.INT, DataType.TEXT])
        rows = [(1, "fits"), (2, "x" * MIN_PAGE_SIZE)]
        with pytest.raises(StorageError, match="does not fit a blank page"):
            build_heap(str(tmp_path / "T.heap"), schema, rows, MIN_PAGE_SIZE)
