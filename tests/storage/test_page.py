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


# ----------------------------------------------------------------------
# Decoding a subset of the columns (what a scan that reads some of a
# table's columns does)
# ----------------------------------------------------------------------
def check_subsets_equal_the_projection(directory, schema, rows, page_size):
    """Every subset of the columns, decoded alone on a cold pool, equals
    the projection of the full decode — values and types — whole and at
    positions, and leaves the other minipages undecoded."""
    path = str(directory / "T.heap")
    page_counts = build_heap(path, schema, rows, page_size)
    width = len(schema.columns)
    full = [[row[index] for row in rows] for index in range(width)]
    odd = list(range(1, len(rows), 2))
    for mask in range(1, 1 << width):
        indexes = [index for index in range(width) if mask >> index & 1]
        pager = Pager(path, page_size)
        try:
            pool = BufferPool(2)
            pool.register("T.heap", pager)
            heap = HeapFile(pool, "T.heap", schema, page_counts)
            got = heap.columns(indexes)
            assert got == [full[index] for index in indexes]
            assert types_of(got) == types_of([full[index] for index in indexes])
            assert heap.columns(indexes, odd) == [
                [full[index][position] for position in odd] for index in indexes
            ]
            for frame in pool._frames.values():
                assert sorted(frame.decoded) == indexes
            assert pool.stats["max_resident"] <= pool.capacity
        finally:
            pager.close()


class TestColumnSubsets:
    @settings(max_examples=60, deadline=None)
    @given(tables(max_columns=4))
    def test_subsets_at_128_byte_pages(self, tmp_path_factory, table):
        check_subsets_equal_the_projection(
            tmp_path_factory.mktemp("subset"), *table, 2 * MIN_PAGE_SIZE
        )

    @settings(max_examples=30, deadline=None)
    @given(tables(max_columns=4))
    def test_subsets_at_4k_pages(self, tmp_path_factory, table):
        check_subsets_equal_the_projection(
            tmp_path_factory.mktemp("subset"), *table, 4096
        )

    def test_wide_integers_and_null_masks_beside_skipped_columns(self, tmp_path):
        schema = relation([DataType.INT, DataType.TEXT, DataType.INT, DataType.FLOAT])
        rows = [
            (1 << 70, "a", None, 1.5),
            (None, None, 3, None),
            (-(1 << 65), "héllo", -(1 << 40), -0.0),
        ] * 4
        for page_size in (2 * MIN_PAGE_SIZE, 4096):
            directory = tmp_path / str(page_size)
            directory.mkdir()
            check_subsets_equal_the_projection(directory, schema, rows, page_size)


class TestDamageInASkippedMinipage:
    """A scan that reads only the last column walks past the others by
    their length bytes; damage there must still surface."""

    SCHEMA = relation([DataType.INT, DataType.TEXT, DataType.INT])
    ROWS = [(1, "ab", 10), (None, "c", 20), (3, "", 30)]

    def read_last_column(self, tmp_path, damage):
        path = str(tmp_path / "T.heap")
        page_counts = build_heap(path, self.SCHEMA, self.ROWS, 128)
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            damage(data)
            handle.seek(0)
            handle.write(data)
            handle.truncate(len(data))
        pager = Pager(path, 128)
        try:
            pool = BufferPool(2)
            pool.register("T.heap", pager)
            return HeapFile(pool, "T.heap", self.SCHEMA, page_counts).columns([2])
        finally:
            pager.close()

    def test_undamaged(self, tmp_path):
        assert self.read_last_column(tmp_path, lambda data: None) == [[10, 20, 30]]

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            # column 0 is [flag 1][bitmap][width 1][3 values] from byte 4,
            # column 1 [flag 0][3 offsets][3 text bytes] from byte 10
            (4, 7, "unknown null flag"),
            (6, 3, "unknown integer width code"),
            (6, 2, "corrupt page"),      # a wider array than is stored
            (15, 200, "past the page"),  # column 1's last text offset
            (15, 9, "corrupt page"),     # ... a few bytes too far
            (0, 2, "corrupt page"),      # the row count
        ],
    )
    def test_damage_raises(self, tmp_path, offset, value, message):
        def damage(data):
            data[offset] = value

        with pytest.raises(StorageError, match=message):
            self.read_last_column(tmp_path, damage)

    def test_truncated_page_raises(self, tmp_path):
        # the file ends mid-page: the pager refuses a torn file
        with pytest.raises(StorageError):
            self.read_last_column(tmp_path, lambda data: data.__delitem__(slice(100, None)))

    def test_row_count_checked_against_the_manifest(self, tmp_path):
        # a consistent page of the wrong row count: the header and every
        # minipage agree with each other, not with the manifest
        replacement = encode_page(self.ROWS[:2], self.SCHEMA, 128)

        def damage(data):
            data[:] = replacement

        with pytest.raises(StorageError, match="manifest says 3"):
            self.read_last_column(tmp_path, damage)
