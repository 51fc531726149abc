"""Packing column-wise pages: the longest prefix that encodes, many small pages."""

import math
import struct
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.storage import BufferPool, HeapFile, Pager
from repro.storage.heap import build_heap
from repro.storage.page import (
    MAX_PAGE_SIZE, MAX_SCALE, columns_of, decode_page, encode_columns, encode_page,
)
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


def overflows(rows, schema, page_size):
    """Whether *rows* encode to more than one page."""
    return encode_columns(columns_of(rows, schema), schema, page_size) is None


class TestPacker:
    def test_each_page_takes_its_own_widths(self, tmp_path):
        # a wide integer and a NULL on the first page leave the second
        # page's array narrow and without a bitmap
        schema = relation([DataType.INT])
        rows = [(2**70,), (None,)] + [(i,) for i in range(100)]
        path = str(tmp_path / "T.heap")
        page_counts = build_heap(path, schema, rows, 64)
        assert len(page_counts) > 2
        pager = Pager(path, 64)
        try:
            first, second = pager.read_page(0), pager.read_page(1)
        finally:
            pager.close()
        assert first[4] == 1 and first[6] == 0  # a bitmap, the decimal-string escape
        assert second[4:6] == bytes((0, 1))  # no bitmap, one-byte integers
        assert struct.unpack_from("<HH", second) == (page_counts[1], 4 + 2 + page_counts[1])

    def test_page_size_ceiling(self):
        with pytest.raises(StorageError, match="above maximum"):
            encode_page([(1,)], relation([DataType.INT]), MAX_PAGE_SIZE + 1)


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
            assert overflows(rows[first:first + count + 1], schema, page_size)
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


# ----------------------------------------------------------------------
# The two text layouts: plain, and a page dictionary with codes
# ----------------------------------------------------------------------
#: few distinct values, '' among them, ASCII and not: repeats make the
#: dictionary smaller, distinct values the plain layout
WORDS = st.sampled_from(["", "a", "MACHINERY", "naïve", "日本", "2016-03-15", "b" * 40])


def text_layout_sizes(values):
    """``(plain, dictionary)`` bytes of a text minipage's values, NULL
    stored as ``''``."""
    stored = [value or "" for value in values]
    distinct = dict.fromkeys(stored)
    plain = 2 * len(stored) + sum(len(value.encode()) for value in stored)
    width = 1 if len(distinct) <= 256 else 2
    dictionary = 2 + sum(2 + len(value.encode()) for value in distinct) + width * len(stored)
    return plain, dictionary


class TestTextLayouts:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.one_of(st.none(), WORDS), st.one_of(st.none(), st.text(max_size=6))),
            max_size=300,
        ),
    )
    def test_round_trip_through_both_layouts(self, rows):
        schema = relation([DataType.TEXT, DataType.TEXT])
        page = encode_page(rows, schema, MAX_PAGE_SIZE)
        decoded = decode_page(bytearray(page), schema)
        assert decoded == rows and types_of(decoded) == types_of(rows)
        # the first minipage starts at byte 4: its flag names the layout,
        # the smaller one (plain on a tie)
        plain, dictionary = text_layout_sizes([row[0] for row in rows])
        assert page[4] >> 1 == (0 if plain <= dictionary else 1)

    def test_null_and_empty_text_stay_apart_in_a_dictionary(self):
        schema = relation([DataType.TEXT])
        rows = [(None,), ("",), ("x",), (None,), ("",)] * 20
        page = encode_page(rows, schema, 4096)
        assert page[4] == 1 | 1 << 1  # a NULL bitmap, one-byte codes
        assert decode_page(bytearray(page), schema) == rows

    def test_more_than_256_distinct_values_take_two_byte_codes(self):
        # TEXT: in a DATE column these would take day numbers
        schema = relation([DataType.TEXT])
        days = [f"2016-{month:02d}-{day:02d}" for month in range(1, 13) for day in range(1, 29)]
        rows = [(day,) for day in days * 3]  # 336 values, each three times
        page = encode_page(rows, schema, MAX_PAGE_SIZE)
        assert page[4] >> 1 == 2
        assert decode_page(bytearray(page), schema) == rows

    @pytest.mark.parametrize(
        "rows, layout",
        [
            # plain: one value of almost a whole page, its end offset
            # near the top of a u16
            ([("p" * (MAX_PAGE_SIZE - 8),)], 0),
            # too long plain (two copies), but one copy in a dictionary
            ([("q" * 32_000,), ("q" * 32_000,), ("r" * 1_000,)], 1),
        ],
    )
    def test_offsets_up_to_the_u16_limit(self, rows, layout):
        schema = relation([DataType.TEXT])
        page = encode_page(rows, schema, MAX_PAGE_SIZE)
        assert page[4] >> 1 == layout
        assert decode_page(bytearray(page), schema) == rows

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (4, 7, "unknown null flag"),    # text layout 3
            (5, 9, "corrupt page"),         # a dictionary of 9 values
            (13, 5, "beyond a 2-value"),    # a code past the dictionary
        ],
    )
    def test_damaged_dictionary_raises(self, offset, value, message):
        # [flag 2][d = 2: u16][2 end offsets][b"ab"][5 codes] from byte 4
        schema = relation([DataType.TEXT])
        page = bytearray(encode_page([("a",), ("b",), ("a",), ("a",), ("b",)], schema, 64))
        assert page[4] == 1 << 1
        page[offset] = value
        with pytest.raises(StorageError, match=message):
            decode_page(page, schema)


# ----------------------------------------------------------------------
# The narrow layouts: FLOAT as scaled decimals, DATE as day numbers
# ----------------------------------------------------------------------
#: floats a scaled-decimal array holds exactly: cents, integral values,
#: both signs, up to MAX_SCALE digits
EXACT_FLOATS = st.one_of(
    st.integers(-(10**6), 10**6).map(lambda k: k / 100),
    st.integers(-(10**9), 10**9).map(float),
    st.sampled_from([0.0, 0.5, 1.25, 123.4567, -99.9999, 2147.483647, 0.0001]),
)
#: floats it must not hold: -0.0 (an integer drops the sign), NaN, ±inf,
#: the smallest subnormal, an inexact sum, integral floats beyond 2**53,
#: values needing a scale past MAX_SCALE
ESCAPING_FLOATS = st.sampled_from([
    -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 0.1 + 0.2,
    2.0**53 + 2, -(2.0**60), 1e300, 0.00001, 123.45678,
])
#: strings ``coerce`` keeps in a DATE column that ``date.isoformat`` does
#: not write back: no such day, year 0, no such month, a trailing
#: newline (``$`` matches before it), full-width digits (``\d`` matches)
ESCAPING_DATES = st.sampled_from(
    ["2016-02-30", "0000-01-01", "2016-13-01", "2016-01-01\n", "２０１６-01-01"]
)
#: dates on both sides of 1970 and at the ends of the calendar; a few
#: repeated so a dictionary can win
DATES = st.one_of(
    st.dates().map(date.isoformat),
    st.sampled_from(["1970-01-01", "1969-12-31", "1900-01-01", "0001-01-01", "9999-12-31"]),
    st.sampled_from(["1994-03-15", "1996-11-02"]),
)


def floats_equal(left, right):
    """Equal bit for bit (-0.0 and NaN included), NULL for NULL."""
    def bits(value):
        return None if value is None else struct.pack("<d", value)

    return [bits(value) for value in left] == [bits(value) for value in right]


def exact_scale(value):
    """The least scale (0..MAX_SCALE) an integer of at most 2**53 holds
    *value* at, exactly; None when there is none.  Worked out from the
    exact binary value, not the way the codec does it."""
    if value != value or value in (float("inf"), -float("inf")):
        return None
    if value == 0.0 and math.copysign(1.0, value) < 0:
        return None
    for scale in range(MAX_SCALE + 1):
        nearest = round(Decimal(value) * 10**scale)
        for k in (nearest - 1, nearest, nearest + 1):
            if abs(k) <= 2**53 and k / 10**scale == value:
                return scale
    return None


def int_width_of(low, high):
    return next(
        (width for width in (1, 2, 4, 8)
         if -(1 << (8 * width - 1)) <= low and high < 1 << (8 * width - 1)),
        0,
    )


def float_layout(values):
    """The layout flag (bits 1-2) of a FLOAT minipage of *values*: 1 for
    scaled decimals when every value has a scale and the integers fit in
    4 bytes (then always smaller than 8 bytes a value), 0 for f64."""
    stored = [0.0 if value is None else value for value in values]
    scales = [exact_scale(value) for value in stored]
    if not stored or None in scales:
        return 0
    ints = [round(Decimal(value) * 10 ** max(scales)) for value in stored]
    return 1 if int_width_of(min(ints), max(ints)) in (1, 2, 4) else 0


def day_number(value):
    try:
        day = date.fromisoformat(value)
    except ValueError:
        return None
    return (day - date(1970, 1, 1)).days if day.isoformat() == value else None


def date_layout(values):
    """The layout flag of a DATE minipage of *values*: the smallest of
    plain (0), dictionary (1 or 2) and day numbers (3), earlier on a
    tie."""
    plain, dictionary = text_layout_sizes(values)
    codes = 1 if len(set(value or "" for value in values)) <= 256 else 2
    days = [0 if value is None else day_number(value) for value in values]
    sizes = [(plain, 0), (dictionary, codes)]
    if None not in days:
        sizes.append((1 + len(days) * int_width_of(min(days, default=0), max(days, default=0)), 3))
    return min(sizes, key=lambda pair: pair[0])[1]


class TestFloatLayouts:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), EXACT_FLOATS), max_size=300),
        st.lists(st.tuples(st.integers(0, 299), ESCAPING_FLOATS), max_size=2),
    )
    def test_round_trip_through_both_layouts(self, values, escapes):
        for at, value in escapes:
            if at < len(values):
                values[at] = value
        rows = [(value,) for value in values]
        schema = relation([DataType.FLOAT])
        page = encode_page(rows, schema, MAX_PAGE_SIZE)
        decoded = [row[0] for row in decode_page(bytearray(page), schema)]
        assert floats_equal(decoded, values)
        assert all(type(value) is float for value in decoded if value is not None)
        assert page[4] >> 1 == float_layout(values)

    @pytest.mark.parametrize(
        "values, layout, width",
        [
            ([19.99, 0.01, -5.0], 1, 2),          # cents: 1999 as an i16
            ([1.0, 2.0, 3.0], 1, 1),              # integral: scale 0, an i8
            ([0.5, 1.5, 2.5] * 100, 1, 1),
            ([123456.78, 0.01], 1, 4),            # 12,345,678 as an i32
            ([21474836.48, 0.01], 0, None),       # 2**31 cents: no narrower than f64
            ([0.1 + 0.2, 1.0], 0, None),
            ([-0.0, 1.0], 0, None),
        ],
    )
    def test_scale_and_width(self, values, layout, width):
        rows = [(value,) for value in values]
        schema = relation([DataType.FLOAT])
        page = encode_page(rows, schema, MAX_PAGE_SIZE)
        assert page[4] >> 1 == layout
        if layout:
            assert page[5] == max(exact_scale(value) for value in values) and page[6] == width
        assert floats_equal([row[0] for row in decode_page(bytearray(page), schema)], values)

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (4, 5, "unknown null flag"),              # FLOAT layout 2
            (5, 9, "unknown decimal scale 9"),
            (6, 3, "unknown integer width code 3"),
        ],
    )
    def test_damaged_scaled_minipage_raises(self, offset, value, message):
        # [flag 2][scale 2][width 2][3 i16] from byte 4
        schema = relation([DataType.FLOAT])
        page = bytearray(encode_page([(1.25,), (2.5,), (99.99,)], schema, 64))
        assert page[4:7] == bytes((1 << 1, 2, 2))
        page[offset] = value
        with pytest.raises(StorageError, match=message):
            decode_page(page, schema)


class TestDateLayouts:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), DATES), max_size=300),
        st.lists(st.tuples(st.integers(0, 299), ESCAPING_DATES), max_size=2),
    )
    def test_round_trip_through_every_layout(self, values, escapes):
        for at, value in escapes:
            if at < len(values):
                values[at] = value
        rows = [(value,) for value in values]
        schema = relation([DataType.DATE])
        page = encode_page(rows, schema, MAX_PAGE_SIZE)
        decoded = decode_page(bytearray(page), schema)
        assert decoded == rows and types_of(decoded) == types_of(rows)
        assert page[4] >> 1 == date_layout(values)

    def test_day_numbers_before_1970_and_at_the_ends_of_the_calendar(self):
        schema = relation([DataType.DATE])
        for values, width in [
            (["1970-01-01", "1969-12-31", "1970-04-01"], 1),
            (["1900-01-01", "2059-09-18"], 2),  # day 32,767: the last an i16 holds
            (["0001-01-01", "9999-12-31", None], 4),
        ]:
            rows = [(value,) for value in values]
            page = encode_page(rows, schema, MAX_PAGE_SIZE)
            flag = page[4]
            assert flag >> 1 == 3 and page[5 + (flag & 1)] == width
            assert decode_page(bytearray(page), schema) == rows

    def test_a_date_that_does_not_round_trip_keeps_the_page_text(self):
        schema = relation([DataType.DATE])
        for escape in ["2016-02-30", "2016-1-01", "２０１６-01-01"]:
            rows = [(f"2016-01-{day:02d}",) for day in range(1, 29)] + [(escape,)]
            page = encode_page(rows, schema, MAX_PAGE_SIZE)
            assert page[4] >> 1 == 0
            assert decode_page(bytearray(page), schema) == rows

    def test_damaged_day_numbers_raise(self):
        # [flag 6][width 2][2 i16] from byte 4: a width that runs past the
        # used bytes, and a day number past 9999-12-31
        schema = relation([DataType.DATE])
        page = bytearray(encode_page([("2016-03-15",), ("2016-03-16",)], schema, 64))
        assert page[4:6] == bytes((3 << 1, 2))
        wide = bytearray(page)
        wide[5] = 4
        with pytest.raises(StorageError, match="corrupt page"):
            decode_page(wide, schema)
        page[5] = 4
        page[6:14] = struct.pack("<2i", 10**7, 0)
        struct.pack_into("<H", page, 2, 14)
        with pytest.raises(StorageError, match="corrupt page"):
            decode_page(page, schema)


def test_an_escaping_value_changes_only_its_own_column():
    """One value a narrow layout cannot hold sends its own minipage back
    to the wide layout; the page's other minipages keep theirs."""
    schema = relation([DataType.DATE, DataType.FLOAT, DataType.DATE, DataType.FLOAT])
    rows = [
        (f"2016-03-{day:02d}", day / 4, f"1999-12-{day:02d}", day * 1.5)
        for day in range(1, 29)
    ]

    def flags(rows):
        page = encode_page(rows, schema, MAX_PAGE_SIZE)
        assert decode_page(bytearray(page), schema) == rows
        found, offset = [], 4
        for kind in ("date", "float", "date", "float"):
            flag = page[offset]
            found.append(flag >> 1)
            offset += 1
            if kind == "float" and flag >> 1:
                offset += 2 + len(rows) * page[offset + 1]
            elif kind == "float":
                offset += 8 * len(rows)
            elif flag >> 1 == 3:
                offset += 1 + len(rows) * page[offset]
            else:
                offset += 2 * len(rows) + struct.unpack_from("<H", page, offset + 2 * len(rows) - 2)[0]
        return found

    assert flags(rows) == [3, 1, 3, 1]
    escaped = list(rows)
    escaped[5] = ("2016-02-30", 0.1 + 0.2, rows[5][2], rows[5][3])
    assert flags(escaped) == [0, 0, 3, 1]


# ----------------------------------------------------------------------
# INT minipages: the signed array, or offsets from the page's least value
# ----------------------------------------------------------------------
#: spans of a page's values on both sides of each offset width, the last
#: one past what an offset array takes
SPANS = st.sampled_from([0, 1, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32])
I64 = (-(2**63), 2**63 - 1)


@st.composite
def int_columns(draw):
    """A page's INT values: NULLs and values within a span of some base
    — anywhere in the 64-bit range, at either end of it, or past it
    (the decimal-string escape) — the base and its span's end included
    when drawn so."""
    span = draw(SPANS)
    base = draw(st.one_of(
        st.integers(I64[0], I64[1] - span),
        st.sampled_from([I64[0], I64[1] - span, 0, -span, 2**63, -(2**63) - span - 1]),
        st.integers(-(2**70), 2**70),
    ))
    values = draw(st.lists(
        st.one_of(st.none(), st.integers(base, base + span)), min_size=1, max_size=300,
    ))
    for at, end in zip(draw(st.lists(st.integers(0, len(values) - 1), max_size=2)), (base, base + span)):
        values[at] = end
    return values


def int_minipage(values):
    """``(layout, bytes)`` an INT minipage of *values* should hold after
    its flag and bitmap, worked out from the format's definition: the
    signed array of the narrowest width (NULL as 0, the decimal strings
    past 64 bits), or, when strictly smaller, the width of the least
    unsigned array holding every value less the least, that least as an
    i64, and the offsets (NULL as 0)."""
    n = len(values)
    stored = [0 if value is None else value for value in values]
    width = int_width_of(min(stored), max(stored))
    if width:
        signed = bytes((width,)) + b"".join(
            value.to_bytes(width, "little", signed=True) for value in stored
        )
    else:
        digits = [str(value).encode() for value in stored]
        ends = [sum(map(len, digits[:i + 1])) for i in range(n)]
        signed = b"\0" + struct.pack(f"<{n}H", *ends) + b"".join(digits)
    present = [value for value in values if value is not None] or [0]
    low, high = min(present), max(present)
    offset_width = next((w for w in (1, 2, 4) if high - low < 1 << (8 * w)), None)
    if I64[0] <= low and high <= I64[1] and offset_width and 9 + n * offset_width < len(signed):
        return 1, bytes((offset_width,)) + low.to_bytes(8, "little", signed=True) + b"".join(
            (0 if value is None else value - low).to_bytes(offset_width, "little")
            for value in values
        )
    return 0, signed


class TestIntLayouts:
    @settings(max_examples=300, deadline=None)
    @given(int_columns())
    def test_round_trip_against_the_format(self, values):
        rows = [(value,) for value in values]
        schema = relation([DataType.INT])
        page = encode_page(rows, schema, MAX_PAGE_SIZE)
        decoded = decode_page(bytearray(page), schema)
        assert decoded == rows and types_of(decoded) == types_of(rows)
        layout, minipage = int_minipage(values)
        flag, bitmap = page[4], (len(values) + 7) >> 3 if None in values else 0
        assert flag == (None in values) | layout << 1
        start = 5 + bitmap
        assert page[start:start + len(minipage)] == minipage
        assert struct.unpack_from("<HH", page) == (len(rows), start + len(minipage))

    def test_a_one_row_page_keeps_the_signed_array(self):
        schema = relation([DataType.INT])
        for value in (I64[0], I64[1], 1000, 2**70):
            page = encode_page([(value,)], schema, 64)
            assert page[4] == 0
            assert decode_page(bytearray(page), schema) == [(value,)]

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (4, 5, "unknown null flag"),              # INT layout 2
            (5, 3, "unknown offset width code 3"),
            (5, 2, "corrupt page"),                   # offsets run past the used bytes
            (6, 0xFF, "not those of the page's values"),   # base + offset past 2**63 - 1
            (14, 1, "not those of the page's values"),     # no offset is 0
        ],
    )
    def test_damaged_offsets_raise(self, offset, value, message):
        # [flag 2][width 1][base: i64][10 u8 offsets] from byte 4; the
        # base 2**63 - 10, the values up to 2**63 - 1
        schema = relation([DataType.INT])
        base = I64[1] - 9
        page = bytearray(encode_page([(base + i,) for i in range(10)], schema, 64))
        assert page[4:14] == bytes((1 << 1, 1)) + base.to_bytes(8, "little")
        page[offset] = value
        with pytest.raises(StorageError, match=message):
            decode_page(page, schema)


# ----------------------------------------------------------------------
# The packer over every layout
# ----------------------------------------------------------------------
#: values that take each narrow layout and its escapes: INT near a base,
#: dictionary-prone text, dates, scaled floats (NaN aside, which equals
#: nothing: the float layouts' own test compares it bit for bit)
PACKED_VALUES = {
    DataType.INT: st.one_of(st.integers(10**6, 10**6 + 300), st.sampled_from(EDGE_INTS)),
    DataType.FLOAT: st.one_of(EXACT_FLOATS, ESCAPING_FLOATS.filter(lambda value: value == value)),
    DataType.BOOL: st.booleans(),
    DataType.TEXT: WORDS,
    DataType.DATE: st.one_of(DATES, ESCAPING_DATES),
}


@st.composite
def packed_tables(draw):
    """A schema of one to five columns of any types and up to 200 rows
    for it, NULLs anywhere."""
    dtypes = draw(st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=5))
    row = st.tuples(*(st.one_of(st.none(), PACKED_VALUES[dtype]) for dtype in dtypes))
    return relation(dtypes), draw(st.lists(row, max_size=200))


class TestPackerProperties:
    @settings(max_examples=80, deadline=None)
    @given(packed_tables(), st.sampled_from([256, 1024]), st.data())
    def test_every_page_but_the_last_overflows_with_one_more_row(
        self, tmp_path_factory, table, page_size, data
    ):
        """Each page holds the longest run of the rows left that fits;
        the heap decodes back to the rows; and appending the rows after
        any split writes the file a build writes."""
        schema, rows = table
        directory = tmp_path_factory.mktemp("packed")
        check_heap_roundtrip(directory, schema, rows, page_size)
        built = (directory / "T.heap").read_bytes()
        split = data.draw(st.integers(0, len(rows)))
        path = str(directory / "split.heap")
        page_counts = build_heap(path, schema, rows[:split], page_size)
        pager = Pager(path, page_size)
        try:
            pool = BufferPool(2)
            pool.register("split.heap", pager)
            heap = HeapFile(pool, "split.heap", schema, page_counts)
            heap.append(rows[split:])
            pool.flush()
            pager.sync()
        finally:
            pager.close()
        assert (directory / "split.heap").read_bytes() == built
