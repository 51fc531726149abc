"""Page codec: type-exact round-trips, wide ints, corruption detection."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.storage.page import decode_page, encode_page

PAGE_SIZE = 4096


def relation(*dtypes):
    schema = DatabaseSchema("serde")
    schema.add_relation(
        "T", [(f"c{i}", dtype) for i, dtype in enumerate(dtypes)], ["c0"]
    )
    return schema.relation("T")


SCHEMA = relation(
    DataType.INT, DataType.FLOAT, DataType.TEXT, DataType.DATE, DataType.BOOL
)


def roundtrip(rows, schema=SCHEMA, page_size=PAGE_SIZE):
    page = encode_page(rows, schema, page_size)
    assert len(page) == page_size
    return decode_page(bytearray(page), schema)


def same_types(decoded, rows):
    return [[type(v) for v in row] for row in decoded] == [
        [type(v) for v in row] for row in rows
    ]


class TestRoundTrip:
    def test_plain_row(self):
        rows = [
            (7, 2.5, "héllo wörld", "2016-03-15", True),
            (-7, -2.5, "plain", "2016-03-16", False),
        ]
        assert roundtrip(rows) == rows

    def test_nulls_everywhere(self):
        rows = [(None, None, None, None, None)]
        assert roundtrip(rows) == rows

    def test_nulls_in_some_rows_of_every_column(self):
        rows = [
            (1, None, "a", None, True),
            (None, 1.5, None, "2016-03-15", None),
            (3, 2.5, "", "2016-03-16", False),
        ] * 5  # more than eight rows: the bitmap spans two bytes
        decoded = roundtrip(rows)
        assert decoded == rows and same_types(decoded, rows)

    def test_types_are_exact(self):
        rows = [(0, -0.0, "", "x", False), (1, 1.0, "1", "1", True)]
        decoded = roundtrip(rows)
        assert decoded == rows and same_types(decoded, rows)
        assert math.copysign(1.0, decoded[0][1]) == -1.0  # -0.0 keeps its sign
        assert decoded[0][2] == "" and decoded[0][2] is not None  # '' is not NULL

    def test_nan_keeps_its_bit_pattern(self):
        quiet, payload = (
            struct.unpack("<d", struct.pack("<Q", bits))[0]
            for bits in (0x7FF8000000000000, 0x7FF8000000000ABC)
        )
        decoded = roundtrip([(quiet,), (payload,)], relation(DataType.FLOAT))
        assert [struct.pack("<d", row[0]) for row in decoded] == [
            struct.pack("<d", quiet), struct.pack("<d", payload)
        ]

    def test_int_wider_than_64_bits(self):
        schema = relation(DataType.INT)
        for wide in (2**63, -(2**63) - 1, 10**30, -(10**30)):
            rows = [(1,), (wide,), (None,), (-5,)]
            assert roundtrip(rows, schema) == rows

    @pytest.mark.parametrize("bits", [7, 15, 31, 63])
    def test_int_width_boundaries(self, bits):
        schema = relation(DataType.INT)
        widths = {7: 1, 15: 2, 31: 4, 63: 8}
        for edge, width in (
            ((1 << bits) - 1, widths[bits]),
            (-(1 << bits), widths[bits]),
            (1 << bits, widths.get(2 * bits + 1, 0)),
            (-(1 << bits) - 1, widths.get(2 * bits + 1, 0)),
        ):
            rows = [(0,), (edge,)]
            page = encode_page(rows, schema, PAGE_SIZE)
            assert page[5] == width  # header, null flag, then the width code
            assert decode_page(bytearray(page), schema) == rows

    def test_non_ascii_text_is_decoded_per_value(self):
        schema = relation(DataType.TEXT)
        rows = [("naïve",), ("",), ("日本語",), (None,), ("plain",), ("🙂",)]
        assert roundtrip(rows, schema) == rows

    def test_empty_page(self):
        assert roundtrip([]) == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers()),
                st.one_of(st.none(), st.floats(allow_nan=False)),
                st.one_of(st.none(), st.text(max_size=40)),
                st.one_of(st.none(), st.text(max_size=12)),
                st.one_of(st.none(), st.booleans()),
            ),
            max_size=12,
        )
    )
    def test_property_roundtrip(self, rows):
        decoded = roundtrip(rows)
        assert decoded == rows and same_types(decoded, rows)


def corrupt(page, offset, replacement):
    data = bytearray(page)
    data[offset:offset + len(replacement)] = replacement
    return data


class TestErrors:
    """One test per shape a torn or corrupted page can show.  A
    single-column page is ``[n: u16][used: u16][null flag]`` then the
    values from byte 5."""

    INTS = relation(DataType.INT)
    TEXTS = relation(DataType.TEXT)

    def test_wrong_arity(self):
        with pytest.raises(StorageError, match="cannot encode"):
            encode_page([(1, 2.0, "a", None, True), (1, 2)], SCHEMA, PAGE_SIZE)

    def test_rows_that_do_not_fit_one_page(self):
        with pytest.raises(StorageError, match="page size 64"):
            encode_page([("x" * 80,)], self.TEXTS, 64)

    def test_truncated_record(self):
        # the row count promises more values than the page has bytes for
        page = encode_page([(1,), (2,)], self.INTS, 64)
        with pytest.raises(StorageError, match="corrupt page"):
            decode_page(corrupt(page, 0, struct.pack("<H", 500)), self.INTS)

    def test_trailing_bytes(self):
        page = encode_page([(1,), (2,)], self.INTS, 64)
        (used,) = struct.unpack_from("<H", page, 2)
        with pytest.raises(StorageError, match="columns end at byte"):
            decode_page(corrupt(page, 2, struct.pack("<H", used + 3)), self.INTS)

    def test_columns_running_past_the_used_bytes(self):
        page = encode_page([(1,), (2,)], self.INTS, 64)
        (used,) = struct.unpack_from("<H", page, 2)
        with pytest.raises(StorageError, match="columns end at byte"):
            decode_page(corrupt(page, 2, struct.pack("<H", used - 1)), self.INTS)

    def test_used_bytes_beyond_the_page(self):
        page = encode_page([(1,), (2,)], self.INTS, 64)
        with pytest.raises(StorageError, match="used bytes in a 64-byte page"):
            decode_page(corrupt(page, 2, struct.pack("<H", 65)), self.INTS)

    def test_unknown_width_code(self):
        page = encode_page([(1,), (2,)], self.INTS, 64)
        with pytest.raises(StorageError, match="unknown integer width code 3"):
            decode_page(corrupt(page, 5, b"\x03"), self.INTS)

    def test_unknown_null_flag(self):
        page = encode_page([(1,), (2,)], self.INTS, 64)
        with pytest.raises(StorageError, match="unknown null flag 7"):
            decode_page(corrupt(page, 4, b"\x07"), self.INTS)

    def test_non_monotone_text_offsets(self):
        page = encode_page([("ab",), ("c",), ("d",)], self.TEXTS, 64)
        assert struct.unpack_from("<3H", page, 5) == (2, 3, 4)
        with pytest.raises(StorageError, match="not monotone"):
            decode_page(corrupt(page, 5, struct.pack("<3H", 3, 2, 4)), self.TEXTS)

    def test_text_offsets_past_the_page(self):
        page = encode_page([("ab",), ("c",)], self.TEXTS, 64)
        with pytest.raises(StorageError, match="past the page"):
            decode_page(corrupt(page, 5, struct.pack("<2H", 2, 6000)), self.TEXTS)

    def test_undecodable_text(self):
        page = encode_page([("ab",), ("c",)], self.TEXTS, 64)
        with pytest.raises(StorageError, match="corrupt page"):
            decode_page(corrupt(page, 9, b"\xff"), self.TEXTS)

    def test_text_offset_splitting_a_character(self):
        page = encode_page([("é",), ("x",)], self.TEXTS, 64)
        assert struct.unpack_from("<2H", page, 5) == (2, 3)
        with pytest.raises(StorageError, match="corrupt page"):
            decode_page(corrupt(page, 5, struct.pack("<2H", 1, 3)), self.TEXTS)

    def test_bad_wide_integer_digits(self):
        page = encode_page([(2**70,)], self.INTS, 64)
        assert page[5] == 0  # the decimal-string escape
        with pytest.raises(StorageError, match="corrupt page"):
            decode_page(corrupt(page, 8, b"x"), self.INTS)
