"""The column-wise heap page, encoded and decoded a page at a time.

A heap page holds a run of consecutive rows laid out **by column** (the
PAX layout of Ailamaki et al., VLDB 2001) so that reading it costs one
``struct.unpack_from`` per fixed-width column and one UTF-8 decode per
text column, not a tag, a branch and an unpack per cell::

    [n_rows: u16][used: u16]  [minipage of column 0][minipage of column 1]...

``used`` counts every byte up to the end of the last minipage, header
included; the rest of the page is zero padding.  Each minipage, in
schema order, is::

    [null flag: u8]                0 = no NULLs on this page, 1 = bitmap follows
    [bitmap: ceil(n_rows / 8)]     only when flagged; bit i set = row i is NULL
    values of all n_rows rows      (a NULL row holds a filler: 0, 0.0, False, '')

and the values are, by the column's declared
:class:`~repro.relational.types.DataType`:

* INT — ``[width: u8]`` then a packed little-endian signed array of that
  width, the narrowest of 1/2/4/8 bytes holding every value on the page;
  width ``0`` is the escape for integers beyond 64 bits: the values as
  decimal strings in the text layout below (``coerce`` accepts
  arbitrary-precision integers, so the page format must too);
* FLOAT — an IEEE-754 ``f64`` array (bit patterns survive: ``-0.0``, NaN);
* BOOL — one byte per row;
* TEXT / DATE — ``n_rows`` end offsets (``u16``, relative to the first
  text byte) then the concatenated UTF-8 of all values.

:func:`decode_page` is the exact inverse of :func:`encode_page`: equal
values with identical Python types (``bool`` stays ``bool``, ``int``
never becomes ``float``, ``''`` is not NULL), which the differential
harness depends on.  Every inconsistency a torn or corrupted page can
show raises :class:`~repro.errors.StorageError`.

:class:`PageFill` is the build side's size accounting: it tells
:func:`~repro.storage.heap.build_heap` exactly how many bytes the rows
admitted so far will encode to, so pages are packed full without trial
encodes.

:func:`pack_uints` / :func:`unpack_uints` are the index files' position
lists, in the INT minipage's width-code idiom.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate
from operator import add, itemgetter
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.errors import StorageError
from repro.relational.schema import RelationSchema
from repro.relational.types import DataType

__all__ = [
    "INT_FORMAT",
    "MAX_PAGE_SIZE",
    "PageFill",
    "decode_columns",
    "decode_page",
    "encode_page",
    "int_width",
    "pack_uints",
    "uint_width",
    "unpack_uints",
]

Row = Tuple[Any, ...]

#: offsets inside a page (and its row count) are ``u16``
MAX_PAGE_SIZE = 0xFFFF
_HEADER = struct.Struct("<HH")  # n_rows, used

_INT, _FLOAT, _BOOL, _TEXT = range(4)
_KIND = {
    DataType.INT: _INT,
    DataType.FLOAT: _FLOAT,
    DataType.BOOL: _BOOL,
    DataType.TEXT: _TEXT,
    DataType.DATE: _TEXT,
}
#: what a NULL row stores in the value array, per kind
_FILLER = {_INT: 0, _FLOAT: 0.0, _BOOL: False, _TEXT: ""}
#: INT width code of the decimal-string escape
_WIDE = 0
#: width -> struct code of a signed integer array (INT minipages, B+-tree keys)
INT_FORMAT = {1: "b", 2: "h", 4: "i", 8: "q"}
#: struct code and bytes per value of the fixed-width kinds
_FIXED = {_FLOAT: ("d", 8), _BOOL: ("?", 1)}
#: width -> (lowest, highest), narrowest first
_INT_BOUNDS = {
    width: (-(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1)
    for width in INT_FORMAT
}
#: the empty range of a wide column: every value takes the digit-counting path
_NO_BOUNDS = (1, 0)
#: width -> struct code of the index files' unsigned arrays
_UINT_FORMAT = {1: "B", 2: "H", 4: "I"}


@lru_cache(maxsize=256)  # asked once per page decoded
def _kinds(schema: RelationSchema) -> Tuple[int, ...]:
    return tuple(_KIND[column.dtype] for column in schema.columns)


def int_width(low: int, high: int) -> int:
    """The narrowest width code holding every value in ``low..high``."""
    for width, (lowest, highest) in _INT_BOUNDS.items():
        if lowest <= low and high <= highest:
            return width
    return _WIDE


def uint_width(high: int) -> int:
    """The narrowest unsigned width (1, 2 or 4 bytes) holding ``0..high``."""
    return 1 if high <= 0xFF else 2 if high <= 0xFFFF else 4


def pack_uints(values: Sequence[int]) -> bytes:
    """``[width: u8]`` then *values* as a little-endian unsigned array of
    the narrowest width holding them all."""
    width = uint_width(max(values, default=0))
    return bytes((width,)) + struct.pack(f"<{len(values)}{_UINT_FORMAT[width]}", *values)


def unpack_uints(data: bytes, offset: int, n: int) -> Tuple[Tuple[int, ...], int]:
    """The *n* values :func:`pack_uints` wrote at *offset*, and the offset
    just past them; an unknown width code or an array running past the
    end of *data* is a :class:`~repro.errors.StorageError`."""
    if offset >= len(data):
        raise StorageError(f"array at byte {offset} starts past the end ({len(data)})")
    width = data[offset]
    code = _UINT_FORMAT.get(width)
    if code is None:
        raise StorageError(f"unknown width code {width}")
    end = offset + 1 + n * width
    if end > len(data):
        raise StorageError(f"{n} values run {end - len(data)} bytes past the end")
    return struct.unpack_from(f"<{n}{code}", data, offset + 1), end


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _pack_text(values: Sequence[str]) -> bytes:
    encoded = [value.encode("utf-8") for value in values]
    ends = accumulate(map(len, encoded))
    return struct.pack(f"<{len(encoded)}H", *ends) + b"".join(encoded)


def encode_page(rows: Sequence[Row], schema: RelationSchema, page_size: int) -> bytes:
    """Encode coerced *rows* (see :func:`repro.relational.types.coerce`)
    as one page of exactly *page_size* bytes."""
    n = len(rows)
    kinds = _kinds(schema)
    out = bytearray(_HEADER.size)
    for kind, values in zip(kinds, zip(*rows) if rows else [()] * len(kinds)):
        if None in values:
            out.append(1)
            mask = sum(1 << i for i, value in enumerate(values) if value is None)
            out += mask.to_bytes((n + 7) >> 3, "little")
            filler = _FILLER[kind]
            values = [filler if value is None else value for value in values]
        else:
            out.append(0)
        if kind == _INT:
            width = int_width(min(values, default=0), max(values, default=0))
            out.append(width)
            if width == _WIDE:
                out += _pack_text([str(value) for value in values])
            else:
                out += struct.pack(f"<{n}{INT_FORMAT[width]}", *values)
        elif kind == _FLOAT:
            out += struct.pack(f"<{n}d", *values)
        elif kind == _BOOL:
            out += struct.pack(f"<{n}?", *values)
        else:
            out += _pack_text(values)
    used = len(out)
    if used > page_size:
        raise StorageError(
            f"{schema.name}: {n} rows encode to {used} bytes, "
            f"page size {page_size}"
        )
    _HEADER.pack_into(out, 0, n, used)
    return bytes(out) + bytes(page_size - used)


class PageFill:
    """Exact size accounting for the page being filled.

    :meth:`take` admits offered rows in order while the page still
    encodes within ``page_size`` with them, :meth:`add` one row;
    :attr:`size` is then exactly the ``used`` :func:`encode_page` will
    write for :attr:`rows`.  Per column it keeps what the size depends on
    — the INT width the values so far need, the text (and wide-integer
    digit) bytes, whether any value is NULL — and the row count, so
    admitting a row costs one comparison per INT cell, and the text
    bytes of the offered rows are summed a column at a time.
    """

    def __init__(self, schema: RelationSchema, page_size: int) -> None:
        if page_size > MAX_PAGE_SIZE:
            raise StorageError(
                f"page size {page_size} above maximum {MAX_PAGE_SIZE}"
            )
        self.schema = schema
        self.page_size = page_size
        kinds = _kinds(schema)
        self._width = len(kinds)
        self._int_columns = [c for c, kind in enumerate(kinds) if kind == _INT]
        self._text_columns = [c for c, kind in enumerate(kinds) if kind == _TEXT]
        # header, one null flag per column, one width code per INT column
        self._base = _HEADER.size + len(kinds) + len(self._int_columns)
        self._fixed_row_bytes = (
            8 * kinds.count(_FLOAT) + kinds.count(_BOOL) + 2 * kinds.count(_TEXT)
        )
        self.reset()

    def reset(self) -> None:
        """Start a blank page."""
        self.rows: List[Row] = []
        self.size = self._base
        ints = len(self._int_columns)
        # per INT column: the array width so far and the values it admits
        self._widths = [1] * ints
        self._bounds = [_INT_BOUNDS[1]] * ints
        self._row_bytes = self._fixed_row_bytes + ints
        self._text_bytes = 0
        self._null_columns: Set[int] = set()

    def add(self, row: Row) -> bool:
        """Admit *row* if the page still fits with it; otherwise leave
        the page as it was and return False."""
        return self.take([row]) == 1

    def take(self, rows: Sequence[Row], start: int = 0) -> int:
        """Admit ``rows[start:]`` one after another while the page still
        fits, and return how many went in (0: the page is as it was).  A
        row of the wrong width raises once the rows before it are in.

        The text bytes of the rows that can still fit are summed a column
        at a time first, so admitting a row costs a comparison per INT
        cell and no per-cell work for text."""
        width = self._width
        # no more rows fit than the room left holds rows of the fewest bytes
        room = (self.page_size - self.size) // (self._fixed_row_bytes + len(self._widths))
        offered = rows[start:start + room + 1]
        misfit = None
        if set(map(len, offered)) - {width}:
            misfit = next(at for at, row in enumerate(offered) if len(row) != width)
            offered = offered[:misfit]
        text_bytes_of = _row_text_bytes(offered, self._text_columns)
        int_columns = self._int_columns
        widths, bounds = self._widths, self._bounds
        row_bytes, text_bytes = self._row_bytes, self._text_bytes
        null_columns = self._null_columns
        page_size, base = self.page_size, self._base
        admitted = self.rows
        taken = 0
        for row, row_text in zip(offered, text_bytes_of):
            widened = None
            for i, c in enumerate(int_columns):
                value = row[c] or 0  # a NULL stores the filler 0
                low, high = bounds[i]
                if not low <= value <= high:
                    # rare: the value needs a wider array (or the column
                    # is wide already, whose bounds admit nothing)
                    widened = widened or (list(widths), row_bytes, text_bytes)
                    row_bytes, text_bytes = self._widen(
                        i, c, value, widths, row_bytes, text_bytes
                    )
            page_nulls = null_columns
            if None in row:
                page_nulls = null_columns.union(
                    c for c, value in enumerate(row) if value is None
                )
            n = len(admitted) + 1
            size = base + n * row_bytes + text_bytes + row_text + len(page_nulls) * ((n + 7) >> 3)
            if size > page_size:
                if widened is not None:
                    widths[:], row_bytes, text_bytes = widened
                break
            admitted.append(row)
            text_bytes += row_text
            null_columns = page_nulls
            if widened is not None:
                for i, width_now in enumerate(widths):
                    bounds[i] = _INT_BOUNDS.get(width_now, _NO_BOUNDS)
            self.size = size
            taken += 1
        self._row_bytes, self._text_bytes = row_bytes, text_bytes
        self._null_columns = null_columns
        if taken == misfit:
            row = rows[start + taken]
            raise StorageError(
                f"{self.schema.name}: cannot encode {len(row)} values into "
                f"{width} columns"
            )
        return taken

    def _widen(
        self, i: int, c: int, value: int, widths: List[int], row_bytes: int, text_bytes: int
    ) -> Tuple[int, int]:
        """Row and text bytes once INT column *c* (the *i*-th) holds
        *value*, outside its width's bounds; *widths* is updated."""
        width = widths[i]
        if width == _WIDE:
            return row_bytes, text_bytes + len(str(value))
        new_width = int_width(value, value)
        widths[i] = new_width
        if new_width == _WIDE:
            # decimal strings from here on: an offset per row plus
            # the digits of every value already on the page
            return row_bytes + 2 - width, text_bytes + len(str(value)) + sum(
                len(str(earlier[c] or 0)) for earlier in self.rows
            )
        return row_bytes + new_width - width, text_bytes


def _row_text_bytes(rows: Sequence[Row], columns: Sequence[int]) -> List[int]:
    """Per row of *rows*, the UTF-8 bytes of its values in the text
    *columns* (a NULL or ``''`` stores none), summed a column at a time."""
    totals = [0] * len(rows)
    for c in columns:
        values = list(map(itemgetter(c), rows))
        if None in values:
            values = [value or "" for value in values]
        if "".join(values).isascii():
            lengths = map(len, values)
        else:
            lengths = map(len, map(str.encode, values))
        totals = list(map(add, totals, lengths))
    return totals


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _unpack_text(data: bytearray, offset: int, n: int) -> Tuple[List[str], int]:
    """The *n* strings of a text layout starting at *offset*, and the
    offset just past it."""
    ends = struct.unpack_from(f"<{n}H", data, offset)
    offset += 2 * n
    total = ends[-1] if ends else 0
    raw = data[offset:offset + total]
    if len(raw) != total:
        raise StorageError(f"text offsets run {total - len(raw)} bytes past the page")
    if list(ends) != sorted(ends):
        raise StorageError("text offsets are not monotone")
    starts = (0,) + ends[:-1]
    text = raw.decode("utf-8")
    if len(text) == total:  # ASCII only: characters are bytes
        values = [text[a:b] for a, b in zip(starts, ends)]
    else:
        values = [raw[a:b].decode("utf-8") for a, b in zip(starts, ends)]
    return values, offset + total


def _text_end(data: bytearray, offset: int, n: int) -> int:
    """The offset just past a text layout of *n* strings at *offset*,
    from its last end offset alone."""
    offset += 2 * n
    total = struct.unpack_from("<H", data, offset - 2)[0] if n else 0
    if offset + total > len(data):
        raise StorageError(
            f"text offsets run {offset + total - len(data)} bytes past the page"
        )
    return offset + total


def decode_columns(
    data: bytearray, schema: RelationSchema, indexes: Sequence[int]
) -> Tuple[int, Dict[int, List[Any]]]:
    """``(row count, {index: values})`` for the columns at *indexes* of
    one page produced by :func:`encode_page`.  The other minipages are
    walked past by their length bytes, nothing of them decoded; the page
    as a whole is checked either way — known flags and width codes,
    minipages that end where the header says the used bytes do."""
    try:
        n, used = _HEADER.unpack_from(data, 0)
        if used > len(data):
            raise StorageError(f"{used} used bytes in a {len(data)}-byte page")
        offset = _HEADER.size
        columns: Dict[int, List[Any]] = {}
        for index, kind in enumerate(_kinds(schema)):
            wanted = index in indexes
            flag = data[offset]
            offset += 1
            if flag == 1:
                size = (n + 7) >> 3
                mask = int.from_bytes(data[offset:offset + size], "little")
                offset += size
            elif flag:
                raise StorageError(f"unknown null flag {flag}")
            values: Sequence[Any] = ()
            code, size = _FIXED.get(kind, ("", 0))  # text layout: no fixed size
            if kind == _INT:
                size = data[offset]
                offset += 1
                if size != _WIDE and size not in INT_FORMAT:
                    raise StorageError(f"unknown integer width code {size}")
                code = INT_FORMAT.get(size, "")
            if not size:
                if wanted:
                    values, offset = _unpack_text(data, offset, n)
                    if kind == _INT:
                        values = [int(text) for text in values]
                else:
                    offset = _text_end(data, offset, n)
            else:
                if wanted:
                    values = struct.unpack_from(f"<{n}{code}", data, offset)
                offset += size * n
            if wanted and flag:
                values = [
                    None if mask >> i & 1 else value for i, value in enumerate(values)
                ]
            if wanted:
                columns[index] = list(values)
        if offset != used:
            raise StorageError(
                f"columns end at byte {offset}, header says {used} bytes used"
            )
    # ValueError: undecodable UTF-8 and bad wide-integer digits
    except (IndexError, struct.error, ValueError, StorageError) as exc:
        raise StorageError(f"{schema.name}: corrupt page ({exc})") from exc
    return n, columns


def decode_page(data: bytearray, schema: RelationSchema) -> List[Row]:
    """All rows of one page produced by :func:`encode_page`."""
    width = len(schema.columns)
    columns = decode_columns(data, schema, range(width))[1]
    return list(zip(*[columns[index] for index in range(width)]))
