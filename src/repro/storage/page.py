"""The column-wise heap page, encoded and decoded a page at a time.

A heap page holds a run of consecutive rows laid out **by column** (the
PAX layout of Ailamaki et al., VLDB 2001) so that reading it costs one
``struct.unpack_from`` per fixed-width column and one UTF-8 decode per
text column, not a tag, a branch and an unpack per cell::

    [n_rows: u16][used: u16]  [minipage of column 0][minipage of column 1]...

``used`` counts every byte up to the end of the last minipage, header
included; the rest of the page is zero padding.  Each minipage, in
schema order, is::

    [flag: u8]                     bit 0: a NULL bitmap follows; bits 1-2:
                                   the text layout (TEXT / DATE only)
    [bitmap: ceil(n_rows / 8)]     only when bit 0 is set; bit i set = row i is NULL
    values of all n_rows rows      (a NULL row holds a filler: 0, 0.0, False, '')

and the values are, by the column's declared
:class:`~repro.relational.types.DataType`:

* INT — ``[width: u8]`` then a packed little-endian signed array of that
  width, the narrowest of 1/2/4/8 bytes holding every value on the page;
  width ``0`` is the escape for integers beyond 64 bits: the values as
  decimal strings in the plain text layout below (``coerce`` accepts
  arbitrary-precision integers, so the page format must too);
* FLOAT — an IEEE-754 ``f64`` array (bit patterns survive: ``-0.0``, NaN);
* BOOL — one byte per row;
* TEXT / DATE — one of two layouts, whichever is smaller on the page
  (the plain one on a tie):

  - layout 0, *plain*: ``n_rows`` end offsets (``u16``, relative to the
    first text byte) then the concatenated UTF-8 of all values;
  - layout 1 or 2, *dictionary*: ``[d: u16]``, the page's ``d`` distinct
    values in the plain layout (in the order first met), then ``n_rows``
    codes of 1 (layout 1, ``d <= 256``) or 2 bytes (layout 2), each the
    index of its row's value in that dictionary.

:func:`decode_page` is the exact inverse of :func:`encode_page`: equal
values with identical Python types (``bool`` stays ``bool``, ``int``
never becomes ``float``, ``''`` is not NULL), which the differential
harness depends on.  Every inconsistency a torn or corrupted page can
show raises :class:`~repro.errors.StorageError`.

:class:`PageFill` is the build side's size accounting: it tells
:func:`~repro.storage.heap.build_heap` exactly how many bytes the rows
admitted so far will encode to, in the smaller text layout of each
column, so pages are packed full without trial encodes.

:func:`pack_uints` / :func:`unpack_uints` are the index files' position
lists, in the INT minipage's width-code idiom.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate
from operator import add, itemgetter, sub
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
#: a page dictionary's value count
_COUNT = struct.Struct("<H")

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
#: width -> struct code of the index files' unsigned arrays (and of a
#: page dictionary's codes)
_UINT_FORMAT = {1: "B", 2: "H", 4: "I"}
#: the most values a page dictionary codes in one byte
_ONE_BYTE_CODES = 256


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


def _pack_text_column(values: Sequence[str]) -> Tuple[int, bytes]:
    """``(layout, bytes)`` of a TEXT/DATE minipage's values: the
    dictionary layout (its code width) when it is smaller than the plain
    one, the plain layout (0) otherwise."""
    distinct = dict.fromkeys(values)
    length_of = dict(zip(distinct, map(len, map(str.encode, distinct))))
    n, d = len(values), len(distinct)
    plain = 2 * n + sum(map(length_of.__getitem__, values))
    width = 1 if d <= _ONE_BYTE_CODES else 2
    if 2 + 2 * d + sum(length_of.values()) + n * width < plain:
        code_of = dict(zip(distinct, range(d)))
        return width, b"".join((
            _COUNT.pack(d),
            _pack_text(list(distinct)),
            struct.pack(f"<{n}{_UINT_FORMAT[width]}", *map(code_of.__getitem__, values)),
        ))
    return 0, _pack_text(values)


def encode_page(rows: Sequence[Row], schema: RelationSchema, page_size: int) -> bytes:
    """Encode coerced *rows* (see :func:`repro.relational.types.coerce`)
    as one page of exactly *page_size* bytes."""
    n = len(rows)
    kinds = _kinds(schema)
    out = bytearray(_HEADER.size)
    for kind, values in zip(kinds, zip(*rows) if rows else [()] * len(kinds)):
        nulls = None in values
        if nulls:
            mask = sum(1 << i for i, value in enumerate(values) if value is None)
            filler = _FILLER[kind]
            values = [filler if value is None else value for value in values]
        layout = 0
        if kind == _INT:
            width = int_width(min(values, default=0), max(values, default=0))
            if width == _WIDE:
                packed = bytes((width,)) + _pack_text([str(value) for value in values])
            else:
                packed = bytes((width,)) + struct.pack(f"<{n}{INT_FORMAT[width]}", *values)
        elif kind == _FLOAT:
            packed = struct.pack(f"<{n}d", *values)
        elif kind == _BOOL:
            packed = struct.pack(f"<{n}?", *values)
        else:
            layout, packed = _pack_text_column(values)
        out.append(nulls | layout << 1)
        if nulls:
            out += mask.to_bytes((n + 7) >> 3, "little")
        out += packed
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
    — the INT width the values so far need and the wide-integer digit
    bytes; per text column the bytes of its values, and its distinct
    values with the bytes of their dictionary; whether any value is NULL
    — and the row count, so admitting a row costs one comparison per INT
    cell, and the text minipages' sizes (each the smaller of its two
    layouts) are worked out a column at a time for all the offered rows
    at once.
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
        # header, one flag per column, one width code per INT column
        self._base = _HEADER.size + len(kinds) + len(self._int_columns)
        self._fixed_row_bytes = 8 * kinds.count(_FLOAT) + kinds.count(_BOOL)
        self.rows: List[Row] = []
        self.reset()

    def reset(self) -> None:
        """Start a blank page."""
        # the next page most likely holds about as many rows as this one
        held = len(self.rows)
        self._chunk = held + held // 8 + 1 if held else 0
        self.rows = []
        self.size = self._base
        ints = len(self._int_columns)
        # per INT column: the array width so far and the values it admits
        self._widths = [1] * ints
        self._bounds = [_INT_BOUNDS[1]] * ints
        self._row_bytes = self._fixed_row_bytes + ints
        self._digit_bytes = 0
        self._null_columns: Set[int] = set()
        texts = len(self._text_columns)
        # per text column: the bytes of its values in the plain layout,
        # its distinct values, and their dictionary's bytes (the count
        # included, the codes not)
        self._plain = [0] * texts
        self._distinct: List[Dict[str, None]] = [{} for _ in range(texts)]
        self._dictionary = [2] * texts

    def add(self, row: Row) -> bool:
        """Admit *row* if the page still fits with it; otherwise leave
        the page as it was and return False."""
        return self.take([row]) == 1

    def take(self, rows: Sequence[Row], start: int = 0) -> int:
        """Admit ``rows[start:]`` one after another while the page still
        fits, and return how many went in (0: the page is as it was).  A
        row of the wrong width raises once the rows before it are in.

        Rows are offered a batch at a time — first about as many as the
        last page held, then as many as the room left could hold — and
        the text minipages' sizes for every count of a batch are worked
        out a column at a time, so admitting a row costs a comparison per
        INT cell and no per-cell work for text."""
        # no more rows fit than the room left holds rows of the fewest
        # bytes: a text value takes at least a one-byte code
        least = self._fixed_row_bytes + len(self._widths) + len(self._text_columns)
        chunk, self._chunk = self._chunk, 0
        taken = 0
        while True:
            limit = (self.page_size - self.size) // least + 1
            offered = rows[start + taken:start + taken + min(limit, chunk or limit)]
            admitted = self._admit(offered)
            taken += admitted
            if admitted < len(offered) or not offered:
                break
            chunk = 0
        if admitted < len(offered) and len(offered[admitted]) != self._width:
            raise StorageError(
                f"{self.schema.name}: cannot encode {len(offered[admitted])} values "
                f"into {self._width} columns"
            )
        return taken

    def _admit(self, offered: Sequence[Row]) -> int:
        """Admit the rows of *offered* in order while they are of the
        schema's width and the page still fits; returns how many."""
        width = self._width
        if set(map(len, offered)) - {width}:
            offered = offered[:next(at for at, row in enumerate(offered) if len(row) != width)]
        texts = _TextSizes(self, offered)
        int_columns = self._int_columns
        widths, bounds = self._widths, self._bounds
        row_bytes, digit_bytes = self._row_bytes, self._digit_bytes
        null_columns = self._null_columns
        page_size, base = self.page_size, self._base
        admitted = self.rows
        taken = 0
        for row, text_bytes in zip(offered, texts.sizes):
            widened = None
            for i, c in enumerate(int_columns):
                value = row[c] or 0  # a NULL stores the filler 0
                low, high = bounds[i]
                if not low <= value <= high:
                    # rare: the value needs a wider array (or the column
                    # is wide already, whose bounds admit nothing)
                    widened = widened or (list(widths), row_bytes, digit_bytes)
                    row_bytes, digit_bytes = self._widen(
                        i, c, value, widths, row_bytes, digit_bytes
                    )
            page_nulls = null_columns
            if None in row:
                page_nulls = null_columns.union(
                    c for c, value in enumerate(row) if value is None
                )
            n = len(admitted) + 1
            size = base + n * row_bytes + digit_bytes + text_bytes + len(page_nulls) * ((n + 7) >> 3)
            if size > page_size:
                if widened is not None:
                    widths[:], row_bytes, digit_bytes = widened
                break
            admitted.append(row)
            null_columns = page_nulls
            if widened is not None:
                for i, width_now in enumerate(widths):
                    bounds[i] = _INT_BOUNDS.get(width_now, _NO_BOUNDS)
            self.size = size
            taken += 1
        self._row_bytes, self._digit_bytes = row_bytes, digit_bytes
        self._null_columns = null_columns
        texts.admit(taken)
        return taken

    def _widen(
        self, i: int, c: int, value: int, widths: List[int], row_bytes: int, digit_bytes: int
    ) -> Tuple[int, int]:
        """Row and digit bytes once INT column *c* (the *i*-th) holds
        *value*, outside its width's bounds; *widths* is updated."""
        width = widths[i]
        if width == _WIDE:
            return row_bytes, digit_bytes + len(str(value))
        new_width = int_width(value, value)
        widths[i] = new_width
        if new_width == _WIDE:
            # decimal strings from here on: an offset per row plus
            # the digits of every value already on the page
            return row_bytes + 2 - width, digit_bytes + len(str(value)) + sum(
                len(str(earlier[c] or 0)) for earlier in self.rows
            )
        return row_bytes + new_width - width, digit_bytes


class _TextSizes:
    """The text minipages of a :class:`PageFill` for each count of some
    offered rows: :attr:`sizes` ``[k]`` is the bytes of every text
    column's values once the first ``k + 1`` of them are admitted, each
    column in the smaller of its plain and dictionary layouts;
    :meth:`admit` then records the ones that went in."""

    def __init__(self, fill: PageFill, offered: Sequence[Row]) -> None:
        self.fill = fill
        m = len(offered)
        held = len(fill.rows)
        self.sizes: List[int] = [0] * m
        self._columns = []
        for j, c in enumerate(fill._text_columns):
            values = list(map(itemgetter(c), offered))
            if None in values:
                values = [value or "" for value in values]
            if "".join(values).isascii():
                lengths = list(map(len, values))
            else:
                lengths = list(map(len, map(str.encode, values)))
            # plain: an offset and the value's bytes per row
            plain = list(accumulate(map((2).__add__, lengths), initial=fill._plain[j]))
            del plain[0]
            # what the dictionary layout saves against it: a value met
            # before on the page saves its offset and bytes for a code
            # (1 + its bytes), a value new to the page costs its code more
            distinct = fill._distinct[j]
            first_at = dict(zip(reversed(values), range(m - 1, -1, -1)))
            new = first_at.keys() - distinct.keys()
            saves = list(map((1).__add__, lengths))
            for value in new:
                saves[first_at[value]] = -1
            gain = list(accumulate(saves, initial=fill._plain[j] - fill._dictionary[j] - held))
            del gain[0]
            # codes take one byte up to the row of the 257th value
            one_byte = _ONE_BYTE_CODES - len(distinct)  # new values that keep it
            if len(new) > one_byte:
                narrow = sorted(map(first_at.__getitem__, new))[one_byte] if one_byte >= 0 else 0
                gain[narrow:] = map(sub, gain[narrow:], range(held + narrow + 1, held + m + 1))
            if max(gain, default=0) <= 0:
                column = plain
            else:
                column = [size - saved if saved > 0 else size for size, saved in zip(plain, gain)]
            self.sizes = list(map(add, self.sizes, column)) if j else column
            self._columns.append((values, plain, saves))

    def admit(self, taken: int) -> None:
        """The first *taken* offered rows went onto the page."""
        if not taken:
            return
        fill = self.fill
        for j, (values, plain, saves) in enumerate(self._columns):
            grown = plain[taken - 1] - fill._plain[j]
            fill._plain[j] += grown
            # the dictionary grew by what the plain layout did, less the
            # savings of the rows that went in and their codes
            fill._dictionary[j] += grown - sum(saves[:taken]) - taken
            fill._distinct[j].update(dict.fromkeys(values[:taken]))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _unpack_text(data: bytearray, offset: int, n: int) -> Tuple[List[str], int]:
    """The *n* strings of a plain text layout starting at *offset*, and
    the offset just past it."""
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
    """The offset just past a plain text layout of *n* strings at
    *offset*, from its last end offset alone."""
    offset += 2 * n
    total = struct.unpack_from("<H", data, offset - 2)[0] if n else 0
    if offset + total > len(data):
        raise StorageError(
            f"text offsets run {offset + total - len(data)} bytes past the page"
        )
    return offset + total


def _unpack_dictionary(
    data: bytearray, offset: int, n: int, width: int
) -> Tuple[List[str], int]:
    """The *n* values of a dictionary layout of *width*-byte codes at
    *offset*, and the offset just past it: each distinct value decoded
    once, every row holding the one string of its value."""
    words, offset = _unpack_text(data, offset + 2, _COUNT.unpack_from(data, offset)[0])
    codes = struct.unpack_from(f"<{n}{_UINT_FORMAT[width]}", data, offset)
    if codes and max(codes) >= len(words):
        raise StorageError(f"text code {max(codes)} beyond a {len(words)}-value dictionary")
    return list(map(words.__getitem__, codes)), offset + n * width


def _dictionary_end(data: bytearray, offset: int, n: int, width: int) -> int:
    """The offset just past a dictionary layout at *offset*, from its
    count and its dictionary's last end offset alone."""
    end = _text_end(data, offset + 2, _COUNT.unpack_from(data, offset)[0])
    return end + n * width


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
            layout = flag >> 1
            if layout and (kind != _TEXT or layout > 2):
                raise StorageError(f"unknown null flag {flag}")
            if flag & 1:
                size = (n + 7) >> 3
                mask = int.from_bytes(data[offset:offset + size], "little")
                offset += size
            values: Sequence[Any] = ()
            code, size = _FIXED.get(kind, ("", 0))  # text layouts: no fixed size
            if kind == _INT:
                size = data[offset]
                offset += 1
                if size != _WIDE and size not in INT_FORMAT:
                    raise StorageError(f"unknown integer width code {size}")
                code = INT_FORMAT.get(size, "")
            if layout:
                if wanted:
                    values, offset = _unpack_dictionary(data, offset, n, layout)
                else:
                    offset = _dictionary_end(data, offset, n, layout)
            elif not size:
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
            if wanted and flag & 1:
                values = [
                    None if mask >> i & 1 else value for i, value in enumerate(values)
                ]
            if wanted:
                columns[index] = values if type(values) is list else list(values)
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
