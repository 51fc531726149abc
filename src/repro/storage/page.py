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
                                   the layout of the values (0 for INT, BOOL)
    [bitmap: ceil(n_rows / 8)]     only when bit 0 is set; bit i set = row i is NULL
    values of all n_rows rows      (a NULL row holds a filler: 0, 0.0, False,
                                   '', day 0)

and the values are, by the column's declared
:class:`~repro.relational.types.DataType`:

* INT — ``[width: u8]`` then a packed little-endian signed array of that
  width, the narrowest of 1/2/4/8 bytes holding every value on the page;
  width ``0`` is the escape for integers beyond 64 bits: the values as
  decimal strings in the plain text layout below (``coerce`` accepts
  arbitrary-precision integers, so the page format must too);
* FLOAT — layout 0: an IEEE-754 ``f64`` array (bit patterns survive:
  ``-0.0``, NaN); layout 1, *scaled decimals*: ``[scale: u8][width: u8]``
  then signed integers ``k`` of that width, each value ``k / 10**scale``
  — taken when every value on the page is such a decimal exactly
  (:func:`decimal_scales`) and the integers need at most 4 bytes;
* BOOL — one byte per row;
* TEXT / DATE — one of these layouts, whichever is smallest on the page
  (the earlier one on a tie):

  - layout 0, *plain*: ``n_rows`` end offsets (``u16``, relative to the
    first text byte) then the concatenated UTF-8 of all values;
  - layout 1 or 2, *dictionary*: ``[d: u16]``, the page's ``d`` distinct
    values in the plain layout (in the order first met), then ``n_rows``
    codes of 1 (layout 1, ``d <= 256``) or 2 bytes (layout 2), each the
    index of its row's value in that dictionary;
  - layout 3, *day numbers* (DATE only): ``[width: u8]`` then a signed
    array of days since 1970-01-01, as for INT — when every value on the
    page is an ISO date that ``date.isoformat`` writes back unchanged
    (``coerce`` keeps any string of the pattern, ``'2016-02-30'`` too).

:func:`decode_page` is the exact inverse of :func:`encode_page`: equal
values with identical Python types (``bool`` stays ``bool``, ``int``
never becomes ``float``, ``''`` is not NULL), which the differential
harness depends on.  Every inconsistency a torn or corrupted page can
show raises :class:`~repro.errors.StorageError`.

:class:`PageFill` is the build side's size accounting: it tells
:func:`~repro.storage.heap.build_heap` exactly how many bytes the rows
admitted so far will encode to, each column in its smallest layout, so
pages are packed full without trial encodes.

:func:`decimal_scales` is the one test of which floats a scaled-decimal
array holds exactly, for FLOAT minipages and B+-tree leaf keys alike;
:func:`pack_uints` / :func:`unpack_uints` are the index files' position
lists, in the INT minipage's width-code idiom.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from datetime import date
from functools import lru_cache
from itertools import accumulate, compress, count, repeat
from math import copysign, inf
from operator import add, eq, itemgetter, not_, sub
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import StorageError
from repro.relational.schema import RelationSchema
from repro.relational.types import DataType

__all__ = [
    "INEXACT",
    "INT_FORMAT",
    "MAX_PAGE_SIZE",
    "MAX_SCALE",
    "PageFill",
    "column_scales",
    "decimal_scales",
    "decode_columns",
    "decode_page",
    "encode_page",
    "int_width",
    "pack_uints",
    "scaled_floats",
    "scaled_ints",
    "uint_width",
    "unpack_uints",
]

Row = Tuple[Any, ...]

#: offsets inside a page (and its row count) are ``u16``
MAX_PAGE_SIZE = 0xFFFF
_HEADER = struct.Struct("<HH")  # n_rows, used
#: a page dictionary's value count
_COUNT = struct.Struct("<H")

_INT, _FLOAT, _BOOL, _TEXT, _DATE = range(5)
_KIND = {
    DataType.INT: _INT,
    DataType.FLOAT: _FLOAT,
    DataType.BOOL: _BOOL,
    DataType.TEXT: _TEXT,
    DataType.DATE: _DATE,
}
_TEXTUAL = (_TEXT, _DATE)
#: what a NULL row stores in the value array, per kind
_FILLER = {_INT: 0, _FLOAT: 0.0, _BOOL: False, _TEXT: "", _DATE: ""}
#: minipage layouts (the flag's bits 1-2) besides 0 and the dictionaries
#: (1 and 2): a FLOAT's scaled decimals and a DATE's day numbers
_SCALED = 1
_DAYS = 3
#: per kind, how many layouts it has: a flag naming another is damage
_LAYOUTS = {_INT: 1, _BOOL: 1, _FLOAT: 2, _TEXT: 3, _DATE: 4}
#: INT width code of the decimal-string escape
_WIDE = 0
#: width -> struct code of a signed integer array (INT minipages, B+-tree keys)
INT_FORMAT = {1: "b", 2: "h", 4: "i", 8: "q"}
#: struct code and bytes per value of the fixed-width layouts
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
#: a scaled-decimal array holds each value as the integer ``k`` with
#: ``k / 10**scale == value``, for one scale in ``0..MAX_SCALE``
MAX_SCALE = 4
#: the scale :func:`decimal_scales` gives a value no scale holds exactly
INEXACT = MAX_SCALE + 1
#: every integer of at most this magnitude is exactly a float
_EXACT_INT = 2 ** 53
#: the last MAX_SCALE decimal digits of a scaled integer take this many values
_DIGITS = 10 ** MAX_SCALE
_POWER = float(_DIGITS)
#: the values :func:`decimal_scales` settles in one pass: scaled to
#: MAX_SCALE they stay within 2**51, where the nearest integer of the
#: product is the integer of any exact scale
_ONE_PASS = 2.0 ** 51 / _POWER
#: a scaled-decimal minipage's bytes besides its integers (scale, width),
#: and the widths it takes: 8 bytes a value are no smaller than an f64
_SCALED_HEADER = 2
_SCALED_WIDTHS = (1, 2, 4)
#: the bytes of an exact ISO date, ``YYYY-MM-DD``
_DATE_BYTES = 10
#: the ordinal of day number 0, 1970-01-01
_EPOCH = date(1970, 1, 1).toordinal()


def _digit_scales() -> List[int]:
    """The scale each value of the last MAX_SCALE decimal digits of a
    scaled integer needs: MAX_SCALE less its trailing zeros."""
    scales = [MAX_SCALE] * _DIGITS
    for zeros in range(1, MAX_SCALE + 1):
        scales[::10 ** zeros] = [MAX_SCALE - zeros] * (_DIGITS // 10 ** zeros)
    return scales


_SCALE_OF_DIGITS = _digit_scales()


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
# Exact narrow values: scaled decimals and day numbers
# ----------------------------------------------------------------------
def column_scales(values: Sequence[Optional[float]]) -> List[int]:
    """:func:`decimal_scales` of a FLOAT column, NULL as ``0.0`` — the
    filler its minipage stores — found once per build for
    :class:`PageFill` and the B+-tree over the column."""
    if None in values:
        values = [0.0 if value is None else value for value in values]
    return decimal_scales(values)  # type: ignore[arg-type]


def decimal_scales(values: Sequence[float]) -> List[int]:
    """Per float of *values*, the least scale ``s`` in ``0..MAX_SCALE``
    at which an integer ``k`` with ``|k| <= 2**53`` has ``k / 10**s ==
    value`` — so a scaled-decimal array storing ``k`` decodes that very
    float — or :data:`INEXACT`: NaN, ±inf, ``-0.0`` (whose sign an
    integer drops), values beyond 2**53 and values needing more digits.
    A value exact at ``s`` is exact at every larger scale its integer
    fits (the same rational, rounded once), so a page or a leaf takes the
    largest scale of its values.  Beyond :data:`_ONE_PASS` only integral
    values get a scale (0): a fraction there has an integer no array
    narrower than an f64 holds."""
    total = sum(values)  # NaN when a value is, which min and max may pass over
    if (
        total == total
        and -_ONE_PASS <= min(values, default=0.0) and max(values, default=0.0) <= _ONE_PASS
        and not (0.0 in values and min(map(copysign, repeat(1.0), filter(not_, values))) < 0)
    ):
        if all(map(float.is_integer, values)):
            return [0] * len(values)
        return _one_pass(values)
    scales = [INEXACT] * len(values)
    near = []
    for i, value in enumerate(values):
        if abs(value) <= _ONE_PASS and (value or copysign(1.0, value) > 0):
            near.append(i)
        elif _ONE_PASS < abs(value) <= _EXACT_INT and value.is_integer():
            scales[i] = 0
    for i, scale in zip(near, _one_pass(list(map(values.__getitem__, near)))):
        scales[i] = scale
    return scales


def _one_pass(values: Sequence[float]) -> List[int]:
    """:func:`decimal_scales` of floats within :data:`_ONE_PASS`, none
    ``-0.0``: each value's nearest integer at :data:`MAX_SCALE` is exact
    there or nowhere, and its trailing decimal zeros are the scales it
    does without."""
    ints = scaled_ints(values, MAX_SCALE)
    back = list(map(_POWER.__rtruediv__, ints))
    scales = list(map(_SCALE_OF_DIGITS.__getitem__, map(_DIGITS.__rmod__, ints)))
    if back == list(values):
        return scales
    return [scale if ok else INEXACT for scale, ok in zip(scales, map(eq, back, values))]


def scaled_ints(values: Iterable[float], scale: int) -> List[int]:
    """The integers a scaled-decimal array of *scale* stores *values* —
    exact at that scale (:func:`decimal_scales`) — as."""
    return list(map(round, map(float(10 ** scale).__mul__, values)))


def scaled_floats(ints: Iterable[int], scale: int) -> List[float]:
    """The floats the integers of a scaled-decimal array of *scale*
    stand for: ``k / 10**scale``, rounded once."""
    if not scale:
        return list(map(float, ints))
    return list(map(float(10 ** scale).__rtruediv__, ints))


@lru_cache(maxsize=1 << 16)
def _day_number(value: Optional[str]) -> Optional[int]:
    """Days from 1970-01-01 to the ISO date *value* when ``date`` writes
    it back unchanged; 0 for NULL (the row's filler); None for any other
    string (``'2016-02-30'``, ``'0000-01-01'``, ``'2016-01-01\\n'``)."""
    if value is None:
        return 0
    try:
        day = date.fromisoformat(value)
    except ValueError:
        return None
    return day.toordinal() - _EPOCH if day.isoformat() == value else None


@lru_cache(maxsize=1 << 16)
def _iso_date(day: int) -> str:
    """The ISO string of day number *day*: decoded once while cached,
    and one string object for every row of that day."""
    return date.fromordinal(day + _EPOCH).isoformat()


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _pack_text(values: Sequence[str]) -> bytes:
    encoded = [value.encode("utf-8") for value in values]
    ends = accumulate(map(len, encoded))
    return struct.pack(f"<{len(encoded)}H", *ends) + b"".join(encoded)


def _pack_ints(width: int, values: Sequence[int]) -> bytes:
    return bytes((width,)) + struct.pack(f"<{len(values)}{INT_FORMAT[width]}", *values)


def _pack_text_column(
    values: Sequence[str], days: Optional[List[Optional[int]]]
) -> Tuple[int, bytes]:
    """``(layout, bytes)`` of a TEXT/DATE minipage's values: the smallest
    of the plain layout (0), the dictionary (its code width) and, given
    the rows' *days* (:func:`_day_number`) and all of them dates, the day
    numbers (3); the earlier one on a tie."""
    distinct = dict.fromkeys(values)
    length_of = dict(zip(distinct, map(len, map(str.encode, distinct))))
    n, d = len(values), len(distinct)
    plain = 2 * n + sum(map(length_of.__getitem__, values))
    width = 1 if d <= _ONE_BYTE_CODES else 2
    dictionary = 2 + 2 * d + sum(length_of.values()) + n * width
    if days is not None and None not in days:
        day_width = int_width(min(days, default=0), max(days, default=0))
        if 1 + n * day_width < min(plain, dictionary):
            return _DAYS, _pack_ints(day_width, days)  # type: ignore[arg-type]
    if dictionary < plain:
        code_of = dict(zip(distinct, range(d)))
        return width, b"".join((
            _COUNT.pack(d),
            _pack_text(list(distinct)),
            struct.pack(f"<{n}{_UINT_FORMAT[width]}", *map(code_of.__getitem__, values)),
        ))
    return 0, _pack_text(values)


def _pack_floats(values: Sequence[float], scale: Optional[int] = None) -> Tuple[int, bytes]:
    """``(layout, bytes)`` of a FLOAT minipage's values: scaled decimals
    (1) when every value is one exactly — at *scale*, the largest of
    their :func:`decimal_scales` — and the integers fit in 4 bytes, f64
    (0) otherwise."""
    n = len(values)
    if scale is None:
        scale = max(decimal_scales(values), default=0)
    if n and scale <= MAX_SCALE:
        ints = scaled_ints(values, scale)
        width = int_width(min(ints), max(ints))
        if width in _SCALED_WIDTHS:
            return _SCALED, bytes((scale,)) + _pack_ints(width, ints)
    return 0, struct.pack(f"<{n}d", *values)


def encode_page(
    rows: Sequence[Row],
    schema: RelationSchema,
    page_size: int,
    float_scales: Sequence[int] = (),
) -> bytes:
    """Encode coerced *rows* (see :func:`repro.relational.types.coerce`)
    as one page of exactly *page_size* bytes.  *float_scales*, when
    given, is each FLOAT column's largest :func:`decimal_scales` over
    *rows*, in schema order (what :meth:`PageFill.encode` knows)."""
    n = len(rows)
    kinds = _kinds(schema)
    scales = iter(float_scales or [None] * kinds.count(_FLOAT))
    out = bytearray(_HEADER.size)
    for kind, values in zip(kinds, zip(*rows) if rows else [()] * len(kinds)):
        days = list(map(_day_number, values)) if kind == _DATE else None
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
                packed = _pack_ints(width, values)
        elif kind == _FLOAT:
            layout, packed = _pack_floats(values, next(scales))
        elif kind == _BOOL:
            packed = struct.pack(f"<{n}?", *values)
        else:
            layout, packed = _pack_text_column(values, days)
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
    values with the bytes of their dictionary, and per DATE column the
    width of its day numbers while every value is a date; per FLOAT
    column the largest decimal scale of its values and their range;
    whether any value is NULL — and the row count, so admitting a row
    costs one comparison per INT cell, and the other minipages' sizes
    (each the smallest of its layouts) are worked out a column at a time
    for all the offered rows at once.
    """

    def __init__(
        self,
        schema: RelationSchema,
        page_size: int,
        scales: Optional[Dict[int, Sequence[int]]] = None,
    ) -> None:
        if page_size > MAX_PAGE_SIZE:
            raise StorageError(
                f"page size {page_size} above maximum {MAX_PAGE_SIZE}"
            )
        self.schema = schema
        self.page_size = page_size
        kinds = _kinds(schema)
        self._width = len(kinds)
        self._int_columns = [c for c, kind in enumerate(kinds) if kind == _INT]
        self._text_columns = [c for c, kind in enumerate(kinds) if kind in _TEXTUAL]
        self._dates = [kinds[c] == _DATE for c in self._text_columns]
        self._float_columns = [c for c, kind in enumerate(kinds) if kind == _FLOAT]
        # header, one flag per column, one width code per INT column
        self._base = _HEADER.size + len(kinds) + len(self._int_columns)
        self._fixed_row_bytes = kinds.count(_BOOL)
        #: FLOAT column -> the :func:`decimal_scales` of its values (NULL
        #: as 0.0) in the rows :meth:`take` is given, when the builder
        #: found them once for the column
        self._scales = scales or {}
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
        # its distinct values, their dictionary's bytes (the count
        # included, the codes not), and for a DATE column the width of
        # its day numbers — 0 once a value is not a date, and always for
        # TEXT
        self._plain = [0] * texts
        self._distinct: List[Dict[str, None]] = [{} for _ in range(texts)]
        self._dictionary = [2] * texts
        self._day_widths = [1 if is_date else 0 for is_date in self._dates]
        # per FLOAT column: the largest scale of its values, and their
        # least and greatest
        self._decimals = [(0, inf, -inf)] * len(self._float_columns)

    def encode(self) -> bytes:
        """:attr:`rows` as one page, each FLOAT minipage at the scale the
        fill found (:func:`encode_page` need not look for it again)."""
        return encode_page(
            self.rows, self.schema, self.page_size, [scale for scale, _, _ in self._decimals]
        )

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
        the text and FLOAT minipages' sizes for every count of a batch
        are worked out a column at a time, so admitting a row costs a
        comparison per INT cell and no per-cell work for the others."""
        # no more rows fit than the room left holds rows of the fewest
        # bytes: a text value takes at least a one-byte code, a FLOAT
        # one a one-byte integer
        least = (
            self._fixed_row_bytes + len(self._widths)
            + len(self._text_columns) + len(self._float_columns)
        )
        chunk, self._chunk = self._chunk, 0
        taken = 0
        while True:
            limit = (self.page_size - self.size) // least + 1
            offered = rows[start + taken:start + taken + min(limit, chunk or limit)]
            admitted = self._admit(offered, start + taken)
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

    def _admit(self, offered: Sequence[Row], at: int) -> int:
        """Admit the rows of *offered* — ``rows[at:]`` of those given to
        :meth:`take` — in order while they are of the schema's width and
        the page still fits; returns how many."""
        width = self._width
        if set(map(len, offered)) - {width}:
            offered = offered[:next(at for at, row in enumerate(offered) if len(row) != width)]
        columns = _ColumnSizes(self, offered, at)
        int_columns = self._int_columns
        widths, bounds = self._widths, self._bounds
        row_bytes, digit_bytes = self._row_bytes, self._digit_bytes
        null_columns = self._null_columns
        page_size, base = self.page_size, self._base
        admitted = self.rows
        taken = 0
        for row, column_bytes in zip(offered, columns.sizes):
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
            size = base + n * row_bytes + digit_bytes + column_bytes + len(page_nulls) * ((n + 7) >> 3)
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
        columns.admit(taken)
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


def _widenings(
    values: Sequence[Any], to_int: Callable[[Any], int], width: int, widest: int
) -> List[Tuple[int, int]]:
    """``(row, width from that row on)`` for each row where a width-coded
    array of the integers ``to_int(value)`` of *values*, after integers
    of *width*, must widen; *widest* is the width all of them need.  Each
    step scans on from the last one and stops at the first integer out
    of bounds, and none scans for the widest, so a page's values are
    mostly not looked at."""
    steps = [(0, width)]
    at = 0
    while width != widest:
        lowest, highest = _INT_BOUNDS[width]
        fits = range(lowest, highest + 1).__contains__  # O(1) for an int
        at = next(compress(count(at), map(not_, map(fits, map(to_int, values[at:])))))
        width = int_width(to_int(values[at]), to_int(values[at])) or widest
        steps.append((at, width))
    return steps


def _stepped_sizes(
    steps: Sequence[Tuple[int, int]], rows: int, held: int, header: int
) -> List[int]:
    """The bytes of a width-coded minipage of ``held + k`` values for
    ``k = 1..rows``: *header* plus the values at the width of the last
    of *steps* (``(row, width)``, ascending) at or before row ``k - 1``;
    past 4 bytes, an f64 array (no header)."""
    sizes: List[int] = []
    for (row, width), (end, _) in zip(steps, [*steps[1:], (rows, 0)]):
        extra = header if width in _SCALED_WIDTHS else 0
        sizes += range(extra + (held + row + 1) * width, extra + (held + end) * width + 1, width)
    return sizes


def _float_width(low: float, high: float, values: Sequence[float], power: float) -> int:
    """The width of the scaled integers of the values in ``low..high``
    and of *values*, all exact at the scale of *power*: 1 for none, 8
    past 4 bytes."""
    least = min(low, min(values, default=inf))
    most = max(high, max(values, default=-inf))
    if least > most:
        return 1
    return int_width(round(least * power), round(most * power)) or 8


class _ColumnSizes:
    """The text and FLOAT minipages of a :class:`PageFill` for each count
    of some offered rows: :attr:`sizes` ``[k]`` is the bytes of those
    columns' values once the first ``k + 1`` of them are admitted, each
    column in its smallest layout; :meth:`admit` then records the ones
    that went in."""

    def __init__(self, fill: PageFill, offered: Sequence[Row], at: int) -> None:
        self.fill = fill
        self.held = len(fill.rows)
        self._texts: List[Tuple[Any, ...]] = []
        self._floats: List[Tuple[List[float], List[int]]] = []
        columns = [
            self._text(j, c, offered) for j, c in enumerate(fill._text_columns)
        ] + [
            self._float(i, c, offered, at) for i, c in enumerate(fill._float_columns)
        ]
        self.sizes: List[int] = columns[0] if columns else [0] * len(offered)
        for column in columns[1:]:
            self.sizes = list(map(add, self.sizes, column))

    def _text(self, j: int, c: int, offered: Sequence[Row]) -> List[int]:
        fill, held, m = self.fill, self.held, len(offered)
        raw = list(map(itemgetter(c), offered))
        values = [value or "" for value in raw] if None in raw else raw
        if "".join(values).isascii():
            lengths = list(map(len, values))
        else:
            lengths = list(map(len, map(str.encode, values)))
        # plain: an offset and the value's bytes per row
        plain = list(accumulate(map((2).__add__, lengths), initial=fill._plain[j]))
        del plain[0]
        column = plain
        # day numbers, while every value on the page is a date
        days, day_width = None, 0
        if fill._day_widths[j]:
            column, day_width, days = self._days(j, c, raw, plain)
        distinct = fill._distinct[j]
        first_at = dict(zip(reversed(values), range(m - 1, -1, -1)))
        new = first_at.keys() - distinct.keys()
        # what the dictionary layout saves against the plain one: a value
        # met before on the page saves its offset and bytes for a code
        # (1 + its bytes), a value new to the page costs its code more
        before = fill._plain[j] - fill._dictionary[j] - held
        repeats = m - len(new)
        repeat_bytes = sum(lengths) - sum(map(lengths.__getitem__, map(first_at.__getitem__, new)))
        reach = self._dictionary_reach(j, before + repeats + repeat_bytes, m, repeats, day_width)
        if reach:
            reached_first, reached_new = first_at, new
            if reach < m:  # the new values among the rows it reaches
                reached_first = dict(zip(reversed(values[:reach]), range(reach - 1, -1, -1)))
                reached_new = reached_first.keys() - distinct.keys()
            saves = list(map((1).__add__, lengths[:reach]))
            for value in reached_new:
                saves[reached_first[value]] = -1
            gain = list(accumulate(saves, initial=before))
            del gain[0]
            # codes take one byte up to the row of the 257th value
            one_byte = _ONE_BYTE_CODES - len(distinct)  # new values that keep it
            if len(reached_new) > one_byte:
                narrow = sorted(map(reached_first.__getitem__, reached_new))[one_byte] if one_byte >= 0 else 0
                gain[narrow:] = map(sub, gain[narrow:], range(held + narrow + 1, held + reach + 1))
            if max(gain) > 0:
                column = [*map(min, column, map(sub, plain, gain)), *column[reach:]]
        self._texts.append((values, lengths, plain, first_at, days))
        return column

    def _days(
        self, j: int, c: int, raw: List[Optional[str]], plain: List[int]
    ) -> Tuple[List[int], int, Tuple[int, List[Tuple[int, int]]]]:
        """DATE column *j* (the *c*-th) with day numbers in the running:
        its sizes for each count of the offered rows *raw* — the smaller
        of the *plain* and the day-number layouts while every row so far
        is a date, plain from the first that is not —, the width of the
        day numbers when every offered row is a date and none NULL (0
        otherwise), and ``(rows that are dates, [(row, width from it)])``
        for :meth:`admit`."""
        fill, m = self.fill, len(raw)
        numbers = list(map(_day_number, raw))
        dated = numbers.index(None) if None in numbers else m
        if not dated:
            return plain, 0, (0, [])
        dates = numbers if dated == m else numbers[:dated]
        width = fill._day_widths[j]
        widest = max(width, int_width(min(dates), max(dates)))  # type: ignore[type-var]
        steps = _widenings(dates, int, width, widest)
        column = _stepped_sizes(steps, dated, self.held, 1)
        if None in raw or c in fill._null_columns:
            # a NULL stores '' in the plain layout, two bytes
            column = list(map(min, plain, column))
            widest = widest if dated == m and None not in raw else 0
        elif dated < m:
            widest = 0
        # (otherwise ten bytes and an offset a date: plain never wins)
        return column + plain[dated:], widest, (dated, steps)

    def _dictionary_reach(self, j: int, most: int, m: int, repeats: int, day_width: int) -> int:
        """How many of the *m* offered rows text column *j*'s dictionary
        layout can be the smallest within — 0 when never — bounded from
        their *repeats* without the per-row arithmetic.  Against the plain
        layout it saves at most *most* (every repeat counted, none of the
        new values).  Against day numbers of *day_width* — given when
        every offered row is a date — a repeat saves at most
        ``day_width - 1`` bytes (a code for a day number), and a new value
        costs ``13 - day_width`` more (its offset and ten bytes in the
        dictionary), so the dictionary falls behind for good after a few
        new values past the repeats."""
        if most <= 0:
            return 0
        if not day_width:
            return m
        fill = self.fill
        # days - dictionary, at most, before the new values' cost: one
        # header byte against the dictionary's bytes so far and a code
        # a row
        most = 1 + self.held * (day_width - 1) - fill._dictionary[j] + (day_width - 1) * repeats
        cost = _DATE_BYTES + 3 - day_width
        if most - (0 if fill._distinct[j] else cost) <= 0:  # the page's first row is new
            return 0
        return min(m, repeats + most // cost + 1)

    def _float(self, i: int, c: int, offered: Sequence[Row], at: int) -> List[int]:
        """A FLOAT column's sizes: scaled decimals up to the first row that
        needs a scale past MAX_SCALE or an integer past 4 bytes, f64 from
        there.  The rows are taken a run of one page scale at a time (a
        larger scale rescales every row before it): the width of the rows
        before the run and of those up to its end, at its scale, from
        their least and greatest, then where in the run it widens."""
        m, held = len(offered), self.held
        values = list(map(itemgetter(c), offered))
        if None in values:
            values = [0.0 if value is None else value for value in values]
        known = self.fill._scales.get(c)
        scales = list(known[at:at + m]) if known is not None else decimal_scales(values)
        scale, low, high = self.fill._decimals[i]
        steps: List[Tuple[int, int]] = []
        start = 0
        while start < m and scale <= MAX_SCALE:
            stop = m
            if max(scales[start:]) > scale:
                stop = next(compress(count(start), map(scale.__lt__, scales[start:])))
            if stop > start:
                power = float(10 ** scale)
                widest = _float_width(low, high, values[:stop], power)
                steps += (
                    (start + row, width) for row, width in _widenings(
                        values[start:stop], lambda value: round(value * power),
                        _float_width(low, high, values[:start], power), widest,
                    )
                )
                if widest not in _SCALED_WIDTHS:
                    break
            start = stop
            if stop < m:
                scale = scales[stop]
        # f64 from the first row the scaled layout cannot take
        cut = next(
            (at for at, (_, width) in enumerate(steps) if width not in _SCALED_WIDTHS),
            len(steps),
        )
        f64_from = steps[cut][0] if cut < len(steps) else start
        steps[cut:] = [(f64_from, 8)] if f64_from < m else []
        self._floats.append((values, scales))
        return _stepped_sizes(steps, m, held, _SCALED_HEADER)

    def admit(self, taken: int) -> None:
        """The first *taken* offered rows went onto the page."""
        if not taken:
            return
        fill = self.fill
        last = taken - 1
        for j, (values, lengths, plain, first_at, days) in enumerate(self._texts):
            fill._plain[j] = plain[last]
            # the dictionary grew by the offset and bytes of each value
            # new to the page that went in
            distinct = fill._distinct[j]
            went_in = dict.fromkeys(values[:taken])
            added = went_in.keys() - distinct.keys()
            fill._dictionary[j] += 2 * len(added) + sum(
                map(lengths.__getitem__, map(first_at.__getitem__, added))
            )
            distinct.update(went_in)
            if days is not None:
                dated, steps = days
                fill._day_widths[j] = (
                    steps[bisect_left(steps, (taken,)) - 1][1] if taken <= dated else 0
                )
        for i, (values, scales) in enumerate(self._floats):
            scale, low, high = fill._decimals[i]
            fill._decimals[i] = (
                max(scale, max(scales[:taken])),
                min(low, min(values[:taken])),
                max(high, max(values[:taken])),
            )


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
    as a whole is checked either way — known flags, width codes and
    scales, minipages that end where the header says the used bytes
    do."""
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
            if layout >= _LAYOUTS[kind]:
                raise StorageError(f"unknown null flag {flag}")
            if flag & 1:
                size = (n + 7) >> 3
                mask = int.from_bytes(data[offset:offset + size], "little")
                offset += size
            values: Sequence[Any] = ()
            if kind in _TEXTUAL and layout != _DAYS:
                if layout:
                    if wanted:
                        values, offset = _unpack_dictionary(data, offset, n, layout)
                    else:
                        offset = _dictionary_end(data, offset, n, layout)
                elif wanted:
                    values, offset = _unpack_text(data, offset, n)
                else:
                    offset = _text_end(data, offset, n)
            elif kind == _BOOL or kind == _FLOAT and not layout:
                code, size = _FIXED[kind]
                if wanted:
                    values = struct.unpack_from(f"<{n}{code}", data, offset)
                offset += size * n
            else:
                # an integer array: INT, a FLOAT's scaled decimals or a
                # DATE's day numbers
                scale = 0
                if kind == _FLOAT:
                    scale = data[offset]
                    offset += 1
                    if scale > MAX_SCALE:
                        raise StorageError(f"unknown decimal scale {scale}")
                width = data[offset]
                offset += 1
                if width == _WIDE and kind == _INT:
                    if wanted:
                        values, offset = _unpack_text(data, offset, n)
                        values = [int(text) for text in values]
                    else:
                        offset = _text_end(data, offset, n)
                elif width not in INT_FORMAT:
                    raise StorageError(f"unknown integer width code {width}")
                else:
                    if wanted:
                        values = struct.unpack_from(f"<{n}{INT_FORMAT[width]}", data, offset)
                        if kind == _FLOAT:
                            values = scaled_floats(values, scale)
                        elif kind == _DATE:
                            values = list(map(_iso_date, values))
                    offset += width * n
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
    # ValueError: undecodable UTF-8, bad wide-integer digits, a day number
    # no date has; OverflowError: one beyond any ordinal
    except (IndexError, struct.error, ValueError, OverflowError, StorageError) as exc:
        raise StorageError(f"{schema.name}: corrupt page ({exc})") from exc
    return n, columns


def decode_page(data: bytearray, schema: RelationSchema) -> List[Row]:
    """All rows of one page produced by :func:`encode_page`."""
    width = len(schema.columns)
    columns = decode_columns(data, schema, range(width))[1]
    return list(zip(*[columns[index] for index in range(width)]))
