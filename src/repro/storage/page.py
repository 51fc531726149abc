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
                                   the layout of the values (0 for BOOL)
    [bitmap: ceil(n_rows / 8)]     only when bit 0 is set; bit i set = row i is NULL
    values of all n_rows rows      (a NULL row holds a filler: 0, 0.0, False,
                                   '', day 0, offset 0)

and the values are, by the column's declared
:class:`~repro.relational.types.DataType`:

* INT — layout 0: ``[width: u8]`` then a packed little-endian signed
  array of that width, the narrowest of 1/2/4/8 bytes holding every
  value on the page; width ``0`` is the escape for integers beyond 64
  bits: the values as decimal strings in the plain text layout below
  (``coerce`` accepts arbitrary-precision integers, so the page format
  must too); layout 1, *offsets* (frame of reference): ``[width:
  u8][base: i64]`` then unsigned offsets of 1, 2 or 4 bytes, each value
  ``base + offset``, ``base`` the page's least value and a NULL row
  offset 0 — taken when it is smaller than layout 0;
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

:func:`packed` is the one packer of heap pages and B+-tree leaves: it
cuts a sequence into runs, each the longest that encodes within a page,
by encoding candidates and searching the length — fit is monotone in
it, as no layout's size shrinks when an item joins.
:func:`pack_pages` packs heap pages with it from column slices
(:func:`encode_columns`), so a try transposes no rows.

:func:`decimal_scales` is the one test of which floats a scaled-decimal
array holds exactly, for FLOAT minipages and B+-tree leaf keys alike;
:func:`pack_uints` / :func:`unpack_uints` are the index files' position
lists, in the INT minipage's width-code idiom.
"""

from __future__ import annotations

import struct
from datetime import date
from functools import lru_cache
from itertools import accumulate, repeat
from math import copysign
from operator import eq, not_
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.relational.schema import RelationSchema
from repro.relational.types import DataType

__all__ = [
    "INEXACT",
    "INT_FORMAT",
    "MAX_PAGE_SIZE",
    "MAX_SCALE",
    "column_scales",
    "columns_of",
    "decimal_scales",
    "decode_columns",
    "decode_page",
    "encode_columns",
    "encode_page",
    "int_width",
    "pack_pages",
    "pack_uints",
    "packed",
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
#: items the first run's probe encodes (:func:`packed`)
_SAMPLE = 32

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
_FILLER = {_FLOAT: 0.0, _BOOL: False, _TEXT: "", _DATE: ""}
#: minipage layouts (the flag's bits 1-2) besides 0 and the dictionaries
#: (1 and 2): an INT's offsets from the page's least value, a FLOAT's
#: scaled decimals and a DATE's day numbers
_OFFSETS = 1
_SCALED = 1
_DAYS = 3
#: per kind, how many layouts it has: a flag naming another is damage
_LAYOUTS = {_INT: 2, _BOOL: 1, _FLOAT: 2, _TEXT: 3, _DATE: 4}
#: an offset array's base, the page's least value
_BASE = struct.Struct("<q")
#: the widest span an offset array takes: past 4 bytes an offset is no
#: narrower than a signed value
_MAX_OFFSET = 0xFFFFFFFF
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
#: the widths a scaled-decimal array takes: 8 bytes a value are no
#: smaller than an f64
_SCALED_WIDTHS = (1, 2, 4)
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
    filler its minipage stores — found once per build for the column's
    heap pages (:func:`pack_pages`) and its B+-tree."""
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
    if not scale:  # integral floats: ``int`` is exact, and cheaper
        return list(map(int, values))
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


def _pack_int_column(values: Sequence[Optional[int]], nulls: bool) -> Tuple[int, bytes]:
    """``(layout, bytes)`` of an INT minipage's values: the signed array
    (0) — a NULL stored as 0, the decimal-string escape past 64 bits —
    or, when smaller, offsets from the page's least value (1), a NULL
    stored as offset 0."""
    present = [value for value in values if value is not None] if nulls else values
    low, high = min(present, default=0), max(present, default=0)
    if nulls:
        width = int_width(min(low, 0), max(high, 0))
    else:
        width = int_width(low, high)
    n = len(values)
    lowest, highest = _INT_BOUNDS[8]
    if lowest <= low and high <= highest and high - low <= _MAX_OFFSET:
        offset_width = uint_width(high - low)
        if 1 + _BASE.size + n * offset_width < 1 + n * width:
            stored = [low if value is None else value for value in values] if nulls else values
            return _OFFSETS, b"".join((
                bytes((offset_width,)),
                _BASE.pack(low),
                struct.pack(f"<{n}{_UINT_FORMAT[offset_width]}", *map(low.__rsub__, stored)),
            ))
    if nulls:
        values = [0 if value is None else value for value in values]
    if width == _WIDE:
        return 0, bytes((width,)) + _pack_text([str(value) for value in values])
    return 0, _pack_ints(width, values)


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


def columns_of(rows: Iterable[Sequence[Any]], schema: RelationSchema) -> List[List[Any]]:
    """*rows* as one list of values per column of *schema*; a row of
    another width is a :class:`~repro.errors.StorageError`."""
    rows = rows if isinstance(rows, list) else list(rows)
    width = len(schema.columns)
    for row in rows:
        if len(row) != width:
            raise StorageError(
                f"{schema.name}: cannot encode {len(row)} values into {width} columns"
            )
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in range(width)]


def _longest(fits: Callable[[int], bool], low: int, high: int, guess: int) -> int:
    """The largest ``n`` in ``low..high`` with ``fits(n)``, for a *fits*
    true at *low* and false from some point on: galloping from *guess*
    either way, then bisecting the bracket found."""
    if high == low:
        return low
    guess = max(low + 1, min(high, guess))
    if fits(guess):
        good, step = guess, 1
        while good + step <= high and fits(good + step):
            good, step = good + step, step * 2
        bad = min(good + step, high + 1)
    else:
        bad, step = guess, 1
        while bad - step > low and not fits(bad - step):
            bad, step = bad - step, step * 2
        good = max(bad - step, low)
    while bad - good > 1:
        middle = (good + bad) // 2
        if fits(middle):
            good = middle
        else:
            bad = middle
    return good


def packed(
    total: int,
    most: int,
    page_size: int,
    encode: Callable[[int, int], Any],
    size: Callable[[Any], int],
    name: str,
) -> Iterator[Tuple[int, Any]]:
    """The packer of heap pages and B+-tree leaves: cut items ``0..total``
    into consecutive runs, each the longest — at most *most* — whose
    ``encode(start, stop)`` takes at most *page_size* bytes by *size*;
    yields each run's length and encoding, the last run possibly short.

    Fit is monotone in the run's length — no layout's size shrinks as an
    item joins — so the longest run is searched, each try an encode: a
    probe at the last run's length (at :data:`_SAMPLE` for the first),
    scaled by the bytes it took to a guess, galloping from the guess,
    then bisecting.  A first item that fits no page alone is a
    :class:`~repro.errors.StorageError`."""
    start, last = 0, _SAMPLE
    while start < total:
        tried: Dict[int, Any] = {}

        def fits(count: int) -> bool:
            if count not in tried:
                tried[count] = encode(start, start + count)
            return size(tried[count]) <= page_size

        high = min(total - start, most)
        probe = max(1, min(high, last))
        fits(probe)
        count = _longest(fits, 0, high, probe * page_size // size(tried[probe]))
        if not count:
            raise StorageError(f"{name}: record does not fit a blank page")
        yield count, tried[count]
        start += count
        last = count


def pack_pages(
    schema: RelationSchema,
    page_size: int,
    columns: List[List[Any]],
    scales: Optional[Dict[int, Sequence[int]]] = None,
) -> Iterator[Tuple[int, bytes]]:
    """The rows whose values *columns* are (:func:`columns_of`) as full
    pages, each the longest run of the rows left that encodes within
    *page_size* (:func:`packed`, a try encoding slices of the columns);
    yields every page's row count and bytes.  *scales* maps FLOAT
    columns to their values' :func:`column_scales`, found here when not
    given."""
    kinds = _kinds(schema)
    floats = [c for c, kind in enumerate(kinds) if kind == _FLOAT]
    if scales is None:
        scales = {c: column_scales(columns[c]) for c in floats}

    def encode(start: int, stop: int) -> Optional[bytes]:
        return encode_columns(
            [column[start:stop] for column in columns], schema, page_size,
            [max(scales[c][start:stop], default=0) for c in floats],  # type: ignore[index]
        )

    def used(page: Optional[bytes]) -> int:
        return page_size + 1 if page is None else _HEADER.unpack_from(page, 0)[1]

    # every layout takes at least a byte a value
    return packed(len(columns[0]), page_size // len(kinds), page_size, encode, used, schema.name)


def encode_page(rows: Sequence[Row], schema: RelationSchema, page_size: int) -> bytes:
    """Encode coerced *rows* (see :func:`repro.relational.types.coerce`)
    as one page of exactly *page_size* bytes."""
    page = encode_columns(columns_of(rows, schema), schema, page_size)
    if page is None:
        raise StorageError(f"{schema.name}: {len(rows)} rows overflow page size {page_size}")
    return page


def encode_columns(
    columns: Sequence[Sequence[Any]],
    schema: RelationSchema,
    page_size: int,
    float_scales: Sequence[int] = (),
) -> Optional[bytes]:
    """One page of exactly *page_size* bytes holding the rows whose
    values *columns* are — one sequence per column in schema order, all
    of one length — or None when they encode to more: the packer's try,
    which stops at the first minipage past the page.  *float_scales*,
    when given, is each FLOAT column's largest :func:`decimal_scales`
    over its values, in schema order."""
    if page_size > MAX_PAGE_SIZE:
        raise StorageError(f"page size {page_size} above maximum {MAX_PAGE_SIZE}")
    kinds = _kinds(schema)
    n = len(columns[0]) if columns else 0
    scales = iter(float_scales or [None] * kinds.count(_FLOAT))
    out = bytearray(_HEADER.size)
    for kind, values in zip(kinds, columns):
        days = list(map(_day_number, values)) if kind == _DATE else None
        nulls = None in values
        if nulls:
            mask = sum(1 << i for i, value in enumerate(values) if value is None)
        if kind == _INT:
            layout, body = _pack_int_column(values, nulls)
        else:
            if nulls:
                filler = _FILLER[kind]
                values = [filler if value is None else value for value in values]
            layout = 0
            if kind == _FLOAT:
                layout, body = _pack_floats(values, next(scales))
            elif kind == _BOOL:
                body = struct.pack(f"<{n}?", *values)
            else:
                layout, body = _pack_text_column(values, days)
        out.append(nulls | layout << 1)
        if nulls:
            out += mask.to_bytes((n + 7) >> 3, "little")
        out += body
        if len(out) > page_size:
            return None
    used = len(out)
    _HEADER.pack_into(out, 0, n, used)
    out += bytes(page_size - used)
    return bytes(out)


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
            elif kind == _INT and layout:
                width = data[offset]
                if width not in _UINT_FORMAT:
                    raise StorageError(f"unknown offset width code {width}")
                base = _BASE.unpack_from(data, offset + 1)[0]
                offset += 1 + _BASE.size
                if wanted:
                    offsets = struct.unpack_from(f"<{n}{_UINT_FORMAT[width]}", data, offset)
                    if offsets and (min(offsets) or base + max(offsets) > _INT_BOUNDS[8][1]):
                        raise StorageError(
                            f"offsets from {base} are not those of the page's values"
                        )
                    values = list(map(base.__add__, offsets))
                offset += width * n
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
