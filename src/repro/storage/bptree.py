"""A paged B+-tree mapping float keys to row positions.

This is the disk counterpart of
:class:`~repro.relational.index.NumericIndex`: keys are the
``float(value)`` of INT/FLOAT column values, values are dense row
positions.  Duplicate keys are first-class (a selective column still has
many rows per value), so probes return sequences of positions.

Layout (one page file, accessed through the buffer pool): every page is
a node, and the manifest records which one is the root — the file has
no meta page::

      [type: u8][n_keys: u16][n_positions: u16][next: u32]   header, 9 bytes
      leaf:     [code: u8]  n_keys keys: code 0, f64; otherwise the low
                            four bits a width (1/2/4/8 bytes) and the high
                            four a scale s, signed integers k standing
                            for k / 10**s
                [width: u8] n_keys counts       (page.pack_uints)
                [width: u8] n_positions positions (1, 2 or 4), or
                [0][first: u32]  the positions first, first + 1, ...
      internal: n_keys * key f64, then (n_keys + 1) * child u32

  A leaf stores each distinct key once; the positions carrying
  ``keys[i]`` are the next ``counts[i]`` of the positions array.  Keys
  are integers (scale 0) of the narrowest width when every key on the
  leaf is integral, not ``-0.0`` and within ±2**53; scaled decimals when
  every key is one exactly (:func:`~repro.storage.page.decimal_scales`,
  the heap page's test) and the integers need fewer than 8 bytes; f64
  otherwise.  A leaf whose
  positions are consecutive — a key column in row order, a table loaded
  sorted by the column — stores only the first of them (*implicit*
  positions) when that is smaller, and decodes them as a ``range``.  A
  run of duplicates too long for one leaf continues on the next: leaves
  are chained through ``next`` (``NO_PAGE`` terminates), so duplicates
  and ranges that span leaves are a forward walk.

Search descends with ``bisect_left``, landing on the leftmost leaf that
can hold a key.  A tree is written once, by :meth:`BPlusTree.bulk_build`
— the materializer's path: the sorted keys and their positions, two
parallel columns, are packed a leaf at a time by the heap pages' packer
(:func:`~repro.storage.page.packed`), each leaf the longest run of
positions that encodes within a page, leaves first from page 0, then
the internal levels bottom-up, the root last.  Rows
appended afterwards are not inserted: the tree covers
the table's first ``indexed`` rows, and
:meth:`repro.storage.engine.StorageEngine.candidates` adds the rows past
them to every answer.  A node is decoded once per residency: the frame
keeps it (:attr:`~repro.storage.pager.Frame.decoded`).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, compress, count, groupby
from math import copysign
from operator import itemgetter, lt, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.page import (
    INT_FORMAT,
    MAX_SCALE,
    decimal_scales,
    int_width,
    packed,
    pack_uints,
    scaled_floats,
    scaled_ints,
    uint_width,
    unpack_uints,
)
from repro.storage.pager import BufferPool

__all__ = ["BPlusTree", "NO_PAGE"]

NO_PAGE = 0xFFFFFFFF

_HEADER = struct.Struct("<BHHI")
_LEAF, _INTERNAL = 0, 1
#: key code of an f64 array; any other is ``scale << 4 | width``
_F64 = 0
#: position code of implicit positions, and what follows it
_IMPLICIT = 0
_FIRST = struct.Struct("<I")
#: the most positions a leaf header counts
_MAX_POSITIONS = 0xFFFF

Pair = Tuple[float, int]


def _key_code(low: float, high: float, scale: int) -> int:
    """The code a leaf stores keys from *low* to *high* under, *scale*
    the largest of their :func:`~repro.storage.page.decimal_scales`:
    integers of the narrowest width when every key is integral (scale 0,
    as every format wrote them), scaled decimals when those are narrower
    than an f64, else :data:`_F64`."""
    if scale > MAX_SCALE:
        return _F64
    power = 10 ** scale
    width = int_width(round(low * power), round(high * power))
    if width not in INT_FORMAT or scale and width == 8:
        return _F64
    return scale << 4 | width


def _key_bytes(code: int) -> int:
    """Bytes a key takes on a leaf of key *code*."""
    return code & 0x0F or 8


class _Node:
    """A decoded node, shared by every reader of its frame (writers build
    new ones).  In a leaf, ``keys[i]`` is carried by
    ``positions[starts[i]:starts[i + 1]]`` — a ``range`` when the leaf
    stores its positions implicitly; an internal node has one more child
    than keys."""

    __slots__ = ("keys", "starts", "positions", "children", "next")

    def __init__(
        self,
        keys: List[float],
        starts: Sequence[int] = (0,),
        positions: Sequence[int] = (),
        children: Optional[List[int]] = None,
        next_no: int = NO_PAGE,
    ) -> None:
        self.keys = keys
        self.starts = starts
        self.positions = positions
        self.children = children
        self.next = next_no

    @classmethod
    def leaf(
        cls, keys: List[float], counts: Iterable[int], positions: Sequence[int],
        next_no: int = NO_PAGE,
    ) -> "_Node":
        return cls(keys, list(accumulate(counts, initial=0)), positions, None, next_no)

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _same_key(left: float, right: float) -> bool:
    """Equal keys of one sign: ``-0.0`` and ``0.0`` are two runs."""
    return left == right and copysign(1.0, left) == copysign(1.0, right)


def _run_lengths(keys: Sequence[float]) -> List[int]:
    """The lengths of the runs of equal sorted *keys* — split where an
    equal key changes sign, so a run of ``0.0`` does not carry a
    ``-0.0`` position's key, or the reverse."""
    lengths = list(map(len, map(list, map(itemgetter(1), groupby(keys)))))
    low = bisect_left(keys, 0.0)
    if low == len(keys) or keys[low] != 0.0:
        return lengths
    # the zeros are one run of groupby's: cut it where the sign changes
    zeros = keys[low:bisect_right(keys, 0.0, low)]
    at = list(accumulate(lengths, initial=0)).index(low)
    signed = [
        len(list(run))
        for _, run in groupby(zeros, key=lambda zero: copysign(1.0, zero))
    ]
    return lengths[:at] + signed + lengths[at + 1:]


def _internal(entries: Sequence[Tuple[int, float]]) -> _Node:
    """The internal node over *entries*, ``(child page, its first key)``
    in key order."""
    return _Node(
        [key for _, key in entries[1:]], children=[page for page, _ in entries]
    )


def _internal_capacity(page_size: int) -> int:
    """Children an internal node of *page_size* bytes holds, less one."""
    capacity = (page_size - _HEADER.size - 4) // 12
    if capacity < 2:
        raise StorageError(f"page size {page_size} too small for a B+-tree node")
    return capacity


def _write(pool: BufferPool, file_id: str, raw: bytes) -> int:
    """Write the encoded node *raw* onto a new page of *file_id*; returns
    the page."""
    page_size = pool.pager(file_id).page_size
    if len(raw) > page_size:
        raise StorageError(f"{file_id}: a {len(raw)}-byte node, page size {page_size}")
    frame = pool.new_page(file_id)
    try:
        frame.data[:] = raw.ljust(page_size, b"\0")
    finally:
        pool.unpin(frame, dirty=True)
    return frame.page_no


def _groups(entries: Sequence, fan_out: int) -> List[Sequence]:
    """*entries* cut into the fewest runs of at most *fan_out*, their
    lengths within one of each other (so none is a lone child)."""
    count = -(-len(entries) // fan_out)
    return [
        entries[len(entries) * i // count:len(entries) * (i + 1) // count]
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# The node codec
# ----------------------------------------------------------------------
def _encode(node: _Node, code: int = _F64) -> bytes:
    keys = node.keys
    if not node.is_leaf:
        n = len(keys)
        return _HEADER.pack(_INTERNAL, n, 0, NO_PAGE) + struct.pack(
            f"<{n}d{n + 1}I", *keys, *node.children
        )
    if code == _F64:
        packed_keys = struct.pack(f"<{len(keys)}d", *keys)
    else:
        packed_keys = struct.pack(
            f"<{len(keys)}{INT_FORMAT[code & 0x0F]}", *scaled_ints(keys, code >> 4)
        )
    starts, positions = node.starts, node.positions
    if isinstance(positions, range):
        packed_positions = bytes((_IMPLICIT,)) + _FIRST.pack(positions.start)
    else:
        packed_positions = pack_uints(positions)
    return b"".join((
        _HEADER.pack(_LEAF, len(keys), len(positions), node.next),
        bytes((code,)),
        packed_keys,
        pack_uints(list(map(sub, starts[1:], starts))),
        packed_positions,
    ))


def _decode(data: bytearray) -> _Node:
    kind, n, n_positions, next_no = _HEADER.unpack_from(data, 0)
    offset = _HEADER.size
    if kind == _INTERNAL:
        values = struct.unpack_from(f"<{n}d{n + 1}I", data, offset)
        return _Node(list(values[:n]), children=list(values[n:]))
    if kind != _LEAF:
        raise StorageError(f"unknown node type {kind}")
    code = data[offset]
    width, scale = code & 0x0F, code >> 4
    if code != _F64 and (width not in INT_FORMAT or scale > MAX_SCALE):
        raise StorageError(f"unknown key width code {code}")
    keys = struct.unpack_from(f"<{n}{INT_FORMAT.get(width, 'd')}", data, offset + 1)
    counts, offset = unpack_uints(data, offset + 1 + n * _key_bytes(code), n)
    positions: Sequence[int]
    if offset < len(data) and data[offset] == _IMPLICIT:
        first = _FIRST.unpack_from(data, offset + 1)[0]
        positions = range(first, first + n_positions)
    else:
        positions = unpack_uints(data, offset, n_positions)[0]
    node = _Node.leaf(
        list(keys) if code == _F64 else scaled_floats(keys, scale),
        counts, positions, next_no,
    )
    if node.starts[-1] != n_positions or 0 in counts:
        raise StorageError(f"{n} counts add up to {node.starts[-1]}, not {n_positions}")
    return node


def _packed_leaves(
    keys: Sequence[float],
    positions: Sequence[int],
    page_size: int,
    scales: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[_Node, bytes]]:
    """Leaves holding the sorted *keys* — ``keys[i]`` carried by
    ``positions[i]`` — in order, each with its bytes (:func:`_encode`,
    keys under the leaf's :func:`_key_code`, no next leaf).  Each leaf holds the longest run of the
    positions left that :func:`_encode` fits in a page — found by
    :func:`~repro.storage.page.packed`, which encodes candidates and
    searches the count — so a run of one key may go on in the next leaf.
    Consecutive positions are stored implicitly where that is smaller.
    ``-0.0`` and ``0.0`` are runs of their own (:func:`_run_lengths`),
    so each position's key keeps its sign.  *scales*, when given, are
    the keys' :func:`~repro.storage.page.decimal_scales` by row
    position, found once for the column's heap pages and its tree."""
    lengths = _run_lengths(keys)
    ends = list(accumulate(lengths))
    firsts = [0, *ends[:-1]] if ends else []
    run_keys = list(map(keys.__getitem__, firsts))
    if any(map(lt, run_keys[1:], run_keys)):
        raise StorageError("bulk_build requires keys in sorted order")
    if scales is None:
        run_scales = decimal_scales(run_keys)
    else:  # each run's key is the value at its first position
        run_scales = list(map(scales.__getitem__, map(positions.__getitem__, firsts)))
    scaled = any(run_scales)  # else every leaf's keys are integers

    #: each ``i`` with ``positions[i] != positions[i - 1] + 1``, found when
    #: first asked; the last entry, the array's end, marks them found
    breaks: List[int] = []

    def consecutive(begin: int, end: int) -> bool:
        """Whether ``positions[begin:end]`` are consecutive: no break
        after *begin* and before *end*."""
        if not breaks:
            breaks.extend(compress(count(1), map((1).__ne__, map(sub, positions[1:], positions))))
            breaks.append(len(positions))
        return bisect_right(breaks, begin) == bisect_left(breaks, end)

    def leaf(begin: int, end: int) -> Tuple[_Node, bytes]:
        """The leaf of ``positions[begin:end]`` (not empty), and its bytes."""
        first = bisect_right(ends, begin)
        last = bisect_left(ends, end)
        counts = [min(ends[first], end) - begin, *lengths[first + 1:last]]
        if last > first:
            counts.append(end - firsts[last])
        scale = max(run_scales[first:last + 1]) if scaled else 0
        code = _key_code(run_keys[first], run_keys[last], scale)
        start, held = positions[begin], end - begin
        # implicit when consecutive and the first alone is smaller; a
        # list otherwise, even when *positions* is a range
        if (
            held * uint_width(positions[end - 1]) > _FIRST.size
            and positions[end - 1] - start == held - 1
            and consecutive(begin, end)
        ):
            stored: Sequence[int] = range(start, start + held)
        else:
            stored = list(positions[begin:end])
        node = _Node.leaf(run_keys[first:last + 1], counts, stored)
        return node, _encode(node, code)

    for _, found in packed(
        len(positions), _MAX_POSITIONS, page_size, leaf,
        lambda found: len(found[1]), "B+-tree leaf",
    ):
        yield found


class BPlusTree:
    """B+-tree over ``(pool, file_id)`` rooted at page *root*; see the
    module docstring."""

    def __init__(self, pool: BufferPool, file_id: str, root: int) -> None:
        self.pool = pool
        self.file_id = file_id
        self.page_size = pool.pager(file_id).page_size
        self.internal_capacity = _internal_capacity(self.page_size)
        pages = pool.pager(file_id).page_count
        if not 0 <= root < pages:
            raise StorageError(f"{file_id}: root page {root} of a {pages}-page file")
        self.root = root

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_build(
        cls,
        pool: BufferPool,
        file_id: str,
        keys: Sequence[float],
        positions: Sequence[int],
        scales: Optional[Sequence[int]] = None,
    ) -> "BPlusTree":
        """Build into the empty page file *file_id* from *keys* sorted
        ascending, ``keys[i]`` carried by ``positions[i]`` (the positions
        of one key in any order); the tree's :attr:`root` is the page the
        manifest records.  *scales* are the decimal scales of the keys
        by row position, when the caller found them already."""
        page_size = pool.pager(file_id).page_size
        capacity = _internal_capacity(page_size)
        leaves = list(_packed_leaves(keys, positions, page_size, scales))
        if not leaves:
            empty = _Node.leaf([], [], [])
            leaves = [(empty, _encode(empty, 1))]
        level: List[Tuple[int, float]] = []
        for page_no, (leaf, raw) in enumerate(leaves):
            if page_no + 1 < len(leaves):  # chained to the next leaf
                raw = _HEADER.pack(
                    _LEAF, len(leaf.keys), len(leaf.positions), page_no + 1
                ) + raw[_HEADER.size:]
            if _write(pool, file_id, raw) != page_no:
                raise StorageError(f"{file_id}: not an empty page file")
            level.append((page_no, leaf.keys[0] if leaf.keys else 0.0))
        # parents over each level, (page, first key) of each node in key
        # order, up to a single root
        while len(level) > 1:
            level = [
                (_write(pool, file_id, _encode(_internal(group))), group[0][1])
                for group in _groups(level, capacity + 1)
            ]
        return cls(pool, file_id, level[0][0])

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def search_eq(self, key: float) -> Sequence[int]:
        """All positions stored under exactly *key*."""
        return self._walk(key, key)

    def search_range(
        self,
        low: Optional[float] = None,
        high: Optional[float] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Sequence[int]:
        """Positions with ``low <= key <= high`` (bounds optional, open
        with ``include_* = False``)."""
        return self._walk(low, high, include_low, include_high)

    def items(self) -> Iterator[Pair]:
        """Every (key, position) pair in key order — the leaf chain."""
        page_no = self._leftmost_leaf()
        while page_no != NO_PAGE:
            node = self._read_node(page_no)
            starts, positions = node.starts, node.positions
            for i, key in enumerate(node.keys):
                for position in positions[starts[i]:starts[i + 1]]:
                    yield key, position
            page_no = node.next

    def key_runs(self) -> Tuple[List[float], List[int], List[int]]:
        """``(keys, counts, firsts)``: every distinct key in ascending
        order, with the positions it carries and the first of them — a
        run that goes on in the next leaf counted whole.  A run's
        positions ascend when the tree was built from
        :func:`~repro.relational.index.sorted_float_keys`, as the
        materializer builds it, so its first is the smallest.  The work
        is a pass over the leaf chain; no position list is copied."""
        keys: List[float] = []
        counts: List[int] = []
        firsts: List[int] = []
        page_no = self._leftmost_leaf()
        while page_no != NO_PAGE:
            node = self._read_node(page_no)
            starts, leaf_keys = node.starts, node.keys
            leaf_counts = list(map(sub, starts[1:], starts))
            skip = 0
            if keys and leaf_keys and _same_key(leaf_keys[0], keys[-1]):
                counts[-1] += leaf_counts[0]  # the last leaf's run goes on
                skip = 1
            keys += leaf_keys[skip:]
            counts += leaf_counts[skip:]
            firsts += map(node.positions.__getitem__, starts[skip:-1])
            page_no = node.next
        return keys, counts, firsts

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def _walk(
        self,
        low: Optional[float],
        high: Optional[float],
        include_low: bool = True,
        include_high: bool = True,
    ) -> Sequence[int]:
        """The positions of the keys between the bounds: the ``range`` a
        leaf with implicit positions holds when they all come from it, a
        list otherwise.  A NaN bound matches no key."""
        if low != low or high != high:
            return []
        pieces: List[Sequence[int]] = []
        if low is None:
            page_no = self._leftmost_leaf()
        else:
            page_no = self._descend_left(low)
        while page_no != NO_PAGE:
            node = self._read_node(page_no)
            keys = node.keys
            start = 0
            if low is not None:
                start = (bisect_left if include_low else bisect_right)(keys, low)
            stop = len(keys)
            if high is not None:
                stop = (bisect_right if include_high else bisect_left)(keys, high)
            if start < stop:
                pieces.append(node.positions[node.starts[start]:node.starts[stop]])
            if stop < len(keys):
                break
            page_no = node.next
        if len(pieces) == 1 and isinstance(pieces[0], range):
            return pieces[0]
        return list(chain.from_iterable(pieces))

    def _leftmost_leaf(self) -> int:
        page_no = self.root
        node = self._read_node(page_no)
        while not node.is_leaf:
            page_no = node.children[0]
            node = self._read_node(page_no)
        return page_no

    def _descend_left(self, key: float) -> int:
        """Leaf page that could contain the first occurrence of *key*."""
        page_no = self.root
        node = self._read_node(page_no)
        while not node.is_leaf:
            page_no = node.children[bisect_left(node.keys, key)]
            node = self._read_node(page_no)
        return page_no

    # ------------------------------------------------------------------
    # Node I/O (all page access funnels through the pool)
    # ------------------------------------------------------------------
    def _read_node(self, page_no: int) -> _Node:
        """The node on *page_no*, decoded once while its frame is resident."""
        frame = self.pool.pin(self.file_id, page_no)
        try:
            node = frame.decoded
            if node is None:
                node = frame.decoded = _decode(frame.data)
        except (struct.error, StorageError) as exc:
            raise StorageError(
                f"{self.file_id}: corrupt node on page {page_no} ({exc})"
            ) from exc
        finally:
            self.pool.unpin(frame)
        return node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BPlusTree({self.file_id!r}, root={self.root})"
