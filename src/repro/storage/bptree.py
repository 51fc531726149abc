"""A paged B+-tree mapping float keys to row positions.

This is the disk counterpart of
:class:`~repro.relational.index.NumericIndex`: keys are the
``float(value)`` of INT/FLOAT column values, values are dense row
positions.  Duplicate keys are first-class (a selective column still has
many rows per value), so probes return *lists* of positions.

Layout (one page file, accessed through the buffer pool):

* page 0 — meta: magic, root page number;
* every other page — a node::

      [type: u8][n_keys: u16][n_positions: u16][next: u32]   header, 9 bytes
      leaf:     [code: u8]  n_keys keys: signed integers of the code's
                            width (1/2/4/8 bytes), or f64 (code 0)
                [width: u8] n_keys counts       (page.pack_uints)
                [width: u8] n_positions positions
      internal: n_keys * key f64, then (n_keys + 1) * child u32

  A leaf stores each distinct key once; the positions carrying
  ``keys[i]`` are the next ``counts[i]`` of the positions array.  Keys
  are integers of the narrowest width when every key on the leaf is
  integral, not ``-0.0`` and within ±2**53, f64 otherwise.  A run of
  duplicates too long for one leaf continues on the next: leaves are
  chained through ``next`` (``NO_PAGE`` terminates), so duplicates and
  ranges that span leaves are a forward walk.

Search descends with ``bisect_left``, landing on the leftmost leaf that
can hold a key.  A tree is written once, by :meth:`BPlusTree.bulk_build`
— the materializer's path: the sorted keys and their positions, two
parallel columns, are packed a leaf at a time over the runs of equal
keys, each leaf as full as it encodes (sized in bytes), and the internal
levels are built bottom-up.  Rows appended afterwards are not inserted: the tree covers
the table's first ``indexed`` rows, and
:meth:`repro.storage.engine.StorageEngine.candidates` adds the rows past
them to every answer.  A node is decoded once per residency: the frame
keeps it (:attr:`~repro.storage.pager.Frame.decoded`).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate, groupby
from math import copysign
from operator import itemgetter, lt, sub
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.page import INT_FORMAT, int_width, pack_uints, uint_width, unpack_uints
from repro.storage.pager import BufferPool

__all__ = ["BPlusTree", "NO_PAGE"]

NO_PAGE = 0xFFFFFFFF

_META = struct.Struct("<4sI")
_MAGIC = b"BPT2"
_HEADER = struct.Struct("<BHHI")
_LEAF, _INTERNAL = 0, 1
#: a leaf's bytes besides its array values: the header and three codes
_LEAF_BASE = _HEADER.size + 3
#: key code of an f64 array; the others are signed integer widths
_F64 = 0
_KEY_FORMAT = {**INT_FORMAT, _F64: "d"}
#: every integer of at most this magnitude is exactly a float
_EXACT = float(2 ** 53)

Pair = Tuple[float, int]


def _int_key(key: float) -> bool:
    """Whether a leaf may store *key* as an integer: integral, exact, and
    not ``-0.0`` (whose sign an integer drops)."""
    return (
        -_EXACT <= key <= _EXACT
        and key == int(key)
        and bool(key or copysign(1.0, key) > 0)
    )


class _Node:
    """A decoded node, shared by every reader of its frame (writers build
    new ones).  In a leaf, ``keys[i]`` is carried by
    ``positions[starts[i]:starts[i + 1]]``; an internal node has one more
    child than keys."""

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


def _internal(entries: Sequence[Tuple[int, float]]) -> _Node:
    """The internal node over *entries*, ``(child page, its first key)``
    in key order."""
    return _Node(
        [key for _, key in entries[1:]], children=[page for page, _ in entries]
    )


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
def _encode(node: _Node) -> bytes:
    keys = node.keys
    if not node.is_leaf:
        n = len(keys)
        return _HEADER.pack(_INTERNAL, n, 0, NO_PAGE) + struct.pack(
            f"<{n}d{n + 1}I", *keys, *node.children
        )
    if all(map(_int_key, keys)):
        code = int_width(int(keys[0]), int(keys[-1])) if keys else 1
        packed_keys = struct.pack(f"<{len(keys)}{_KEY_FORMAT[code]}", *map(int, keys))
    else:
        code, packed_keys = _F64, struct.pack(f"<{len(keys)}d", *keys)
    starts = node.starts
    return b"".join((
        _HEADER.pack(_LEAF, len(keys), len(node.positions), node.next),
        bytes((code,)),
        packed_keys,
        pack_uints(list(map(sub, starts[1:], starts))),
        pack_uints(node.positions),
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
    if code not in _KEY_FORMAT:
        raise StorageError(f"unknown key width code {code}")
    keys = struct.unpack_from(f"<{n}{_KEY_FORMAT[code]}", data, offset + 1)
    counts, offset = unpack_uints(data, offset + 1 + n * (code or 8), n)
    positions, _ = unpack_uints(data, offset, n_positions)
    node = _Node.leaf(
        list(keys) if code == _F64 else list(map(float, keys)),
        counts, positions, next_no,
    )
    if node.starts[-1] != n_positions or 0 in counts:
        raise StorageError(f"{n} counts add up to {node.starts[-1]}, not {n_positions}")
    return node


def _key_bytes(keys: List[float]) -> int:
    """The bytes a leaf stores each of *keys* in: the narrowest integer
    width holding all of them when every one may be stored as an integer
    (:func:`_int_key`), else 8 (f64)."""
    if not all(map(float.is_integer, keys)):  # NaN and ±inf included
        return 8
    low, high = min(keys), max(keys)
    if low < -_EXACT or high > _EXACT:
        return 8
    if 0.0 in keys and copysign(1.0, keys[keys.index(0.0)]) < 0:
        return 8  # a leaf holds one key equal to zero: this one is -0.0
    return int_width(int(low), int(high))


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


def _packed_leaves(
    keys: Sequence[float], positions: Sequence[int], page_size: int
) -> Iterator[_Node]:
    """Leaves holding the sorted *keys* — ``keys[i]`` carried by
    ``positions[i]`` — in order, each filled with as many positions as
    fit a page before the next starts — a run of one key too, which then
    goes on in the next leaf.  The size is kept as :func:`_encode` writes
    it, from the leaf's widest key, count and position (the widest of a
    whole run, for a run cut short).

    The work is per leaf, not per key: the runs of equal keys are found
    once (``groupby``), then each leaf takes the longest stretch of whole
    runs that fits — found by galloping from the last leaf's count, each
    try sized by builtins over the stretch — and then as much of the
    next run as still fits."""
    lengths = list(map(len, map(list, map(itemgetter(1), groupby(keys)))))
    ends = list(accumulate(lengths))
    starts = [0, *ends[:-1]]
    run_keys = list(map(keys.__getitem__, starts[:len(lengths)]))
    runs = len(lengths)

    widest_of_run: Dict[int, int] = {}

    def widths(first: int, stop: int, left: int) -> Tuple[int, int, int]:
        """Key, count and position widths of a leaf holding runs
        ``first..stop-1``, of which the first has *left* positions; a
        run's position width is that of the whole run, also when the leaf
        holds only the end of it (its widest found once per run)."""
        longest = max(left, max(lengths[first + 1:stop], default=0))
        widest = widest_of_run.get(first)
        if widest is None:
            widest = widest_of_run[first] = max(positions[starts[first]:ends[first]])
        widest = max(widest, max(positions[ends[first]:ends[stop - 1]], default=0))
        return _key_bytes(run_keys[first:stop]), uint_width(longest), uint_width(widest)

    def size(first: int, stop: int, left: int) -> int:
        held = left + ends[stop - 1] - ends[first]
        least = _LEAF_BASE + 2 * (stop - first) + held  # every width at least 1
        if least > page_size:
            return least  # too many for any widths: none of them looked at
        key_bytes, count_width, position_width = widths(first, stop, left)
        return _LEAF_BASE + (stop - first) * (key_bytes + count_width) + held * position_width

    first, left = 0, lengths[0] if runs else 0
    last = 1  # whole runs the last leaf took: where the next search starts
    while first < runs:
        # the longest stretch first..fits-1 of whole runs that fits
        fits = _longest(
            lambda stop: size(first, stop, left) <= page_size, first, runs, first + last
        )
        last = max(fits - first, 1)
        stretch = run_keys[first:fits + 1]
        if any(map(lt, stretch[1:], stretch)):
            raise StorageError("bulk_build requires keys in sorted order")
        begin = starts[first] + lengths[first] - left
        end = begin + left + ends[fits - 1] - ends[first] if fits > first else begin
        counts = [left, *lengths[first + 1:fits]][:fits - first]
        if fits == runs:
            yield _Node.leaf(run_keys[first:fits], counts, positions[begin:end])
            return
        # the next run: as many of its positions as the room left holds,
        # sized with the widths of the whole run
        run_left = left if fits == first else lengths[fits]
        key_bytes, count_width, position_width = widths(first, fits + 1, left)
        room = (
            page_size - _LEAF_BASE - (fits - first + 1) * (key_bytes + count_width)
            - (end - begin) * position_width
        )
        take = min(run_left, room // position_width)
        leaf_keys = run_keys[first:fits]
        if take > 0:
            leaf_keys.append(run_keys[fits])
            counts.append(take)
            end += take
        yield _Node.leaf(leaf_keys, counts, positions[begin:end])
        first, left = fits, run_left - max(take, 0)


class BPlusTree:
    """B+-tree over ``(pool, file_id)``; see module docstring."""

    def __init__(self, pool: BufferPool, file_id: str) -> None:
        self._attach(pool, file_id)
        self._root = self._read_meta()

    def _attach(self, pool: BufferPool, file_id: str) -> None:
        self.pool = pool
        self.file_id = file_id
        self.page_size = pool.pager(file_id).page_size
        self.internal_capacity = (self.page_size - _HEADER.size - 4) // 12
        if self.internal_capacity < 2:
            raise StorageError(
                f"page size {self.page_size} too small for a B+-tree node"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, pool: BufferPool, file_id: str) -> "BPlusTree":
        """Initialize an empty tree in a freshly created page file."""
        meta = pool.new_page(file_id)
        _META.pack_into(meta.data, 0, _MAGIC, 1)
        pool.unpin(meta, dirty=True)
        tree = object.__new__(cls)
        tree._attach(pool, file_id)
        if tree._write(_Node.leaf([], [], [])) != 1:  # pragma: no cover - fresh file
            raise StorageError(f"{file_id}: root page is not page 1")
        tree._root = 1
        return tree

    @classmethod
    def bulk_build(
        cls,
        pool: BufferPool,
        file_id: str,
        keys: Sequence[float],
        positions: Sequence[int],
    ) -> "BPlusTree":
        """Build from *keys* sorted ascending, ``keys[i]`` carried by
        ``positions[i]`` (the positions of one key in any order)."""
        tree = cls.create(pool, file_id)
        leaves = _packed_leaves(keys, positions, tree.page_size)
        # Fill the (already written, empty) root leaf first, then chain.
        page_no, leaf = tree._root, next(leaves, None)
        level: List[Tuple[int, float]] = []
        while leaf is not None:
            following = next(leaves, None)
            if following is not None:
                leaf.next = tree._reserve()
            tree._write(leaf, page_no)
            level.append((page_no, leaf.keys[0]))
            page_no, leaf = leaf.next, following
        tree._build_internal_levels(level or [(tree._root, 0.0)])
        return tree

    def _build_internal_levels(self, level: List[Tuple[int, float]]) -> None:
        """Parents over *level* — ``(page, first key)`` of each node, in
        key order — up to a single root, which the meta page then names."""
        while len(level) > 1:
            level = [
                (self._write(_internal(group)), group[0][1])
                for group in _groups(level, self.internal_capacity + 1)
            ]
        self._set_root(level[0][0])

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def search_eq(self, key: float) -> List[int]:
        """All positions stored under exactly *key*."""
        return self._walk(key, key)

    def search_range(
        self,
        low: Optional[float] = None,
        high: Optional[float] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[int]:
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

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def _walk(
        self,
        low: Optional[float],
        high: Optional[float],
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[int]:
        found: List[int] = []
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
                found += node.positions[node.starts[start]:node.starts[stop]]
            if stop < len(keys):
                break
            page_no = node.next
        return found

    def _leftmost_leaf(self) -> int:
        page_no = self._root
        node = self._read_node(page_no)
        while not node.is_leaf:
            page_no = node.children[0]
            node = self._read_node(page_no)
        return page_no

    def _descend_left(self, key: float) -> int:
        """Leaf page that could contain the first occurrence of *key*."""
        page_no = self._root
        node = self._read_node(page_no)
        while not node.is_leaf:
            page_no = node.children[bisect_left(node.keys, key)]
            node = self._read_node(page_no)
        return page_no

    # ------------------------------------------------------------------
    # Node / meta I/O (all page access funnels through the pool)
    # ------------------------------------------------------------------
    def _read_meta(self) -> int:
        frame = self.pool.pin(self.file_id, 0)
        try:
            magic, root = _META.unpack_from(frame.data, 0)
        finally:
            self.pool.unpin(frame)
        if magic != _MAGIC:
            raise StorageError(
                f"{self.file_id}: bad B+-tree magic {magic!r}"
            )
        return root

    def _set_root(self, page_no: int) -> None:
        self._root = page_no
        frame = self.pool.pin(self.file_id, 0)
        try:
            _META.pack_into(frame.data, 0, _MAGIC, page_no)
        finally:
            self.pool.unpin(frame, dirty=True)

    def _reserve(self) -> int:
        """Allocate a page now, to be filled by a later write."""
        frame = self.pool.new_page(self.file_id)
        page_no = frame.page_no
        self.pool.unpin(frame, dirty=True)
        return page_no

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

    def _write(self, node: _Node, page_no: Optional[int] = None) -> int:
        """Encode *node* onto *page_no*, or onto a new page; returns the page."""
        raw = _encode(node)
        if len(raw) > self.page_size:
            raise StorageError(
                f"{self.file_id}: a {len(raw)}-byte node, page size {self.page_size}"
            )
        if page_no is None:
            frame = self.pool.new_page(self.file_id)
        else:
            frame = self.pool.pin(self.file_id, page_no)
        try:
            frame.data[:] = raw.ljust(self.page_size, b"\0")
        finally:
            self.pool.unpin(frame, dirty=True)
        return frame.page_no

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BPlusTree({self.file_id!r}, root={self._root})"
