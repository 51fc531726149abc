"""A paged B+-tree mapping float keys to row positions.

This is the disk counterpart of
:class:`~repro.relational.index.NumericIndex`: keys are the
``float(value)`` of INT/FLOAT column values, values are dense row
positions.  Duplicate keys are first-class (a selective column still has
many rows per value), so probes return *lists* of positions.

Layout (one page file, accessed through the buffer pool):

* page 0 — meta: magic, root page number;
* every other page — a node::

      [type: u8][n: u16][next: u32]   header, 7 bytes
      leaf:     n * key f64, then n * position u32
      internal: n * key f64, then (n + 1) * child u32

  Leaves are chained through ``next`` (``NO_PAGE`` terminates), so
  duplicates and ranges that span leaves are a forward walk.

Search descends with ``bisect_left`` (landing on the leftmost leaf that
can hold a key); insert descends with ``bisect_right`` (equal keys go to
the right), splitting full nodes bottom-up and growing a new root when
the old one splits.  :meth:`BPlusTree.bulk_build` packs sorted pairs
into full leaves and builds the internal levels in one bottom-up pass —
that is the materializer's path; :meth:`BPlusTree.insert` is the path
of rows appended afterwards
(:meth:`repro.storage.engine.StorageEngine.append`): positions ascend,
so equal keys stay in position order, as a bulk build leaves them.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.pager import BufferPool

__all__ = ["BPlusTree", "NO_PAGE"]

NO_PAGE = 0xFFFFFFFF

_META = struct.Struct("<4sI")
_MAGIC = b"BPT1"
_NODE_HEADER = struct.Struct("<BHI")
_KEY = struct.Struct("<d")
_PTR = struct.Struct("<I")
_LEAF, _INTERNAL = 0, 1


class _Node:
    """A node decoded into Python lists (re-encoded on write)."""

    __slots__ = ("is_leaf", "keys", "values", "children", "next")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: List[float] = []
        self.values: List[int] = []      # leaf only
        self.children: List[int] = []    # internal only
        self.next: int = NO_PAGE         # leaf only


class BPlusTree:
    """B+-tree over ``(pool, file_id)``; see module docstring."""

    def __init__(self, pool: BufferPool, file_id: str) -> None:
        self.pool = pool
        self.file_id = file_id
        page_size = pool.pager(file_id).page_size
        self.leaf_capacity = (page_size - _NODE_HEADER.size) // (
            _KEY.size + _PTR.size
        )
        self.internal_capacity = (
            page_size - _NODE_HEADER.size - _PTR.size
        ) // (_KEY.size + _PTR.size)
        if min(self.leaf_capacity, self.internal_capacity) < 2:
            raise StorageError(
                f"page size {page_size} too small for a B+-tree node"
            )
        self._root = self._read_meta()

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
        tree.pool = pool
        tree.file_id = file_id
        page_size = pool.pager(file_id).page_size
        tree.leaf_capacity = (page_size - _NODE_HEADER.size) // (
            _KEY.size + _PTR.size
        )
        tree.internal_capacity = (
            page_size - _NODE_HEADER.size - _PTR.size
        ) // (_KEY.size + _PTR.size)
        if min(tree.leaf_capacity, tree.internal_capacity) < 2:
            raise StorageError(
                f"page size {page_size} too small for a B+-tree node"
            )
        root = _Node(is_leaf=True)
        if tree._write_new(root) != 1:  # pragma: no cover - fresh file
            raise StorageError(f"{file_id}: root page is not page 1")
        tree._root = 1
        return tree

    @classmethod
    def bulk_build(
        cls,
        pool: BufferPool,
        file_id: str,
        items: Iterable[Tuple[float, int]],
    ) -> "BPlusTree":
        """Build from *items* sorted by key (ties in any order)."""
        tree = cls.create(pool, file_id)
        fill = tree.leaf_capacity
        # Fill the (already written, empty) root leaf first, then chain.
        leaves: List[Tuple[int, float]] = []  # (page_no, first_key)
        node = _Node(is_leaf=True)
        page_no = tree._root
        last_key: Optional[float] = None
        for key, value in items:
            if last_key is not None and key < last_key:
                raise StorageError("bulk_build requires keys in sorted order")
            last_key = key
            if len(node.keys) == fill:
                fresh = _Node(is_leaf=True)
                node.next = tree._reserve()
                tree._write_at(page_no, node)
                leaves.append((page_no, node.keys[0]))
                page_no, node = node.next, fresh
            node.keys.append(key)
            node.values.append(value)
        tree._write_at(page_no, node)
        if node.keys or not leaves:
            leaves.append((page_no, node.keys[0] if node.keys else 0.0))
        tree._build_internal_levels(leaves)
        return tree

    def _build_internal_levels(self, level: List[Tuple[int, float]]) -> None:
        """Bottom-up parent construction; updates the meta root pointer."""
        fan_out = self.internal_capacity + 1
        while len(level) > 1:
            parents: List[Tuple[int, float]] = []
            for start in range(0, len(level), fan_out):
                group = level[start:start + fan_out]
                if len(group) == 1 and parents:
                    # Avoid a one-child parent: fold into the previous
                    # group by stealing its last child (the previous
                    # parent stays in the level, one child lighter).
                    prev_no = parents[-1][0]
                    prev = self._read_node(prev_no)
                    group = [
                        (prev.children.pop(), prev.keys.pop())
                    ] + group
                    self._write_at(prev_no, prev)
                node = _Node(is_leaf=False)
                node.children = [page_no for page_no, _ in group]
                node.keys = [first_key for _, first_key in group[1:]]
                parents.append((self._write_new(node), group[0][1]))
            level = parents
        self._set_root(level[0][0])

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def search_eq(self, key: float) -> List[int]:
        """All positions stored under exactly *key*."""
        return list(self._walk(key, key))

    def search_range(
        self,
        low: Optional[float] = None,
        high: Optional[float] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[int]:
        """Positions with ``low <= key <= high`` (bounds optional, open
        with ``include_* = False``)."""
        return list(self._walk(low, high, include_low, include_high))

    def items(self) -> Iterator[Tuple[float, int]]:
        """Every (key, position) pair in key order — the leaf chain."""
        page_no = self._leftmost_leaf()
        while page_no != NO_PAGE:
            node = self._read_node(page_no)
            yield from zip(node.keys, node.values)
            page_no = node.next

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def _walk(
        self,
        low: Optional[float],
        high: Optional[float],
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        if low is None:
            page_no = self._leftmost_leaf()
        else:
            page_no = self._descend_left(low)
        while page_no != NO_PAGE:
            node = self._read_node(page_no)
            for key, value in zip(node.keys, node.values):
                if low is not None:
                    if key < low or (not include_low and key == low):
                        continue
                if high is not None:
                    if key > high or (not include_high and key == high):
                        return
                yield value
            page_no = node.next

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
    # Incremental insert
    # ------------------------------------------------------------------
    def insert(self, key: float, value: int) -> None:
        """Insert one pair, splitting full nodes bottom-up."""
        path: List[Tuple[int, int]] = []  # (page_no, child index taken)
        page_no = self._root
        node = self._read_node(page_no)
        while not node.is_leaf:
            index = bisect_right(node.keys, key)
            path.append((page_no, index))
            page_no = node.children[index]
            node = self._read_node(page_no)

        at = bisect_right(node.keys, key)
        node.keys.insert(at, key)
        node.values.insert(at, value)
        if len(node.keys) <= self.leaf_capacity:
            self._write_at(page_no, node)
            return

        # Split the leaf; then propagate while parents overflow.
        promoted, right_no = self._split_leaf(page_no, node)
        while path:
            parent_no, index = path.pop()
            parent = self._read_node(parent_no)
            parent.keys.insert(index, promoted)
            parent.children.insert(index + 1, right_no)
            if len(parent.keys) <= self.internal_capacity:
                self._write_at(parent_no, parent)
                return
            promoted, right_no = self._split_internal(parent_no, parent)

        # Whatever just split with an empty path was the old root.
        root = _Node(is_leaf=False)
        root.keys = [promoted]
        root.children = [self._root, right_no]
        self._set_root(self._write_new(root))

    def _split_leaf(self, page_no: int, node: _Node) -> Tuple[float, int]:
        half = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys, node.keys = node.keys[half:], node.keys[:half]
        right.values, node.values = node.values[half:], node.values[:half]
        right.next, node.next = node.next, self._reserve()
        right_no = node.next
        self._write_at(right_no, right)
        self._write_at(page_no, node)
        return right.keys[0], right_no

    def _split_internal(self, page_no: int, node: _Node) -> Tuple[float, int]:
        half = len(node.keys) // 2
        promoted = node.keys[half]
        right = _Node(is_leaf=False)
        right.keys = node.keys[half + 1:]
        right.children = node.children[half + 1:]
        node.keys = node.keys[:half]
        node.children = node.children[:half + 1]
        right_no = self._write_new(right)
        self._write_at(page_no, node)
        return promoted, right_no

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
        """Allocate a page now, to be filled by a later :meth:`_write_at`."""
        frame = self.pool.new_page(self.file_id)
        page_no = frame.page_no
        self.pool.unpin(frame, dirty=True)
        return page_no

    def _read_node(self, page_no: int) -> _Node:
        frame = self.pool.pin(self.file_id, page_no)
        try:
            data = frame.data
            kind, count, nxt = _NODE_HEADER.unpack_from(data, 0)
            node = _Node(is_leaf=(kind == _LEAF))
            offset = _NODE_HEADER.size
            node.keys = list(struct.unpack_from(f"<{count}d", data, offset))
            offset += count * _KEY.size
            if node.is_leaf:
                node.next = nxt
                node.values = list(struct.unpack_from(f"<{count}I", data, offset))
            else:
                node.children = list(
                    struct.unpack_from(f"<{count + 1}I", data, offset)
                )
        finally:
            self.pool.unpin(frame)
        return node

    def _encode(self, node: _Node, data: bytearray) -> None:
        data[:] = bytes(len(data))
        kind = _LEAF if node.is_leaf else _INTERNAL
        _NODE_HEADER.pack_into(data, 0, kind, len(node.keys), node.next)
        offset = _NODE_HEADER.size
        struct.pack_into(f"<{len(node.keys)}d", data, offset, *node.keys)
        offset += len(node.keys) * _KEY.size
        pointers = node.values if node.is_leaf else node.children
        struct.pack_into(f"<{len(pointers)}I", data, offset, *pointers)

    def _write_at(self, page_no: int, node: _Node) -> None:
        frame = self.pool.pin(self.file_id, page_no)
        try:
            self._encode(node, frame.data)
        finally:
            self.pool.unpin(frame, dirty=True)

    def _write_new(self, node: _Node) -> int:
        frame = self.pool.new_page(self.file_id)
        try:
            self._encode(node, frame.data)
        finally:
            page_no = frame.page_no
            self.pool.unpin(frame, dirty=True)
        return page_no

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BPlusTree({self.file_id!r}, root={self._root})"
