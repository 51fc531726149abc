"""A static hash index over one text column: value -> row positions.

Disk counterpart of the ``hash-eq`` seam of
:class:`~repro.relational.plan.IndexLookup` (which always probes a
single TEXT/DATE column with a string literal).  The index is built by a
materialization over the column's non-NULL values, sized for them; rows
appended afterwards go through :meth:`HashFile.insert` into their
bucket's chain, which grows by overflow pages until the next materialization
sizes the table again.  So a *static* hash table suffices — no
directories, no splits.

Layout (one page file)::

    page 0                meta: magic, bucket count B
    pages 1..B            primary bucket pages
    pages B+1..           overflow pages, chained from their bucket

    bucket page: [n: u16][next_overflow: u32]  then n entries of
                 [hash: u64][position: u32]

Entries store the full 64-bit ``blake2b`` hash of the value, not the
value itself: a probe returns every position whose stored hash matches,
which is a *superset* of the true matches on (vanishingly rare) hash
collisions.  That is sound because the compiled plan re-verifies every
candidate row against the actual predicate closure — exactly the
contract the in-memory ``NumericIndex`` already relies on.
"""

from __future__ import annotations

import struct
from hashlib import blake2b
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import StorageError
from repro.storage.pager import BufferPool, Pager

__all__ = ["HashFile", "hash_key"]

_META = struct.Struct("<4sI")
_MAGIC = b"HSH1"
_BUCKET_HEADER = struct.Struct("<HI")
_ENTRY = struct.Struct("<QI")
_NO_PAGE = 0xFFFFFFFF
#: Target fill of a primary bucket page at build time; the slack keeps
#: most chains one page long without wasting much space.
_FILL = 0.75


def hash_key(value: str) -> int:
    """Stable 64-bit hash of a text value."""
    return int.from_bytes(blake2b(value.encode("utf-8"), digest_size=8).digest(), "little")


def _entries_per_page(page_size: int) -> int:
    capacity = (page_size - _BUCKET_HEADER.size) // _ENTRY.size
    if capacity < 1:
        raise StorageError(f"page size {page_size} too small for a hash bucket")
    return capacity


class HashFile:
    """Handle over a built hash-index page file: probes, and inserts."""

    def __init__(self, pool: BufferPool, file_id: str) -> None:
        self.pool = pool
        self.file_id = file_id
        frame = pool.pin(file_id, 0)
        try:
            magic, buckets = _META.unpack_from(frame.data, 0)
        finally:
            pool.unpin(frame)
        if magic != _MAGIC:
            raise StorageError(f"{file_id}: bad hash-index magic {magic!r}")
        self.buckets = buckets
        self._capacity = _entries_per_page(pool.pager(file_id).page_size)

    # ------------------------------------------------------------------
    # Build (sequential, straight through a private pager)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        path: str,
        items: Iterable[Tuple[str, int]],
        page_size: int,
    ) -> int:
        """Write a hash file mapping each ``(value, position)`` pair;
        returns the number of primary buckets."""
        capacity = _entries_per_page(page_size)
        pairs = [(hash_key(value), position) for value, position in items]
        fill = max(1, int(capacity * _FILL))
        buckets = max(1, -(-len(pairs) // fill))  # ceil division
        chains: List[List[Tuple[int, int]]] = [[] for _ in range(buckets)]
        for hashed, position in pairs:
            chains[hashed % buckets].append((hashed, position))

        # Assign page numbers up front: primary pages are 1..buckets, each
        # bucket's overflow pages follow in bucket order.
        next_free = buckets + 1
        pages: Dict[int, bytes] = {}
        for bucket, chain in enumerate(chains):
            chunks = [
                chain[start:start + capacity]
                for start in range(0, len(chain), capacity)
            ] or [[]]
            page_nos = [bucket + 1]
            for _ in chunks[1:]:
                page_nos.append(next_free)
                next_free += 1
            for i, chunk in enumerate(chunks):
                data = bytearray(page_size)
                nxt = page_nos[i + 1] if i + 1 < len(page_nos) else _NO_PAGE
                _BUCKET_HEADER.pack_into(data, 0, len(chunk), nxt)
                offset = _BUCKET_HEADER.size
                for hashed, position in chunk:
                    _ENTRY.pack_into(data, offset, hashed, position)
                    offset += _ENTRY.size
                pages[page_nos[i]] = bytes(data)

        pager = Pager(path, page_size, create=True)
        try:
            meta = bytearray(page_size)
            _META.pack_into(meta, 0, _MAGIC, buckets)
            pager.write_page(0, bytes(meta))
            for page_no in range(1, next_free):
                pager.write_page(page_no, pages[page_no])
            pager.sync()
        finally:
            pager.close()
        return buckets

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------
    def positions(self, value: str) -> Set[int]:
        """Candidate row positions for ``column = value`` (superset on
        hash collision; callers re-verify)."""
        needle = hash_key(value)
        found: Set[int] = set()
        page_no = (needle % self.buckets) + 1
        while page_no != _NO_PAGE:
            frame = self.pool.pin(self.file_id, page_no)
            try:
                count, page_no = _BUCKET_HEADER.unpack_from(frame.data, 0)
                offset = _BUCKET_HEADER.size
                for _ in range(count):
                    hashed, position = _ENTRY.unpack_from(frame.data, offset)
                    offset += _ENTRY.size
                    if hashed == needle:
                        found.add(position)
            finally:
                self.pool.unpin(frame)
        return found

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, value: str, position: int) -> None:
        """Add one ``(value, position)`` pair at the end of its bucket's
        chain, linking a new overflow page when the last one is full.
        One page is pinned at a time."""
        hashed = hash_key(value)
        page_no = (hashed % self.buckets) + 1
        while True:
            frame = self.pool.pin(self.file_id, page_no)
            count, next_no = _BUCKET_HEADER.unpack_from(frame.data, 0)
            if count < self._capacity:
                _ENTRY.pack_into(
                    frame.data,
                    _BUCKET_HEADER.size + count * _ENTRY.size,
                    hashed,
                    position,
                )
                _BUCKET_HEADER.pack_into(frame.data, 0, count + 1, next_no)
                self.pool.unpin(frame, dirty=True)
                return
            self.pool.unpin(frame)
            if next_no == _NO_PAGE:
                break
            page_no = next_no
        fresh = self.pool.new_page(self.file_id)
        _BUCKET_HEADER.pack_into(fresh.data, 0, 1, _NO_PAGE)
        _ENTRY.pack_into(fresh.data, _BUCKET_HEADER.size, hashed, position)
        self.pool.unpin(fresh, dirty=True)
        frame = self.pool.pin(self.file_id, page_no)
        _BUCKET_HEADER.pack_into(frame.data, 0, count, fresh.page_no)
        self.pool.unpin(frame, dirty=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashFile({self.file_id!r}, buckets={self.buckets})"
