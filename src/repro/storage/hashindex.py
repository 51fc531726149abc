"""A static hash index over one text column: value -> row positions.

Disk counterpart of the ``hash-eq`` seam of
:class:`~repro.relational.plan.IndexLookup` (which always probes a
single TEXT/DATE column with a string literal).  The index is built by a
materialization over the column's non-NULL values, sized for them; rows
appended afterwards go through :meth:`HashFile.insert_many` into their
bucket's chain, which grows by overflow pages until the next materialization
sizes the table again.  So a *static* hash table suffices — no
directories, no splits.

Layout (one page file)::

    page 0                meta: magic, bucket count B
    pages 1..B            primary bucket pages
    pages B+1..           overflow pages, chained from their bucket

    bucket page: [n_entries: u16][next_overflow: u32]  then n_entries of
                 [hash: u64][n: u16][width: u8][n positions of that width]

An entry holds one hash and the positions of the rows carrying it, once
(``[width][positions]`` is :func:`~repro.storage.page.pack_uints`); an
entry too long for its page continues, as another entry of the same
hash, on the chain's next page.  The bucket count is sized by the entry
bytes of the *distinct* values at a 75% fill, and never exceeds their
number.

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
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.errors import StorageError
from repro.storage.page import pack_uints, uint_width, unpack_uints
from repro.storage.pager import BufferPool, Frame, Pager

__all__ = ["HashFile", "hash_key"]

_META = struct.Struct("<4sI")
_MAGIC = b"HSH2"
_BUCKET_HEADER = struct.Struct("<HI")
_ENTRY = struct.Struct("<QH")
#: an entry's bytes besides its positions: hash, count, width code
_ENTRY_BASE = _ENTRY.size + 1
_NO_PAGE = 0xFFFFFFFF
#: Target fill of a primary bucket page at build time; the slack keeps
#: most chains one page long without wasting much space.
_FILL = 0.75

#: what one bucket page holds: ``(hash, positions)`` entries
Entries = List[Tuple[int, List[int]]]
#: a bucket page as :meth:`HashFile._scan` reads it for one hash
Bucket = Tuple[List[Tuple[int, int]], int, int, int]


def hash_key(value: str) -> int:
    """Stable 64-bit hash of a text value."""
    return int.from_bytes(blake2b(value.encode("utf-8"), digest_size=8).digest(), "little")


def _entry(hashed: int, positions: Sequence[int]) -> bytes:
    return _ENTRY.pack(hashed, len(positions)) + pack_uints(positions)


def _page(entries: Entries, next_no: int, page_size: int) -> bytes:
    raw = [_BUCKET_HEADER.pack(len(entries), next_no)]
    raw += [_entry(hashed, positions) for hashed, positions in entries]
    return b"".join(raw).ljust(page_size, b"\0")


def _by_hash(items: Iterable[Tuple[str, int]]) -> Dict[int, List[int]]:
    """The positions of *items* by the hash of their value, each distinct
    value hashed once."""
    hashes: Dict[str, int] = {}
    by_hash: Dict[int, List[int]] = {}
    for value, position in items:
        hashed = hashes.get(value)
        if hashed is None:
            hashed = hashes[value] = hash_key(value)
        by_hash.setdefault(hashed, []).append(position)
    return by_hash


def _chain(entries: Entries, page_size: int) -> List[Entries]:
    """The pages of one bucket chain holding *entries* in order, each
    page filled before the next; an entry that does not fit what is left
    of a page puts what fits there and continues on the next."""
    pages: List[Entries] = [[]]
    room = page_size - _BUCKET_HEADER.size
    for hashed, positions in entries:
        width = uint_width(max(positions))
        while positions:
            fits = (room - _ENTRY_BASE) // width
            if fits > 0:
                piece, positions = positions[:fits], positions[fits:]
                pages[-1].append((hashed, piece))
                room -= _ENTRY_BASE + len(piece) * uint_width(max(piece))
            if positions:
                pages.append([])
                room = page_size - _BUCKET_HEADER.size
    return pages


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
        self._page_size = pool.pager(file_id).page_size

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
        entries = list(_by_hash(items).items())
        fill = int((page_size - _BUCKET_HEADER.size) * _FILL)
        needed = -(-sum(
            _ENTRY_BASE + len(positions) * uint_width(max(positions))
            for _, positions in entries
        ) // fill)
        buckets = max(1, min(len(entries), needed))
        chains: List[Entries] = [[] for _ in range(buckets)]
        for hashed, positions in entries:
            chains[hashed % buckets].append((hashed, positions))

        # Page numbers: primary pages are 1..buckets, each bucket's
        # overflow pages follow in bucket order.
        next_free = buckets + 1
        pages: Dict[int, bytes] = {}
        for bucket, chain in enumerate(chains):
            laid_out = _chain(chain, page_size)
            overflow = range(next_free, next_free + len(laid_out) - 1)
            page_nos = [bucket + 1, *overflow, _NO_PAGE]
            next_free = overflow.stop
            for page_no, contents, nxt in zip(page_nos, laid_out, page_nos[1:]):
                pages[page_no] = _page(contents, nxt, page_size)

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

    def _scan(self, frame: Frame, needle: int) -> Bucket:
        """A pinned bucket page read from its entry headers alone:
        ``(count, offset)`` of each entry of hash *needle*, the number of
        entries, the next overflow page, and the offset just past the
        entries."""
        data = frame.data
        try:
            entries, next_no = _BUCKET_HEADER.unpack_from(data, 0)
            offset = _BUCKET_HEADER.size
            matches = []
            for _ in range(entries):
                hashed, count = _ENTRY.unpack_from(data, offset)
                width = data[offset + _ENTRY.size]
                if width not in (1, 2, 4):
                    raise StorageError(f"unknown width code {width}")
                if hashed == needle:
                    matches.append((count, offset))
                offset += _ENTRY_BASE + count * width
            if offset > len(data):
                raise StorageError(f"entries run {offset - len(data)} bytes past the page")
        except (struct.error, IndexError, StorageError) as exc:
            raise StorageError(
                f"{self.file_id}: corrupt bucket page {frame.page_no} ({exc})"
            ) from exc
        return matches, entries, next_no, offset

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
                matches, _, page_no, _ = self._scan(frame, needle)
                for count, offset in matches:
                    found.update(unpack_uints(frame.data, offset + _ENTRY.size, count)[0])
            finally:
                self.pool.unpin(frame)
        return found

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, value: str, position: int) -> None:
        """Add one ``(value, position)`` pair."""
        self.insert_many([(value, position)])

    def insert_many(self, items: Iterable[Tuple[str, int]]) -> None:
        """Add ``(value, position)`` pairs, the new positions of a hash
        together: at the end of the chain's last entry of the hash if that
        entry's page still holds them, else in an entry of their own on
        the chain's last page, or on new overflow pages linked after it.
        One page is pinned at a time."""
        for hashed, positions in _by_hash(items).items():
            page_no = (hashed % self.buckets) + 1
            holder = None  # the chain's last page with an entry of *hashed*, scanned
            while True:
                frame = self.pool.pin(self.file_id, page_no)
                try:
                    bucket = self._scan(frame, hashed)
                finally:
                    self.pool.unpin(frame)
                if bucket[0]:
                    holder = page_no, bucket
                if bucket[2] == _NO_PAGE:
                    break
                page_no = bucket[2]
            if holder is not None and self._add(*holder, hashed, positions, extend=True):
                continue
            if self._add(page_no, bucket, hashed, positions, extend=False):
                continue
            next_no = _NO_PAGE
            for entries in reversed(_chain([(hashed, positions)], self._page_size)):
                fresh = self.pool.new_page(self.file_id)
                fresh.data[:] = _page(entries, next_no, self._page_size)
                self.pool.unpin(fresh, dirty=True)
                next_no = fresh.page_no
            frame = self.pool.pin(self.file_id, page_no)
            try:
                _BUCKET_HEADER.pack_into(frame.data, 0, bucket[1], next_no)
            finally:
                self.pool.unpin(frame, dirty=True)

    def _add(
        self, page_no: int, bucket: Bucket, hashed: int, positions: List[int], extend: bool
    ) -> bool:
        """Put *positions* on bucket page *page_no*, as *bucket* scanned
        it: at the end of the page's last entry of *hashed* if *extend*,
        else in an entry of their own after the others.  False, the page
        untouched, if it would overflow."""
        matches, entries, next_no, used = bucket
        frame = self.pool.pin(self.file_id, page_no)
        fits = False
        try:
            data = frame.data
            start = stop = used
            held: Sequence[int] = ()
            if extend:
                count, start = matches[-1]
                held, stop = unpack_uints(data, start + _ENTRY.size, count)
            raw = _entry(hashed, [*held, *positions])
            fits = used + len(raw) - (stop - start) <= self._page_size
            if fits:
                data[start:stop] = raw  # the entries after it move up ...
                del data[self._page_size:]  # ... into the page's unused tail
                _BUCKET_HEADER.pack_into(data, 0, entries + (not extend), next_no)
        finally:
            self.pool.unpin(frame, dirty=fits)
        return fits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashFile({self.file_id!r}, buckets={self.buckets})"
