"""A static hash index over one text column: value -> row positions.

Disk counterpart of the ``hash-eq`` seam of
:class:`~repro.relational.plan.IndexLookup` (which always probes a
single TEXT/DATE column with a string literal).  The index is built once, by a
materialization over the column's non-NULL values, and sized for them.
Rows appended afterwards are not inserted: the file covers the table's
first ``indexed`` rows, and
:meth:`repro.storage.engine.StorageEngine.candidates` adds the rows past
them to every answer.  So a *static* hash table suffices — no
directories, no splits, no inserts.

Layout (one page file; the manifest records its bucket count B, so
there is no meta page)::

    pages 0..B-1          primary bucket pages
    pages B..             overflow pages, chained from their bucket

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
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.errors import StorageError
from repro.storage.page import pack_uints, uint_width, unpack_uints
from repro.storage.pager import BufferPool, Frame, Pager

__all__ = ["HashFile", "hash_key"]

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


def hash_key(value: str) -> int:
    """Stable 64-bit hash of a text value."""
    return int.from_bytes(blake2b(value.encode("utf-8"), digest_size=8).digest(), "little")


def _entry(hashed: int, positions: Sequence[int]) -> bytes:
    return _ENTRY.pack(hashed, len(positions)) + pack_uints(positions)


def _page(entries: Entries, next_no: int, page_size: int) -> bytes:
    raw = [_BUCKET_HEADER.pack(len(entries), next_no)]
    raw += [_entry(hashed, positions) for hashed, positions in entries]
    return b"".join(raw).ljust(page_size, b"\0")


def _by_hash(groups: Mapping[str, List[int]]) -> Dict[int, List[int]]:
    """The positions of each value of *groups* under the value's hash,
    hashes in the order their first position comes; the positions of
    two values that share a hash are merged in ascending order."""
    by_hash: Dict[int, List[int]] = {}
    for value, positions in groups.items():
        hashed = hash_key(value)
        held = by_hash.get(hashed)
        by_hash[hashed] = positions if held is None else sorted(held + positions)
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
    """Handle over a built hash-index page file of *buckets* primary
    buckets: probes."""

    def __init__(self, pool: BufferPool, file_id: str, buckets: int) -> None:
        pages = pool.pager(file_id).page_count
        if not 0 < buckets <= pages:
            raise StorageError(f"{file_id}: {buckets} buckets in a {pages}-page file")
        self.pool = pool
        self.file_id = file_id
        self.buckets = buckets

    # ------------------------------------------------------------------
    # Build (sequential, straight through a private pager)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        path: str,
        groups: Mapping[str, List[int]],
        page_size: int,
    ) -> int:
        """Write a hash file mapping each value of *groups* to its
        positions (ascending; values in the order of their first
        position, as :func:`~repro.storage.materialize.positions_by_value`
        gives them); returns the number of primary buckets."""
        entries = list(_by_hash(groups).items())
        fill = int((page_size - _BUCKET_HEADER.size) * _FILL)
        needed = -(-sum(
            _ENTRY_BASE + len(positions) * uint_width(max(positions))
            for _, positions in entries
        ) // fill)
        buckets = max(1, min(len(entries), needed))
        chains: List[Entries] = [[] for _ in range(buckets)]
        for hashed, positions in entries:
            chains[hashed % buckets].append((hashed, positions))

        # Page numbers: primary pages are 0..buckets-1, each bucket's
        # overflow pages follow in bucket order.
        next_free = buckets
        pages: Dict[int, bytes] = {}
        for bucket, chain in enumerate(chains):
            laid_out = _chain(chain, page_size)
            overflow = range(next_free, next_free + len(laid_out) - 1)
            page_nos = [bucket, *overflow, _NO_PAGE]
            next_free = overflow.stop
            for page_no, contents, nxt in zip(page_nos, laid_out, page_nos[1:]):
                pages[page_no] = _page(contents, nxt, page_size)

        pager = Pager(path, page_size, create=True)
        try:
            for page_no in range(next_free):
                pager.write_page(page_no, pages[page_no])
            pager.sync()
        finally:
            pager.close()
        return buckets

    def _scan(self, frame: Frame, needle: int) -> Tuple[List[Tuple[int, int]], int]:
        """A pinned bucket page read from its entry headers alone:
        ``(count, offset)`` of each entry of hash *needle*, and the next
        overflow page."""
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
        return matches, next_no

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------
    def positions(self, value: str) -> Set[int]:
        """Candidate row positions for ``column = value`` (superset on
        hash collision; callers re-verify)."""
        needle = hash_key(value)
        found: Set[int] = set()
        page_no = needle % self.buckets
        while page_no != _NO_PAGE:
            frame = self.pool.pin(self.file_id, page_no)
            try:
                matches, page_no = self._scan(frame, needle)
                for count, offset in matches:
                    found.update(unpack_uints(frame.data, offset + _ENTRY.size, count)[0])
            finally:
                self.pool.unpin(frame)
        return found

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashFile({self.file_id!r}, buckets={self.buckets})"
