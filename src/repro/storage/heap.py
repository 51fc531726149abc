"""Heap files: a relation's rows in column-wise pages, read through the pool.

A heap file is bulk-built by a materialization (:func:`build_heap`) and
grown in place when its table is appended to (:meth:`HeapFile.append`);
an update or delete has no in-place path and rebuilds it.  Both writers
pack pages with the same :func:`_pack`, so an appended file is byte for
byte the file a rebuild would write.  The unit of work on the read path
is one column of one page: :meth:`HeapFile._page` pins a frame, decodes
**only the columns asked for** (:func:`~repro.storage.page.
decode_columns` walks past the other minipages by their length bytes)
and leaves them **on the frame**, so they live exactly as long as the page is resident —
the pool's page budget bounds decoded data too, and there is no second
cache.  A column another statement asks for later is decoded then, into
the same frame.

* ``heap.columns(indexes)`` — what a sequential scan calls: the named
  columns of every row as plain lists, one page pinned at a time;
* ``heap.columns(indexes, sorted_positions)`` — what an index-started
  scan calls: the positions are walked page by page, so each page
  touched is searched for, pinned and decoded once however many of its
  rows are wanted;
* ``heap.row(pos)`` / ``heap.scan()`` and the lazy :class:`HeapRows`
  sequence over them — whole rows, for everything that is not the
  executor (statistics, index fallbacks, tests): a point read
  binary-searches the per-page row counts and builds the one tuple, a
  scan zips one page's columns at a time;
* ``len(heap)`` — from the per-page row counts, no I/O.

Row *positions* are the same dense 0..n-1 insertion-order positions the
in-memory indexes use, so position sets computed by the disk indexes
plug straight into the executor's index-scan machinery
(:class:`~repro.relational.scan.TableScan`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.relational.schema import RelationSchema
from repro.storage.page import PageFill, decode_columns, encode_page
from repro.storage.pager import BufferPool, Pager

__all__ = ["HeapFile", "HeapRows", "build_heap"]

Row = Tuple[Any, ...]


def build_heap(
    path: str,
    schema: RelationSchema,
    rows: Iterable[Sequence[Any]],
    page_size: int,
) -> List[int]:
    """Write *rows* into a fresh heap file; returns rows-per-page.

    The build path writes pages sequentially through a private
    :class:`Pager` (no pool: nothing is re-read during a build, caching
    would only evict pages the serving side wants).
    """
    pager = Pager(path, page_size, create=True)
    try:
        page_counts: List[int] = []
        for page in _pack(PageFill(schema, page_size), rows):
            pager.write_page(pager.page_count, encode_page(page, schema, page_size))
            page_counts.append(len(page))
        pager.sync()
    finally:
        pager.close()
    return page_counts


def _pack(fill: PageFill, rows: Iterable[Sequence[Any]]) -> Iterator[List[Row]]:
    """Pack *rows* into pages after whatever *fill* already holds, each
    page as full as it gets; yields every page's rows, the last one
    possibly partial."""
    for row in rows:
        if fill.add(row):
            continue
        if fill.rows:
            yield fill.rows
            fill.reset()
            if fill.add(row):
                continue
        raise StorageError(
            f"{fill.schema.name}: record does not fit a blank page"
        )
    if fill.rows:
        yield fill.rows


class HeapFile:
    """Handle for one materialized relation: reads, and appends."""

    def __init__(
        self,
        pool: BufferPool,
        file_id: str,
        schema: RelationSchema,
        page_counts: Sequence[int],
    ) -> None:
        self.pool = pool
        self.file_id = file_id
        self.schema = schema
        self.page_counts = list(page_counts)
        # cumulative[i] == first row position on page i+1
        self._cumulative = list(accumulate(self.page_counts))
        self.row_count = self._cumulative[-1] if self._cumulative else 0

    @property
    def page_count(self) -> int:
        return len(self.page_counts)

    @property
    def rows(self) -> "HeapRows":
        return HeapRows(self)

    def _page(self, page_no: int, indexes: Sequence[int]) -> List[List[Any]]:
        """The columns *indexes* of one page, each decoded at most once
        while the page stays resident: the frame keeps ``{column index:
        values}``."""
        frame = self.pool.pin(self.file_id, page_no)
        try:
            decoded = frame.decoded
            if decoded is None:
                decoded = frame.decoded = {}
            missing = [index for index in indexes if index not in decoded]
            if missing or not decoded:
                rows, columns = decode_columns(frame.data, self.schema, missing)
                if rows != self.page_counts[page_no]:
                    raise StorageError(
                        f"{self.schema.name}: page {page_no} holds "
                        f"{rows} rows, manifest says "
                        f"{self.page_counts[page_no]}"
                    )
                decoded.update(columns)
            return [decoded[index] for index in indexes]
        finally:
            self.pool.unpin(frame)

    def _page_rows(self, page_no: int) -> Iterator[Row]:
        return zip(*self._page(page_no, range(len(self.schema.columns))))

    def _locate(self, position: int) -> Tuple[int, int, int]:
        """``(page, its first position, the first position beyond it)``
        for the page owning dense *position*."""
        page_no = bisect_right(self._cumulative, position)
        first = self._cumulative[page_no - 1] if page_no else 0
        return page_no, first, self._cumulative[page_no]

    def row(self, position: int) -> Row:
        """The row at dense *position* (one page pin)."""
        if not (0 <= position < self.row_count):
            raise StorageError(
                f"{self.schema.name}: row position {position} out of range "
                f"(0..{self.row_count - 1})"
            )
        page_no, first, _ = self._locate(position)
        page = self._page(page_no, range(len(self.schema.columns)))
        return tuple(column[position - first] for column in page)

    def columns(
        self, indexes: Sequence[int], positions: Optional[Sequence[int]] = None
    ) -> List[List[Any]]:
        """The columns at *indexes* as lists of one length: of every
        row, or of the rows at ascending *positions* — each owning page
        pinned once, and only the named minipages decoded."""
        out: List[List[Any]] = [[] for _ in indexes]
        if not out:
            return out
        if positions is None:
            for page_no in range(self.page_count):
                for vector, column in zip(out, self._page(page_no, indexes)):
                    vector += column
            return out
        if not positions:
            return out
        if positions[0] < 0 or positions[-1] >= self.row_count:
            raise StorageError(
                f"{self.schema.name}: row positions {positions[0]}.."
                f"{positions[-1]} out of range (0..{self.row_count - 1})"
            )
        start = 0
        while start < len(positions):
            page_no, first, end = self._locate(positions[start])
            stop = bisect_left(positions, end, start)
            offsets = [position - first for position in positions[start:stop]]
            for vector, column in zip(out, self._page(page_no, indexes)):
                vector += map(column.__getitem__, offsets)
            start = stop
        return out

    def append(self, rows: Iterable[Sequence[Any]]) -> None:
        """Add *rows* after the last one: the last page is re-encoded
        with as many of them as still fit, the rest fill new pages.  The
        pages are written through the pool (dirty frames); making them
        durable is the caller's flush and sync."""
        page_size = self.pool.pager(self.file_id).page_size
        fill = PageFill(self.schema, page_size)
        page_no = max(self.page_count - 1, 0)
        if self.page_counts:
            for row in self._page_rows(page_no):
                fill.add(row)  # they fit: they came off one page
        for page in _pack(fill, rows):
            data = encode_page(page, self.schema, page_size)
            if page_no < self.page_count:
                frame = self.pool.pin(self.file_id, page_no)
                self.page_counts[page_no] = len(page)
            else:
                frame = self.pool.new_page(self.file_id)
                self.page_counts.append(len(page))
            frame.data[:] = data
            self.pool.unpin(frame, dirty=True)
            page_no += 1
        self._cumulative = list(accumulate(self.page_counts))
        self.row_count = self._cumulative[-1] if self._cumulative else 0

    def scan(self) -> Iterator[Row]:
        """All rows in position order, one page pinned at a time."""
        return chain.from_iterable(map(self._page_rows, range(self.page_count)))

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeapFile({self.schema.name!r}, rows={self.row_count}, "
            f"pages={self.page_count})"
        )


class HeapRows(Sequence[Row]):
    """Lazy sequence view over a heap file's rows.

    Satisfies the access patterns of everything that reads a table row
    by row (``len``, integer indexing, iteration) without ever
    materializing the relation; the executor reads columns
    (:meth:`HeapFile.columns`) instead."""

    __slots__ = ("_heap",)

    def __init__(self, heap: HeapFile) -> None:
        self._heap = heap

    def __len__(self) -> int:
        return self._heap.row_count

    def __getitem__(self, position):  # type: ignore[override]
        if isinstance(position, slice):
            return [
                self._heap.row(pos)
                for pos in range(*position.indices(self._heap.row_count))
            ]
        if position < 0:
            position += self._heap.row_count
        return self._heap.row(position)

    def __iter__(self) -> Iterator[Row]:
        return self._heap.scan()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeapRows({self._heap.schema.name!r}, n={len(self)})"
