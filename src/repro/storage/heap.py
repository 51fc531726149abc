"""Heap files: a relation's rows in column-wise pages, read through the pool.

A heap file is bulk-built by a materialization (:func:`build_heap`) and
grown in place when its table is appended to (:meth:`HeapFile.append`).
Both writers pack pages with :func:`~repro.storage.page.pack_pages`, so an appended file
is byte for byte the file a rebuild would write.  The unit of work on
the read path is one column of one page: :meth:`HeapFile._page` pins a frame, decodes
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
  scan — and a slice, such as the statistics catch-up's
  ``rows[seen:]`` — zips one page's columns at a time;
* ``len(heap)`` — from the per-page row counts, no I/O;
* ``heap.version`` — the source table's version (its row count) this
  file holds, which the executor's plans, memos and statistics are
  stamped with.

The disk tier's executor reads a heap file as its table
(:meth:`~repro.storage.engine.StorageEngine.table`), through the same
``schema``, ``rows``, ``columns``, ``version`` and ``len`` a
:class:`~repro.relational.table.Table` offers.

Row *positions* are the same dense 0..n-1 insertion-order positions the
in-memory indexes use, so position sets computed by the disk indexes
plug straight into the executor's index-scan machinery
(:class:`~repro.relational.scan.TableScan`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.relational.schema import RelationSchema
from repro.storage.page import columns_of, decode_columns, pack_pages
from repro.storage.pager import BufferPool, Pager

__all__ = ["HeapFile", "HeapRows", "build_heap"]

Row = Tuple[Any, ...]


def build_heap(
    path: str,
    schema: RelationSchema,
    rows: Iterable[Sequence[Any]],
    page_size: int,
    scales: Optional[Dict[int, Sequence[int]]] = None,
) -> List[int]:
    """Write *rows* into a fresh heap file; returns rows-per-page.
    *scales* maps FLOAT columns to their values' decimal scales, one a
    row (:func:`~repro.storage.page.column_scales`), when the caller has
    found them already.

    The build path writes pages sequentially through a private
    :class:`Pager` (no pool: nothing is re-read during a build, caching
    would only evict pages the serving side wants).
    """
    columns = columns_of(rows, schema)
    pager = Pager(path, page_size, create=True)
    try:
        page_counts: List[int] = []
        for count, data in pack_pages(schema, page_size, columns, scales):
            pager.write_page(pager.page_count, data)
            page_counts.append(count)
        pager.sync()
    finally:
        pager.close()
    return page_counts


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
    def version(self) -> int:
        """The source table's version this file holds: its row count,
        which grows with every append."""
        return self.row_count

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
        columns = columns_of(rows, self.schema)
        page_no = max(self.page_count - 1, 0)
        if self.page_counts:
            # the last page's rows go first: they came off one page
            last = self._page(page_no, range(len(self.schema.columns)))
            columns = [held + new for held, new in zip(last, columns)]
        for count, data in pack_pages(self.schema, page_size, columns):
            if page_no < self.page_count:
                frame = self.pool.pin(self.file_id, page_no)
                self.page_counts[page_no] = count
            else:
                frame = self.pool.new_page(self.file_id)
                self.page_counts.append(count)
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
            # a page at a time, however many of its rows the slice takes
            wanted = range(*position.indices(self._heap.row_count))
            ascending = wanted if wanted.step > 0 else wanted[::-1]
            every = range(len(self._heap.schema.columns))
            rows = list(zip(*self._heap.columns(every, ascending)))
            return rows if wanted.step > 0 else rows[::-1]
        if position < 0:
            position += self._heap.row_count
        return self._heap.row(position)

    def __iter__(self) -> Iterator[Row]:
        return self._heap.scan()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeapRows({self._heap.schema.name!r}, n={len(self)})"
