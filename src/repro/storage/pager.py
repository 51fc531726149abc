"""Page-granular file I/O and the LRU buffer pool.

Two layers:

* :class:`Pager` — a file of fixed-size pages.  Knows nothing about page
  contents; reads and writes whole pages at page-aligned offsets.
* :class:`BufferPool` — a fixed budget of in-memory page frames shared
  by every file of one storage engine.  Callers :meth:`~BufferPool.pin`
  a page (faulting it in on miss, evicting the least recently used
  unpinned frame when the pool is full) and :meth:`~BufferPool.unpin` it
  when done, marking it dirty if they wrote.  Dirty frames are written
  back on eviction and on :meth:`~BufferPool.flush`.

The pool never holds more than ``capacity`` frames — that is the whole
point of the subsystem, and :class:`~repro.backends.disk.DiskBackend`
asserts it after every statement.  Counters (``hits``, ``misses``,
``evictions``, ``writebacks``, ``pins``) feed the observability layer's
metrics registry via ``tracer.count`` at the backend boundary.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Dict, Optional, Set, Tuple

from repro.errors import StorageError

__all__ = ["DEFAULT_PAGE_SIZE", "MIN_PAGE_SIZE", "BufferPool", "Frame", "Pager"]

DEFAULT_PAGE_SIZE = 4096
#: Small enough that unit tests can force many pages (and B+-tree splits)
#: from tiny datasets; large enough for a heap page's header and
#: per-column bytes plus one modest row.
MIN_PAGE_SIZE = 64


class Pager:
    """Fixed-size page I/O over one binary file.

    ``create=True`` truncates/creates the file; otherwise it must exist.
    Page numbers are dense, starting at 0; :meth:`allocate` appends a
    zeroed page.
    """

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE, create: bool = False) -> None:
        if page_size < MIN_PAGE_SIZE:
            raise StorageError(
                f"page size {page_size} below minimum {MIN_PAGE_SIZE}"
            )
        self.path = str(path)
        self.page_size = page_size
        mode = "w+b" if create else "r+b"
        try:
            self._handle = open(self.path, mode)
        except OSError as exc:
            raise StorageError(f"cannot open page file {self.path}: {exc}") from exc
        if not create:
            size = os.fstat(self._handle.fileno()).st_size
            if size % page_size:
                raise StorageError(
                    f"{self.path}: size {size} is not a multiple of page "
                    f"size {page_size} (torn write?)"
                )
            self._page_count = size // page_size
        else:
            self._page_count = 0

    @property
    def page_count(self) -> int:
        return self._page_count

    def allocate(self) -> int:
        """Append a zeroed page; returns its page number."""
        page_no = self._page_count
        self.write_page(page_no, bytes(self.page_size))
        return page_no

    def read_page(self, page_no: int) -> bytearray:
        if not (0 <= page_no < self._page_count):
            raise StorageError(
                f"{self.path}: page {page_no} out of range "
                f"(0..{self._page_count - 1})"
            )
        self._handle.seek(page_no * self.page_size)
        data = self._handle.read(self.page_size)
        if len(data) != self.page_size:
            raise StorageError(
                f"{self.path}: short read of page {page_no} "
                f"({len(data)}/{self.page_size} bytes)"
            )
        return bytearray(data)

    def write_page(self, page_no: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise StorageError(
                f"{self.path}: page write of {len(data)} bytes "
                f"(page size {self.page_size})"
            )
        if page_no > self._page_count:
            raise StorageError(
                f"{self.path}: write to page {page_no} would leave a hole "
                f"(page count {self._page_count})"
            )
        self._handle.seek(page_no * self.page_size)
        self._handle.write(data)
        if page_no == self._page_count:
            self._page_count += 1

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        try:
            self._handle.flush()
        finally:
            self._handle.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Pager({self.path!r}, pages={self._page_count})"


class Frame:
    """One resident page: its bytes, pin count and dirty flag.

    ``decoded`` is the page owner's to use: whatever it decoded from
    ``data`` (a heap file keeps the page's rows there), so that decoded
    data is dropped with the frame and the pool's page budget bounds it
    too.  It is reset when the frame is unpinned dirty.
    """

    __slots__ = ("file_id", "page_no", "data", "pins", "dirty", "decoded")

    def __init__(self, file_id: str, page_no: int, data: bytearray) -> None:
        self.file_id = file_id
        self.page_no = page_no
        self.data = data
        self.pins = 0
        self.dirty = False
        self.decoded: Any = None


class BufferPool:
    """A fixed budget of page frames shared across page files.

    Frames are keyed by ``(file_id, page_no)``; the owning
    :class:`Pager` for each ``file_id`` is registered up front so the
    pool can fault pages in and write dirty ones back.  Replacement is
    LRU over *unpinned* frames; pinning a page with the pool full of
    pinned frames raises :class:`StorageError` (the page budget is a
    hard promise, not advice).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise StorageError("buffer pool needs capacity >= 1")
        self.capacity = capacity
        self._pagers: Dict[str, Pager] = {}
        # insertion/access order == recency; least recently used first
        self._frames: "OrderedDict[Tuple[str, int], Frame]" = OrderedDict()
        # resident frames with pins > 0 (eviction only takes unpinned ones)
        self._pinned = 0
        # files a write-back reached since the last flush
        self._written: Set[str] = set()
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "writebacks": 0,
            "pins": 0,
            "unpins": 0,
            "max_resident": 0,
            "max_pinned": 0,
        }

    # ------------------------------------------------------------------
    # File registration
    # ------------------------------------------------------------------
    def register(self, file_id: str, pager: Pager) -> None:
        self._pagers[file_id] = pager

    def pager(self, file_id: str) -> Pager:
        try:
            return self._pagers[file_id]
        except KeyError:
            raise StorageError(f"no pager registered for {file_id!r}") from None

    # ------------------------------------------------------------------
    # Pin / unpin
    # ------------------------------------------------------------------
    @property
    def resident(self) -> int:
        """Number of frames currently held (always <= capacity)."""
        return len(self._frames)

    @property
    def pinned(self) -> int:
        """Number of resident frames with at least one pin."""
        return self._pinned

    def pin(self, file_id: str, page_no: int) -> Frame:
        """Return the frame for a page, faulting it in if absent.

        The caller must :meth:`unpin` it exactly once.
        """
        key = (file_id, page_no)
        frame = self._frames.get(key)
        if frame is not None:
            self.stats["hits"] += 1
            self._frames.move_to_end(key)
        else:
            self.stats["misses"] += 1
            self._make_room()
            frame = Frame(file_id, page_no, self.pager(file_id).read_page(page_no))
            self._frames[key] = frame
            self.stats["max_resident"] = max(
                self.stats["max_resident"], len(self._frames)
            )
        self._count_pin(frame)
        return frame

    def _count_pin(self, frame: Frame) -> None:
        if not frame.pins:
            self._pinned += 1
            if self._pinned > self.stats["max_pinned"]:
                self.stats["max_pinned"] = self._pinned
        frame.pins += 1
        self.stats["pins"] += 1

    def new_page(self, file_id: str) -> Frame:
        """Allocate a fresh page in *file_id* and pin its (dirty) frame."""
        pager = self.pager(file_id)
        page_no = pager.allocate()
        self._make_room()
        frame = Frame(file_id, page_no, bytearray(pager.page_size))
        frame.dirty = True
        self._frames[(file_id, page_no)] = frame
        self.stats["max_resident"] = max(
            self.stats["max_resident"], len(self._frames)
        )
        self._count_pin(frame)
        return frame

    def unpin(self, frame: Frame, dirty: bool = False) -> None:
        if frame.pins <= 0:
            raise StorageError(
                f"unpin of unpinned page {frame.file_id}:{frame.page_no}"
            )
        frame.pins -= 1
        # a frame dropped while pinned (drop_file / clear) no longer counts
        if not frame.pins and self._frames.get((frame.file_id, frame.page_no)) is frame:
            self._pinned -= 1
        if dirty:
            frame.dirty = True
            frame.decoded = None
        self.stats["unpins"] += 1

    def _make_room(self) -> None:
        """Evict the LRU unpinned frame if the pool is at capacity."""
        if len(self._frames) < self.capacity:
            return
        for key, frame in self._frames.items():
            if frame.pins == 0:
                self._writeback(frame)
                del self._frames[key]
                self.stats["evictions"] += 1
                return
        raise StorageError(
            f"buffer pool exhausted: all {self.capacity} frames pinned"
        )

    def _writeback(self, frame: Frame) -> None:
        if frame.dirty:
            self.pager(frame.file_id).write_page(frame.page_no, bytes(frame.data))
            self._written.add(frame.file_id)
            frame.dirty = False
            self.stats["writebacks"] += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> Set[str]:
        """Write every dirty frame back (frames stay resident); returns
        the ids of the files written since the last flush — by this one
        or by an eviction — which are the files to sync."""
        for frame in self._frames.values():
            self._writeback(frame)
        written, self._written = self._written, set()
        return written

    def drop_file(self, file_id: str) -> None:
        """Forget every frame of one file (without write-back) and its
        pager registration — used when a file is being rebuilt."""
        self._frames = OrderedDict(
            (key, frame)
            for key, frame in self._frames.items()
            if frame.file_id != file_id
        )
        self._pinned = sum(1 for frame in self._frames.values() if frame.pins)
        self._pagers.pop(file_id, None)

    def clear(self) -> None:
        """Flush and drop every frame and registration."""
        self.flush()
        self._frames.clear()
        self._pinned = 0
        self._pagers.clear()

    def counters(self) -> Dict[str, int]:
        """A snapshot of the pool statistics plus residency."""
        snapshot = dict(self.stats)
        snapshot["resident"] = self.resident
        snapshot["pinned"] = self.pinned
        snapshot["capacity"] = self.capacity
        return snapshot

    def hit_rate(self) -> Optional[float]:
        accesses = self.stats["hits"] + self.stats["misses"]
        if not accesses:
            return None
        return self.stats["hits"] / accesses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferPool(resident={self.resident}/{self.capacity}, "
            f"hits={self.stats['hits']}, misses={self.stats['misses']})"
        )
