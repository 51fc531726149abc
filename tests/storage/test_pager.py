"""Pager page I/O and the LRU buffer pool: counters, eviction, write-back."""

import pytest

from repro.errors import StorageError
from repro.storage import BufferPool, Pager
from repro.storage.pager import MIN_PAGE_SIZE


def make_pager(tmp_path, name="data.pg", page_size=64, pages=0):
    pager = Pager(str(tmp_path / name), page_size, create=True)
    for _ in range(pages):
        pager.allocate()
    return pager


class TestPager:
    def test_allocate_and_roundtrip(self, tmp_path):
        pager = make_pager(tmp_path)
        assert pager.page_count == 0
        assert pager.allocate() == 0
        assert pager.allocate() == 1
        payload = bytes(range(64))
        pager.write_page(1, payload)
        assert bytes(pager.read_page(1)) == payload
        assert bytes(pager.read_page(0)) == bytes(64)
        pager.close()

    def test_reopen_existing_file(self, tmp_path):
        pager = make_pager(tmp_path, pages=3)
        pager.write_page(2, b"x" * 64)
        pager.sync()
        pager.close()
        reopened = Pager(str(tmp_path / "data.pg"), 64)
        assert reopened.page_count == 3
        assert bytes(reopened.read_page(2)) == b"x" * 64
        reopened.close()

    def test_torn_file_is_rejected(self, tmp_path):
        pager = make_pager(tmp_path, pages=2)
        pager.close()
        path = tmp_path / "data.pg"
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(StorageError, match="torn write"):
            Pager(str(path), 64)

    def test_page_size_floor(self, tmp_path):
        with pytest.raises(StorageError, match="below minimum"):
            Pager(str(tmp_path / "tiny.pg"), MIN_PAGE_SIZE - 1, create=True)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="cannot open"):
            Pager(str(tmp_path / "absent.pg"), 64)

    def test_out_of_range_read(self, tmp_path):
        pager = make_pager(tmp_path, pages=1)
        with pytest.raises(StorageError, match="out of range"):
            pager.read_page(1)
        pager.close()

    def test_write_wrong_size(self, tmp_path):
        pager = make_pager(tmp_path, pages=1)
        with pytest.raises(StorageError, match="page write"):
            pager.write_page(0, b"short")
        pager.close()

    def test_write_cannot_leave_a_hole(self, tmp_path):
        pager = make_pager(tmp_path, pages=1)
        with pytest.raises(StorageError, match="hole"):
            pager.write_page(5, bytes(64))
        pager.close()


class TestBufferPool:
    def test_hits_and_misses(self, tmp_path):
        pager = make_pager(tmp_path, pages=2)
        pool = BufferPool(4)
        pool.register("f", pager)
        frame = pool.pin("f", 0)
        pool.unpin(frame)
        frame = pool.pin("f", 0)
        pool.unpin(frame)
        frame = pool.pin("f", 1)
        pool.unpin(frame)
        assert pool.stats["hits"] == 1
        assert pool.stats["misses"] == 2
        assert pool.hit_rate() == pytest.approx(1 / 3)
        pager.close()

    def test_lru_eviction_order(self, tmp_path):
        pager = make_pager(tmp_path, pages=3)
        pool = BufferPool(2)
        pool.register("f", pager)
        for page_no in (0, 1):
            pool.unpin(pool.pin("f", page_no))
        pool.unpin(pool.pin("f", 0))  # touch 0: page 1 is now LRU
        pool.unpin(pool.pin("f", 2))  # faults in, evicting page 1
        assert pool.stats["evictions"] == 1
        assert pool.resident == 2
        pool.unpin(pool.pin("f", 0))  # still resident
        assert pool.stats["hits"] == 2
        pool.unpin(pool.pin("f", 1))  # was evicted: a miss
        assert pool.stats["misses"] == 4
        pager.close()

    def test_capacity_is_a_hard_ceiling(self, tmp_path):
        pager = make_pager(tmp_path, pages=10)
        pool = BufferPool(3)
        pool.register("f", pager)
        for page_no in range(10):
            pool.unpin(pool.pin("f", page_no))
        assert pool.resident <= 3
        assert pool.stats["max_resident"] <= 3
        assert pool.stats["evictions"] == 7
        pager.close()

    def test_pinned_frames_survive_eviction(self, tmp_path):
        pager = make_pager(tmp_path, pages=4)
        pool = BufferPool(2)
        pool.register("f", pager)
        held = pool.pin("f", 0)
        for page_no in (1, 2, 3):
            pool.unpin(pool.pin("f", page_no))
        assert ("f", 0) in pool._frames
        pool.unpin(held)
        pager.close()

    def test_all_pinned_raises(self, tmp_path):
        pager = make_pager(tmp_path, pages=3)
        pool = BufferPool(2)
        pool.register("f", pager)
        a = pool.pin("f", 0)
        b = pool.pin("f", 1)
        with pytest.raises(StorageError, match="all 2 frames pinned"):
            pool.pin("f", 2)
        pool.unpin(a)
        pool.unpin(b)
        pager.close()

    def test_dirty_frames_written_back_on_eviction(self, tmp_path):
        pager = make_pager(tmp_path, pages=3)
        pool = BufferPool(1)
        pool.register("f", pager)
        frame = pool.pin("f", 0)
        frame.data[:4] = b"MARK"
        pool.unpin(frame, dirty=True)
        pool.unpin(pool.pin("f", 1))  # evicts page 0, forcing write-back
        assert pool.stats["writebacks"] == 1
        assert bytes(pager.read_page(0)[:4]) == b"MARK"
        pager.close()

    def test_flush_writes_dirty_frames_in_place(self, tmp_path):
        pager = make_pager(tmp_path, pages=1)
        pool = BufferPool(2)
        pool.register("f", pager)
        frame = pool.pin("f", 0)
        frame.data[:2] = b"OK"
        pool.unpin(frame, dirty=True)
        pool.flush()
        assert bytes(pager.read_page(0)[:2]) == b"OK"
        assert pool.resident == 1  # flush does not evict
        pager.close()

    def test_flush_names_the_files_written_since_the_last_flush(self, tmp_path):
        pool = BufferPool(1)
        pagers = {}
        for name in ("a", "b", "c"):
            pagers[name] = make_pager(tmp_path, name=f"{name}.pg", pages=2)
            pool.register(name, pagers[name])
        assert pool.flush() == set()
        frame = pool.pin("a", 0)
        pool.unpin(frame, dirty=True)
        pool.unpin(pool.pin("c", 0))  # evicts a:0, writing it back
        frame = pool.pin("b", 1)
        pool.unpin(frame, dirty=True)
        assert pool.flush() == {"a", "b"}  # an eviction's write, and its own
        assert pool.flush() == set()
        for pager in pagers.values():
            pager.close()

    def test_unpin_of_unpinned_raises(self, tmp_path):
        pager = make_pager(tmp_path, pages=1)
        pool = BufferPool(2)
        pool.register("f", pager)
        frame = pool.pin("f", 0)
        pool.unpin(frame)
        with pytest.raises(StorageError, match="unpin"):
            pool.unpin(frame)
        pager.close()

    def test_unregistered_file_raises(self):
        pool = BufferPool(2)
        with pytest.raises(StorageError, match="no pager registered"):
            pool.pin("ghost", 0)

    def test_counters_snapshot(self, tmp_path):
        pager = make_pager(tmp_path, pages=2)
        pool = BufferPool(2)
        pool.register("f", pager)
        assert pool.hit_rate() is None
        pool.unpin(pool.pin("f", 0))
        counters = pool.counters()
        assert counters["capacity"] == 2
        assert counters["resident"] == 1
        assert counters["pinned"] == 0
        assert counters["pins"] == counters["unpins"] == 1
        pager.close()

    def test_pinned_count_tracks_the_frames(self, tmp_path):
        """``pinned`` / ``max_pinned`` are kept incrementally; they must
        read what a recount over the resident frames reads."""
        pager = make_pager(tmp_path, pages=4)
        pool = BufferPool(3)
        pool.register("f", pager)

        def recount():
            return sum(1 for frame in pool._frames.values() if frame.pins)

        a = pool.pin("f", 0)
        again = pool.pin("f", 0)  # a second pin of a pinned frame
        b = pool.pin("f", 1)
        assert pool.pinned == recount() == 2
        pool.unpin(again)
        assert pool.pinned == recount() == 2
        pool.unpin(a)
        assert pool.pinned == recount() == 1
        fresh = pool.new_page("f")
        assert pool.pinned == recount() == 2
        pool.unpin(pool.pin("f", 2))  # evicts the unpinned page 0
        assert pool.pinned == recount() == 2
        assert pool.stats["max_pinned"] == 3
        pool.drop_file("f")  # drops b and fresh while pinned
        assert pool.pinned == recount() == 0
        pool.unpin(b)
        pool.unpin(fresh)
        assert pool.pinned == 0
        assert pool.counters()["max_pinned"] == 3
        pager.close()

    def test_dirty_unpin_drops_what_was_decoded(self, tmp_path):
        pager = make_pager(tmp_path, pages=1)
        pool = BufferPool(1)
        pool.register("f", pager)
        frame = pool.pin("f", 0)
        frame.decoded = ["rows"]
        pool.unpin(frame)
        assert pool.pin("f", 0).decoded == ["rows"]
        pool.unpin(frame, dirty=True)
        assert frame.decoded is None
        pager.close()

    def test_capacity_floor(self):
        with pytest.raises(StorageError, match="capacity"):
            BufferPool(0)
