"""Static hash index: probes, duplicate values, overflow chains."""

import pytest

from repro.errors import StorageError
from repro.storage import BufferPool, HashFile, Pager
from repro.storage.hashindex import hash_key

PAGE = 64  # a 6-byte bucket header, then 58 bytes of entries


def open_index(tmp_path, items, page_size=PAGE, name="ix.hash"):
    path = str(tmp_path / name)
    buckets = HashFile.build(path, items, page_size)
    pool = BufferPool(8)
    pool.register(name, Pager(path, page_size))
    index = HashFile(pool, name)
    assert index.buckets == buckets
    return index


class TestHashFile:
    def test_point_probes(self, tmp_path):
        items = [(f"value-{i}", i) for i in range(30)]
        index = open_index(tmp_path, items)
        for value, position in items:
            assert position in index.positions(value)
        assert index.positions("value-0") == {0}

    def test_absent_value(self, tmp_path):
        index = open_index(tmp_path, [("present", 0)])
        assert index.positions("absent") == set()

    def test_duplicates_force_overflow_chains(self, tmp_path):
        # one value's 300 positions (two bytes each) are one entry too
        # long for a page: it continues down the bucket's chain
        items = [("dup", i) for i in range(300)] + [("other", 99)]
        index = open_index(tmp_path, items)
        assert index.buckets == 2  # never more than the distinct values
        assert index.pool.pager(index.file_id).page_count > 1 + 600 // PAGE
        assert index.positions("dup") == set(range(300))
        assert index.positions("other") == {99}

    def test_insert_fills_the_last_page_then_links_a_new_one(self, tmp_path):
        # one bucket: an entry is 11 bytes plus a byte per position, so
        # the "dup" and "other" entries fill the page's 58 bytes at 36
        # positions; the 37th links an overflow page.  Probes see each
        # pair as soon as it is in
        index = open_index(tmp_path, [("dup", 0)])
        assert index.buckets == 1
        pages = index.pool.pager(index.file_id)
        assert pages.page_count == 2  # meta + the one bucket
        for position in range(1, 61):
            index.insert("dup" if position % 2 else "other", position)
            assert index.positions("dup") == {0, *range(1, position + 1, 2)}
            assert pages.page_count == (2 if position < 36 else 3)
        assert index.positions("other") == set(range(2, 61, 2))

    def test_insert_needs_one_frame(self, tmp_path):
        path = str(tmp_path / "one.hash")
        HashFile.build(path, [("a", 0)], PAGE)
        pool = BufferPool(1)
        pool.register("one.hash", Pager(path, PAGE))
        index = HashFile(pool, "one.hash")
        for position in range(1, 30):
            index.insert("a", position)
        assert index.positions("a") == set(range(30))
        assert pool.stats["max_resident"] == 1

    def test_empty_index(self, tmp_path):
        index = open_index(tmp_path, [])
        assert index.buckets >= 1
        assert index.positions("anything") == set()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.hash"
        pager = Pager(str(path), PAGE, create=True)
        pager.allocate()
        pager.close()
        pool = BufferPool(4)
        pool.register("junk.hash", Pager(str(path), PAGE))
        with pytest.raises(StorageError, match="magic"):
            HashFile(pool, "junk.hash")

    def test_hash_key_is_stable(self):
        assert hash_key("abc") == hash_key("abc")
        assert hash_key("abc") != hash_key("abd")
