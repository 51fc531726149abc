"""Static hash index: probes, duplicate values, overflow chains."""

import pytest

from repro.errors import StorageError
from repro.storage import BufferPool, HashFile, Pager
from repro.storage.hashindex import hash_key

PAGE = 64  # a 6-byte bucket header, then 58 bytes of entries


def open_index(tmp_path, items, page_size=PAGE, name="ix.hash"):
    path = str(tmp_path / name)
    groups = {}
    for value, position in items:
        groups.setdefault(value, []).append(position)
    buckets = HashFile.build(path, groups, page_size)
    pool = BufferPool(8)
    pool.register(name, Pager(path, page_size))
    return HashFile(pool, name, buckets)


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

    def test_empty_index(self, tmp_path):
        index = open_index(tmp_path, [])
        assert index.buckets >= 1
        assert index.positions("anything") == set()

    def test_bucket_count_outside_the_file(self, tmp_path):
        # the manifest names the bucket count; more buckets than the
        # file has pages, or none, is refused before any page is read
        path = tmp_path / "ix.hash"
        HashFile.build(str(path), {"a": [0], "b": [1]}, PAGE)
        pool = BufferPool(4)
        pager = Pager(str(path), PAGE)
        pool.register("ix.hash", pager)
        for buckets in (0, pager.page_count + 1):
            with pytest.raises(StorageError, match="buckets"):
                HashFile(pool, "ix.hash", buckets)
        pager.close()

    def test_hash_key_is_stable(self):
        assert hash_key("abc") == hash_key("abc")
        assert hash_key("abc") != hash_key("abd")
