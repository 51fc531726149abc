"""B+-tree vs a sorted-dict oracle, at page sizes tiny enough to force
multi-level splits, with first-class duplicate keys."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import BufferPool, Pager
from repro.storage.bptree import BPlusTree

#: 64-byte pages: leaf capacity (64-7)//12 = 4, internal capacity
#: (64-11)//12 = 4 — a few dozen keys already build three levels.
TINY_PAGE = 64

#: A small key pool so random runs hit duplicates constantly.
keys = st.integers(min_value=0, max_value=12).map(float)


def bulk_build(pool, name, pairs):
    """Bulk-build from ``(key, position)`` pairs sorted by key."""
    return BPlusTree.bulk_build(
        pool, name, [key for key, _ in pairs], [position for _, position in pairs]
    )


def fresh_tree(tmp_path, name="ix.bpt", page_size=TINY_PAGE, capacity=8):
    pool = BufferPool(capacity)
    pager = Pager(str(tmp_path / name), page_size, create=True)
    pool.register(name, pager)
    return BPlusTree.bulk_build(pool, name, [], []), pager


def built_tree(tmp_path, keys_in_order, name="ix.bpt", page_size=TINY_PAGE):
    """A bulk-built tree holding each key at its index in *keys_in_order*."""
    pool = BufferPool(8)
    pager = Pager(str(tmp_path / name), page_size, create=True)
    pool.register(name, pager)
    pairs = sorted(
        ((key, value) for value, key in enumerate(keys_in_order)),
        key=lambda pair: pair[0],
    )
    return bulk_build(pool, name, pairs), pager


class Oracle:
    """The spec: a dict of key -> multiset of values."""

    def __init__(self):
        self.data = {}

    def insert(self, key, value):
        self.data.setdefault(key, []).append(value)

    def search_eq(self, key):
        return sorted(self.data.get(key, []))

    def search_range(self, low, high):
        return sorted(
            value
            for key, values in self.data.items()
            if low <= key <= high
            for value in values
        )

    def items(self):
        return [
            (key, value)
            for key in sorted(self.data)
            for value in self.data[key]
        ]


class TestAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(keys, max_size=80),
        st.tuples(keys, keys).map(sorted),
    )
    def test_range_matches_sorted_dict(self, tmp_path_factory, inserted, bounds):
        tmp_path = tmp_path_factory.mktemp("bpt")
        low, high = bounds
        tree, pager = built_tree(tmp_path, inserted)
        oracle = Oracle()
        for value, key in enumerate(inserted):
            oracle.insert(key, value)
        try:
            assert sorted(tree.search_range(low, high)) == oracle.search_range(
                low, high
            )
        finally:
            pager.close()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(keys, st.integers(0, 1000)), max_size=120))
    def test_bulk_build_equals_incremental(self, tmp_path_factory, pairs):
        tmp_path = tmp_path_factory.mktemp("bpt")
        pairs = sorted(pairs, key=lambda pair: pair[0])
        pool = BufferPool(8)
        pager = Pager(str(tmp_path / "bulk.bpt"), TINY_PAGE, create=True)
        pool.register("bulk.bpt", pager)
        tree = bulk_build(pool, "bulk.bpt", pairs)
        try:
            assert list(tree.items()) == pairs
            for key in {key for key, _ in pairs}:
                expected = sorted(v for k, v in pairs if k == key)
                assert sorted(tree.search_eq(key)) == expected
        finally:
            pager.close()


class TestEdges:
    def test_empty_tree(self, tmp_path):
        tree, pager = fresh_tree(tmp_path)
        assert tree.search_eq(1.0) == []
        assert tree.search_range() == []
        assert len(tree) == 0
        pager.close()

    def test_open_bounds_and_exclusive_ends(self, tmp_path):
        tree, pager = built_tree(tmp_path, [1.0, 2.0, 2.0, 3.0, 4.0])
        assert sorted(tree.search_range(low=3.0)) == [3, 4]
        assert sorted(tree.search_range(high=2.0)) == [0, 1, 2]
        assert sorted(tree.search_range(2.0, 4.0, include_low=False)) == [3, 4]
        assert sorted(tree.search_range(1.0, 3.0, include_high=False)) == [0, 1, 2]
        pager.close()

    def test_bulk_build_rejects_unsorted(self, tmp_path):
        pool = BufferPool(8)
        pager = Pager(str(tmp_path / "bad.bpt"), TINY_PAGE, create=True)
        pool.register("bad.bpt", pager)
        with pytest.raises(StorageError, match="sorted"):
            bulk_build(pool, "bad.bpt", [(2.0, 0), (1.0, 1)])
        pager.close()

    def test_page_too_small(self, tmp_path):
        pool = BufferPool(8)
        pager = Pager(str(tmp_path / "small.bpt"), 64, create=True)
        pool.register("small.bpt", pager)
        # 64 bytes is the floor; the constructor itself guards below it;
        # leaves are sized in bytes: the widest pair fits, and so do
        # three of them
        wide = [(-1.5, 2**32 - 1 - position) for position in range(3)]
        tree = bulk_build(pool, "small.bpt", wide)
        assert tree.internal_capacity >= 2
        assert tree.search_eq(-1.5) == [2**32 - 1, 2**32 - 2, 2**32 - 3]
        pager.close()

    def test_reopen_after_flush(self, tmp_path):
        tree, pager = built_tree(tmp_path, [5.0, 1.0, 3.0, 3.0, 2.0])
        tree.pool.flush()
        pager.sync()
        pager.close()
        pool = BufferPool(4)
        reopened_pager = Pager(str(tmp_path / "ix.bpt"), TINY_PAGE)
        pool.register("ix.bpt", reopened_pager)
        reopened = BPlusTree(pool, "ix.bpt", tree.root)
        assert sorted(reopened.search_eq(3.0)) == [2, 3]
        assert [key for key, _ in reopened.items()] == [1.0, 2.0, 3.0, 3.0, 5.0]
        reopened_pager.close()

    def test_root_outside_the_file(self, tmp_path):
        # the manifest names the root; a root past the file's pages is
        # refused before any page is read
        tree, pager = built_tree(tmp_path, [1.0, 2.0])
        pages = pager.page_count
        for root in (pages, pages + 7, -1):
            with pytest.raises(StorageError, match="root page"):
                BPlusTree(tree.pool, "ix.bpt", root)
        pager.close()


class TestSignedZeros:
    """``-0.0 == 0.0``, but a leaf run carries one stored key: the two
    zeros are runs of their own, so each position reads back its own."""

    @staticmethod
    def tree(tmp_path, keys, positions, page_size=4096):
        pool = BufferPool(8)
        pool.register("zeros.bpt", Pager(str(tmp_path / "zeros.bpt"), page_size, create=True))
        return BPlusTree.bulk_build(pool, "zeros.bpt", keys, positions)

    def test_each_position_gets_its_own_zero_back(self, tmp_path):
        tree = self.tree(tmp_path, [-0.0, 0.0, 0.0, 1.0], [0, 1, 2, 3])
        items = list(tree.items())
        assert [position for _, position in items] == [0, 1, 2, 3]
        assert [math.copysign(1.0, key) for key, _ in items] == [-1.0, 1.0, 1.0, 1.0]
        assert sorted(tree.search_eq(0.0)) == sorted(tree.search_eq(-0.0)) == [0, 1, 2]
        assert tree.key_runs() == ([-0.0, 0.0, 1.0], [1, 2, 1], [0, 1, 3])

    def test_interleaved_zeros_across_leaves(self, tmp_path):
        keys = [-0.0 if i % 3 else 0.0 for i in range(40)] + [2.0] * 5
        tree = self.tree(tmp_path, keys, list(range(45)), page_size=TINY_PAGE)
        assert [(math.copysign(1.0, key), position) for key, position in tree.items()] == [
            (math.copysign(1.0, key), position) for position, key in enumerate(keys)
        ]
        assert sorted(tree.search_eq(0.0)) == list(range(40))


def test_key_runs_count_a_run_across_leaves(tmp_path):
    keys = sorted(float(i % 5) for i in range(200))
    positions = sorted(range(200), key=lambda i: (i % 5, i))
    tree, _ = fresh_tree(tmp_path)
    pool = tree.pool
    pool.register("runs.bpt", Pager(str(tmp_path / "runs.bpt"), TINY_PAGE, create=True))
    tree = BPlusTree.bulk_build(pool, "runs.bpt", keys, positions)
    assert tree.key_runs() == ([0.0, 1.0, 2.0, 3.0, 4.0], [40] * 5, [0, 1, 2, 3, 4])
