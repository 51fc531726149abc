"""The dense index formats against sorted-list oracles, their corruption
errors, and the footprint they give a materialized TPC-H.

Each index file stores a key (B+-tree key, hash, token slot) once with a
width-coded position list; these properties drive them at 64- and
128-byte pages, where duplicate runs span leaves and overflow pages and
positions cross the 1/2/4-byte widths."""

import math
import os
from itertools import groupby
from math import copysign
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_scaled
from repro.errors import StorageError
from repro.storage import BufferPool, HashFile, Pager, SpimiBuilder, SpimiIndex, materialize
from repro.storage.bptree import NO_PAGE, BPlusTree

PAGES = st.sampled_from([64, 128])
#: integral, fractional, negative, signed-zero and inexact (> 2**53) keys
KEYS = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, -3.0, 0.5, -2.25, 300.0, 70000.0, 2.0**53 + 2, -(2.0**60), 1e300]
)
#: where positions start: 1-, 2- and 4-byte position arrays
BASES = st.sampled_from([0, 250, 65_530])
#: (key, run length) — long runs outgrow a 64-byte leaf
RUNS = st.lists(st.tuples(KEYS, st.integers(1, 80)), max_size=12)


def bulk_build(pool, name, pairs):
    """Bulk-build from ``(key, position)`` pairs sorted by key."""
    return BPlusTree.bulk_build(
        pool, name, [key for key, _ in pairs], [position for _, position in pairs]
    )


def by_value(items):
    """``(value, position)`` pairs as :meth:`HashFile.build` takes them."""
    groups = {}
    for value, position in items:
        groups.setdefault(value, []).append(position)
    return groups


def pairs_of(runs, base):
    keys = [key for key, length in runs for _ in range(length)]
    return [(key, base + i) for i, key in enumerate(keys)]


def oracle_positions(oracle, low=None, high=None, include_low=True, include_high=True):
    return [
        position
        for key, position in oracle
        if (low is None or key > low or (include_low and key == low))
        and (high is None or key < high or (include_high and key == high))
    ]


def open_pool(tmp_path, name, page_size, create=True, capacity=4):
    pool = BufferPool(capacity)
    pager = Pager(str(tmp_path / name), page_size, create=create)
    pool.register(name, pager)
    return pool, pager


class TestBPlusTreeFormat:
    @settings(max_examples=60, deadline=None)
    @given(PAGES, BASES, RUNS, st.tuples(KEYS, KEYS).map(sorted))
    def test_bulk_build_matches_a_sorted_list(
        self, tmp_path_factory, page_size, base, built, bounds
    ):
        tmp_path = tmp_path_factory.mktemp("bpt")
        oracle = sorted(pairs_of(built, base))  # by key, then position
        pool, pager = open_pool(tmp_path, "ix.bpt", page_size)
        try:
            tree = bulk_build(pool, "ix.bpt", oracle)
            assert list(tree.items()) == oracle
            for key in {key for key, _ in oracle} | {4.0}:
                assert list(tree.search_eq(key)) == oracle_positions(oracle, key, key)
            low, high = bounds
            for include_low in (True, False):
                for include_high in (True, False):
                    assert list(tree.search_range(
                        low, high, include_low, include_high
                    )) == oracle_positions(oracle, low, high, include_low, include_high)
            assert list(tree.search_range(high=low)) == oracle_positions(oracle, high=low)
        finally:
            pager.close()

    def test_keys_come_back_as_the_floats_they_were(self, tmp_path):
        pool, pager = open_pool(tmp_path, "ix.bpt", 64)
        try:
            # every other key integral: only -0.0 keeps the leaf f64
            tree = bulk_build(pool, "ix.bpt", [(-0.0, 0), (-0.0, 1), (-0.0, 2), (2.0, 3)])
            keys = [key for key, _ in tree.items()]
            assert [copysign(1.0, key) for key in keys] == [-1.0, -1.0, -1.0, 1.0]
            assert [type(key) for key in keys] == [float] * 4
        finally:
            pager.close()

    @settings(max_examples=30, deadline=None)
    @given(PAGES, RUNS)
    def test_reopened_from_disk(self, tmp_path_factory, page_size, runs):
        tmp_path = tmp_path_factory.mktemp("bpt")
        bulk = sorted(pairs_of(runs, 0))
        pool, pager = open_pool(tmp_path, "ix.bpt", page_size)
        root = bulk_build(pool, "ix.bpt", bulk).root
        pool.flush()
        pager.close()
        pool, pager = open_pool(tmp_path, "ix.bpt", page_size, create=False, capacity=2)
        try:
            assert list(BPlusTree(pool, "ix.bpt", root).items()) == bulk
        finally:
            pager.close()


#: exact decimals (cents, tenths, integral values, both signs) beside
#: keys no scaled decimal holds: -0.0, an inexact sum, pi, a scale past
#: the range, integral floats beyond 2**53
DECIMAL_KEYS = st.one_of(
    st.integers(-5000, 5000).map(lambda k: k / 100),
    st.integers(-50, 50).map(lambda k: k / 10),
    st.sampled_from([0.0, -0.0, 0.1 + 0.2, math.pi, 1e-5, 2.0**53 + 2, 1234567.89]),
)


def leaf_codes(pager, tree):
    """The key code of every leaf, in key order (byte 9 of each)."""
    tree.pool.flush()
    codes, page_no = [], tree._leftmost_leaf()
    while page_no != NO_PAGE:
        data = pager.read_page(page_no)
        codes.append(data[9])
        page_no = int.from_bytes(data[5:9], "little")
    return codes


class TestScaledKeys:
    """Leaf keys that are decimals of a few digits are stored as scaled
    integers, and come back as the very floats they were."""

    @settings(max_examples=60, deadline=None)
    @given(PAGES, st.lists(st.tuples(DECIMAL_KEYS, st.integers(1, 6)), max_size=60),
           st.tuples(DECIMAL_KEYS, DECIMAL_KEYS).map(sorted))
    def test_probes_match_a_sorted_list(self, tmp_path_factory, page_size, runs, bounds):
        oracle = sorted(pairs_of(runs, 0))
        pool, pager = open_pool(tmp_path_factory.mktemp("bpt"), "ix.bpt", page_size)
        try:
            tree = bulk_build(pool, "ix.bpt", oracle)
            items = list(tree.items())
            assert items == oracle
            assert all(type(key) is float for key, _ in items)
            for key in {key for key, _ in oracle} | {0.05, 12.345}:
                assert list(tree.search_eq(key)) == oracle_positions(oracle, key, key)
            low, high = bounds
            for include_low in (True, False):
                for include_high in (True, False):
                    assert list(tree.search_range(
                        low, high, include_low, include_high
                    )) == oracle_positions(oracle, low, high, include_low, include_high)
        finally:
            pager.close()

    def test_a_leaf_of_cents_takes_two_bytes_a_key(self, tmp_path):
        pool, pager = open_pool(tmp_path, "ix.bpt", 4096)
        try:
            oracle = [(k / 100, position) for position, k in enumerate(range(-300, 300))]
            tree = bulk_build(pool, "ix.bpt", oracle)
            assert leaf_codes(pager, tree) == [2 << 4 | 2]  # scale 2, i16
            assert list(tree.items()) == oracle
        finally:
            pager.close()

    def test_a_leaf_mixing_exact_and_inexact_keys_stays_f64(self, tmp_path):
        pool, pager = open_pool(tmp_path, "ix.bpt", 128)
        try:
            # cents, then one inexact key among them, then cents again:
            # only the leaf holding the inexact key is f64
            keys = [k / 100 for k in range(1, 40)] + [1 + 1 / 3] + [
                k / 100 for k in range(200, 240)
            ]
            oracle = sorted((key, position) for position, key in enumerate(keys))
            tree = bulk_build(pool, "ix.bpt", oracle)
            codes = leaf_codes(pager, tree)
            assert codes.count(0) == 1 and len(codes) > 2
            assert set(codes) - {0} <= {2 << 4 | 1, 2 << 4 | 2}
            assert list(tree.items()) == oracle
            for key, position in oracle:
                assert list(tree.search_eq(key)) == [position]
            assert list(tree.search_range(0.3, 1.31)) == oracle_positions(oracle, 0.3, 1.31)
        finally:
            pager.close()


class TestImplicitPositions:
    """A leaf whose positions are consecutive stores the first of them
    only, and a probe answered from one such leaf is a ``range``."""

    @settings(max_examples=60, deadline=None)
    @given(
        PAGES,
        BASES,
        st.lists(st.integers(0, 40), max_size=300),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_position_ordered_and_shuffled_keys_match_a_sorted_list(
        self, tmp_path_factory, page_size, base, column, shuffled, random
    ):
        # a column's rows: in key order, the positions are consecutive
        values = sorted(column)
        if shuffled:
            random.shuffle(values)
        order = sorted(range(len(values)), key=values.__getitem__)
        oracle = [(float(values[i]), base + i) for i in order]
        pool, pager = open_pool(tmp_path_factory.mktemp("bpt"), "ix.bpt", page_size)
        try:
            tree = bulk_build(pool, "ix.bpt", oracle)
            assert list(tree.items()) == oracle
            for key in {key for key, _ in oracle} | {-1.0, 41.0}:
                assert list(tree.search_eq(key)) == oracle_positions(oracle, key, key)
            assert tree.search_eq(float("nan")) == []  # NaN equals no key
            for low, high in [(3.0, 9.0), (None, 20.0), (10.0, None), (None, None)]:
                assert list(tree.search_range(low, high)) == oracle_positions(oracle, low, high)
        finally:
            pager.close()

    def test_a_key_column_in_row_order_takes_a_fraction_of_the_pages(self, tmp_path):
        keys = [float(key) for key in range(20_000)]
        sizes = {}
        for name, positions in [
            ("ordered", list(range(20_000))),
            ("reversed", list(range(19_999, -1, -1))),
        ]:
            pool, pager = open_pool(tmp_path, f"{name}.bpt", 4096)
            try:
                tree = bulk_build(pool, f"{name}.bpt", list(zip(keys, positions)))
                assert tree.search_eq(1234.0) == (
                    range(1234, 1235) if name == "ordered" else [18_765]
                )
                assert list(tree.search_range(10.0, 12.0)) == positions[10:13]
                sizes[name] = pager.page_count
            finally:
                pager.close()
        # 3 bytes a key (2-byte key, 1-byte count) against 5
        assert sizes["ordered"] * 3 < sizes["reversed"] * 2

    def test_a_run_longer_than_a_leaf_header_counts(self, tmp_path):
        # 70,000 rows of one key, in row order: more positions than a
        # leaf's u16 count holds, so the run goes on in a second leaf
        pool, pager = open_pool(tmp_path, "ix.bpt", 4096)
        try:
            tree = bulk_build(pool, "ix.bpt", [(7.0, position) for position in range(70_000)])
            assert list(tree.search_eq(7.0)) == list(range(70_000))
            assert tree.search_eq(8.0) == []
            assert pager.page_count <= 40
        finally:
            pager.close()


class TestHashFileFormat:
    @settings(max_examples=60, deadline=None)
    @given(PAGES, BASES, st.lists(st.sampled_from("abcdefg"), max_size=150))
    def test_positions_match_a_sorted_list(self, tmp_path_factory, page_size, base, built):
        tmp_path = tmp_path_factory.mktemp("hash")
        items = [(value, base + i) for i, value in enumerate(built)]
        path = str(tmp_path / "ix.hash")
        buckets = HashFile.build(path, by_value(items), page_size)
        pool, pager = open_pool(tmp_path, "ix.hash", page_size, create=False)
        try:
            index = HashFile(pool, "ix.hash", buckets)
            for value in "abcdefgxyz-":
                assert index.positions(value) == {p for v, p in items if v == value}
        finally:
            pager.close()


class TestSpimiFormat:
    @settings(max_examples=40, deadline=None)
    @given(
        BASES,
        st.lists(
            st.tuples(st.sampled_from(["oil", "olive", "royal", "tea"]),
                      st.sampled_from([("T", "a"), ("T", "b"), ("U", "a")])),
            max_size=80,
        ),
        st.integers(1, 50),
    )
    def test_postings_match_a_sorted_list(self, tmp_path_factory, base, entries, budget):
        tmp_path = tmp_path_factory.mktemp("spimi")
        rows = [
            (token, relation, attribute, base + i)
            for i, (token, (relation, attribute)) in enumerate(entries)
        ]
        builder = SpimiBuilder(str(tmp_path), budget)
        # neighbours of one token and slot go in as one run, which a
        # block's budget may split
        for (token, relation, attribute), run in groupby(rows, key=itemgetter(0, 1, 2)):
            builder.add_run(token, relation, attribute, [row[3] for row in run])
        stats = builder.finalize(str(tmp_path / "p.bin"), str(tmp_path / "p.json"))
        assert stats["blocks"] == -(-len(rows) // budget)  # one per budget's worth
        index = SpimiIndex(str(tmp_path / "p.bin"), str(tmp_path / "p.json"))
        try:
            for token in ["oil", "olive", "royal", "tea", "zzz"]:
                expected = {}
                for tok, relation, attribute, position in rows:
                    if tok == token:
                        expected.setdefault((relation, attribute), []).append(position)
                assert index.postings(token) == expected
            for first in ["o", "oil", "al", "zzz"]:
                assert index.candidate_positions(first, "T", "a") == {
                    p for tok, r, a, p in rows if first in tok and (r, a) == ("T", "a")
                }
        finally:
            index.close()


def corrupt_first_leaf(tmp_path, patch):
    """A four-key tree whose one leaf *patch* damages; returns the tree.
    Its keys stay f64: pi is no decimal of a few digits."""
    pool, pager = open_pool(tmp_path, "ix.bpt", 128)
    tree = bulk_build(pool, "ix.bpt", [(1.0, 0), (1.0, 1), (2.0, 2), (math.pi, 3)])
    frame = pool.pin("ix.bpt", tree.root)  # the one leaf is the root
    patch(frame.data)
    pool.unpin(frame, dirty=True)
    return tree


class TestCorruptionIsAnError:
    # leaf header: [type u8][n_keys u16][n_positions u16][next u32], then
    # the key code at byte 9, three f64 keys, the counts' width at 34
    @pytest.mark.parametrize(
        "patch, message",
        [
            (lambda data: data.__setitem__(slice(1, 3), (5000).to_bytes(2, "little")),
             "corrupt node"),                               # truncated node
            (lambda data: data.__setitem__(9, 3), "unknown key width code 3"),
            (lambda data: data.__setitem__(34, 3), "unknown width code 3"),
            (lambda data: data.__setitem__(35, 250), "counts"),  # run past the positions
            (lambda data: data.__setitem__(slice(3, 5), (200).to_bytes(2, "little")),
             "past the end"),                               # positions past the page
            (lambda data: data.__setitem__(0, 7), "unknown node type 7"),
        ],
    )
    def test_damaged_leaf(self, tmp_path, patch, message):
        tree = corrupt_first_leaf(tmp_path, patch)
        with pytest.raises(StorageError, match=message):
            tree.search_eq(1.0)

    def test_damaged_bucket_page(self, tmp_path):
        path = str(tmp_path / "ix.hash")
        buckets = HashFile.build(path, {"a": [0, 1]}, 64)
        with open(path, "r+b") as handle:
            handle.seek(6 + 10)  # bucket page 0: the entry's width code
            handle.write(bytes([3]))
        pool, pager = open_pool(tmp_path, "ix.hash", 64, create=False)
        try:
            with pytest.raises(StorageError, match="unknown width code 3"):
                HashFile(pool, "ix.hash", buckets).positions("a")
        finally:
            pager.close()

    def test_truncated_posting(self, tmp_path):
        builder = SpimiBuilder(str(tmp_path))
        builder.add_run("oil", "T", "a", [7])
        builder.finalize(str(tmp_path / "p.bin"), str(tmp_path / "p.json"))
        raw = (tmp_path / "p.bin").read_bytes()
        (tmp_path / "p.bin").write_bytes(raw[:2] + (9).to_bytes(4, "little") + raw[6:])
        index = SpimiIndex(str(tmp_path / "p.bin"), str(tmp_path / "p.json"))
        try:
            with pytest.raises(StorageError, match="corrupt postings"):
                index.postings("oil")
        finally:
            index.close()


#: bytes per file class of ``materialize(generate_scaled("tpch", 1))`` at
#: 4 KiB pages; a change that makes a heap or index file larger fails here
TPCH_SF1_BYTES = {"heap": 53_248, "bpt": 110_592, "hash": 49_152, "spimi": 17_668}


def test_tpch_sf1_footprint(tmp_path):
    manifest = materialize(generate_scaled("tpch", 1), str(tmp_path))
    by_class = dict.fromkeys(TPCH_SF1_BYTES, 0)
    for name, size in manifest["files"].items():
        suffix = os.path.splitext(name)[1][1:]
        by_class[suffix if suffix in ("heap", "bpt", "hash") else "spimi"] += size
    for file_class, ceiling in TPCH_SF1_BYTES.items():
        assert by_class[file_class] <= ceiling, (file_class, by_class)
