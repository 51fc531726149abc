"""Heap files: build, positional access, sequential scans."""

import pytest

from repro.errors import StorageError
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.storage import BufferPool, HeapFile, Pager
from repro.storage.heap import build_heap


def make_schema():
    schema = DatabaseSchema("heapdb")
    schema.add_relation(
        "T",
        [("id", DataType.INT), ("name", DataType.TEXT)],
        ["id"],
    )
    return schema.relation("T")


SCHEMA = make_schema()
ROWS = [(i, f"name-{i:03d}") for i in range(50)]


def open_heap(tmp_path, rows=ROWS, page_size=128, pool_capacity=4):
    path = str(tmp_path / "T.heap")
    page_counts = build_heap(path, SCHEMA, rows, page_size)
    pool = BufferPool(pool_capacity)
    pool.register("T.heap", Pager(path, page_size))
    return HeapFile(pool, "T.heap", SCHEMA, page_counts), page_counts, pool


class TestHeapFile:
    def test_build_spans_many_pages(self, tmp_path):
        heap, page_counts, _ = open_heap(tmp_path)
        assert heap.page_count > 1
        assert sum(page_counts) == len(ROWS)
        assert len(heap) == len(ROWS)

    def test_positional_access(self, tmp_path):
        heap, _, _ = open_heap(tmp_path)
        scanned = list(heap.scan())
        for position in range(len(ROWS)):
            assert heap.row(position) == scanned[position] == ROWS[position]

    def test_scan_preserves_order(self, tmp_path):
        heap, _, _ = open_heap(tmp_path)
        assert list(heap.scan()) == ROWS

    def test_position_out_of_range(self, tmp_path):
        heap, _, _ = open_heap(tmp_path)
        with pytest.raises(StorageError):
            heap.row(len(ROWS))

    def test_columns_at_positions_pin_each_page_once(self, tmp_path):
        heap, page_counts, pool = open_heap(tmp_path, pool_capacity=2)
        assert len(page_counts) >= 4
        # every row of pages 0 and 2, one row of the last page
        first_of = [sum(page_counts[:i]) for i in range(len(page_counts))]
        positions = (
            list(range(first_of[0], first_of[1]))
            + list(range(first_of[2], first_of[3]))
            + [len(ROWS) - 1]
        )
        before = pool.stats["pins"]
        ids, names = heap.columns([0, 1], positions)
        assert list(zip(ids, names)) == [ROWS[pos] for pos in positions]
        assert pool.stats["pins"] - before == 3
        assert heap.columns([1], positions) == [[heap.rows[pos][1] for pos in positions]]
        assert pool.stats["max_resident"] <= 2

    def test_columns_at_positions_edges(self, tmp_path):
        heap, _, pool = open_heap(tmp_path)
        before = pool.stats["pins"]
        assert heap.columns([0, 1], []) == [[], []]
        assert heap.columns([], [3]) == []
        assert pool.stats["pins"] == before
        with pytest.raises(StorageError):
            heap.columns([0], [0, len(ROWS)])
        with pytest.raises(StorageError):
            heap.columns([0], [-1, 0])

    def test_whole_columns_are_the_projection_of_a_scan(self, tmp_path):
        heap, _, pool = open_heap(tmp_path, pool_capacity=2)
        for indexes in ([0], [1], [1, 0], [0, 1], []):
            assert heap.columns(indexes) == [
                [row[index] for row in ROWS] for index in indexes
            ]
        assert pool.stats["max_resident"] <= 2

    def test_only_the_named_minipages_are_decoded(self, tmp_path):
        heap, _, pool = open_heap(tmp_path, pool_capacity=4)
        heap.columns([1], [0])
        decoded = pool._frames[("T.heap", 0)].decoded
        assert list(decoded) == [1] and decoded[1][0] == ROWS[0][1]
        # the other column joins it on the same frame when asked for
        heap.columns([0], [0])
        assert pool._frames[("T.heap", 0)].decoded is decoded
        assert decoded[0] == list(range(heap.page_counts[0]))

    def test_scan_respects_small_pool(self, tmp_path):
        heap, _, pool = open_heap(tmp_path, pool_capacity=2)
        assert list(heap.scan()) == ROWS
        assert pool.stats["max_resident"] <= 2
        assert pool.stats["evictions"] > 0

    def test_decoded_rows_leave_with_their_frame(self, tmp_path):
        """Decoded columns are cached on resident frames only, so the
        pool's page budget bounds them: eviction drops them with the
        frame."""
        heap, _, pool = open_heap(tmp_path, pool_capacity=2)
        assert heap.page_count > 2 * pool.capacity
        ever_resident = {}
        for _ in heap.scan():
            ever_resident.update(pool._frames)
        assert len(ever_resident) == heap.page_count
        assert pool.stats["max_resident"] <= pool.capacity
        kept = [frame.decoded for frame in pool._frames.values()]
        assert 0 < len(kept) <= pool.capacity
        for key, frame in ever_resident.items():
            if key not in pool._frames:
                assert all(frame.decoded is not rows for rows in kept)
        pool.clear()
        assert pool.resident == 0

    def test_resident_page_is_decoded_once(self, tmp_path):
        heap, _, pool = open_heap(tmp_path, pool_capacity=4)
        first = heap.row(0)
        frame = pool._frames[("T.heap", 0)]
        decoded = frame.decoded
        names = decoded[1]
        assert heap.row(1)[1] is names[1] and heap.row(0) == first
        assert heap.columns([1], [1]) == [[names[1]]]
        assert frame.decoded is decoded and decoded[1] is names
        assert pool.stats["hits"] == 3

    def test_row_count_is_checked_against_the_manifest(self, tmp_path):
        """On scans and on point reads alike."""
        _, page_counts, pool = open_heap(tmp_path)
        wrong = list(page_counts)
        wrong[1] += 1
        wrong[2] -= 1
        for read in (lambda h: list(h.scan()), lambda h: h.row(page_counts[0])):
            pool.clear()
            pool.register("T.heap", Pager(str(tmp_path / "T.heap"), 128))
            with pytest.raises(StorageError, match="manifest says"):
                read(HeapFile(pool, "T.heap", SCHEMA, wrong))

    def test_corrupt_page_is_a_storage_error(self, tmp_path):
        heap, page_counts, pool = open_heap(tmp_path)
        path = pool.pager("T.heap").path
        with open(path, "r+b") as handle:
            handle.seek(128 + 2)  # page 1's used-bytes field
            handle.write(b"\xff\xff")
        assert heap.row(0) == ROWS[0]
        with pytest.raises(StorageError, match="corrupt page"):
            heap.row(page_counts[0])
        with pytest.raises(StorageError, match="corrupt page"):
            list(heap.scan())

    def test_empty_table(self, tmp_path):
        heap, page_counts, _ = open_heap(tmp_path, rows=[])
        assert len(heap) == 0
        assert list(heap.scan()) == []
        assert sum(page_counts) == 0


class TestHeapRows:
    def test_sequence_protocol(self, tmp_path):
        heap, _, _ = open_heap(tmp_path)
        rows = heap.rows
        assert len(rows) == len(ROWS)
        assert rows[0] == ROWS[0]
        assert rows[-1] == ROWS[-1]
        assert rows[10:13] == ROWS[10:13]
        assert list(rows) == ROWS

    def test_slices_mirror_lists_and_pin_a_page_once(self, tmp_path):
        heap, page_counts, pool = open_heap(tmp_path, pool_capacity=2)
        rows = heap.rows
        for cut in (
            slice(None), slice(10, 13), slice(3, 47, 5), slice(-4, None),
            slice(None, None, -1), slice(40, 2, -3), slice(60, 70), slice(5, 5),
        ):
            assert rows[cut] == ROWS[cut], cut
        before = pool.stats["pins"]
        assert rows[page_counts[0]:] == ROWS[page_counts[0]:]
        assert pool.stats["pins"] - before == len(page_counts) - 1
        assert pool.stats["max_resident"] <= 2

    def test_index_errors_mirror_lists(self, tmp_path):
        heap, _, _ = open_heap(tmp_path)
        with pytest.raises((IndexError, StorageError)):
            heap.rows[len(ROWS)]


class TestAppend:
    def test_append_writes_the_bytes_a_build_would(self, tmp_path):
        """Whatever the split — nothing built yet, mid-page, exactly at a
        page boundary, one row short — appending the rest re-packs the
        last page and leaves the file a full build writes."""
        whole = tmp_path / "whole"
        whole.mkdir()
        _, whole_counts, _ = open_heap(whole)
        expected = (whole / "T.heap").read_bytes()
        for built in (0, 1, whole_counts[0], whole_counts[0] + 3, len(ROWS) - 1):
            directory = tmp_path / f"split{built}"
            directory.mkdir()
            heap, _, pool = open_heap(directory, rows=ROWS[:built], pool_capacity=2)
            if built:
                heap.row(built - 1)  # the last page sits decoded on its frame
            heap.append(ROWS[built:])
            assert list(heap.scan()) == ROWS and len(heap) == len(ROWS)
            assert heap.page_counts == whole_counts
            assert heap.row(len(ROWS) - 1) == ROWS[-1]
            assert pool.stats["max_resident"] <= 2
            pool.flush()
            pool.pager("T.heap").sync()
            assert (directory / "T.heap").read_bytes() == expected

    def test_append_of_a_row_no_page_holds_raises(self, tmp_path):
        heap, _, _ = open_heap(tmp_path)
        with pytest.raises(StorageError, match="does not fit a blank page"):
            heap.append([(1000, "x" * 500)])

