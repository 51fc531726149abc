"""Unit tests for the relational-algebra kernels over column vectors."""

import pytest

from repro.relational.algebra import (
    Grouping,
    cross_join,
    distinct,
    gather,
    hash_join,
    null_safe_sort_key,
)


def columns(rows):
    """Row tuples as column vectors (one list per column)."""
    return [list(column) for column in zip(*rows)]


def joined(left_rows, right_rows, left_keys, right_keys):
    """The rows ``left ++ right`` of an equi-join on the given column
    positions — the position vectors applied to every column."""
    left, right = columns(left_rows), columns(right_rows)
    left_positions, right_positions = hash_join(
        [left[i] for i in left_keys], [right[i] for i in right_keys]
    )
    return list(
        zip(
            *[gather(column, left_positions) for column in left],
            *[gather(column, right_positions) for column in right],
        )
    )


class TestDistinct:
    def test_distinct_preserves_first_seen_order(self):
        assert distinct([[2, 1, 2, 1]]) == [(2,), (1,)]

    def test_distinct_keeps_the_first_of_equal_rows(self):
        # set semantics: 1 == 1.0, NULL rows collapse; the survivor is
        # the first one seen
        rows = distinct(columns([(1, None), (1.0, None), (None, 2), (1, None)]))
        assert rows == [(1, None), (None, 2)]
        assert type(rows[0][0]) is int


class TestJoins:
    def test_cross_join(self):
        (left,), (right,) = cross_join([[1, 2]], [["x", "y"]], 2, 2)
        out = list(zip(left, right))
        assert len(out) == 4
        assert out[0] == (1, "x")
        assert out == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]
        # a side nothing reads any column of still multiplies the other
        assert cross_join([[1, 2]], [], 2, 3) == ([[1, 1, 1, 2, 2, 2]], [])

    def test_hash_join_basic(self):
        out = joined([(1, "a"), (2, "b"), (3, "c")], [(2,), (3,), (4,)], [0], [0])
        assert sorted(row[0] for row in out) == [2, 3]

    def test_hash_join_column_order_preserved_when_right_smaller(self):
        # right side is smaller, so it becomes the build side; the
        # position vectors still come back as (left, right)
        out = joined([(1,), (2,), (3,)], [(2, "x")], [0], [0])
        assert out == [(2, 2, "x")]

    def test_hash_join_null_keys_never_match(self):
        assert joined([(None,), (1,)], [(None,), (1,)], [0], [0]) == [(1, 1)]
        # on either side alone, and with the sides' sizes swapped
        assert joined([(None,), (1,), (2,)], [(1,), (2,)], [0], [0]) == [(1, 1), (2, 2)]
        assert joined([(1,)], [(None,), (1,), (None,)], [0], [0]) == [(1, 1)]

    def test_hash_join_duplicates_multiply(self):
        assert len(joined([(1,), (1,)], [(1,), (1,)], [0], [0])) == 4
        # probe-side order, build rows in their own order under each
        out = joined([(1, "a"), (2, "b"), (1, "c")], [(1, "x"), (1, "y")], [0], [0])
        assert out == [
            (1, "a", 1, "x"), (1, "a", 1, "y"), (1, "c", 1, "x"), (1, "c", 1, "y"),
        ]

    def test_hash_join_composite_keys(self):
        out = joined([(1, 2), (1, 3)], [(1, 2), (1, 9)], [0, 1], [0, 1])
        assert out == [(1, 2, 1, 2)]
        # a NULL in any key part never joins; duplicates still multiply
        out = joined(
            [(1, None), (1, 2), (1, 2)], [(1, None), (1, 2)], [0, 1], [0, 1]
        )
        assert out == [(1, 2, 1, 2), (1, 2, 1, 2)]

    def test_hash_join_arity_mismatch(self):
        with pytest.raises(ValueError):
            hash_join([[1]], [])

    def test_hash_join_all_rows_matching_once_need_no_gather(self):
        # the probe side comes back as None: every row, in order
        left_positions, right_positions = hash_join([[7, 8]], [[8, 7, 8]])
        assert right_positions is None and left_positions == [1, 0, 1]

    def test_hash_join_empty_sides(self):
        for left, right in (([], [1]), ([1, 2], []), ([], [])):
            left_positions, right_positions = hash_join([left], [right])
            assert not left_positions and not right_positions


class TestGrouping:
    def test_groups_are_numbered_in_first_seen_order(self):
        grouping = Grouping(["b", "a", "b", None, "a"], 5)
        assert grouping.size == 3
        assert grouping.counts() == [2, 2, 1]
        assert grouping.firsts() == [0, 1, 3]

    def test_values_keep_row_order_and_drop_nulls(self):
        grouping = Grouping([1, 2, 1, 2, 1], 5)
        assert grouping.split([0.1, None, 0.2, 5, 0.3]) == [[0.1, 0.2, 0.3], [5]]
        assert grouping.count_values([0.1, None, 0.2, 5, None]) == [2, 1]
        assert grouping.count_values([1, 2, 3, 4, 5]) == [3, 2]

    def test_composite_keys(self):
        grouping = Grouping(list(zip([1, 1, 2, 1], ["x", "y", "x", "x"])), 4)
        assert grouping.size == 3 and grouping.counts() == [2, 1, 1]

    def test_no_group_by_is_one_group_even_when_empty(self):
        empty = Grouping(None, 0)
        assert empty.size == 1 and empty.counts() == [0]
        assert empty.split([]) == [[]] and empty.firsts() == []
        assert Grouping(None, 3).split([1, None, 2]) == [[1, 2]]
        assert Grouping(None, 3).count_values([1, None, 2]) == [2]

    def test_empty_grouped_input_has_no_groups(self):
        grouping = Grouping([], 0)
        assert grouping.size == 0 and grouping.counts() == []
        assert grouping.split([]) == [] and grouping.firsts() == []


class TestSortKey:
    def test_nulls_sort_first(self):
        values = ["b", None, "a"]
        assert sorted(values, key=null_safe_sort_key) == [None, "a", "b"]

    def test_mixed_numbers_and_text(self):
        values = ["x", 2, None, 1]
        assert sorted(values, key=null_safe_sort_key) == [None, 1, 2, "x"]

    def test_bools_sort_with_bools(self):
        values = [True, False]
        assert sorted(values, key=null_safe_sort_key) == [False, True]
