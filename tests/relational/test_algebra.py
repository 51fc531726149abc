"""Unit tests for the relational-algebra operators."""

import pytest

from repro.relational.algebra import (
    Rowset,
    cross_join,
    distinct,
    hash_join,
    null_safe_sort_key,
)


def make_rowset(qualifier, names, rows) -> Rowset:
    return Rowset.from_labels([(qualifier, n) for n in names], rows)


class TestSelectProject:
    def test_distinct_preserves_first_seen_order(self):
        rs = make_rowset("R", ["a"], [(2,), (1,), (2,), (1,)])
        assert distinct(rs).rows == [(2,), (1,)]

    def test_distinct_keeps_the_first_of_equal_rows(self):
        # set semantics: 1 == 1.0, NULL rows collapse; the survivor is
        # the first one seen
        rs = make_rowset("R", ["a", "b"], [(1, None), (1.0, None), (None, 2), (1, None)])
        rows = distinct(rs).rows
        assert rows == [(1, None), (None, 2)]
        assert type(rows[0][0]) is int


class TestJoins:
    def test_cross_join(self):
        left = make_rowset("L", ["a"], [(1,), (2,)])
        right = make_rowset("R", ["b"], [("x",), ("y",)])
        out = cross_join(left, right)
        assert len(out) == 4
        assert out.rows[0] == (1, "x")

    def test_hash_join_basic(self):
        left = make_rowset("L", ["k", "v"], [(1, "a"), (2, "b"), (3, "c")])
        right = make_rowset("R", ["k2"], [(2,), (3,), (4,)])
        out = hash_join(left, right, [0], [0])
        assert sorted(row[0] for row in out.rows) == [2, 3]

    def test_hash_join_column_order_preserved_when_right_smaller(self):
        # right side is smaller, so it becomes the build side; output
        # columns must still be left ++ right
        left = make_rowset("L", ["k"], [(1,), (2,), (3,)])
        right = make_rowset("R", ["k2", "w"], [(2, "x")])
        out = hash_join(left, right, [0], [0])
        assert out.rows == [(2, 2, "x")]
        assert out.binding.labels == (("L", "k"), ("R", "k2"), ("R", "w"))

    def test_hash_join_null_keys_never_match(self):
        left = make_rowset("L", ["k"], [(None,), (1,)])
        right = make_rowset("R", ["k2"], [(None,), (1,)])
        out = hash_join(left, right, [0], [0])
        assert out.rows == [(1, 1)]

    def test_hash_join_duplicates_multiply(self):
        left = make_rowset("L", ["k"], [(1,), (1,)])
        right = make_rowset("R", ["k2"], [(1,), (1,)])
        assert len(hash_join(left, right, [0], [0])) == 4

    def test_hash_join_composite_keys(self):
        left = make_rowset("L", ["a", "b"], [(1, 2), (1, 3)])
        right = make_rowset("R", ["c", "d"], [(1, 2), (1, 9)])
        out = hash_join(left, right, [0, 1], [0, 1])
        assert out.rows == [(1, 2, 1, 2)]

    def test_hash_join_arity_mismatch(self):
        left = make_rowset("L", ["a"], [(1,)])
        right = make_rowset("R", ["b"], [(1,)])
        with pytest.raises(ValueError):
            hash_join(left, right, [0], [])


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
