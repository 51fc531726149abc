"""The canonical-comparison rules the differential harness trusts."""

from __future__ import annotations

import math

from repro.backends.normalize import (
    canonical_row,
    canonical_rows,
    canonical_value,
    rows_match,
)


class TestCanonicalValue:
    def test_bool_becomes_int(self):
        assert canonical_value(True) == 1
        assert canonical_value(False) == 0
        assert type(canonical_value(True)) is int

    def test_float_rounded_to_significant_digits(self):
        assert canonical_value(0.1 + 0.2) == canonical_value(0.3)
        # a genuine difference at the 6th digit survives
        assert canonical_value(1.00001) != canonical_value(1.00002)

    def test_non_finite_floats_pass_through(self):
        assert math.isnan(canonical_value(float("nan")))
        assert canonical_value(float("inf")) == float("inf")

    def test_other_types_untouched(self):
        assert canonical_value(None) is None
        assert canonical_value("Green") == "Green"
        assert canonical_value(7) == 7
        assert type(canonical_value(7)) is int


class TestCanonicalRows:
    def test_row_order_is_canonical(self):
        a = [("b", 2), ("a", 1)]
        b = [("a", 1), ("b", 2)]
        assert canonical_rows(a) == canonical_rows(b)

    def test_nulls_sort_without_type_errors(self):
        rows = [(None,), (3,), ("x",), (1.5,)]
        assert len(canonical_rows(rows)) == 4  # mixed types + NULL sortable

    def test_canonical_row_applies_value_rules(self):
        assert canonical_row((True, 0.1 + 0.2)) == (1, canonical_value(0.3))


class TestRowsMatch:
    def test_multiset_equality_ignores_order(self):
        assert rows_match([(1,), (2,)], [(2,), (1,)])

    def test_summation_noise_is_absorbed(self):
        assert rows_match([(0.1 + 0.2,)], [(0.3,)])

    def test_sums_straddling_a_rounding_boundary_match(self):
        # the two sides of ...0625 round to different 12-digit values
        # (AVG amount GROUPBY part at SF 1, memory against SQLite)
        low, high = 138907.54906249, 138907.54906251
        assert canonical_value(low) != canonical_value(high)
        assert rows_match([("part", low)], [("part", high)])

    def test_a_relative_1e_6_difference_is_a_mismatch(self):
        assert not rows_match([(138907.549062,)], [(138907.549062 * (1 + 1e-6),)])

    def test_bool_and_int_agree(self):
        assert rows_match([(True,)], [(1,)])

    def test_int_float_type_drift_is_a_mismatch(self):
        # Python's 2 == 2.0 must NOT leak through: aggregate output
        # types are part of the backend contract.
        assert not rows_match([(2,)], [(2.0,)])

    def test_cardinality_mismatch(self):
        assert not rows_match([(1,)], [(1,), (1,)])

    def test_arity_mismatch(self):
        assert not rows_match([(1, 2)], [(1,)])

    def test_value_mismatch(self):
        assert not rows_match([("Green",)], [("Smith",)])
