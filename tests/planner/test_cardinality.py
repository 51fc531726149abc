"""Cardinality estimation: sample-based selectivities, the no-sample
guess by predicate shape, join and GROUP BY output estimates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner.cardinality import (
    CONTAINS_SELECTIVITY,
    closure_selectivity,
    expression_selectivity,
    group_output_estimate,
    join_selectivity,
    scan_selectivity,
)
from repro.planner.stats import (
    DEFAULT_PREDICATE_SELECTIVITY,
    profile_table,
)
from repro.sql.ast import BinaryOp, ColumnRef, Contains, Literal


def profile_of(rows, columns=("id", "v")):
    return profile_table("T", columns, rows)


class TestClosureSelectivity:
    def test_none_on_empty_sample(self):
        assert closure_selectivity((lambda row: True,), []) is None

    def test_laplace_smoothing_keeps_open_interval(self):
        sample = [(i,) for i in range(9)]
        none_match = closure_selectivity((lambda row: False,), sample)
        all_match = closure_selectivity((lambda row: True,), sample)
        assert 0.0 < none_match < all_match < 1.0

    def test_raising_closure_counts_as_non_match(self):
        def boom(row):
            raise TypeError("mixed types")

        sample = [(1,), (2,)]
        assert closure_selectivity((boom,), sample) == pytest.approx(0.5 / 3)

    def test_joint_evaluation_is_correlation_aware(self):
        # v > 5 and v > 3 are perfectly correlated: joint ≈ P(v > 5),
        # far from the independence product
        sample = [(i,) for i in range(10)]
        joint = closure_selectivity(
            (lambda r: r[0] > 5, lambda r: r[0] > 3), sample
        )
        assert joint == pytest.approx((4 + 0.5) / 11)


class TestExpressionFallbacks:
    def test_contains_constant(self):
        expr = Contains(ColumnRef("t", "T"), "needle")
        assert expression_selectivity(expr) == CONTAINS_SELECTIVITY

    def test_unmodelled_defaults_to_one_third(self):
        expr = BinaryOp("!=", ColumnRef("v", "T"), Literal(3))
        assert expression_selectivity(expr) == DEFAULT_PREDICATE_SELECTIVITY


class TestPredicateAndScan:
    def test_sample_trumps_formula(self):
        profile = profile_of([(i, i) for i in range(100)])
        expr = BinaryOp("=", ColumnRef("v", "T"), Literal(3))
        got = scan_selectivity((expr,), (lambda row: row[1] == 3,), profile.sample)
        assert got == pytest.approx((1 + 0.5) / 101)

    def test_scan_selectivity_empty_predicates(self):
        assert scan_selectivity((), (), ()) == 1.0

    def test_scan_selectivity_fallback_multiplies(self):
        exprs = (
            BinaryOp("!=", ColumnRef("v", "T"), Literal(1)),
            BinaryOp("!=", ColumnRef("v", "T"), Literal(2)),
        )
        got = scan_selectivity(exprs, (), ())
        assert got == pytest.approx(DEFAULT_PREDICATE_SELECTIVITY ** 2)
        # the guess is by shape only: an equality is 1/3 whatever it compares
        mixed = (
            Contains(ColumnRef("t", "T"), "needle"),
            BinaryOp("=", ColumnRef("v", "T"), Literal(3)),
        )
        got = scan_selectivity(mixed, (), ())
        assert got == pytest.approx(CONTAINS_SELECTIVITY * DEFAULT_PREDICATE_SELECTIVITY)


class TestJoinAndGroup:
    def test_join_selectivity_classical(self):
        assert join_selectivity(10, 40) == pytest.approx(1 / 40)
        assert join_selectivity(0, 0) == 1.0

    def test_group_output_capped_by_input(self):
        assert group_output_estimate(50, [10, 10]) == 50
        assert group_output_estimate(1000, [10, 10]) == 100
        assert group_output_estimate(0, [5]) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0, 1e6),
        st.lists(st.floats(0, 1e4), max_size=5),
    )
    def test_group_output_always_bounded(self, rows, ndvs):
        got = group_output_estimate(rows, ndvs)
        assert 1.0 <= got <= max(1.0, rows)
