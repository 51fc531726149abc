"""Unit tests for scalar/aggregate expression evaluation."""

import pytest

from repro.errors import SqlExecutionError
from repro.relational.algebra import Grouping
from repro.relational.expressions import (
    Binding,
    Columns,
    compile_aggregate,
    compile_kernel,
    compile_scalar,
)
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Contains,
    FuncCall,
    IsNull,
    Literal,
    Star,
    agg,
)


@pytest.fixture
def binding() -> Binding:
    return Binding([("S", "Sid"), ("S", "Sname"), (None, "Age")])


ROW = ("s1", "Green", 24)


def as_columns(rows, binding) -> Columns:
    """Row tuples as the column vectors the operators pass around."""
    return Columns(
        len(rows), {slot: [row[slot] for row in rows] for slot in range(len(binding))}
    )


def evaluate(expr, row, binding):
    value = compile_scalar(expr, binding)(row)
    # the column kernel of the same expression agrees, row for row
    assert compile_kernel(expr, binding)(as_columns([row, row], binding)) == [value] * 2
    return value


def evaluate_group(expr, rows, binding):
    """*expr* over *rows* as the one group of a statement without GROUP BY."""
    (value,) = compile_aggregate(expr, binding)(
        as_columns(rows, binding), Grouping(None, len(rows))
    )
    return value


class TestBinding:
    def test_qualified_resolution(self, binding):
        assert binding.resolve(ColumnRef("Sname", "S")) == 1

    def test_unqualified_resolution(self, binding):
        assert binding.resolve(ColumnRef("Age")) == 2

    def test_case_insensitive(self, binding):
        assert binding.resolve(ColumnRef("sname", "S")) == 1

    def test_unknown_column(self, binding):
        with pytest.raises(SqlExecutionError):
            binding.resolve(ColumnRef("Nope"))

    def test_ambiguous_column(self):
        b = Binding([("A", "x"), ("B", "x")])
        with pytest.raises(SqlExecutionError):
            b.resolve(ColumnRef("x"))
        assert b.resolve(ColumnRef("x", "B")) == 1

    def test_ambiguous_within_one_qualifier(self):
        b = Binding([("A", "x"), ("A", "x"), ("B", "y")])
        with pytest.raises(SqlExecutionError, match="ambiguous column A.x"):
            b.resolve(ColumnRef("x", "A"))
        assert b.resolve(ColumnRef("y", "B")) == 2

    def test_merge(self, binding):
        merged = binding.merge(Binding([("T", "z")]))
        assert merged.resolve(ColumnRef("z", "T")) == 3

    def test_can_resolve(self, binding):
        assert binding.can_resolve(ColumnRef("Sid", "S"))
        assert not binding.can_resolve(ColumnRef("Nope"))


class TestScalarEvaluation:
    def test_literal(self, binding):
        assert evaluate(Literal(5), ROW, binding) == 5

    def test_column(self, binding):
        assert evaluate(ColumnRef("Sname", "S"), ROW, binding) == "Green"

    def test_comparison(self, binding):
        expr = BinaryOp(">", ColumnRef("Age"), Literal(21))
        assert evaluate(expr, ROW, binding) is True

    def test_comparison_with_null_is_false(self, binding):
        expr = BinaryOp("=", ColumnRef("Age"), Literal(None))
        assert evaluate(expr, ROW, binding) is False

    def test_numeric_widening_comparison(self, binding):
        expr = BinaryOp("=", Literal(24.0), ColumnRef("Age"))
        assert evaluate(expr, ROW, binding) is True

    def test_mixed_type_comparison_raises(self, binding):
        expr = BinaryOp("<", ColumnRef("Sname", "S"), Literal(3))
        with pytest.raises(SqlExecutionError):
            evaluate(expr, ROW, binding)

    def test_and_or(self, binding):
        t = BinaryOp("=", Literal(1), Literal(1))
        f = BinaryOp("=", Literal(1), Literal(2))
        assert evaluate(BinaryOp("AND", t, f), ROW, binding) is False
        assert evaluate(BinaryOp("OR", t, f), ROW, binding) is True

    def test_contains(self, binding):
        assert evaluate(Contains(ColumnRef("Sname", "S"), "gree"), ROW, binding)
        assert not evaluate(Contains(ColumnRef("Sname", "S"), "blue"), ROW, binding)

    def test_contains_null_is_false(self, binding):
        assert evaluate(Contains(ColumnRef("Sname", "S"), "x"), ("s", None, 1), binding) is False

    def test_is_null(self, binding):
        assert evaluate(IsNull(ColumnRef("Age")), ("s", "n", None), binding)
        assert evaluate(IsNull(ColumnRef("Age"), negated=True), ROW, binding)

    def test_arithmetic(self, binding):
        expr = BinaryOp("*", ColumnRef("Age"), Literal(2))
        assert evaluate(expr, ROW, binding) == 48

    def test_arithmetic_null_propagates(self, binding):
        expr = BinaryOp("+", Literal(None), Literal(1))
        assert evaluate(expr, ROW, binding) is None

    def test_division_by_zero(self, binding):
        with pytest.raises(SqlExecutionError):
            evaluate(BinaryOp("/", Literal(1), Literal(0)), ROW, binding)

    def test_aggregate_outside_group_raises(self, binding):
        with pytest.raises(SqlExecutionError):
            evaluate(agg("COUNT", ColumnRef("Age")), ROW, binding)


GROUP = [("s1", "a", 10), ("s2", "b", 20), ("s3", "c", None)]


class TestAggregates:
    def test_count_star(self, binding):
        assert evaluate_group(FuncCall("COUNT", (Star(),)), GROUP, binding) == 3

    def test_count_ignores_nulls(self, binding):
        assert evaluate_group(agg("COUNT", ColumnRef("Age")), GROUP, binding) == 2

    def test_count_distinct(self, binding):
        rows = [("s1", "a", 10), ("s2", "b", 10)]
        call = agg("COUNT", ColumnRef("Age"), distinct=True)
        assert evaluate_group(call, rows, binding) == 1

    def test_sum_avg_min_max(self, binding):
        assert evaluate_group(agg("SUM", ColumnRef("Age")), GROUP, binding) == 30
        assert evaluate_group(agg("AVG", ColumnRef("Age")), GROUP, binding) == 15
        assert evaluate_group(agg("MIN", ColumnRef("Age")), GROUP, binding) == 10
        assert evaluate_group(agg("MAX", ColumnRef("Age")), GROUP, binding) == 20

    def test_empty_group_aggregates_are_null(self, binding):
        assert evaluate_group(agg("SUM", ColumnRef("Age")), [], binding) is None
        assert evaluate_group(agg("MAX", ColumnRef("Age")), [], binding) is None

    def test_count_of_empty_group_is_zero(self, binding):
        assert evaluate_group(agg("COUNT", ColumnRef("Age")), [], binding) == 0

    def test_count_counts_falsy_values_but_not_nulls(self, binding):
        rows = [("s1", "a", 0), ("s2", "b", None), ("s3", "", 0.0), ("s4", None, None)]
        assert evaluate_group(agg("COUNT", ColumnRef("Age")), rows, binding) == 2
        assert evaluate_group(agg("COUNT", ColumnRef("Sname", "S")), rows, binding) == 3
        all_null = [("s1", "a", None), ("s2", "b", None)]
        assert evaluate_group(agg("COUNT", ColumnRef("Age")), all_null, binding) == 0

    def test_sum_over_int_float_mix(self, binding):
        rows = [("s1", "a", 1), ("s2", "b", 2.5), ("s3", "c", None)]
        assert evaluate_group(agg("SUM", ColumnRef("Age")), rows, binding) == 3.5
        assert evaluate_group(agg("AVG", ColumnRef("Age")), rows, binding) == 1.75

    @pytest.mark.parametrize("func", ["SUM", "AVG"])
    def test_sum_over_bool_raises(self, binding, func):
        # bool is an int to isinstance, not to the numeric check
        rows = [("s1", "a", 1), ("s2", "b", True)]
        with pytest.raises(SqlExecutionError, match="non-numeric"):
            evaluate_group(agg(func, ColumnRef("Age")), rows, binding)

    def test_sum_over_text_raises(self, binding):
        with pytest.raises(SqlExecutionError):
            evaluate_group(agg("SUM", ColumnRef("Sname", "S")), GROUP, binding)

    def test_min_max_over_dates(self, binding):
        rows = [("s1", "a", None)]
        b = Binding([(None, "d")])
        date_rows = [("2001-01-01",), ("1999-12-31",)]
        assert evaluate_group(agg("MAX", ColumnRef("d")), date_rows, b) == "2001-01-01"
        assert evaluate_group(agg("MIN", ColumnRef("d")), date_rows, b) == "1999-12-31"


class TestMixedEvaluation:
    def test_scalar_on_first_row(self, binding):
        value = evaluate_group(ColumnRef("Sid", "S"), GROUP, binding)
        assert value == "s1"

    def test_aggregate(self, binding):
        value = evaluate_group(agg("SUM", ColumnRef("Age")), GROUP, binding)
        assert value == 30

    def test_arithmetic_over_aggregates(self, binding):
        expr = BinaryOp(
            "/", agg("SUM", ColumnRef("Age")), agg("COUNT", ColumnRef("Age"))
        )
        assert evaluate_group(expr, GROUP, binding) == 15

    def test_empty_group_scalar_is_null(self, binding):
        assert evaluate_group(ColumnRef("Age"), [], binding) is None

    def test_arithmetic_over_two_aggregates(self, binding):
        age = ColumnRef("Age")
        mean = BinaryOp("/", agg("SUM", age), FuncCall("COUNT", (Star(),)))
        assert evaluate_group(mean, GROUP, binding) == 10  # 30 / 3 rows
        spread = BinaryOp("-", agg("MAX", age), agg("MIN", age))
        assert evaluate_group(spread, GROUP, binding) == 10

    def test_division_by_zero_aggregate_raises(self, binding):
        expr = BinaryOp(
            "/", agg("SUM", ColumnRef("Age")), agg("COUNT", ColumnRef("Age"))
        )
        all_null = [("s1", "a", None)]
        # SUM is NULL there, so the division short-circuits to NULL ...
        assert evaluate_group(expr, all_null, binding) is None
        # ... but a non-NULL numerator over a zero count must raise
        expr = BinaryOp(
            "/", FuncCall("COUNT", (Star(),)), agg("COUNT", ColumnRef("Age"))
        )
        with pytest.raises(SqlExecutionError, match="division by zero"):
            evaluate_group(expr, all_null, binding)

    def test_null_aggregate_operand_is_null(self, binding):
        expr = BinaryOp(
            "+", agg("MAX", ColumnRef("Age")), FuncCall("COUNT", (Star(),))
        )
        assert evaluate_group(expr, [], binding) is None

    def test_boolean_over_aggregates_raises(self, binding):
        expr = BinaryOp(
            "AND", agg("MAX", ColumnRef("Age")), agg("MIN", ColumnRef("Age"))
        )
        with pytest.raises(SqlExecutionError, match="boolean aggregates"):
            evaluate_group(expr, GROUP, binding)
