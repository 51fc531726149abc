"""Scalar and aggregate expression evaluation for the executor.

A :class:`Binding` maps column references (qualified or not) to positions in
a working row.  NULL semantics follow SQL where it matters for the paper's
queries: comparisons involving NULL are not satisfied, aggregates ignore
NULLs, and ``SUM``/``MIN``/``MAX``/``AVG`` over an empty or all-NULL input
yield NULL.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Contains,
    Expr,
    FuncCall,
    IsNull,
    Literal,
    Star,
)

ColumnLabel = Tuple[Optional[str], str]  # (qualifier, column name)


class Binding:
    """Resolves column references against an ordered list of column labels."""

    def __init__(self, labels: Sequence[ColumnLabel]) -> None:
        self.labels: Tuple[ColumnLabel, ...] = tuple(labels)
        self._exact: Dict[ColumnLabel, int] = {}
        self._by_name: Dict[str, List[int]] = {}
        for index, (qualifier, name) in enumerate(self.labels):
            self._exact[(qualifier, name.lower())] = index
            self._by_name.setdefault(name.lower(), []).append(index)

    def resolve(self, ref: ColumnRef) -> int:
        """Position of *ref* in the row; raises on unknown or ambiguous."""
        name = ref.name.lower()
        if ref.qualifier is not None:
            index = self._exact.get((ref.qualifier, name))
            if index is None:
                raise SqlExecutionError(f"unknown column {ref}")
            return index
        candidates = self._by_name.get(name, [])
        if not candidates:
            raise SqlExecutionError(f"unknown column {ref}")
        if len(candidates) > 1:
            raise SqlExecutionError(f"ambiguous column {ref}")
        return candidates[0]

    def can_resolve(self, ref: ColumnRef) -> bool:
        try:
            self.resolve(ref)
        except SqlExecutionError:
            return False
        return True

    def merge(self, other: "Binding") -> "Binding":
        return Binding(self.labels + other.labels)

    def __len__(self) -> int:
        return len(self.labels)


def _align_comparable(left: Any, right: Any) -> Tuple[Any, Any]:
    """Allow int/float comparisons; otherwise require matching types."""
    if isinstance(left, bool) or isinstance(right, bool):
        if type(left) is not type(right):
            raise SqlExecutionError(f"cannot compare {left!r} with {right!r}")
        return left, right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    raise SqlExecutionError(f"cannot compare {left!r} with {right!r}")


def _require_numeric(values: Sequence[Any], func: str) -> None:
    # bool is its own type, so a column of True/False still reaches the
    # raising loop below
    if {int, float}.issuperset(map(type, values)):
        return
    for value in values:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SqlExecutionError(f"{func} over non-numeric value {value!r}")


# ----------------------------------------------------------------------
# Closure compilation
# ----------------------------------------------------------------------
# Compiled plans (repro.relational.plan) evaluate expressions through
# closures built once per (expression, binding) pair instead of walking
# the AST and re-resolving column references on every row.  Evaluation
# errors (unknown column, type mismatch, division by zero) surface when a
# closure is called on a row, never at compile time, so a statement over
# an empty input still succeeds.

ScalarFn = Callable[[Sequence[Any]], Any]
GroupFn = Callable[[Sequence[Sequence[Any]]], Any]

_COMPARISON_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _raising(message: str) -> ScalarFn:
    """A closure that raises at call time: evaluation errors surface
    only when a row is evaluated."""

    def fail(_row: Sequence[Any]) -> Any:
        raise SqlExecutionError(message)

    return fail


def _raising_group(message: str) -> GroupFn:
    def fail(_rows: Sequence[Sequence[Any]]) -> Any:
        raise SqlExecutionError(message)

    return fail


def compile_scalar(expr: Expr, binding: Binding) -> ScalarFn:
    """Compile a scalar expression into a ``row -> value`` closure."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        try:
            index = binding.resolve(expr)
        except SqlExecutionError as exc:
            return _raising(str(exc))
        return operator.itemgetter(index)
    if isinstance(expr, Contains):
        operand = compile_scalar(expr.column, binding)
        needle = expr.phrase.lower()

        def contains(row: Sequence[Any]) -> bool:
            value = operand(row)
            if value is None:
                return False
            return needle in str(value).lower()

        return contains
    if isinstance(expr, IsNull):
        operand = compile_scalar(expr.operand, binding)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, BinaryOp):
        return _binary_closure(
            expr.op,
            compile_scalar(expr.left, binding),
            compile_scalar(expr.right, binding),
        )
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            return _raising(
                f"aggregate {expr.name} used outside GROUP BY evaluation"
            )
        return _raising(f"unknown function {expr.name!r}")
    if isinstance(expr, Star):
        return _raising("'*' is only valid inside COUNT(*)")
    return _raising(f"cannot evaluate expression {expr!r}")


def _binary_closure(op_text: str, left: Callable, right: Callable) -> Callable:
    """``left <op> right`` over compiled operands.  The operands take
    whatever the result is called with — a row for scalar expressions,
    a group's rows for arithmetic over aggregates."""
    op = op_text.upper()
    if op == "AND":
        return lambda row: bool(left(row)) and bool(right(row))
    if op == "OR":
        return lambda row: bool(left(row)) or bool(right(row))
    compare = _COMPARISON_OPS.get(op)
    if compare is not None:

        def comparison(row: Sequence[Any]) -> bool:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False  # SQL UNKNOWN, treated as not-satisfied
            a, b = _align_comparable(a, b)
            return compare(a, b)

        return comparison
    if op in ("+", "-", "*", "/"):
        combine = {
            "+": operator.add,
            "-": operator.sub,
            "*": operator.mul,
        }.get(op)

        def arithmetic(row: Sequence[Any]) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                raise SqlExecutionError(
                    f"arithmetic on non-numeric values {a!r}, {b!r}"
                )
            if combine is not None:
                return combine(a, b)
            if b == 0:
                raise SqlExecutionError("division by zero")
            return a / b

        return arithmetic
    return _raising(f"unknown operator {op_text!r}")


def compile_predicate(expr: Expr, binding: Binding) -> ScalarFn:
    """Compile a WHERE conjunct; the result is used for truthiness."""
    return compile_scalar(expr, binding)


def _compile_aggregate_call(call: FuncCall, binding: Binding) -> GroupFn:
    # imported lazily to break the result -> algebra -> expressions cycle;
    # this runs once per compiled plan, never per row
    from repro.relational.result import normalize_aggregate

    name = call.name.upper()
    if name == "COUNT":
        # COUNT closures produce ints by construction (len / sum of 1s),
        # which is exactly normalize_aggregate("COUNT", ...) — no wrapper
        if len(call.args) == 1 and isinstance(call.args[0], Star):
            return len
        arg = compile_scalar(call.args[0], binding)
        if call.distinct:
            return lambda rows: len(
                {value for value in map(arg, rows) if value is not None}
            )
        return lambda rows: len(rows) - list(map(arg, rows)).count(None)
    if len(call.args) != 1:
        return _raising_group(f"{name} takes exactly one argument")
    arg = compile_scalar(call.args[0], binding)
    use_distinct = call.distinct

    def gather(rows: Sequence[Sequence[Any]]) -> List[Any]:
        values = [value for value in map(arg, rows) if value is not None]
        if use_distinct:
            values = list(set(values))
        return values

    if name == "SUM":

        def agg_sum(rows: Sequence[Sequence[Any]]) -> Any:
            values = gather(rows)
            if not values:
                return None
            _require_numeric(values, "SUM")
            return normalize_aggregate("SUM", sum(values))

        return agg_sum
    if name == "AVG":

        def agg_avg(rows: Sequence[Sequence[Any]]) -> Any:
            values = gather(rows)
            if not values:
                return None
            _require_numeric(values, "AVG")
            return normalize_aggregate("AVG", sum(values) / len(values))

        return agg_avg
    if name == "MIN":
        return lambda rows: normalize_aggregate("MIN", min(gather(rows), default=None))
    if name == "MAX":
        return lambda rows: normalize_aggregate("MAX", max(gather(rows), default=None))
    return _raising_group(f"unknown aggregate {name!r}")


def compile_aggregate(expr: Expr, binding: Binding) -> GroupFn:
    """Compile an output expression that may mix aggregates and scalars
    into a ``group_rows -> value`` closure.

    Scalar sub-expressions are evaluated on the group's first row (legal
    because translators only put group-by expressions outside aggregates).
    """
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return _compile_aggregate_call(expr, binding)
    if isinstance(expr, BinaryOp) and expr.contains_aggregate():
        if expr.op.upper() in ("AND", "OR"):
            return _raising_group("boolean aggregates are not supported")
        return _binary_closure(
            expr.op,
            compile_aggregate(expr.left, binding),
            compile_aggregate(expr.right, binding),
        )
    scalar = compile_scalar(expr, binding)

    def first_row(rows: Sequence[Sequence[Any]]) -> Any:
        if not rows:
            return None
        return scalar(rows[0])

    return first_row
