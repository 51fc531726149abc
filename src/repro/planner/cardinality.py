"""Cardinality estimation for predicates, equi-joins and GROUP BY.

The primary estimator is *sample evaluation*: a pushed predicate arrives
already compiled to a closure (the same closure the scan will run), so
running it over the table's reservoir sample estimates its selectivity
for free — uniformly across equality, ranges, ``contains`` and arbitrary
boolean combinations, and jointly across several predicates (which
captures column correlation that independence formulas miss).  Counts
are Laplace-smoothed so no estimate collapses to exactly 0 or 1.

When no sample exists (derived tables, empty tables) the estimator falls
back to the classical formulas over :class:`ColumnProfile` summaries:
MCV/NDV for equality, equi-height histogram interpolation for ranges,
``1/max(V(l), V(r))`` for equi-joins, and ``min(rows, prod(NDV(keys)))``
for GROUP BY output sizes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.planner.stats import (
    DEFAULT_PREDICATE_SELECTIVITY,
    ColumnProfile,
    TableProfile,
)
from repro.sql.ast import BinaryOp, ColumnRef, Contains, Expr, Literal

__all__ = [
    "closure_selectivity",
    "expression_selectivity",
    "predicate_selectivity",
    "scan_selectivity",
    "join_selectivity",
    "group_output_estimate",
]

#: assumed selectivity of a pushed ``contains`` phrase with no sample
CONTAINS_SELECTIVITY = 0.1

_RANGE_OPS = ("<", "<=", ">", ">=")


def closure_selectivity(
    closures: Sequence[Callable[[Any], Any]],
    sample: Sequence[Any],
) -> Optional[float]:
    """Fraction of sample rows satisfying *every* closure, smoothed.

    Returns None when the sample is empty.  A closure that raises on a
    sample row (strict mixed-type comparisons) counts
    as a non-match — if it raises on real rows, execution fails anyway
    and the estimate is moot.
    """
    if not sample:
        return None
    hits = 0
    for row in sample:
        try:
            if all(fn(row) for fn in closures):
                hits += 1
        except Exception:
            pass
    return (hits + 0.5) / (len(sample) + 1.0)


def expression_selectivity(
    expr: Expr, column_of: Callable[[Expr], Optional[ColumnProfile]]
) -> float:
    """Formula fallback for one predicate, from its AST shape.

    *column_of* maps a sub-expression to the owning column's profile
    (None when the expression is not a plain column of the scanned
    table).
    """
    if isinstance(expr, Contains):
        return CONTAINS_SELECTIVITY
    if isinstance(expr, BinaryOp) and expr.op == "=":
        sides = (expr.left, expr.right)
        for ref, literal in (sides, sides[::-1]):
            if not isinstance(literal, Literal):
                continue
            profile = column_of(ref)
            if profile is not None:
                return profile.eq_selectivity(literal.value)
        return DEFAULT_PREDICATE_SELECTIVITY
    if isinstance(expr, BinaryOp) and expr.op in _RANGE_OPS:
        if isinstance(expr.right, Literal):
            profile = column_of(expr.left)
            if profile is not None:
                return profile.range_selectivity(expr.op, expr.right.value)
        if isinstance(expr.left, Literal):
            profile = column_of(expr.right)
            if profile is not None:
                return profile.range_selectivity(
                    _flip_op(expr.op), expr.left.value
                )
        return DEFAULT_PREDICATE_SELECTIVITY
    return DEFAULT_PREDICATE_SELECTIVITY


def _flip_op(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def predicate_selectivity(
    expr: Expr,
    closure: Callable[[Any], Any],
    profile: Optional[TableProfile],
    column_of: Callable[[Expr], Optional[ColumnProfile]],
) -> float:
    """Selectivity of one pushed predicate: sample first, formulas second."""
    if profile is not None:
        sampled = closure_selectivity((closure,), profile.sample)
        if sampled is not None:
            return sampled
    return expression_selectivity(expr, column_of)


def scan_selectivity(
    exprs: Sequence[Expr],
    closures: Sequence[Callable[[Any], Any]],
    profile: Optional[TableProfile],
    column_of: Callable[[Expr], Optional[ColumnProfile]],
) -> float:
    """Joint selectivity of every pushed predicate of one scan.

    Evaluated jointly over the sample (correlation-aware); the fallback
    multiplies the per-predicate formulas (independence assumption).
    """
    if not exprs:
        return 1.0
    if profile is not None:
        sampled = closure_selectivity(closures, profile.sample)
        if sampled is not None:
            return sampled
    joint = 1.0
    for expr in exprs:
        joint *= expression_selectivity(expr, column_of)
    return joint


def join_selectivity(left_ndv: float, right_ndv: float) -> float:
    """Classical equi-join selectivity: ``1 / max(V(l), V(r))``."""
    return 1.0 / max(1.0, left_ndv, right_ndv)


def group_output_estimate(
    input_rows: float, key_ndvs: Iterable[float]
) -> float:
    """Estimated GROUP BY output: ``min(rows, prod(NDV(keys)))``."""
    groups = 1.0
    for ndv in key_ndvs:
        groups *= max(1.0, ndv)
        if groups >= input_rows:
            return max(1.0, input_rows)
    return max(1.0, min(input_rows, groups))
