"""Cardinality estimation for predicates, equi-joins and GROUP BY.

The primary estimator is *sample evaluation*: a pushed predicate arrives
already compiled to a closure (the same closure the scan will run), so
running it over the table's reservoir sample estimates its selectivity
for free — uniformly across equality, ranges, ``contains`` and arbitrary
boolean combinations, and jointly across several predicates (which
captures column correlation that independence formulas miss).  Counts
are Laplace-smoothed so no estimate collapses to exactly 0 or 1.

When no sample exists (derived tables, empty tables) a predicate gets a
guess by shape: ``contains`` 0.1, anything else 1/3.  Equi-joins use
``1/max(V(l), V(r))`` and GROUP BY output sizes ``min(rows,
prod(NDV(keys)))`` over the profiles' NDV.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.planner.stats import DEFAULT_PREDICATE_SELECTIVITY
from repro.sql.ast import Contains, Expr

__all__ = [
    "closure_hits",
    "closure_selectivity",
    "expression_selectivity",
    "scan_selectivity",
    "join_selectivity",
    "group_output_estimate",
    "sampled_selectivity",
]

#: assumed selectivity of a pushed ``contains`` phrase with no sample
CONTAINS_SELECTIVITY = 0.1


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
    return sampled_selectivity(closure_hits(closures, sample), len(sample))


def closure_hits(closures: Sequence[Callable[[Any], Any]], sample: Sequence[Any]) -> int:
    """How many sample rows satisfy every closure (one that raises on a
    row counts it as a non-match)."""
    if len(closures) == 1:
        try:  # the usual case, one predicate that raises on no row
            return sum(1 for kept in map(closures[0], sample) if kept)
        except Exception:
            pass  # count row by row
    hits = 0
    for row in sample:
        try:
            if all(fn(row) for fn in closures):
                hits += 1
        except Exception:
            pass
    return hits


def sampled_selectivity(hits: int, sampled: int) -> float:
    """*hits* of *sampled* rows as a selectivity, Laplace-smoothed."""
    return (hits + 0.5) / (sampled + 1.0)


def expression_selectivity(expr: Expr) -> float:
    """Guess for one predicate with no sample to run it over, by shape."""
    if isinstance(expr, Contains):
        return CONTAINS_SELECTIVITY
    return DEFAULT_PREDICATE_SELECTIVITY


def scan_selectivity(
    exprs: Sequence[Expr],
    closures: Sequence[Callable[[Any], Any]],
    sample: Sequence[Any],
) -> float:
    """Joint selectivity of pushed predicates of one scan.

    Evaluated jointly over the sample (correlation-aware); with no
    sample, the product of the per-predicate guesses (independence
    assumption).
    """
    if not exprs:
        return 1.0
    sampled = closure_selectivity(closures, sample)
    if sampled is not None:
        return sampled
    joint = 1.0
    for expr in exprs:
        joint *= expression_selectivity(expr)
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
