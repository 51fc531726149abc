"""Canonical result values for cross-backend comparison.

The coercion rules live in this one module so the differential harness's
notion of "equal" is explicit and auditable, not scattered across call
sites.  Two backends agree on a query iff their canonical row multisets
are equal.  The rules, in order:

``bool`` → ``int``
    The in-memory engine keeps Python booleans; SQLite stores 0/1.  Both
    mean the same SQL value.

``float`` → 12 significant digits, compared to a relative 1e-9
    SUM/AVG over floats accumulate in whatever order each backend scans
    rows, so the last few bits of the mantissa legitimately differ.
    ``float(f"{v:.12g}")`` gives the canonical (printable, sortable)
    form, but equality of two rounded values is not the test: two sums a
    few ulps apart can fall on either side of a rounding boundary
    (``AVG amount GROUPBY part`` on TPC-H SF 1: 138907.549062 against
    138907.549063).  :func:`rows_match` therefore compares floats with
    ``math.isclose(rel_tol=1e-9)``, which absorbs summation-order noise
    while still catching any real arithmetic bug (wrong rows, integer
    division, missed NULLs) by many orders of magnitude.  Non-finite
    floats pass through unchanged.

``int`` ↔ ``float`` equality is *not* granted
    ``2`` and ``2.0`` stay distinct: aggregate output types are part of
    the contract (:func:`repro.relational.result.normalize_aggregate`
    pins AVG to ``float`` and COUNT to ``int``), so a type drift between
    backends is a bug the harness must report, not paper over.

Ordering is canonical, not semantic: generated SQL never emits ORDER BY
or LIMIT, so results are row *multisets* and comparison sorts both sides
with a null-safe, type-ranked key.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Sequence, Tuple

from repro.relational.algebra import null_safe_sort_key

__all__ = [
    "canonical_row",
    "canonical_rows",
    "canonical_value",
    "rows_match",
]

#: Significant digits retained when canonicalizing floats.
FLOAT_SIGNIFICANT_DIGITS = 12
#: Relative difference up to which :func:`rows_match` calls two floats equal.
FLOAT_RELATIVE_TOLERANCE = 1e-9


def canonical_value(value: Any) -> Any:
    """One cell value, coerced to its canonical comparison form."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        return float(f"{value:.{FLOAT_SIGNIFICANT_DIGITS}g}")
    return value


def canonical_row(row: Sequence[Any]) -> Tuple[Any, ...]:
    return tuple(canonical_value(v) for v in row)


def canonical_rows(rows: Iterable[Sequence[Any]]) -> List[Tuple[Any, ...]]:
    """Canonicalized rows in canonical (null-safe, type-ranked) order."""
    return sorted(
        (canonical_row(row) for row in rows),
        key=lambda r: tuple(map(null_safe_sort_key, r)),
    )


def rows_match(left: Iterable[Sequence[Any]], right: Iterable[Sequence[Any]]) -> bool:
    """True iff the two row multisets are canonically equal, floats to
    a relative :data:`FLOAT_RELATIVE_TOLERANCE`.

    Comparison is type-strict: plain ``==`` would let Python's numeric
    tower declare ``2 == 2.0``, hiding exactly the aggregate-type drift
    this module promises to report.
    """
    lc, rc = canonical_rows(left), canonical_rows(right)
    if len(lc) != len(rc):
        return False
    for lrow, rrow in zip(lc, rc):
        if len(lrow) != len(rrow):
            return False
        for lv, rv in zip(lrow, rrow):
            if type(lv) is not type(rv):
                return False
            if isinstance(lv, float):
                if not math.isclose(lv, rv, rel_tol=FLOAT_RELATIVE_TOLERANCE):
                    return False
            elif lv != rv:
                return False
    return True
