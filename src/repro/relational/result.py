"""Materialized query results.

:class:`QueryResult` is the output type of every compiled plan; it
lives in its own module so :mod:`repro.relational.plan` and
:mod:`repro.relational.executor` can share it without a circular import.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.relational.algebra import null_safe_sort_key


def normalize_aggregate(func: str, value: Any) -> Any:
    """Normalize an aggregate's result to its SQL type.

    Every aggregate closure routes its value through this one function
    so output types agree with a real SQL backend:

    * ``COUNT`` is always an ``int`` (never a bool, never a float);
    * ``AVG`` is always a ``float`` when non-NULL, even when the mean of
      integer inputs happens to be integral;
    * ``SUM``/``MIN``/``MAX`` over an empty or all-NULL group stay ``None``
      (SQL semantics: no input rows means no sum), and a ``SUM`` of
      booleans widens to ``int`` the way SQL backends store booleans.
    """
    name = func.upper()
    if name == "COUNT":
        return int(value)
    if value is None:
        return None
    if name == "AVG":
        return float(value)
    if name == "SUM" and isinstance(value, bool):
        return int(value)
    return value


class QueryResult:
    """Materialized result of a query: column names plus row tuples."""

    def __init__(self, columns: Sequence[str], rows: List[Tuple[Any, ...]]) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self.columns == other.columns and sorted(
            self.rows, key=lambda r: tuple(map(null_safe_sort_key, r))
        ) == sorted(other.rows, key=lambda r: tuple(map(null_safe_sort_key, r)))

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> List[Any]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise SqlExecutionError(f"no result column {name!r}") from None
        return [row[index] for row in self.rows]

    def sorted_rows(self) -> List[Tuple[Any, ...]]:
        """Rows in a deterministic order, for comparisons in tests."""
        return sorted(self.rows, key=lambda r: tuple(map(null_safe_sort_key, r)))

    def format_table(self, max_rows: int = 20) -> str:
        """ASCII rendering for examples and experiment reports."""
        shown = self.rows[:max_rows]
        cells = [[str(col) for col in self.columns]] + [
            ["NULL" if v is None else str(v) for v in row] for row in shown
        ]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.columns))]
        lines = []
        header, *body = cells
        lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("-+-".join("-" * w for w in widths))
        for row in body:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryResult(columns={self.columns}, rows={len(self.rows)})"
