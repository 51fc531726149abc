"""Value model for the in-memory relational engine.

The engine supports a small set of scalar datatypes sufficient for the
paper's workloads (TPC-H and ACM Digital Library): integers, floats,
strings, dates and booleans.  ``NULL`` is represented by Python ``None``.

Dates are stored as ISO-8601 strings (``YYYY-MM-DD``); this keeps values
hashable and totally ordered without pulling in ``datetime`` objects, while
``MIN``/``MAX`` over dates behave correctly because ISO dates sort
lexicographically.
"""

from __future__ import annotations

import enum
import re
from functools import partial
from operator import is_not
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import TypeMismatchError

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
#: whether a value is not NULL, as a C-level predicate for ``filter``
not_null = partial(is_not, None)


class DataType(enum.Enum):
    """Declared type of a column."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"
    BOOL = "bool"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce *value* to *dtype*, raising :class:`TypeMismatchError` on failure.

    ``None`` passes through unchanged (SQL NULL is typeless).  Numeric
    widening (int -> float) is allowed; silent narrowing is not.
    """
    if value is None:
        return None
    try:
        if dtype is DataType.INT:
            if isinstance(value, bool):
                raise TypeMismatchError(f"cannot store bool {value!r} in INT column")
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                return int(value)
        elif dtype is DataType.FLOAT:
            if isinstance(value, bool):
                raise TypeMismatchError(f"cannot store bool {value!r} in FLOAT column")
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value)
        elif dtype is DataType.TEXT:
            if isinstance(value, str):
                return value
            return str(value)
        elif dtype is DataType.DATE:
            if isinstance(value, str):
                if not _DATE_RE.match(value):
                    raise TypeMismatchError(f"{value!r} is not an ISO date (YYYY-MM-DD)")
                return value
        elif dtype is DataType.BOOL:
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
    except (ValueError, TypeError) as exc:
        raise TypeMismatchError(f"cannot coerce {value!r} to {dtype}") from exc
    raise TypeMismatchError(f"cannot coerce {value!r} to {dtype}")


#: per declared type, the value types :func:`coerce` returns unchanged
_STORED_AS_IS = {
    DataType.INT: {int, type(None)},
    DataType.FLOAT: {float, type(None)},
    DataType.TEXT: {str, type(None)},
    DataType.DATE: {str, type(None)},
    DataType.BOOL: {bool, type(None)},
}


def coerce_column(
    values: Sequence[Any], dtype: DataType
) -> Tuple[Optional[List[Any]], Optional[Exception]]:
    """:func:`coerce` over one column, checked as a whole first.

    Returns ``(None, None)`` when every value already is what
    :func:`coerce` would return — exact types only, and every DATE
    matching the ISO pattern — so the caller keeps the values it has.
    Otherwise each value is coerced in turn: ``(coerced, None)`` when all
    pass, or the values before the first failure and what it raised."""
    if set(map(type, values)) <= _STORED_AS_IS[dtype] and (
        dtype is not DataType.DATE
        or all(map(_DATE_RE.match, filter(not_null, values)))
    ):
        return None, None
    coerced: List[Any] = []
    for value in values:
        try:
            coerced.append(coerce(value, dtype))
        except Exception as exc:  # what coerce raised, for the caller to raise
            return coerced, exc
    return coerced, None


def is_numeric(dtype: DataType) -> bool:
    """Return True for types on which SUM/AVG are meaningful."""
    return dtype in (DataType.INT, DataType.FLOAT)


def infer_type(value: Any) -> Optional[DataType]:
    """Infer the :class:`DataType` of a Python value, or None for NULL."""
    if value is None:
        return None
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        if _DATE_RE.match(value):
            return DataType.DATE
        return DataType.TEXT
    raise TypeMismatchError(f"unsupported value {value!r} of type {type(value).__name__}")


def common_type(left: DataType, right: DataType) -> DataType:
    """Return the widened common type of two datatypes for comparisons.

    INT and FLOAT widen to FLOAT; DATE and TEXT widen to TEXT; everything
    else must match exactly.
    """
    if left is right:
        return left
    pair = {left, right}
    if pair == {DataType.INT, DataType.FLOAT}:
        return DataType.FLOAT
    if pair == {DataType.DATE, DataType.TEXT}:
        return DataType.TEXT
    raise TypeMismatchError(f"no common type for {left} and {right}")
