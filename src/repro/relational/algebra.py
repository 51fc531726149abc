"""Relational-algebra operators over labelled rowsets.

A :class:`Rowset` is the executor's intermediate representation: a list of
tuples plus a :class:`~repro.relational.expressions.Binding` describing each
position as ``(alias, column)``.  The operators here are pure functions used
by the compiled plans in :mod:`repro.relational.plan`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, List, Sequence, Tuple

from repro.cancellation import CHECK_STRIDE, current_token
from repro.relational.expressions import Binding, ColumnLabel

# join loops poll the ambient cancellation token once per _STRIDE outer
# iterations so a runaway join aborts mid-flight (see repro.cancellation)
_STRIDE_MASK = CHECK_STRIDE - 1


class Rowset:
    """Rows plus their column binding."""

    __slots__ = ("binding", "rows")

    def __init__(self, binding: Binding, rows: List[Tuple[Any, ...]]) -> None:
        self.binding = binding
        self.rows = rows

    @classmethod
    def from_labels(
        cls, labels: Sequence[ColumnLabel], rows: Iterable[Sequence[Any]]
    ) -> "Rowset":
        return cls(Binding(labels), [tuple(row) for row in rows])

    def __len__(self) -> int:
        return len(self.rows)


def distinct(rowset: Rowset) -> Rowset:
    """delta: remove duplicate rows, preserving first-seen order."""
    return Rowset(rowset.binding, list(dict.fromkeys(rowset.rows)))


def cross_join(left: Rowset, right: Rowset) -> Rowset:
    """Cartesian product (cancellation checked once per outer row)."""
    binding = left.binding.merge(right.binding)
    token = current_token()
    rows: List[Tuple[Any, ...]] = []
    extend = rows.extend
    # a tighter stride than the hash-join probes: every outer row fans out
    # into len(right) output tuples, so the work between checks multiplies
    for i, l in enumerate(left.rows):
        if not (i & 63):
            token.check()
        extend([l + r for r in right.rows])
    return Rowset(binding, rows)


def hash_join(
    left: Rowset,
    right: Rowset,
    left_positions: Sequence[int],
    right_positions: Sequence[int],
) -> Rowset:
    """Equi-join on the given column positions using a hash table.

    NULL join keys never match (SQL semantics).  The smaller side is used as
    the build input.
    """
    if len(left_positions) != len(right_positions):
        raise ValueError("join key arity mismatch")
    build, probe = left, right
    build_positions, probe_positions = list(left_positions), list(right_positions)
    swapped = False
    if len(right) < len(left):
        build, probe = right, left
        build_positions, probe_positions = list(right_positions), list(left_positions)
        swapped = True
    binding = left.binding.merge(right.binding)
    token = current_token()
    out: List[Tuple[Any, ...]] = []
    append = out.append
    table: dict = {}
    if len(build_positions) == 1:
        # single-key joins (the overwhelmingly common case) skip tuple-key
        # construction and the per-part NULL scan entirely
        build_pos = build_positions[0]
        probe_pos = probe_positions[0]
        for row in build.rows:
            key = row[build_pos]
            if key is None:
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)
        lookup = table.get
        if swapped:
            for i, probe_row in enumerate(probe.rows):
                if not (i & _STRIDE_MASK):
                    token.check()
                bucket = lookup(probe_row[probe_pos])
                if bucket is not None:
                    for build_row in bucket:
                        append(probe_row + build_row)
        else:
            for i, probe_row in enumerate(probe.rows):
                if not (i & _STRIDE_MASK):
                    token.check()
                bucket = lookup(probe_row[probe_pos])
                if bucket is not None:
                    for build_row in bucket:
                        append(build_row + probe_row)
        return Rowset(binding, out)
    build_key = itemgetter(*build_positions)
    probe_key = itemgetter(*probe_positions)
    for row in build.rows:
        key = build_key(row)
        if None in key:
            continue
        bucket = table.get(key)
        if bucket is None:
            table[key] = [row]
        else:
            bucket.append(row)
    lookup = table.get
    for i, probe_row in enumerate(probe.rows):
        if not (i & _STRIDE_MASK):
            token.check()
        key = probe_key(probe_row)
        if None in key:
            continue
        bucket = lookup(key)
        if bucket is None:
            continue
        if swapped:
            for build_row in bucket:
                append(probe_row + build_row)
        else:
            for build_row in bucket:
                append(build_row + probe_row)
    return Rowset(binding, out)


def null_safe_sort_key(value: Any) -> Tuple[int, Any]:
    """Sort key placing NULLs first and keeping mixed types comparable."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (1, 1, value)
    return (1, 2, str(value))
