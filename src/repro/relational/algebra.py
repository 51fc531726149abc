"""Relational-algebra kernels over column vectors.

The unit of data here is the **column vector** — a plain list holding one
column's values in row order — and the **position vector**, a list of row
positions into such columns.  A join does not build rows: it reads the key
columns of its two inputs and answers with a pair of position vectors;
whoever needs a column of the join result gathers it
(:func:`gather`) through the vector of the side the column came from.
Grouping likewise assigns every row a group id once (:class:`Grouping`)
and each aggregate then consumes one column.  Row tuples appear only
where a row *is* the value wanted: a composite join or group key, and
:func:`distinct`.  The operators of :mod:`repro.relational.plan` are built
from these kernels; every kernel is a whole-column pass, so the ambient
cancellation token (:mod:`repro.cancellation`) is polled on entry rather
than inside the loops — except per outer row of a cross join, whose
output multiplies and which therefore produces its columns directly, an
outer row at a time, not position vectors to gather through.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count, repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cancellation import current_token

Vector = List[Any]
#: row positions into a column vector; None stands for "every row, in order"
Positions = Optional[List[int]]


def gather(vector: Vector, positions: Optional[Sequence[int]]) -> Vector:
    """The values of *vector* at *positions* (all of them for None)."""
    if positions is None:
        return vector
    return list(map(vector.__getitem__, positions))


def distinct(columns: Sequence[Vector]) -> List[Tuple[Any, ...]]:
    """delta: the distinct rows of *columns*, in first-seen order."""
    return list(dict.fromkeys(zip(*columns)))


def cross_join(
    left: Sequence[Vector], right: Sequence[Vector], left_rows: int, right_rows: int
) -> Tuple[List[Vector], List[Vector]]:
    """Cartesian product of two inputs of the given sizes: each *left*
    column with every value repeated ``right_rows`` times, each *right*
    column tiled ``left_rows`` times.  Built one outer row at a time,
    with a cancellation check per outer row."""
    token = current_token()
    left_out: List[Vector] = [[] for _ in left]
    right_out: List[Vector] = [[] for _ in right]
    for position in range(left_rows):
        token.check()
        for out, vector in zip(left_out, left):
            out += repeat(vector[position], right_rows)
        for out, vector in zip(right_out, right):
            out += vector
    return left_out, right_out


def hash_join(
    left_keys: Sequence[Vector], right_keys: Sequence[Vector]
) -> Tuple[Positions, Positions]:
    """Equi-join on the given key columns (one list per key part and
    side): the positions of the matching rows of each side, pair by pair.

    NULL join keys never match (SQL semantics); duplicate keys multiply.
    The smaller side is the build input, the output follows the probe
    side's row order, and a probe side whose every row matched exactly
    once comes back as None (nothing to gather).
    """
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ValueError("join key arity mismatch")
    current_token().check()
    composite = len(left_keys) > 1
    left = list(zip(*left_keys)) if composite else left_keys[0]
    right = list(zip(*right_keys)) if composite else right_keys[0]
    if len(right) < len(left):
        right_positions, left_positions = _probe(right, left, composite)
    else:
        left_positions, right_positions = _probe(left, right, composite)
    return left_positions, right_positions


def probe_join(build: Vector, probe: Vector) -> Tuple[List[int], Positions]:
    """:func:`hash_join` on one key column a side, with the sides fixed:
    *build* is hashed whatever its size, and the matches come back in
    *probe* order — for a join whose output order is decided by the
    caller."""
    current_token().check()
    return _probe(build, probe, False)


def _probe(build: Vector, probe: Vector, composite: bool) -> Tuple[List[int], Positions]:
    """``(build positions, probe positions)`` of the matches, in probe
    order and, under one probe row, in build order."""
    index: Dict[Any, Any] = dict(zip(build, count()))
    unique = len(index) == len(build)
    if not unique:
        index = {}
        for position, key in enumerate(build):
            bucket = index.get(key)
            if bucket is None:
                index[key] = [position]
            else:
                bucket.append(position)
    # NULL never joins: without its keys the build side cannot match one
    if composite:
        for key in [key for key in index if None in key]:
            del index[key]
    else:
        index.pop(None, None)
    hits = list(map(index.get, probe))
    if unique:
        # the common case (a key side): one build row per probe row at most
        if None not in hits:
            return hits, None
        matched = [hit is not None for hit in hits]
        return list(compress(hits, matched)), list(compress(count(), matched))
    build_positions: List[int] = []
    probe_positions: List[int] = []
    for position, bucket in enumerate(hits):
        if bucket is not None:
            build_positions += bucket
            probe_positions += repeat(position, len(bucket))
    return build_positions, probe_positions


class Grouping:
    """Rows assigned to groups numbered in first-seen order.

    *keys* holds one hashable per row (a value, or a tuple for a
    composite GROUP BY); ``None`` in its place means no GROUP BY: one
    group holding every row, present even when there are no rows.  Each
    aggregate reads the grouping and one column of values; groups see
    their values in row order.  One counting pass over the keys settles
    the groups, their order, their sizes and their key values; the
    per-row group ids are worked out only if an aggregate needs to
    split a column by them.
    """

    __slots__ = ("rows", "size", "_keys", "_tally", "_ids")

    def __init__(self, keys: Optional[Vector], rows: int) -> None:
        current_token().check()
        self.rows = rows
        self._keys = keys
        #: key -> rows of its group, in first-seen order
        self._tally: Dict[Any, int] = {None: rows} if keys is None else Counter(keys)
        self.size = len(self._tally)
        self._ids: Optional[List[int]] = None

    @classmethod
    def summed(cls, keys: Optional[Vector], weights: Sequence[int]) -> "Grouping":
        """Groups over rows that each stand for *weights* rows — counts
        taken before a join, or an index's count per key: a group's row
        count is the sum of its rows' weights, in first-seen order.  Only
        the row counts and the key values are read of it."""
        current_token().check()
        tally: Dict[Any, int] = {}
        if keys is None:
            tally[None] = sum(weights)
        else:
            held = tally.get
            for key, weight in zip(keys, weights):
                tally[key] = held(key, 0) + weight
        grouping = cls.__new__(cls)
        grouping.rows = sum(weights)
        grouping.size = len(tally)
        grouping._keys = None
        grouping._tally = tally
        grouping._ids = None
        return grouping

    def _group_of_row(self) -> List[int]:
        if self._ids is None:
            assert self._keys is not None
            number = dict(zip(self._tally, count()))
            self._ids = list(map(number.__getitem__, self._keys))
        return self._ids

    def counts(self) -> List[int]:
        """Rows per group."""
        return list(self._tally.values())

    def key_part(self, part: int, width: int) -> Vector:
        """Each group's value of GROUP BY key *part* of *width* — as its
        first row holds it."""
        if width == 1:
            return list(self._tally)
        return [key[part] for key in self._tally]

    def count_values(self, values: Vector) -> List[int]:
        """Non-NULL *values* per group."""
        if None not in values:
            return self.counts()
        if self._keys is None:
            return [self.rows - values.count(None)]
        nulls = Counter(
            compress(self._group_of_row(), [value is None for value in values])
        )
        return [rows - nulls[group] for group, rows in enumerate(self.counts())]

    def split(self, values: Vector) -> List[Vector]:
        """The non-NULL *values* of each group, in row order."""
        has_null = None in values
        if self._keys is None:
            if has_null:
                return [[value for value in values if value is not None]]
            return [values]
        buckets: List[Vector] = [[] for _ in range(self.size)]
        appends = [bucket.append for bucket in buckets]
        routed = zip(map(appends.__getitem__, self._group_of_row()), values)
        if has_null:
            for append, value in routed:
                if value is not None:
                    append(value)
        else:
            for append, value in routed:
                append(value)
        return buckets

    def firsts(self) -> List[int]:
        """The position of each group's first row (none for the one
        group of an empty input)."""
        if self._keys is None:
            return [0] if self.rows else []
        # assigning back to front leaves every key at its first position
        first = dict(zip(reversed(self._keys), range(self.rows - 1, -1, -1)))
        return list(map(first.__getitem__, self._tally))


def null_safe_sort_key(value: Any) -> Tuple[int, Any]:
    """Sort key placing NULLs first and keeping mixed types comparable."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (1, 1, value)
    return (1, 2, str(value))
