"""Indexes over table data.

* :class:`KeyIndex` — a table's row positions sorted by the values of
  some columns, an ``array('I')`` bisected over the rows.  Each table
  keeps one on its primary key; ``Database.hash_index`` serves equality
  probes from it, or from one built for other columns.
* :class:`NumericIndex` — per numeric ``(relation, attribute)``, an
  ``array('d')`` of ``float(value)`` sorted ascending beside an
  ``array('I')`` of row positions: a probe is two bisections and a slice.
* :class:`InvertedIndex` — token -> (relation, attribute) -> ``array('I')``
  of row positions over all text columns, for the value terms of a
  keyword query and the ``contains`` predicate of generated SQL.

The executor and the keyword matcher probe all three through one call,
``Database.candidates(kind, table, column, values)``, which the disk
tier's ``StorageEngine`` answers from its own structures; the matcher
finds the columns a term may hit through ``Database.hits``.

All three are built once and then maintained, not rebuilt: tables are
append-only, so ``catch_up()`` compares each table's
:attr:`~repro.relational.table.Table.version` (its row count) with the
rows the index covers and indexes only ``rows[covered:]`` — merged into
the sorted arrays, appended to the postings.  **Reader/writer rule:**
each index owns one lock, and ``catch_up`` runs while holding it.  A
value index mutates its dictionaries and arrays only then, and every
probe copies what it returns while holding it.  A key index publishes a
new array instead, never shifting one a reader is bisecting, so its
probes take no lock.  So a probe sees the index of some whole number of
rows, and positions it returns are valid in ``table.rows`` because rows
only grow."""

from __future__ import annotations

import re
import threading
import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress, count, repeat
from math import isnan
from operator import contains, is_, itemgetter, not_
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
    Union,
)

from repro.errors import IntegrityError
from repro.relational.types import DataType, not_null

if TYPE_CHECKING:
    from repro.relational.table import Row, Table

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_POSITION = "I"  # array typecode of row positions: unsigned 32-bit
Slot = Tuple[str, str]


def tokenize_text(text: str) -> List[str]:
    """Lower-case word tokens of a text value."""
    return _TOKEN_RE.findall(text.lower())


def parse_number(text: str) -> Union[int, float, None]:
    """*text* as a number, None when it reads as none: an integral
    literal by ``int()``, exact at any size; another by ``float()``,
    made an ``int`` when integral (``24.0`` is the INT ``24``)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        number = float(text)
    except ValueError:
        return None
    return int(number) if number.is_integer() else number


def union_of(found: Iterable[Optional[Set[int]]]) -> Optional[Set[int]]:
    """The union of index answers, one per probed value; None as soon as
    one is None (the index cannot answer for that value)."""
    union: Set[int] = set()
    for positions in found:
        if positions is None:
            return None
        union |= positions
    return union


#: a float key ``k`` stands for exactly one integer while ``|k| < 2**53``
_EXACT_INT = 2.0 ** 53


class KeyCounts(NamedTuple):
    """Each distinct value of a column with its row count and the
    position of its first row, in first-seen order — what a ``Counter``
    over the column holds, read from the index over it
    (``Database.key_counts``)."""

    keys: List[int]
    counts: List[int]
    firsts: List[int]


def key_counts_of_runs(
    keys: Sequence[float],
    counts: Sequence[int],
    firsts: Sequence[int],
    tail: Sequence[Any] = (),
    tail_start: int = 0,
) -> Optional[KeyCounts]:
    """:class:`KeyCounts` of an INT column from its index: the runs of
    equal float *keys* in ascending order, each with its row count and
    first position, and the column's *tail* — its values from position
    *tail_start* on, which the index does not hold.  None when a key may
    stand for more than one integer (``|key| >= 2**53``) or the tail
    holds a NULL: the caller counts the column itself."""
    if keys and not (-_EXACT_INT < keys[0] and keys[-1] < _EXACT_INT):
        return None
    order = sorted(range(len(firsts)), key=firsts.__getitem__)
    found = KeyCounts(
        list(map(int, map(keys.__getitem__, order))),
        list(map(counts.__getitem__, order)),
        list(map(firsts.__getitem__, order)),
    )
    if not tail:
        return found
    if None in tail:
        return None
    # assigning back to front leaves every value at its first position
    first = dict(zip(reversed(tail), range(tail_start + len(tail) - 1, tail_start - 1, -1)))
    at = dict(zip(found.keys, count()))
    for key, rows in Counter(tail).items():
        i = at.get(key)
        if i is None:
            found.keys.append(key)
            found.counts.append(rows)
            found.firsts.append(first[key])
        else:
            found.counts[i] += rows
    return found


class KeyIndex:
    """Row positions of one table sorted by the values of *columns*, then
    by position: 4 bytes a row, probed by bisecting over the rows.  A key
    is the value for one column, a tuple for several.  NULL does not
    order against values, so rows with a NULL in *columns* stay out of
    the order and a probe for a key holding NULL reads the rows."""

    def __init__(self, table: Table, columns: Sequence[str]) -> None:
        # weak: the table holds its key index, and a cycle between them
        # would keep a dropped table's rows until the cyclic collector runs
        self.table = weakref.proxy(table)
        self.columns = tuple(columns)
        self._key = itemgetter(*map(table.schema.column_index, self.columns))
        # called as (key, None): whether a key holds a NULL
        self._null = is_ if len(self.columns) == 1 else contains
        self.order = array(_POSITION)  # guarded-by: _writer
        self._covered = 0  # guarded-by: _writer
        self._writer = threading.Lock()
        self.catch_up()

    def catch_up(self) -> None:
        """Publish the order with the rows the table gained merged in.
        Writers take turns, so once this returns the order covers at
        least the version read before."""
        with self._writer:
            start, stop = self._covered, self.table.version
            if start < stop:
                self.order = self._merged(self.order, start, stop)
                self._covered = stop

    def _merged(self, base: array, start: int, stop: int) -> array:
        """*base* with the positions ``start..stop`` merged in, as a new
        array: the batch is sorted, then each of its keys bisected into
        place, so no run of *base* is moved twice or compared again."""
        rows = self.table.rows
        keys = list(map(self._key, rows[start:stop]))
        nulls = map(self._null, keys, repeat(None))
        new = sorted(compress(range(len(keys)), map(not_, nulls)), key=keys.__getitem__)
        if not base:  # a first load: the batch's order is the order
            return array(_POSITION, map(start.__add__, new))
        view = _Keys(base, rows, self._key)
        merged, cut = array(_POSITION), 0
        for i in new:
            at = bisect_right(view, keys[i], cut)
            merged += base[cut:at]
            merged.append(start + i)
            cut = at
        merged += base[cut:]
        return merged

    def _probe(self, key: Sequence[Any]) -> Any:
        """*key*, one value per column, in the index's key form."""
        if isinstance(key, str) or len(key) != len(self.columns):
            raise IntegrityError(
                f"{self.table.schema.name}: a key of {self.columns} takes "
                f"{len(self.columns)} value(s), got {key!r}"
            )
        return key[0] if len(key) == 1 else tuple(key)

    def _span(self, probe: Any) -> Tuple[array, int, int]:
        """The order and the ``[low, high)`` run of it holding *probe*."""
        order = self.order
        view = _Keys(order, self.table.rows, self._key)
        try:
            low = bisect_left(view, probe)
            if low < len(order) and view[low] == probe:
                high = low + 1  # a key is most often held once
                if high < len(order) and view[high] == probe:
                    high = bisect_right(view, probe, high)
                return order, low, high
        except TypeError:  # a probe of another type equals no key
            pass
        return order, 0, 0

    def positions(self, key: Sequence[Any]) -> Set[int]:
        """Row positions holding *key* (used for index-backed scans)."""
        probe = self._probe(key)
        if self._null(probe, None):
            found = enumerate(map(self._key, self.table.rows))
            return {position for position, value in found if value == probe}
        order, low, high = self._span(probe)
        return set(order[low:high])

    def clash(self, rows: List[Row]) -> Optional[int]:
        """The index of the first of *rows* whose key holds a NULL or is
        held by the table or by an earlier one of *rows*, if any."""
        held = bool(self.order)  # no bisecting into an empty table
        keys = list(map(self._key, rows))
        if not held and len(set(keys)) == len(keys):
            if not any(map(self._null, keys, repeat(None))):
                return None  # a first load of distinct keys: nothing to find
        seen: Set[Any] = set()
        for at, key in enumerate(keys):
            if self._null(key, None) or key in seen or held and self._span(key)[2]:
                return at
            seen.add(key)
        return None


class _Keys:
    """The keys of the rows at *order*, in order: what ``bisect`` reads."""

    __slots__ = ("order", "rows", "key")

    def __init__(self, order: array, rows: List[Row], key: Any) -> None:
        self.order, self.rows, self.key = order, rows, key

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index: int) -> Any:
        return self.key(self.rows[self.order[index]])


def _column(table: Table, col_idx: int, start: int, stop: int) -> List[Any]:
    """Column *col_idx* of ``rows[start:stop]``, read transiently: no
    vector is kept on the table for it."""
    rows = table.rows if start == 0 and stop == len(table.rows) else table.rows[start:stop]
    return list(map(itemgetter(col_idx), rows))


def _sorted_cells(
    table: Table, col_idx: int, start: int, stop: int
) -> Tuple[array, array]:
    """Float keys of column *col_idx* over ``rows[start:stop]`` and their
    positions, ordered by key then position (:func:`sorted_float_keys`)."""
    keys, positions = sorted_float_keys(_column(table, col_idx, start, stop), start)
    # an array fills faster from a list than from an iterator
    return array("d", keys), array(_POSITION, positions)


def sorted_float_keys(values: Sequence[Any], start: int = 0) -> Tuple[List[float], List[int]]:
    """The ``float`` key of every value of *values* that has one, in
    ascending order, and its position (``start + i``), positions of one
    key ascending.  NULL, NaN and integers beyond float range get no
    key: no probe can match them, and NaN orders against no key.  The
    memory tier's :class:`NumericIndex` and the disk tier's B+-trees are
    both built from this."""
    positions: Sequence[int] = range(start, start + len(values))
    if None in values:
        positions = list(compress(positions, map(not_null, values)))
        values = list(filter(not_null, values))
    try:
        keys = list(map(float, values))
    except OverflowError:
        fits = list(map(_fits_float, values))
        values, positions = list(compress(values, fits)), list(compress(positions, fits))
        keys = list(map(float, values))
    if any(map(isnan, keys)):
        numbers = list(map(not_, map(isnan, keys)))
        keys, positions = list(compress(keys, numbers)), list(compress(positions, numbers))
    order = sorted(range(len(keys)), key=keys.__getitem__)  # stable
    return list(map(keys.__getitem__, order)), list(map(positions.__getitem__, order))


def _fits_float(value: Any) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _merge(keys: array, positions: array, new_keys: array, new_positions: array) -> None:
    """Merge a sorted batch into a sorted column in place: each new key
    goes after its equals (the batch's positions follow the column's),
    and the runs between insertion points move up by slice copies."""
    cuts = [bisect_right(keys, key) for key in new_keys]
    for column, batch in ((keys, new_keys), (positions, new_positions)):
        high = len(column)
        column.extend(batch)  # room for the batch; overwritten below
        for i in range(len(cuts) - 1, -1, -1):
            column[cuts[i] + i + 1 : high + i + 1] = column[cuts[i] : high]
            column[cuts[i] + i] = batch[i]
            high = cuts[i]


class NumericIndex:
    """Exact-value index over the numeric columns of a set of tables, so
    that number terms match tuple values (``24`` matching ``Student.Age``).
    Keys are ``float(value)``: ``-0.0`` and ``0.0`` are one key, NaN
    matches nothing, and two large integers can share a key."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._keys: Dict[Slot, array] = {}  # guarded-by: _lock
        self._positions: Dict[Slot, array] = {}  # guarded-by: _lock
        self._tables: Dict[str, Table] = {}  # guarded-by: _lock
        #: rows of each table indexed, once its columns are built
        self._covered: Dict[str, int] = {}  # guarded-by: _lock

    def add_tables(self, tables: Iterable[Table]) -> None:
        """Register *tables* and index their numeric columns."""
        with self._lock:
            for table in tables:
                self._tables[table.schema.name] = table
                self._catch_up_table(table)

    def catch_up(self) -> None:
        """Index what every registered table gained since the last call."""
        with self._lock:
            for table in self._tables.values():
                self._catch_up_table(table)

    def _catch_up_table(self, table: Table) -> None:
        """Caller holds ``_lock``."""
        schema = table.schema
        start, stop = self._covered.get(schema.name), table.version
        if start == stop:
            return
        self._covered[schema.name] = stop
        for col_idx, col in enumerate(schema.columns):
            if col.dtype not in (DataType.INT, DataType.FLOAT):
                continue
            slot = (schema.name, col.name)
            keys, positions = _sorted_cells(table, col_idx, start or 0, stop)
            if start:
                _merge(self._keys[slot], self._positions[slot], keys, positions)
            else:  # nothing indexed yet: the batch's order is the order
                self._keys[slot], self._positions[slot] = keys, positions

    def _lookup(self, slot: Slot, needle: float) -> Set[int]:
        """Positions keyed *needle* in *slot* (caller holds ``_lock``)."""
        keys = self._keys.get(slot, ())
        low = bisect_left(keys, needle)
        if low == len(keys) or keys[low] != needle:  # NaN equals no key
            return set()
        return set(self._positions[slot][low : bisect_right(keys, needle, low)])

    def slots_with_key(self, key: float) -> List[Slot]:
        """The slots holding *key*, sorted."""
        found: List[Slot] = []
        with self._lock:
            for slot, keys in self._keys.items():
                at = bisect_left(keys, key)
                if at < len(keys) and keys[at] == key:  # NaN equals no key
                    found.append(slot)
        return sorted(found)

    def positions_for_value(
        self, relation: str, attribute: str, value: Any
    ) -> Optional[Set[int]]:
        """Candidate row positions where ``relation.attribute == value``:
        a superset callers verify.  None when *value* is not a number or
        is an integer beyond float range, which the index never holds."""
        try:
            needle = float(value)
        except (TypeError, ValueError, OverflowError):
            return None
        with self._lock:
            return self._lookup((relation, attribute), needle)

    def key_counts(self, relation: str, attribute: str) -> Optional[KeyCounts]:
        """:class:`KeyCounts` of an INT column: a bisection per distinct
        key over the sorted arrays, whose positions of one key ascend.
        None when a row holds no key (NULL, or an integer beyond float
        range) or a key is not exact (:func:`key_counts_of_runs`)."""
        slot = (relation, attribute)
        with self._lock:
            keys = self._keys.get(slot)
            if keys is None or len(keys) != self._covered[relation]:
                return None
            positions = self._positions[slot]
            run_keys: List[float] = []
            counts: List[int] = []
            firsts: List[int] = []
            start, end = 0, len(keys)
            while start < end:
                key = keys[start]
                stop = bisect_right(keys, key, start)
                run_keys.append(key)
                counts.append(stop - start)
                firsts.append(positions[start])
                start = stop
        return key_counts_of_runs(run_keys, counts, firsts)

    def postings(self) -> Dict[float, Dict[Slot, Set[int]]]:
        """The index as ``key -> {slot: positions}`` (for equivalence tests)."""
        postings: Dict[float, Dict[Slot, Set[int]]] = {}
        with self._lock:
            for slot, keys in self._keys.items():
                for key, pos in zip(keys, self._positions[slot]):
                    postings.setdefault(key, {}).setdefault(slot, set()).add(pos)
        return postings


class InvertedIndex:
    """Full-text index over the text/date columns of a set of tables.

    The index maps each token to the row positions per ``(relation,
    attribute)``, maintained by :meth:`catch_up` under the reader/writer
    rule of the module docstring.  Phrase queries (``"royal olive"``)
    intersect the posting lists of their tokens and then verify the
    phrase with a substring check, mirroring SQL ``contains`` semantics
    (a phrase that lowers to one token needs none: its candidates hold it).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._postings: Dict[str, Dict[Slot, array]] = {}  # guarded-by: _lock
        self._tables: Dict[str, Table] = {}  # guarded-by: _lock
        #: rows of each table indexed
        self._covered: Dict[str, int] = {}  # guarded-by: _lock

    def add_tables(self, tables: Iterable[Table]) -> None:
        """Register *tables* and index their text columns."""
        with self._lock:
            for table in tables:
                self._tables[table.schema.name] = table
                self._covered[table.schema.name] = 0
                self._catch_up_table(table)

    def catch_up(self) -> None:
        """Index what every registered table gained since the last call."""
        with self._lock:
            for table in self._tables.values():
                self._catch_up_table(table)

    def _catch_up_table(self, table: Table) -> None:
        """Caller holds ``_lock``."""
        schema = table.schema
        start, stop = self._covered[schema.name], table.version
        if start == stop:
            return
        self._covered[schema.name] = stop
        columns = [
            (i, (schema.name, col.name))
            for i, col in enumerate(schema.columns)
            if col.dtype in (DataType.TEXT, DataType.DATE)
        ]
        if not columns:
            return
        vectors = [_column(table, col_idx, start, stop) for col_idx, _ in columns]
        # per slot and value, the posting arrays its rows append to: each
        # distinct value is tokenized once, where it is first met — which
        # is where a row-by-row pass would have made those arrays too
        memos: List[Dict[Any, List[array]]] = [{} for _ in columns]
        slots = [slot for _, slot in columns]
        for pos, values in zip(range(start, stop), zip(*vectors)):
            for slot, memo, value in zip(slots, memos, values):
                if value is None:
                    continue
                arrays = memo.get(value)
                if arrays is None:
                    arrays = memo[value] = self._arrays(slot, value)
                for positions in arrays:
                    positions.append(pos)

    def _arrays(self, slot: Slot, value: Any) -> List[array]:
        """The posting arrays of *value*'s tokens in *slot*, made where
        missing (caller holds ``_lock``)."""
        arrays = []
        for token in set(tokenize_text(str(value))):
            slots = self._postings.get(token)
            if slots is None:
                slots = self._postings[token] = {}
            positions = slots.get(slot)
            if positions is None:
                positions = slots[slot] = array(_POSITION)
            arrays.append(positions)
        return arrays

    def postings(self) -> Dict[str, Dict[Slot, Set[int]]]:
        """A copy of the whole index (what the equivalence tests compare)."""
        with self._lock:
            return {
                term: {slot: set(positions) for slot, positions in slots.items()}
                for term, slots in self._postings.items()
            }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def slots_with_words(self, phrase: str) -> List[Slot]:
        """The slots with a row holding every word of *phrase* as a
        token, sorted: where the phrase may occur, which a caller checks
        with the substring test (:meth:`positions_for_contains`)."""
        tokens = tokenize_text(phrase)
        if not tokens:
            return []
        found: List[Slot] = []
        with self._lock:
            first = self._postings.get(tokens[0], {})
            if not tokens[1:]:
                return sorted(first)  # no posting array is empty
            for slot, positions in first.items():
                held = set(positions)
                for token in tokens[1:]:
                    held.intersection_update(self._postings.get(token, {}).get(slot, ()))
                    if not held:
                        break
                if held:
                    found.append(slot)
        return sorted(found)

    def positions_for_contains(
        self, relation: str, attribute: str, phrase: str
    ) -> Optional[Set[int]]:
        """Exact row positions where ``relation.attribute`` contains *phrase*
        as a case-insensitive substring (SQL ``contains`` / ``LIKE '%p%'``).

        Candidate generation is sound for substring semantics: if the phrase
        occurs inside a value, the phrase's first token — a maximal
        alphanumeric run — lies within a single token of that value, so
        scanning the vocabulary for tokens containing it as a substring
        covers every possible match.  Candidates are then verified with the
        actual substring test, unless the lowered phrase is that one token:
        then every candidate's lowered value contains it.  Returns None
        when the phrase has no tokens or the relation is not indexed
        (callers read every row instead).
        """
        table = self._tables.get(relation)
        if table is None:
            return None
        if table.schema.column(attribute).dtype not in (DataType.TEXT, DataType.DATE):
            return None  # only text columns are indexed; scan instead
        tokens = tokenize_text(phrase)
        if not tokens:
            return None
        first = tokens[0]
        slot = (relation, attribute)
        candidates: Set[int] = set()
        with self._lock:
            for token, slots in self._postings.items():
                if first in token:
                    hit = slots.get(slot)
                    if hit:
                        candidates.update(hit)
        needle = phrase.lower()
        if not candidates or tokens == [needle]:  # each candidate has a token holding it
            return candidates
        col_idx = table.schema.column_index(attribute)
        rows = table.rows
        return {
            pos
            for pos in candidates
            if rows[pos][col_idx] is not None
            and needle in str(rows[pos][col_idx]).lower()
        }

    def tokens_with_prefix(self, prefix: str, limit: int = 20) -> List[str]:
        """Indexed tokens starting with *prefix* (sorted, capped)."""
        lowered = prefix.lower()
        if not lowered:
            return []
        with self._lock:
            matches = [
                token for token in self._postings if token.startswith(lowered)
            ]
        matches.sort(key=lambda token: (len(token), token))
        return matches[:limit]
