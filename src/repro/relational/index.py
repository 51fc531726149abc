"""Indexes over table data.

* :class:`KeyIndex` — a table's row positions sorted by the values of
  some columns, an ``array('I')`` bisected over the rows.  Each table
  keeps one on its primary key; ``Database.hash_index`` serves equality
  probes from it, or from one built for other columns.
* :class:`NumericIndex` — per numeric ``(relation, attribute)``, an
  ``array('d')`` of ``float(value)`` sorted ascending beside an
  ``array('I')`` of row positions: a probe is two bisections and a slice.
* :class:`InvertedIndex` — token -> (relation, attribute) -> ``array('I')``
  of row positions over all text columns, for the keyword matcher and
  the ``contains`` predicate of generated SQL.

The executor probes all three through one call,
``Database.candidates(kind, table, column, values)``, which the disk
tier's ``StorageEngine`` answers from its own structures.

All three are maintained, not rebuilt: ``catch_up()`` compares each
table's :attr:`~repro.relational.table.Table.version` with what the
index covers and indexes only ``rows[covered:]`` when the epoch is
unchanged (an append: merged into the sorted arrays, appended to the
postings), starting that table over when it is not (an update or
delete).  **Reader/writer rule:** each index owns one lock, and
``catch_up`` runs while holding it.  A value index mutates its
dictionaries and arrays only then, and every probe copies what it
returns while holding it.  A key index publishes a new array instead,
never shifting one a reader is bisecting, so its probes take no lock.
So a probe sees the index of some whole number of rows, and positions
it returns are valid in ``table.rows`` because rows under one epoch
only grow.  Updates and deletes move rows a running
reader may hold positions for, so they need the readers of that table
quiesced."""

from __future__ import annotations

import re
import threading
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import contains, is_, itemgetter, not_
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import IntegrityError
from repro.relational.types import DataType

if TYPE_CHECKING:
    from repro.relational.table import Row, Table

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_POSITION = "I"  # array typecode of row positions: unsigned 32-bit
Slot = Tuple[str, str]


def tokenize_text(text: str) -> List[str]:
    """Lower-case word tokens of a text value."""
    return _TOKEN_RE.findall(text.lower())


def union_of(found: Iterable[Optional[Set[int]]]) -> Optional[Set[int]]:
    """The union of index answers, one per probed value; None as soon as
    one is None (the index cannot answer for that value)."""
    union: Set[int] = set()
    for positions in found:
        if positions is None:
            return None
        union |= positions
    return union


class KeyIndex:
    """Row positions of one table sorted by the values of *columns*, then
    by position: 4 bytes a row, probed by bisecting over the rows.  A key
    is the value for one column, a tuple for several.  NULL does not
    order against values, so rows with a NULL in *columns* stay out of
    the order and a probe for a key holding NULL reads the rows."""

    def __init__(self, table: Table, columns: Sequence[str]) -> None:
        self.table = table
        self.columns = tuple(columns)
        self._key = itemgetter(*map(table.schema.column_index, self.columns))
        # called as (key, None): whether a key holds a NULL
        self._null = is_ if len(self.columns) == 1 else contains
        self.order = array(_POSITION)  # guarded-by: _writer
        self._covered = _Covered()
        self._writer = threading.Lock()
        self.catch_up()

    def catch_up(self) -> None:
        """Publish the order with the rows the table gained merged in, or
        with all of them after an epoch bump.  Writers take turns, so once
        this returns the order covers at least the version read before."""
        with self._writer:
            start, stop = self._covered.advance(self.table)
            if start < stop or start == 0:
                self.order = self._merged(self.order if start else array(_POSITION), start, stop)

    def _merged(self, base: array, start: int, stop: int) -> array:
        """*base* with the positions ``start..stop`` merged in, as a new
        array: the batch is sorted, then each of its keys bisected into
        place, so no run of *base* is moved twice or compared again."""
        rows = self.table.rows
        keys = list(map(self._key, rows[start:stop]))
        nulls = map(self._null, keys, repeat(None))
        new = sorted(compress(range(len(keys)), map(not_, nulls)), key=keys.__getitem__)
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

    def position(self, key: Sequence[Any]) -> Optional[int]:
        """The first row position holding *key*, or None."""
        order, low, high = self._span(self._probe(key))
        return order[low] if low < high else None

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
        seen: Set[Any] = set()
        for at, key in enumerate(map(self._key, rows)):
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


class _Covered:
    """How much of one table an index holds: the version it caught up to."""

    __slots__ = ("epoch", "rows")

    def __init__(self) -> None:
        self.epoch: Optional[int] = None
        self.rows = 0

    def holds(self, table: Table) -> bool:
        """Whether the index is caught up with *table*'s version."""
        return (self.epoch, self.rows) == table.version

    def advance(self, table: Table) -> Tuple[int, int]:
        """Move to *table*'s current version; returns the ``[start,
        stop)`` positions left to index — ``start == 0`` says what was
        indexed before is void (first call, or the epoch moved)."""
        epoch, stop = table.version
        start = self.rows if epoch == self.epoch else 0
        self.epoch, self.rows = epoch, stop
        return start, stop


def _rows_between(table: Table, start: int, stop: int) -> Iterable[Tuple[int, Row]]:
    """``(position, row)`` for ``start <= position < stop``."""
    rows = table.rows if start == 0 else table.rows[start:stop]
    return zip(range(start, stop), rows)


def _sorted_cells(
    table: Table, col_idx: int, start: int, stop: int
) -> Tuple[array, array]:
    """Float keys of column *col_idx* over ``rows[start:stop]`` and their
    positions, ordered by key then position.  NULL, NaN and integers
    beyond float range get no key: no probe can match them."""
    keys: List[float] = []
    positions: List[int] = []
    for pos, row in _rows_between(table, start, stop):
        value = row[col_idx]
        if value is None:
            continue
        try:
            key = float(value)
        except OverflowError:
            continue
        if key == key:
            keys.append(key)
            positions.append(pos)
    order = sorted(range(len(keys)), key=keys.__getitem__)  # stable
    sorted_keys = array("d", [keys[i] for i in order])
    return sorted_keys, array(_POSITION, [positions[i] for i in order])


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
        self._covered: Dict[str, _Covered] = {}  # guarded-by: _lock

    def add_tables(self, tables: Iterable[Table]) -> None:
        """Register *tables* and index their numeric columns."""
        with self._lock:
            for table in tables:
                self._tables[table.schema.name] = table
                self._covered[table.schema.name] = _Covered()
                self._catch_up_table(table)

    def catch_up(self) -> None:
        """Index what every registered table gained since the last call
        (a table whose epoch moved has its columns built again)."""
        with self._lock:
            for table in self._tables.values():
                self._catch_up_table(table)

    def _catch_up_table(self, table: Table) -> None:
        """Caller holds ``_lock``."""
        schema = table.schema
        covered = self._covered[schema.name]
        if covered.holds(table):
            return
        start, stop = covered.advance(table)
        for col_idx, col in enumerate(schema.columns):
            if col.dtype not in (DataType.INT, DataType.FLOAT):
                continue
            slot = (schema.name, col.name)
            keys, positions = _sorted_cells(table, col_idx, start, stop)
            if start == 0:
                self._keys[slot], self._positions[slot] = keys, positions
            else:
                _merge(self._keys[slot], self._positions[slot], keys, positions)

    def _lookup(self, slot: Slot, needle: float) -> Set[int]:
        """Positions keyed *needle* in *slot* (caller holds ``_lock``)."""
        keys = self._keys.get(slot, ())
        low = bisect_left(keys, needle)
        if low == len(keys) or keys[low] != needle:  # NaN equals no key
            return set()
        return set(self._positions[slot][low : bisect_right(keys, needle, low)])

    def match_number(self, text: str) -> List[ValueMatch]:
        """Matches for a term that parses as a number; [] otherwise."""
        try:
            needle = float(text)
        except ValueError:
            return []
        with self._lock:
            found = [(slot, self._lookup(slot, needle)) for slot in self._keys]
        matches = (ValueMatch(rel, attr, hits) for (rel, attr), hits in found if hits)
        return sorted(matches, key=lambda match: (match.relation, match.attribute))

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

    def postings(self) -> Dict[float, Dict[Slot, Set[int]]]:
        """The index as ``key -> {slot: positions}`` (for equivalence tests)."""
        postings: Dict[float, Dict[Slot, Set[int]]] = {}
        with self._lock:
            for slot, keys in self._keys.items():
                for key, pos in zip(keys, self._positions[slot]):
                    postings.setdefault(key, {}).setdefault(slot, set()).add(pos)
        return postings


class ValueMatch:
    """One occurrence set of a phrase inside a (relation, attribute)."""

    __slots__ = ("relation", "attribute", "row_positions")

    def __init__(self, relation: str, attribute: str, row_positions: Set[int]) -> None:
        self.relation = relation
        self.attribute = attribute
        self.row_positions = row_positions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ValueMatch({self.relation}.{self.attribute}, "
            f"rows={len(self.row_positions)})"
        )


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
        self._covered: Dict[str, _Covered] = {}  # guarded-by: _lock

    def add_tables(self, tables: Iterable[Table]) -> None:
        """Register *tables* and index their text columns."""
        with self._lock:
            for table in tables:
                self._tables[table.schema.name] = table
                self._covered[table.schema.name] = _Covered()
                self._catch_up_table(table)

    def catch_up(self) -> None:
        """Index what every registered table gained since the last call
        (a table whose epoch moved is forgotten and indexed again)."""
        with self._lock:
            for table in self._tables.values():
                self._catch_up_table(table)

    def _catch_up_table(self, table: Table) -> None:
        """Caller holds ``_lock``."""
        schema = table.schema
        covered = self._covered[schema.name]
        if covered.holds(table):
            return
        had = covered.rows
        start, stop = covered.advance(table)
        if start == 0 and had:
            self._forget(schema.name)
        columns = [
            (i, (schema.name, col.name))
            for i, col in enumerate(schema.columns)
            if col.dtype in (DataType.TEXT, DataType.DATE)
        ]
        if not columns or start == stop:
            return
        postings = self._postings
        for pos, row in _rows_between(table, start, stop):
            for col_idx, slot in columns:
                value = row[col_idx]
                if value is None:
                    continue
                for token in set(tokenize_text(str(value))):
                    slots = postings.get(token)
                    if slots is None:
                        slots = postings[token] = {}
                    positions = slots.get(slot)
                    if positions is None:
                        positions = slots[slot] = array(_POSITION)
                    positions.append(pos)

    def _forget(self, relation: str) -> None:
        """Drop every posting of *relation* (caller holds ``_lock``)."""
        for term in list(self._postings):
            slots = self._postings[term]
            for slot in [slot for slot in slots if slot[0] == relation]:
                del slots[slot]
            if not slots:
                del self._postings[term]

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
    def match_phrase(self, phrase: str) -> List[ValueMatch]:
        """Find every (relation, attribute) whose values contain *phrase*.

        Matching is case-insensitive; a value matches when the phrase occurs
        as a substring of the value (SQL ``contains``), which the token-level
        candidate set is verified against.
        """
        tokens = tokenize_text(phrase)
        if not tokens:
            return []
        by_slot: Dict[Slot, Set[int]] = {}
        with self._lock:
            for slot, positions in self._postings.get(tokens[0], {}).items():
                candidates = set(positions)
                for token in tokens[1:]:
                    candidates.intersection_update(
                        self._postings.get(token, {}).get(slot, ())
                    )
                    if not candidates:
                        break
                if candidates:
                    by_slot[slot] = candidates
        results: List[ValueMatch] = []
        needle = phrase.lower()
        verify = tokens != [needle]  # a phrase that is one token is in every candidate
        for (relation, attribute), candidates in by_slot.items():
            if verify:
                rows = self._tables[relation].rows
                col_idx = self._tables[relation].schema.column_index(attribute)
                candidates = {
                    pos
                    for pos in candidates
                    if rows[pos][col_idx] is not None
                    and needle in str(rows[pos][col_idx]).lower()
                }
            if candidates:
                results.append(ValueMatch(relation, attribute, candidates))
        results.sort(key=lambda match: (match.relation, match.attribute))
        return results

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
        (callers fall back to a scan).
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
