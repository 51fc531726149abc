"""Indexes over table data.

Three index kinds are provided:

* :class:`HashIndex` — equi-join / point-lookup acceleration used by the
  executor's hash-join planner.
* :class:`NumericIndex` — exact-value postings over every numeric column.
* :class:`InvertedIndex` — a token -> (relation, attribute) full-text index
  over all text columns of a database, used by the keyword matcher to find
  which relations a query term can refer to, and by the ``contains``
  predicate semantics of generated SQL.

All three are maintained, not rebuilt: ``catch_up()`` compares each
table's :attr:`~repro.relational.table.Table.version` with what the
index covers and indexes only ``rows[covered:]`` when the epoch is
unchanged (an append), starting that table over when it is not (an
update or delete).  **Reader/writer rule:** an index owns one lock;
``catch_up`` mutates postings only while holding it and every probe
reads them while holding it, so a probe sees the postings of some whole
number of rows — never a dictionary mid-growth — and positions it
returns are valid in ``table.rows`` because rows under one epoch only
grow.  Updates and deletes move rows a running reader may hold
positions for, so they need the readers of that table quiesced.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.relational.table import Row, Table
from repro.relational.types import DataType

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize_text(text: str) -> List[str]:
    """Lower-case word tokens of a text value."""
    return _TOKEN_RE.findall(text.lower())


class HashIndex:
    """Hash index mapping a column-tuple value to row positions of a table."""

    def __init__(self, table: Table, columns: Sequence[str]) -> None:
        self.table = table
        self.columns = tuple(columns)
        self._indices = [table.schema.column_index(col) for col in self.columns]
        self._lock = threading.Lock()
        self._buckets: Dict[Tuple[Any, ...], List[int]] = {}
        self._covered = _Covered()
        self.catch_up()

    def catch_up(self) -> None:
        """Index the rows the table gained (all of them after an epoch
        bump); a no-op when the index is current."""
        with self._lock:
            start, stop = self._covered.advance(self.table)
            if start == 0:
                self._buckets = {}
            indices = self._indices
            buckets = self._buckets
            for pos, row in _rows_between(self.table, start, stop):
                key = tuple(row[i] for i in indices)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [pos]
                else:
                    bucket.append(pos)

    def positions(self, key: Tuple[Any, ...]) -> Set[int]:
        """Row positions holding *key* (used for index-backed scans)."""
        with self._lock:
            return set(self._buckets.get(tuple(key), ()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._buckets)


class _Covered:
    """How much of one table an index holds: the version it caught up to."""

    __slots__ = ("epoch", "rows")

    def __init__(self) -> None:
        self.epoch: Optional[int] = None
        self.rows = 0

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


class _PostingsIndex:
    """``term -> {(relation, attribute): row positions}`` over the
    columns of some kinds of every registered table, maintained by
    :meth:`catch_up` under the reader/writer rule of the module
    docstring.  Subclasses say which column types they index and which
    terms a value contributes."""

    _dtypes: Tuple[DataType, ...] = ()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._postings: Dict[Any, Dict[Tuple[str, str], Set[int]]] = {}
        self._tables: Dict[str, Table] = {}
        self._covered: Dict[str, _Covered] = {}

    def _terms(self, value: Any) -> Iterable[Any]:
        raise NotImplementedError

    def add_table(self, table: Table) -> None:
        """Register *table* and index its columns of this index's kinds."""
        with self._lock:
            self._tables[table.schema.name] = table
            self._covered[table.schema.name] = _Covered()
            self._catch_up_table(table)

    def add_tables(self, tables: Iterable[Table]) -> None:
        for table in tables:
            self.add_table(table)

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
        had = covered.rows
        start, stop = covered.advance(table)
        if start == 0 and had:
            self._forget(schema.name)
        columns = [
            (i, col.name)
            for i, col in enumerate(schema.columns)
            if col.dtype in self._dtypes
        ]
        if not columns or start == stop:
            return
        postings = self._postings
        terms_of = self._terms
        for pos, row in _rows_between(table, start, stop):
            for col_idx, col_name in columns:
                value = row[col_idx]
                if value is None:
                    continue
                for term in terms_of(value):
                    slots = postings.get(term)
                    if slots is None:
                        slots = postings[term] = {}
                    slot = slots.get((schema.name, col_name))
                    if slot is None:
                        slot = slots[(schema.name, col_name)] = set()
                    slot.add(pos)

    def _forget(self, relation: str) -> None:
        """Drop every posting of *relation* (caller holds ``_lock``)."""
        for term in list(self._postings):
            slots = self._postings[term]
            for slot in [slot for slot in slots if slot[0] == relation]:
                del slots[slot]
            if not slots:
                del self._postings[term]

    def postings(self) -> Dict[Any, Dict[Tuple[str, str], Set[int]]]:
        """A copy of the whole index (what the equivalence tests compare)."""
        with self._lock:
            return {
                term: {slot: set(positions) for slot, positions in slots.items()}
                for term, slots in self._postings.items()
            }


class NumericIndex(_PostingsIndex):
    """Exact-value index over the numeric columns of a set of tables.

    Lets keyword terms that parse as numbers match tuple values (``24``
    matching ``Student.Age``), complementing the text-oriented
    :class:`InvertedIndex`.
    """

    _dtypes = (DataType.INT, DataType.FLOAT)

    def _terms(self, value: Any) -> Iterable[Any]:
        return (float(value),)

    def match_number(self, text: str) -> List[ValueMatch]:
        """Matches for a term that parses as a number; [] otherwise."""
        try:
            needle = float(text)
        except ValueError:
            return []
        with self._lock:
            results = [
                ValueMatch(relation, attribute, set(positions))
                for (relation, attribute), positions in self._postings.get(
                    needle, {}
                ).items()
            ]
        results.sort(key=lambda match: (match.relation, match.attribute))
        return results

    def positions_for_value(
        self, relation: str, attribute: str, value: Any
    ) -> Optional[Set[int]]:
        """Candidate row positions where ``relation.attribute == value``.

        Postings are keyed by ``float(value)``, so the set is a superset of
        the exact-equality rows (two large integers can share one float key);
        callers verify candidates against the actual predicate.  Returns
        None when *value* is not a number.
        """
        try:
            needle = float(value)
        except (TypeError, ValueError):
            return None
        with self._lock:
            return set(
                self._postings.get(needle, {}).get((relation, attribute), ())
            )


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


class InvertedIndex(_PostingsIndex):
    """Full-text index over the text/date columns of a set of tables.

    The index maps each token to the set of row positions per
    ``(relation, attribute)``.  Phrase queries (``"royal olive"``) intersect
    the posting lists of their tokens and then verify the phrase with a
    substring check, mirroring SQL ``contains`` semantics.
    """

    _dtypes = (DataType.TEXT, DataType.DATE)

    def _terms(self, value: Any) -> Iterable[Any]:
        return set(tokenize_text(str(value)))

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
        by_slot: Dict[Tuple[str, str], Set[int]] = {}
        with self._lock:
            for slot, positions in self._postings.get(tokens[0], {}).items():
                candidates = set(positions)
                for token in tokens[1:]:
                    candidates &= self._postings.get(token, {}).get(slot, set())
                    if not candidates:
                        break
                if candidates:
                    by_slot[slot] = candidates
        results: List[ValueMatch] = []
        needle = phrase.lower()
        for (relation, attribute), candidates in by_slot.items():
            table = self._tables[relation]
            col_idx = table.schema.column_index(attribute)
            verified = {
                pos
                for pos in candidates
                if table.rows[pos][col_idx] is not None
                and needle in str(table.rows[pos][col_idx]).lower()
            }
            if verified:
                results.append(ValueMatch(relation, attribute, verified))
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
        actual substring test.  Returns None when the phrase has no tokens
        or the relation is not indexed (callers fall back to a scan).
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
                        candidates |= hit
        if not candidates:
            return set()
        col_idx = table.schema.column_index(attribute)
        needle = phrase.lower()
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

    def matching_values(self, relation: str, attribute: str, phrase: str) -> Set[Any]:
        """Distinct values of ``relation.attribute`` containing *phrase*."""
        table = self._tables[relation]
        col_idx = table.schema.column_index(attribute)
        needle = phrase.lower()
        return {
            row[col_idx]
            for row in table.rows
            if row[col_idx] is not None and needle in str(row[col_idx]).lower()
        }
