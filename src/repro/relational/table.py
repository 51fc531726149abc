"""Row storage for one relation.

Rows are stored as tuples in insertion order.  The table enforces primary-key
uniqueness and type coercion on insert, and answers key lookups, through
its :class:`~repro.relational.index.KeyIndex`: the row positions in key
order.  Foreign-key enforcement happens at the
:class:`~repro.relational.database.Database` level because it needs the
parent table.

Everything derived from a table — indexes, statistics, compiled plans,
backend copies — keys on :attr:`Table.version`, the pair ``(epoch,
rows)``.  :meth:`Table.insert` only grows ``rows``, so a consumer that
covered the first *n* rows under the same epoch catches up over
``rows[n:]``; :meth:`Table.update` and :meth:`Table.delete` change rows
a consumer may already have covered and therefore bump ``epoch``, which
tells every consumer to start over.  All mutation goes through these
methods: :attr:`Table.rows` is handed out for reading only.

The executor reads a table by column (:meth:`Table.columns`).  The
vectors behind that are derived from the rows like everything else and
kept by the same rule: built on first use, per column a statement
references; extended in place, under the table's lock, when the table
only gained rows; dropped when the epoch moved.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DuplicateKeyError, IntegrityError, SchemaError
from repro.relational.index import KeyIndex
from repro.relational.schema import RelationSchema
from repro.relational.types import coerce

Row = Tuple[Any, ...]


class Table:
    """In-memory storage of one relation's rows."""

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        self._key_indices = tuple(schema.column_index(col) for col in schema.primary_key)
        self._epoch = 0
        #: row positions in primary-key order, current after every write
        self.key_index = KeyIndex(self, schema.primary_key)
        # column index -> that column of the first len(vector) rows, as
        # of _vector_epoch; guarded by _vector_lock
        self._vectors: Dict[int, List[Any]] = {}  # guarded-by: _vector_lock
        self._vector_epoch = 0  # guarded-by: _vector_lock
        self._vector_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any]) -> Row:
        """Insert one row (sequence ordered like the schema columns)."""
        self.extend((row,))
        return self._rows[-1]

    def _coerce(self, row: Sequence[Any]) -> Row:
        if len(row) != len(self.schema.columns):
            raise SchemaError(
                f"{self.schema.name}: expected {len(self.schema.columns)} values, "
                f"got {len(row)}"
            )
        return tuple(
            coerce(value, col.dtype) for value, col in zip(row, self.schema.columns)
        )

    def _key_error(self, row: Row) -> DuplicateKeyError:
        """Why *row*'s primary key cannot go in: NULL, or already held."""
        key = tuple(row[i] for i in self._key_indices)
        if None in key:
            name, columns = self.schema.name, self.schema.primary_key
            return DuplicateKeyError(f"{name}: NULL in primary key {columns}")
        return DuplicateKeyError(f"{self.schema.name}: duplicate primary key {key!r}")

    def insert_dict(self, values: Dict[str, Any]) -> Row:
        """Insert one row from a column-name -> value mapping.

        Missing columns become NULL; unknown columns raise.
        """
        known = set(self.schema.column_names)
        unknown = set(values) - known
        if unknown:
            raise SchemaError(
                f"{self.schema.name}: unknown columns {sorted(unknown)}"
            )
        return self.insert([values.get(name) for name in self.schema.column_names])

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append *rows* in order.  A row that fails (width, a type, a
        NULL or taken key) raises once the rows before it are in."""
        batch: List[Row] = []
        failure: Optional[Exception] = None
        try:
            batch.extend(map(self._coerce, rows))
        except Exception as exc:  # raised below, once the rows before it are in
            failure = exc
        clash = self.key_index.clash(batch)
        if clash is not None:
            failure = self._key_error(batch[clash])
            del batch[clash:]
        self._rows.extend(batch)
        self.key_index.catch_up()
        if failure is not None:
            raise failure

    def update(self, key: Sequence[Any], values: Dict[str, Any]) -> Row:
        """Set the columns named in *values* on the row with primary key
        *key*; returns the new row.  The row keeps its position."""
        position = self._position_of(key)
        old = self._rows[position]
        changed = dict(zip(self.schema.column_names, old))
        unknown = set(values) - set(changed)
        if unknown:
            raise SchemaError(
                f"{self.schema.name}: unknown columns {sorted(unknown)}"
            )
        changed.update(values)
        new = self._coerce([changed[name] for name in self.schema.column_names])
        moved = any(new[i] != old[i] for i in self._key_indices)
        if moved and self.key_index.clash([new]) is not None:
            raise self._key_error(new)  # before anything moves
        self._rows[position] = new
        self._epoch += 1
        self.key_index.catch_up()
        return new

    def delete(self, key: Sequence[Any]) -> Row:
        """Remove the row with primary key *key*; returns it.  Later
        rows move up one position."""
        position = self._position_of(key)
        removed = self._rows.pop(position)
        self._epoch += 1
        self.key_index.catch_up()
        return removed

    def _position_of(self, key: Sequence[Any]) -> int:
        position = self.key_index.position(key)
        if position is None:
            raise IntegrityError(
                f"{self.schema.name}: no row with primary key {tuple(key)!r}"
            )
        return position

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def version(self) -> Tuple[int, int]:
        """``(epoch, rows)``: ``rows`` grows on insert, ``epoch`` is
        bumped by :meth:`update` and :meth:`delete`.  Equal versions
        mean equal data; an equal epoch with more rows means the rows
        covered so far are unchanged and the rest were appended."""
        return (self._epoch, len(self._rows))

    @property
    def rows(self) -> List[Row]:
        """The live row list, **read-only**: mutate through
        :meth:`insert`, :meth:`update` and :meth:`delete`, which keep the
        key index and :attr:`version` in step."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def get_by_key(self, key: Sequence[Any]) -> Optional[Row]:
        """The row with primary key *key* (one value per key column), or
        None."""
        position = self.key_index.position(key)
        return None if position is None else self._rows[position]

    def column(self, index: int) -> List[Any]:
        """The live vector of column *index*: one value per row, in row
        order, covering at least the rows the table held when called.
        **Read-only**, and it may grow under a reader: cut it to a row
        count (as :meth:`columns` does) before relying on its length."""
        with self._vector_lock:
            epoch, rows = self.version
            if epoch != self._vector_epoch:
                self._vectors = {}
                self._vector_epoch = epoch
            vector = self._vectors.get(index)
            if vector is None:
                vector = self._vectors[index] = []
            if len(vector) < rows:
                vector.extend([row[index] for row in self._rows[len(vector):rows]])
            return vector

    def columns(
        self, indexes: Sequence[int], positions: Optional[Sequence[int]] = None
    ) -> List[List[Any]]:
        """The columns at *indexes* as lists of one length: of every
        row the table holds now, or of the rows at *positions* (which
        come from an index, a handful at a time — read off the rows)."""
        if positions is not None:
            rows = self._rows
            picked = [rows[position] for position in positions]
            return [[row[index] for row in picked] for index in indexes]
        count = len(self._rows)
        return [self.column(index)[:count] for index in indexes]

    def column_values(self, column: str) -> List[Any]:
        """All values of *column* in row order (including duplicates/NULLs)."""
        idx = self.schema.column_index(column)
        return [row[idx] for row in self._rows]

    def distinct_key_count(self, columns: Sequence[str]) -> int:
        """Number of distinct value combinations over *columns*."""
        indices = [self.schema.column_index(col) for col in columns]
        return len({tuple(row[i] for i in indices) for row in self._rows})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.schema.name!r}, rows={len(self._rows)})"
