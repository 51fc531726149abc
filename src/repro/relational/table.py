"""Row storage for one relation.

Rows are stored as tuples in insertion order.  The table enforces primary-key
uniqueness and type coercion on insert, through its
:class:`~repro.relational.index.KeyIndex`: the row positions in key
order.  Foreign-key enforcement happens at the
:class:`~repro.relational.database.Database` level because it needs the
parent table.

A table is append-only: :meth:`Table.extend` (and :meth:`Table.insert`,
a batch of one) is its one write, and :attr:`Table.rows` is handed out
for reading only.  So every prefix of the rows is a state the table
once held, and everything derived from a table — indexes, statistics,
compiled plans, backend copies — keys on :attr:`Table.version`, the row
count: a consumer that covered the first *n* rows catches up over
``rows[n:]``.

The executor reads a table by column (:meth:`Table.columns`).  The
vectors behind that are derived from the rows like everything else and
kept by the same rule: built on first use, per column a statement
references, and extended in place, under the table's lock, as the table
gains rows.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DuplicateKeyError, SchemaError
from repro.relational.index import KeyIndex
from repro.relational.schema import RelationSchema
from repro.relational.types import coerce_column

Row = Tuple[Any, ...]


class Table:
    """In-memory storage of one relation's rows.

    Rows come in a batch at a time (:meth:`extend`; :meth:`insert` is a
    batch of one) and are checked a column at a time: the widths over
    the batch, then each column's value types at once
    (:func:`~repro.relational.types.coerce_column`).  A column whose
    values already have their types is left as given — a batch of
    tuples that needs no conversion is stored as the caller's tuples —
    and only a column that needs converting (an ``int`` in a FLOAT
    column, numbers read as text) is converted, value by value, as
    :func:`~repro.relational.types.coerce` always did."""

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        self._key_indices = tuple(schema.column_index(col) for col in schema.primary_key)
        #: row positions in primary-key order, current after every write
        self.key_index = KeyIndex(self, schema.primary_key)
        # column index -> that column of the first len(vector) rows
        self._vectors: Dict[int, List[Any]] = {}  # guarded-by: _vector_lock
        self._vector_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any]) -> Row:
        """Insert one row (sequence ordered like the schema columns)."""
        self.extend((row,))
        return self._rows[-1]

    def _coerced(self, rows: List[Sequence[Any]]) -> Tuple[List[Row], Optional[Exception]]:
        """*rows* as stored, and why the first of them that cannot be
        stored fails (a wrong width, a value :func:`coerce` rejects), if
        one does: then only the rows before it are returned.

        Widths are checked over the batch, then each column once
        (:func:`coerce_column`): a column whose values already have
        their types is left as the caller gave it, and only a column
        that needs converting is converted.  Of two failures in one
        row, the earlier column's is the one raised."""
        failure: Optional[Exception] = None
        width = len(self.schema.columns)
        try:
            widths_agree = set(map(len, rows)) <= {width}
        except Exception:  # a row without a length: found below
            widths_agree = False
        if not widths_agree:
            for at, row in enumerate(rows):
                try:
                    if len(row) == width:
                        continue
                    failure = SchemaError(
                        f"{self.schema.name}: expected {width} values, got {len(row)}"
                    )
                except Exception as exc:  # raised once the rows before it are in
                    failure = exc
                rows = rows[:at]
                break
        batch: List[Row] = list(map(tuple, rows))
        converted: Dict[int, List[Any]] = {}
        for index, column in enumerate(self.schema.columns):
            values, error = coerce_column(
                list(map(itemgetter(index), batch)), column.dtype
            )
            if error is not None:
                failure = error
                del batch[len(values or ()):]
                for vector in converted.values():
                    del vector[len(batch):]
            if values is not None:
                converted[index] = values
        if converted:
            batch = list(zip(*(
                converted[index] if index in converted
                else map(itemgetter(index), batch)
                for index in range(width)
            )))
        return batch, failure

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
        given: List[Sequence[Any]] = []
        failure: Optional[Exception] = None
        try:
            given.extend(rows)
        except Exception as exc:  # raised below, once the rows before it are in
            failure = exc
        batch, coerce_failure = self._coerced(given)
        if coerce_failure is not None:  # a row before the one the iterable failed at
            failure = coerce_failure
        clash = self.key_index.clash(batch)
        if clash is not None:
            failure = self._key_error(batch[clash])
            del batch[clash:]
        self._rows.extend(batch)
        self.key_index.catch_up()
        if failure is not None:
            raise failure

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The row count.  Rows are only appended, so equal versions
        mean equal data, and a larger one means the rows covered so far
        are unchanged and the rest were appended."""
        return len(self._rows)

    @property
    def rows(self) -> List[Row]:
        """The live row list, **read-only**: append through
        :meth:`extend` and :meth:`insert`, which keep the key index and
        :attr:`version` in step."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def column(self, index: int) -> List[Any]:
        """The live vector of column *index*: one value per row, in row
        order, covering at least the rows the table held when called.
        **Read-only**, and it may grow under a reader: cut it to a row
        count (as :meth:`columns` does) before relying on its length."""
        with self._vector_lock:
            rows = len(self._rows)
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
        come from an index, or a chunk of rows the statistics pass
        reads — read off the rows, building no kept vector)."""
        if positions is not None:
            picked = list(map(self._rows.__getitem__, positions))
            return [list(map(itemgetter(index), picked)) for index in indexes]
        count = len(self._rows)
        return [self.column(index)[:count] for index in indexes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.schema.name!r}, rows={len(self._rows)})"
