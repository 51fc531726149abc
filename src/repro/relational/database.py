"""The in-memory database: schema catalog + tables + indexes.

This is the substrate every other layer works against: the keyword matcher
reads its inverted index, the ORM classifier reads its schema, the pattern
translator emits SQL that the executor runs against its tables.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ForeignKeyError, SchemaError, UnknownTableError
from repro.relational.index import InvertedIndex, KeyIndex, NumericIndex, union_of
from repro.relational.schema import DatabaseSchema, ForeignKey, RelationSchema
from repro.relational.table import Row, Table
from repro.relational.types import DataType


class Database:
    """A named collection of tables conforming to a :class:`DatabaseSchema`."""

    def __init__(self, schema: DatabaseSchema) -> None:
        schema.validate()
        self.schema = schema
        self._tables: Dict[str, Table] = {
            rel.name: Table(rel) for rel in schema
        }
        # lazy indexes: created on first use and from then on caught up
        # with their tables' versions, never dropped.  The lock guards the
        # slots; each index guards its own catch-up.
        self._text_index: Optional[InvertedIndex] = None  # guarded-by: _index_lock
        self._numeric_index: Optional[NumericIndex] = None  # guarded-by: _index_lock
        self._key_indexes: Dict[Tuple[str, Tuple[str, ...]], KeyIndex] = {}  # guarded-by: _index_lock
        self._index_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_definitions(
        cls,
        name: str,
        definitions: Sequence[
            Tuple[str, Sequence[Tuple[str, DataType]], Sequence[str], Sequence[ForeignKey]]
        ],
    ) -> "Database":
        """Build a database from ``(name, columns, pk, fks)`` tuples."""
        schema = DatabaseSchema(name)
        for rel_name, columns, primary_key, foreign_keys in definitions:
            schema.add_relation(rel_name, columns, primary_key, foreign_keys)
        return cls(schema)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table {name!r} in database {self.schema.name!r}") from None

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def insert(self, table_name: str, row: Sequence[Any]) -> Row:
        return self.table(table_name).insert(row)

    def insert_dict(self, table_name: str, values: Dict[str, Any]) -> Row:
        return self.table(table_name).insert_dict(values)

    def load(self, table_name: str, rows: Iterable[Sequence[Any]]) -> None:
        self.table(table_name).extend(rows)

    def check_foreign_keys(self) -> None:
        """Verify referential integrity of the whole database.

        Runs after bulk loading (datasets load parents and children in one
        pass, so per-insert checking would force a topological load order).
        """
        for table in self._tables.values():
            for fk in table.schema.foreign_keys:
                parent = self.table(fk.ref_table)
                # the child's distinct keys less the parent's (transient);
                # a NULL in an FK refers to nothing
                missing = set(_keys(table, fk.columns)).difference(
                    _keys(parent, fk.ref_columns)
                )
                missing = {key for key in missing if None not in key}
                if missing:
                    key = next(key for key in _keys(table, fk.columns) if key in missing)
                    raise ForeignKeyError(f"{table.schema.name}: {fk} dangling value {key!r}")

    # ------------------------------------------------------------------
    # Versions and indexes
    # ------------------------------------------------------------------
    def versions(self, table_names: Iterable[str]) -> Tuple[Tuple[int, int], ...]:
        """The :attr:`Table.version` of each named table, in order: what
        a cached plan, memo or backend copy is stamped with, so that a
        write invalidates only what reads the table it touched."""
        return tuple(self.table(name).version for name in table_names)

    @property
    def text_index(self) -> InvertedIndex:
        """Lazily built full-text index over every text column, caught
        up with the tables' current versions."""
        with self._index_lock:
            if self._text_index is None:
                self._text_index = InvertedIndex()
                self._text_index.add_tables(self._tables.values())
            else:
                self._text_index.catch_up()
            return self._text_index

    @property
    def numeric_index(self) -> NumericIndex:
        """Lazily built exact-value index over every numeric column,
        caught up with the tables' current versions."""
        with self._index_lock:
            if self._numeric_index is None:
                self._numeric_index = NumericIndex()
                self._numeric_index.add_tables(self._tables.values())
            else:
                self._numeric_index.catch_up()
            return self._numeric_index

    def hash_index(self, table_name: str, columns: Sequence[str]) -> KeyIndex:
        """The key index on ``table(columns)``: the table's own on its
        primary key, else one built on first use; either caught up with
        the table's current version."""
        table = self.table(table_name)
        index = table.key_index
        if tuple(columns) != table.schema.primary_key:
            with self._index_lock:
                key = (table_name, tuple(columns))
                index = self._key_indexes.get(key)
                if index is None:
                    index = self._key_indexes[key] = KeyIndex(table, columns)
        index.catch_up()
        return index

    def candidates(
        self, kind: str, table: str, column: str, values: Iterable[Any]
    ) -> Optional[Set[int]]:
        """Positions of the rows of *table* whose *column* matches one of
        *values*: ``contains`` from the :class:`InvertedIndex`,
        ``numeric-eq`` from the :class:`NumericIndex` (float keys: a
        superset the caller verifies), ``hash-eq`` from the key index on
        the column.  Each index is fetched once, whatever the number of
        values.  None when the index cannot answer for some value; the
        disk tier's ``StorageEngine.candidates`` answers the same call."""
        found: Iterable[Optional[Set[int]]]
        if kind == "contains":
            text = self.text_index
            found = (text.positions_for_contains(table, column, v) for v in values)
        elif kind == "numeric-eq":
            numeric = self.numeric_index
            found = (numeric.positions_for_value(table, column, v) for v in values)
        elif kind == "hash-eq":
            keys = self.hash_index(table, (column,))
            found = (keys.positions((v,)) for v in values)
        else:
            raise ValueError(f"unknown index probe {kind!r}")
        return union_of(found)

    def row_counts(self) -> Dict[str, int]:
        return {name: len(table) for name, table in self._tables.items()}

    def summary(self) -> str:
        """Human-readable one-line-per-table summary."""
        lines = [f"database {self.schema.name!r}:"]
        for rel in self.schema:
            table = self._tables[rel.name]
            cols = ", ".join(rel.column_names)
            lines.append(
                f"  {rel.name}({cols})  key={','.join(rel.primary_key)}  rows={len(table)}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Database({self.schema.name!r}, tables={len(self._tables)})"


def _keys(table: Table, columns: Sequence[str]) -> Iterator[Tuple[Any, ...]]:
    """Each row's values of *columns*, as a tuple."""
    index = table.schema.column_index
    return zip(*(map(itemgetter(index(col)), table.rows) for col in columns))
