"""The in-memory database: schema catalog + tables + indexes.

This is the substrate every other layer works against: the keyword matcher
reads its inverted index, the ORM classifier reads its schema, the pattern
translator emits SQL that the executor runs against its tables.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ForeignKeyError, SchemaError, UnknownTableError
from repro.relational.index import HashIndex, InvertedIndex, NumericIndex
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
        # three slots; each index guards its own postings.
        self._text_index: Optional[InvertedIndex] = None
        self._numeric_index: Optional[NumericIndex] = None
        self._hash_indexes: Dict[Tuple[str, Tuple[str, ...]], HashIndex] = {}
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
                parent_index = self.hash_index(fk.ref_table, fk.ref_columns)
                child_indices = [
                    table.schema.column_index(col) for col in fk.columns
                ]
                # each distinct value probed once, in first-seen order
                for key in dict.fromkeys(
                    tuple(row[i] for i in child_indices) for row in table.rows
                ):
                    if any(part is None for part in key):
                        continue  # NULL FK is allowed (no reference)
                    if not parent_index.positions(key):
                        raise ForeignKeyError(
                            f"{table.schema.name}: {fk} dangling value {key!r}"
                        )

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

    def hash_index(self, table_name: str, columns: Sequence[str]) -> HashIndex:
        """Lazily built hash index on ``table(columns)``, caught up with
        the table's current version."""
        with self._index_lock:
            key = (table_name, tuple(columns))
            index = self._hash_indexes.get(key)
            if index is None:
                index = self._hash_indexes[key] = HashIndex(
                    self.table(table_name), columns
                )
            else:
                index.catch_up()
            return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
