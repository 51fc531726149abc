"""Persistence for databases: CSV tables and a JSON schema document.

A database directory contains one ``schema.json`` (relations, column types,
keys, foreign keys) and one ``<Relation>.csv`` per relation.  This lets
users bring their own data to the keyword-search engine without writing
loader code, and makes the synthetic datasets inspectable on disk.

NULL is encoded in CSV as the empty string; TEXT values that are literally
empty are written as ``""`` (a quoted empty field), which the reader maps
back faithfully.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, ForeignKey
from repro.relational.types import DataType

SCHEMA_FILE = "schema.json"


# ----------------------------------------------------------------------
# Schema <-> JSON
# ----------------------------------------------------------------------
def schema_to_dict(schema: DatabaseSchema) -> Dict[str, Any]:
    """JSON-serializable description of a database schema."""
    relations = []
    for relation in schema:
        relations.append(
            {
                "name": relation.name,
                "columns": [
                    {"name": col.name, "type": col.dtype.value}
                    for col in relation.columns
                ],
                "primary_key": list(relation.primary_key),
                "foreign_keys": [
                    {
                        "columns": list(fk.columns),
                        "ref_table": fk.ref_table,
                        "ref_columns": list(fk.ref_columns),
                    }
                    for fk in relation.foreign_keys
                ],
            }
        )
    return {"name": schema.name, "relations": relations}


def schema_from_dict(document: Dict[str, Any]) -> DatabaseSchema:
    """Rebuild a :class:`DatabaseSchema` from its JSON description."""
    try:
        schema = DatabaseSchema(document["name"])
        for relation in document["relations"]:
            columns = [
                (col["name"], DataType(col["type"]))
                for col in relation["columns"]
            ]
            foreign_keys = [
                ForeignKey(
                    tuple(fk["columns"]),
                    fk["ref_table"],
                    tuple(fk["ref_columns"]),
                )
                for fk in relation.get("foreign_keys", [])
            ]
            schema.add_relation(
                relation["name"], columns, relation["primary_key"], foreign_keys
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed schema document: {exc}") from exc
    schema.validate()
    return schema


# ----------------------------------------------------------------------
# Values <-> CSV cells
# ----------------------------------------------------------------------
def _encode_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _decode_cell(text: str, dtype: DataType) -> Any:
    """A CSV cell as :meth:`~repro.relational.table.Table.extend` takes
    it: ``""`` is NULL, a BOOL is spelled out; numbers stay text, which
    the table's load converts a column at a time."""
    if text == "":
        return None
    if dtype is DataType.BOOL:
        return text.lower() == "true"
    return text


# ----------------------------------------------------------------------
# Database <-> directory
# ----------------------------------------------------------------------
def save_database(database: Database, directory: Union[str, Path]) -> Path:
    """Write the database as ``schema.json`` plus one CSV per relation."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / SCHEMA_FILE, "w", encoding="utf-8") as handle:
        json.dump(schema_to_dict(database.schema), handle, indent=2)
    for relation in database.schema:
        table = database.table(relation.name)
        with open(path / f"{relation.name}.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(relation.column_names)
            for row in table.rows:
                writer.writerow([_encode_cell(value) for value in row])
    return path


def load_database(directory: Union[str, Path]) -> Database:
    """Read a database directory written by :func:`save_database`."""
    path = Path(directory)
    schema_path = path / SCHEMA_FILE
    if not schema_path.exists():
        raise SchemaError(f"no {SCHEMA_FILE} in {path}")
    with open(schema_path, encoding="utf-8") as handle:
        schema = schema_from_dict(json.load(handle))
    database = Database(schema)
    for relation in schema:
        csv_path = path / f"{relation.name}.csv"
        if not csv_path.exists():
            raise SchemaError(f"missing data file {csv_path.name}")
        with open(csv_path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != list(relation.column_names):
                raise SchemaError(
                    f"{csv_path.name}: header {header} does not match schema "
                    f"columns {list(relation.column_names)}"
                )
            rows = [
                [
                    _decode_cell(cell, col.dtype)
                    for cell, col in zip(row, relation.columns)
                ]
                for row in reader
            ]
        database.load(relation.name, rows)
    database.check_foreign_keys()
    return database


def export_result_csv(result, path: Union[str, Path]) -> Path:
    """Write a :class:`~repro.relational.executor.QueryResult` to CSV."""
    target = Path(path)
    with open(target, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_encode_cell(value) for value in row])
    return target
