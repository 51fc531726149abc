"""In-memory relational engine: schema catalog, storage, indexes, executor."""

from repro.relational.database import Database
from repro.relational.executor import Executor, QueryResult, execute_sql
from repro.relational.index import HashIndex, InvertedIndex, NumericIndex
from repro.relational.plan import CompiledPlan
from repro.relational.io import (
    export_result_csv,
    load_database,
    save_database,
    schema_from_dict,
    schema_to_dict,
)
from repro.relational.schema import Column, DatabaseSchema, ForeignKey, RelationSchema
from repro.relational.table import Table
from repro.relational.types import DataType

__all__ = [
    "Column",
    "CompiledPlan",
    "DataType",
    "Database",
    "DatabaseSchema",
    "Executor",
    "NumericIndex",
    "ForeignKey",
    "HashIndex",
    "InvertedIndex",
    "QueryResult",
    "RelationSchema",
    "Table",
    "execute_sql",
    "export_result_csv",
    "load_database",
    "save_database",
    "schema_from_dict",
    "schema_to_dict",
]
