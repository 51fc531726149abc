"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one base class.  Sub-hierarchies mirror the package layout: schema
and storage errors, SQL language errors, execution errors, and keyword-query
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """Invalid schema definition (duplicate columns, bad key, dangling FK)."""


class IntegrityError(ReproError):
    """A data modification violated a schema constraint."""


class DuplicateKeyError(IntegrityError):
    """A row insertion violated a primary-key or unique constraint."""


class ForeignKeyError(IntegrityError):
    """A row insertion referenced a non-existent parent key."""


class TypeMismatchError(IntegrityError):
    """A value could not be coerced to its column's declared type."""


class UnknownTableError(SchemaError):
    """A referenced table does not exist in the database."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in its table."""


class SqlError(ReproError):
    """Base class for SQL language errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""


class SqlExecutionError(SqlError):
    """The SQL statement is well-formed but cannot be executed."""


class SqlRenderError(SqlError):
    """The SQL AST cannot be rendered as text for the target dialect."""


class BackendError(ReproError):
    """An execution backend failed to load data or run a statement."""


class KeywordQueryError(ReproError):
    """Base class for keyword-query errors."""


class InvalidQueryError(KeywordQueryError):
    """The keyword query violates the term constraints of Definition 1."""


class NoMatchError(KeywordQueryError):
    """A basic term matched nothing in the database."""


class NoPatternError(KeywordQueryError):
    """No connected query pattern exists for the query's tags."""


class UnsupportedQueryError(KeywordQueryError):
    """Raised by the SQAK baseline for queries it cannot handle (N.A.)."""


class NormalizationError(ReproError):
    """Functional-dependency or normalization failure."""


class DeadlineExceededError(ReproError):
    """A query was cancelled at a checkpoint: its deadline passed or its
    :class:`~repro.cancellation.CancellationToken` was cancelled."""


class StorageError(ReproError):
    """Disk-storage failure: corrupt page, exhausted buffer pool, or an
    incomplete/unreadable materialization directory."""


class ServiceError(ReproError):
    """Base class for query-service (serving-layer) errors."""


class ServiceUnavailableError(ServiceError):
    """The dataset's circuit breaker is open: recent requests kept
    failing, so the service fails fast until a probe succeeds (HTTP 503)."""


class StaticAnalysisError(ReproError):
    """Strict-mode analysis found error-severity diagnostics.

    Carries the offending diagnostics in :attr:`diagnostics` so callers can
    render them (the CLI does, the test corpus asserts on their codes).
    """

    def __init__(self, message: str, diagnostics=()) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics)
