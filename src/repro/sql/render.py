"""Render SQL AST nodes to SQL text, parameterized by a target dialect.

Two formatting modes are provided: compact (single line, used in logs and
tests) and pretty (clause-per-line with indented subqueries, used when
showing the generated SQL to users, mirroring the formatting in the paper).

Rendering is additionally parameterized by a :class:`SqlDialect`, which
captures the textual differences between SQL implementations the execution
backends (``repro.backends``) target:

* **identifier quoting** — the paper-style default only quotes identifiers
  that collide with keywords of our own lexer (``Order``); a real RDBMS has
  a much larger keyword list (``Date``, ``From``...), so its dialect quotes
  every identifier, in backticks (:func:`quote_identifier`);
* **boolean literals** — ``TRUE``/``FALSE`` versus the integers ``1``/``0``
  (SQLite stores booleans as integers);
* **LIKE wildcard escaping** — the paper's ``contains`` predicate means a
  literal substring match; a phrase containing ``%`` or ``_`` must be
  escaped (with an ``ESCAPE`` clause) on backends that execute the rendered
  ``LIKE`` for real;
* **integer-division casting** — our in-memory engine evaluates ``/`` as
  true division (``7 / 2 = 3.5``); SQLite divides integers with truncation
  (``7 / 2 = 3``), so its dialect casts the left operand to ``REAL``.

The default :data:`ANSI_DIALECT` reproduces the historical output of this
module byte for byte, so everything keyed on rendered SQL (the plan cache,
log lines, test expectations) is unaffected by the dialect layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import SqlRenderError
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Contains,
    DerivedTable,
    Expr,
    FromItem,
    FuncCall,
    IsNull,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    TableRef,
)

_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 3,
    "<>": 3,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
}

# Control characters legal inside a SQL string literal: these round-trip
# through real parsers (sqlite3 included) unchanged.  Everything else below
# 0x20, and DEL, is rejected — there is no portable escape syntax for them
# in standard SQL string literals.
_ALLOWED_CONTROL = {"\n", "\t", "\r"}


@dataclass(frozen=True)
class SqlDialect:
    """Textual conventions of one SQL implementation.

    ``quote_all_identifiers``
        Quote every identifier in backticks instead of only our own
        lexer's keywords in double quotes.
    ``boolean_literals``
        ``(true_text, false_text)`` for rendering boolean constants.
    ``escape_like_wildcards``
        Escape ``%``/``_``/``\\`` in ``contains`` phrases and attach an
        ``ESCAPE '\\'`` clause, preserving literal-substring semantics.
    ``cast_integer_division``
        Wrap the left operand of ``/`` in ``CAST(... AS REAL)`` so integer
        division is true division, as the in-memory engine evaluates it.
    """

    name: str
    quote_all_identifiers: bool = False
    boolean_literals: Tuple[str, str] = ("TRUE", "FALSE")
    escape_like_wildcards: bool = False
    cast_integer_division: bool = False


ANSI_DIALECT = SqlDialect("ansi")
SQLITE_DIALECT = SqlDialect(
    "sqlite",
    quote_all_identifiers=True,
    boolean_literals=("1", "0"),
    escape_like_wildcards=True,
    cast_integer_division=True,
)

DIALECTS = {
    "ansi": ANSI_DIALECT,
    "sqlite": SQLITE_DIALECT,
}


def dialect_for(name: str) -> SqlDialect:
    """Look up a registered dialect by name."""
    try:
        return DIALECTS[name]
    except KeyError:
        raise SqlRenderError(
            f"unknown SQL dialect {name!r} (known: {', '.join(sorted(DIALECTS))})"
        ) from None


def check_renderable_text(value: str) -> None:
    """Reject text no SQL dialect can express as a string literal.

    Embedded single quotes are fine (they are doubled); ``\\n``, ``\\t``
    and ``\\r`` are legal inside standard string literals; every other
    control character (NUL, ESC, ...) has no portable escape syntax and is
    rejected so it cannot silently corrupt a statement shipped to a real
    backend.
    """
    for ch in value:
        if (ord(ch) < 0x20 and ch not in _ALLOWED_CONTROL) or ord(ch) == 0x7F:
            raise SqlRenderError(
                f"string {value!r} contains control character {ch!r} "
                "which cannot be expressed in a SQL string literal"
            )


def escape_string(value: str) -> str:
    """Single-quote a string literal, doubling embedded quotes.

    Control characters other than newline, tab and carriage return are
    rejected (:func:`check_renderable_text`): they have no portable
    representation inside a SQL string literal.
    """
    check_renderable_text(value)
    return "'" + value.replace("'", "''") + "'"


def quote_identifier(name: str, dialect: SqlDialect = ANSI_DIALECT) -> str:
    """Double-quote identifiers that collide with SQL keywords (``Order``).

    Dialects with ``quote_all_identifiers`` quote unconditionally, in
    backticks: a real RDBMS has a far larger reserved-word list than our
    lexer (``Date``, ``From``, ...), and quoting everything is always
    safe.  SQLite reads a double-quoted name that matches no column as a
    string literal, so a misspelt column would select its own name and
    compare as text; a backtick-quoted one raises ``no such column``.
    """
    from repro.sql.lexer import KEYWORDS

    if dialect.quote_all_identifiers:
        escaped = name.replace("`", "``")
        return f"`{escaped}`"
    if name.upper() in KEYWORDS:
        escaped = name.replace('"', '""')
        return f'"{escaped}"'
    return name


def _escape_like_pattern(phrase: str) -> str:
    """Escape LIKE wildcards so *phrase* matches as a literal substring."""
    return (
        phrase.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
    )


def render_expr(
    expr: Expr,
    parent_precedence: int = 0,
    dialect: SqlDialect = ANSI_DIALECT,
    literals: Optional[List[str]] = None,
) -> str:
    """Render a scalar expression with minimal parenthesisation.

    With *literals* (see :func:`render_shape`) a number or string
    literal, and a ``contains`` phrase, renders as a ``?`` placeholder —
    ``?`` plus the literal's type name — and its text is appended to
    *literals* instead."""
    if isinstance(expr, ColumnRef):
        name = quote_identifier(expr.name, dialect)
        if expr.qualifier:
            return f"{quote_identifier(expr.qualifier, dialect)}.{name}"
        return name
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, bool):
            true_text, false_text = dialect.boolean_literals
            return true_text if expr.value else false_text
        text = escape_string(expr.value) if isinstance(expr.value, str) else repr(expr.value)
        if literals is None:
            return text
        literals.append(text)
        return "?" + type(expr.value).__name__
    if isinstance(expr, FuncCall):
        inner = ", ".join(
            render_expr(arg, dialect=dialect, literals=literals) for arg in expr.args
        )
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name.upper()}({distinct}{inner})"
    if isinstance(expr, Contains):
        check_renderable_text(expr.phrase)
        column_text = render_expr(expr.column, dialect=dialect, literals=literals)
        escape = ""
        if dialect.escape_like_wildcards:
            pattern = "%" + _escape_like_pattern(expr.phrase) + "%"
            escape = " ESCAPE '\\'"
        else:
            pattern = "%" + expr.phrase + "%"
        pattern = "'" + pattern.replace("'", "''") + "'"
        if literals is not None:
            literals.append(pattern)
            pattern = "?"
        return f"{column_text} LIKE {pattern}{escape}"
    if isinstance(expr, IsNull):
        negation = " NOT" if expr.negated else ""
        operand = render_expr(expr.operand, 3, dialect, literals)
        return f"{operand} IS{negation} NULL"
    if isinstance(expr, BinaryOp):
        precedence = _PRECEDENCE.get(expr.op.upper(), 3)
        left = render_expr(expr.left, precedence, dialect, literals)
        right = render_expr(expr.right, precedence + 1, dialect, literals)
        if expr.op == "/" and dialect.cast_integer_division:
            # force true division on backends where int / int truncates
            left = f"CAST({left} AS REAL)"
        text = f"{left} {expr.op.upper()} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    raise TypeError(f"cannot render expression {expr!r}")


def _render_select_item(
    item: SelectItem, dialect: SqlDialect, literals: Optional[List[str]]
) -> str:
    text = render_expr(item.expr, dialect=dialect, literals=literals)
    if item.alias:
        text += f" AS {quote_identifier(item.alias, dialect)}"
    return text


def _render_from_item(
    item: FromItem,
    pretty: bool,
    indent: int,
    dialect: SqlDialect,
    literals: Optional[List[str]],
) -> str:
    if isinstance(item, TableRef):
        table = quote_identifier(item.table, dialect)
        if item.alias != item.table:
            return f"{table} {quote_identifier(item.alias, dialect)}"
        return table
    if isinstance(item, DerivedTable):
        inner = _render_select(item.select, pretty, indent + 1, dialect, literals)
        alias = quote_identifier(item.alias, dialect)
        if pretty:
            pad = "  " * (indent + 1)
            return f"(\n{pad}{inner}\n{'  ' * indent}) {alias}"
        return f"({inner}) {alias}"
    raise TypeError(f"cannot render FROM item {item!r}")


def _render_select(
    select: Select,
    pretty: bool,
    indent: int = 0,
    dialect: SqlDialect = ANSI_DIALECT,
    literals: Optional[List[str]] = None,
) -> str:
    clauses: List[str] = []
    distinct = "DISTINCT " if select.distinct else ""
    items = ", ".join(
        _render_select_item(item, dialect, literals) for item in select.items
    )
    clauses.append(f"SELECT {distinct}{items}")
    from_text = ", ".join(
        _render_from_item(item, pretty, indent, dialect, literals)
        for item in select.from_items
    )
    clauses.append(f"FROM {from_text}")
    if select.where is not None:
        where = render_expr(select.where, dialect=dialect, literals=literals)
        clauses.append(f"WHERE {where}")
    if select.group_by:
        group = ", ".join(
            render_expr(expr, dialect=dialect, literals=literals)
            for expr in select.group_by
        )
        clauses.append(f"GROUP BY {group}")
    if select.order_by:
        order = ", ".join(
            render_expr(item.expr, dialect=dialect, literals=literals)
            + (" DESC" if item.descending else "")
            for item in select.order_by
        )
        clauses.append(f"ORDER BY {order}")
    if select.limit is not None:
        clauses.append(f"LIMIT {select.limit}")
    if pretty:
        pad = "\n" + "  " * indent
        return pad.join(clauses)
    return " ".join(clauses)


def render(select: Select, dialect: SqlDialect = ANSI_DIALECT) -> str:
    """Single-line SQL text."""
    return _render_select(select, pretty=False, dialect=dialect)


def render_shape(select: Select) -> Tuple[str, Tuple[str, ...]]:
    """The statement's *shape* — its single-line SQL with every number or
    string literal and every ``contains`` phrase as a typed ``?``
    placeholder — and the literals' texts in order.  Two statements
    with equal shape and literals render equal; two with equal shape
    differ in their literals alone (the plan cache's two levels)."""
    literals: List[str] = []
    shape = _render_select(select, pretty=False, literals=literals)
    return shape, tuple(literals)


def render_pretty(select: Select, dialect: SqlDialect = ANSI_DIALECT) -> str:
    """Multi-line SQL text with indented subqueries."""
    return _render_select(select, pretty=True, dialect=dialect)
