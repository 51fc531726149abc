"""SQL abstract syntax tree.

The dialect is the subset the paper's systems emit: ``SELECT [DISTINCT]``
lists with aggregate functions, ``FROM`` lists mixing base tables and derived
tables (subqueries), conjunctive ``WHERE`` clauses with equality joins and
``contains`` predicates, ``GROUP BY``, ``ORDER BY`` and ``LIMIT``.

Joins are expressed paper-style: a flat ``FROM`` list plus equality
predicates in ``WHERE`` (no explicit ``JOIN`` keyword), which is exactly the
SQL shown in the paper's examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class for scalar expressions."""

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def contains_aggregate(self) -> bool:
        return any(
            isinstance(node, FuncCall) and node.is_aggregate for node in self.walk()
        )


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly qualified column reference, e.g. ``S1.Sid`` or ``Sname``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string or NULL (None)."""

    value: Any

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


@dataclass(frozen=True)
class Star(Expr):
    """``*`` inside ``COUNT(*)``."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "*"


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; aggregates may carry DISTINCT."""

    name: str
    args: Tuple[Expr, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in AGGREGATE_FUNCTIONS

    def children(self) -> Tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operation: comparisons, AND/OR, arithmetic."""

    op: str  # '=', '<>', '<', '<=', '>', '>=', 'AND', 'OR', '+', '-', '*', '/'
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Contains(Expr):
    """The paper's ``a contains t`` predicate (substring, case-insensitive).

    Rendered as ``a LIKE '%t%'`` in SQL text.
    """

    column: Expr
    phrase: str

    def children(self) -> Tuple[Expr, ...]:
        return (self.column,)


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


# ----------------------------------------------------------------------
# Select structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    """One output column: expression plus optional alias."""

    expr: Expr
    alias: Optional[str] = None

    def output_name(self, default: str) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return default


class FromItem:
    """Base class for FROM-list entries."""

    alias: str


@dataclass(frozen=True)
class TableRef(FromItem):
    """A base table with an alias (defaults to the table name)."""

    table: str
    alias: str

    @classmethod
    def of(cls, table: str, alias: Optional[str] = None) -> "TableRef":
        return cls(table, alias or table)


@dataclass(frozen=True)
class DerivedTable(FromItem):
    """A subquery in the FROM clause with a mandatory alias."""

    select: "Select"
    alias: str


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A complete SELECT statement."""

    items: Tuple[SelectItem, ...]
    from_items: Tuple[FromItem, ...]
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False

    # -- construction convenience -------------------------------------
    @staticmethod
    def conjunction(predicates: Sequence[Expr]) -> Optional[Expr]:
        """AND-combine predicates; None for an empty sequence."""
        result: Optional[Expr] = None
        for predicate in predicates:
            result = predicate if result is None else BinaryOp("AND", result, predicate)
        return result

    def where_conjuncts(self) -> List[Expr]:
        """Flatten the WHERE clause into its top-level AND conjuncts."""
        conjuncts: List[Expr] = []

        def collect(expr: Optional[Expr]) -> None:
            if expr is None:
                return
            if isinstance(expr, BinaryOp) and expr.op == "AND":
                collect(expr.left)
                collect(expr.right)
            else:
                conjuncts.append(expr)

        collect(self.where)
        return conjuncts

    def has_aggregates(self) -> bool:
        return any(item.expr.contains_aggregate() for item in self.items)

    def subqueries(self) -> List["Select"]:
        """Directly nested derived-table subqueries."""
        return [item.select for item in self.from_items if isinstance(item, DerivedTable)]

    def tables(self) -> Tuple[str, ...]:
        """Every base table the statement reads, derived tables
        included, each once, sorted."""
        names = {item.table for item in self.from_items if isinstance(item, TableRef)}
        for select in self.subqueries():
            names.update(select.tables())
        return tuple(sorted(names))


def rewrite_qualifiers(expr: Expr, mapping: Mapping[Optional[str], str]) -> Expr:
    """Replace column-reference qualifiers according to *mapping* (a
    ``None`` entry qualifies the unqualified references)."""
    if isinstance(expr, ColumnRef):
        if expr.qualifier in mapping:
            return ColumnRef(expr.name, mapping[expr.qualifier])
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            rewrite_qualifiers(expr.left, mapping),
            rewrite_qualifiers(expr.right, mapping),
        )
    if isinstance(expr, Contains):
        return Contains(rewrite_qualifiers(expr.column, mapping), expr.phrase)
    if isinstance(expr, IsNull):
        return IsNull(rewrite_qualifiers(expr.operand, mapping), expr.negated)
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name,
            tuple(rewrite_qualifiers(arg, mapping) for arg in expr.args),
            expr.distinct,
        )
    return expr


def column(name: str, qualifier: Optional[str] = None) -> ColumnRef:
    """Shorthand constructor used throughout translators and tests."""
    return ColumnRef(name, qualifier)


def eq(left: Expr, right: Expr) -> BinaryOp:
    return BinaryOp("=", left, right)


def agg(func: str, operand: Expr, distinct: bool = False) -> FuncCall:
    """Build an aggregate call, validating the function name."""
    upper = func.upper()
    if upper not in AGGREGATE_FUNCTIONS:
        raise ValueError(f"{func!r} is not an aggregate function")
    return FuncCall(upper, (operand,), distinct=distinct)


def count_star() -> FuncCall:
    return FuncCall("COUNT", (Star(),))
