"""Query shapes: what of a compile depends on a query's tags, not its values.

A generated pattern depends on which schema slots each term's tags hit,
not on the text of a value term: ``COUNT order "royal olive"`` and
``COUNT order "misty rose"`` generate the same patterns, each with the
condition of its own phrase.  The *shape key* of a matched query records
exactly what generation reads:

* each operator term, by its canonical name;
* each basic term, by its tags with the value-specific parts left out
  (a value tag keeps its slot and whether it is a numeric match, drops
  its object count and parsed number);
* which value terms have equal text (equal phrases make equal
  conditions, which pattern de-duplication compares).

Patterns and SQL kept per shape hold *placeholders* where a value term's
phrase goes: the condition ``phrase`` and, for numeric matches,
``value`` are the string :func:`placeholder` of the term's equality
class.  A :class:`ValueBinding` maps them back to one query's values —
:meth:`ValueBinding.instantiate` for patterns,
:meth:`ValueBinding.bind_select` for translated statements.  Whatever
depends on the values themselves (disambiguation's distinct-object
counts, ranking's tie-break on phrases) is recomputed per query.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.keywords.query import KeywordQuery
from repro.keywords.tags import Tag, TagKind
from repro.patterns.pattern import Condition, QueryPattern
from repro.sql.ast import (
    BinaryOp,
    Contains,
    DerivedTable,
    Expr,
    IsNull,
    Literal,
    Select,
)

__all__ = ["ShapeKey", "ValueBinding", "placeholder", "shape_of"]

ShapeKey = Tuple[Hashable, ...]


def placeholder(index: int) -> str:
    """The phrase standing for value class *index* in shaped patterns and
    statements.  The NUL prefix keeps it apart from any query text: a
    phrase with a control character cannot be rendered as SQL."""
    return f"\x00{index}"


def _tag_shape(tag: Tag) -> Tuple[Hashable, ...]:
    if tag.kind is TagKind.VALUE:
        return (tag.kind.value, tag.node, tag.relation, tag.attribute, tag.value is not None)
    return (tag.kind.value, tag.node, tag.relation, tag.attribute, tag.exactness)


class ValueBinding:
    """One query's values for the placeholders of its shape."""

    __slots__ = ("placeholders", "_conditions", "_phrases", "_values")

    def __init__(self) -> None:
        #: phrase of a value term -> its placeholder
        self.placeholders: Dict[str, str] = {}
        #: (placeholder, relation, attribute) -> the condition a fresh
        #: generation would build from the term's tag on that slot
        self._conditions: Dict[Tuple[str, str, str], Condition] = {}
        self._phrases: Dict[str, str] = {}
        self._values: Dict[str, Any] = {}

    def _add(self, phrase: str, tag: Tag) -> str:
        slot = self.placeholders.get(phrase)
        if slot is None:
            slot = self.placeholders[phrase] = placeholder(len(self.placeholders))
            self._phrases[slot] = phrase
        assert tag.attribute is not None
        self._conditions[(slot, tag.relation, tag.attribute)] = Condition(
            relation=tag.relation,
            attribute=tag.attribute,
            phrase=phrase,
            distinct_objects=tag.distinct_objects,
            value=tag.value,
        )
        if tag.value is not None:
            self._values[slot] = tag.value
        return slot

    # -- patterns -------------------------------------------------------
    def abstract(self, pattern: QueryPattern) -> QueryPattern:
        """*pattern* (generated from this query's tags) with every
        condition's phrase and value replaced by its placeholder: a copy,
        or *pattern* itself when it has no condition."""

        def shaped(condition: Condition) -> Condition:
            slot = self.placeholders[condition.phrase]
            return Condition(
                condition.relation,
                condition.attribute,
                slot,
                value=None if condition.value is None else slot,
            )

        return _map_conditions(pattern, shaped)

    def instantiate(self, pattern: QueryPattern) -> QueryPattern:
        """The shaped *pattern* with this query's conditions (a copy, or
        *pattern* itself when it has no condition)."""
        conditions = self._conditions
        return _map_conditions(
            pattern,
            lambda c: conditions[(c.phrase, c.relation, c.attribute)],
        )

    # -- statements -----------------------------------------------------
    def bind_select(self, select: Select) -> Select:
        """*select* (translated from shaped patterns) with this query's
        phrases and numbers in place of the placeholders."""
        if not self._phrases:
            return select
        return _bind_select(select, self._phrases, self._values)


def shape_of(query: KeywordQuery, tags: Dict[int, List[Tag]]) -> Tuple[ShapeKey, ValueBinding]:
    """The shape key of a matched query and the binding of its values."""
    binding = ValueBinding()
    key: List[Hashable] = []
    for term in query.terms:
        if term.is_operator:
            key.append(term.operator)
            continue
        term_tags = tags[term.position]
        slot: Optional[str] = None
        for tag in term_tags:
            if tag.kind is TagKind.VALUE:
                slot = binding._add(term.text, tag)
        key.append((slot, tuple(_tag_shape(tag) for tag in term_tags)))
    return tuple(key), binding


def _map_conditions(pattern: QueryPattern, fn) -> QueryPattern:
    """*pattern* with *fn* applied to every condition: a fork of the
    nodes that have one, or *pattern* itself when none has."""
    mapped = [node.id for node in pattern.nodes if node.conditions]
    if not mapped:
        return pattern  # nothing to map: patterns are shared, never mutated
    clone = pattern.fork(mapped)
    for node_id in mapped:
        node = clone.nodes[node_id]
        node.conditions = [fn(condition) for condition in node.conditions]
    return clone


# ----------------------------------------------------------------------
# Statement binding
# ----------------------------------------------------------------------
def _bind_expr(expr: Expr, phrases: Dict[str, str], values: Dict[str, Any]) -> Expr:
    if isinstance(expr, Contains):
        phrase = phrases.get(expr.phrase)
        return expr if phrase is None else Contains(expr.column, phrase)
    if isinstance(expr, Literal):
        if isinstance(expr.value, str) and expr.value in values:
            return Literal(values[expr.value])
        return expr
    if isinstance(expr, BinaryOp):
        left = _bind_expr(expr.left, phrases, values)
        right = _bind_expr(expr.right, phrases, values)
        if left is expr.left and right is expr.right:
            return expr
        return BinaryOp(expr.op, left, right)
    if isinstance(expr, IsNull):
        operand = _bind_expr(expr.operand, phrases, values)
        return expr if operand is expr.operand else IsNull(operand, expr.negated)
    return expr


def _bind_select(select: Select, phrases: Dict[str, str], values: Dict[str, Any]) -> Select:
    """Placeholders stand only in WHERE clauses — the translator puts
    conditions there and the rewriter moves them into derived tables'
    WHERE clauses — so those are all that is rebuilt."""
    where = select.where
    if where is not None:
        where = _bind_expr(where, phrases, values)
    from_items = tuple(
        DerivedTable(_bind_select(item.select, phrases, values), item.alias)
        if isinstance(item, DerivedTable)
        else item
        for item in select.from_items
    )
    return replace(select, from_items=from_items, where=where)
