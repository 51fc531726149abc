"""SQL rewriting for unnormalized databases (Section 4.1, Rules 1-3).

The translated SQL for an unnormalized database joins fragment subqueries,
which is slow (no indexes on derived tables).  Three heuristics rewrite it:

* **Rule 3** — a set of fragment subqueries of the same stored relation,
  joined losslessly (each join equates a key of one side) and together
  covering a superkey, is replaced by the stored relation itself
  (Example 10: ``C' x E1' x S1' -> Enrolment R1``).
* **Rule 1** — projected attributes never referenced by the outer statement
  are dropped from the remaining subqueries (the fragment's identifying key
  is kept so DISTINCT granularity never changes).
* **Rule 2** — ``contains`` conditions on a subquery's output are pushed
  into the subquery so rows are filtered before the join.

Rule 3 runs first (it removes subqueries wholesale), then Rules 1 and 2
clean up the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.observability import NULL_TRACER
from repro.relational.schema import DatabaseSchema
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Contains,
    DerivedTable,
    Expr,
    FromItem,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    TableRef,
    rewrite_qualifiers,
)
from repro.unnormalized.provider import FragmentUse


# ----------------------------------------------------------------------
# Expression utilities
# ----------------------------------------------------------------------
def referenced_columns(select: Select, alias: str) -> Set[str]:
    """Column names referenced through *alias* anywhere in *select* (not
    inside its subqueries)."""
    names: Set[str] = set()

    def scan(expr: Optional[Expr]) -> None:
        if expr is None:
            return
        for node in expr.walk():
            if isinstance(node, ColumnRef) and node.qualifier == alias:
                names.add(node.name)

    for item in select.items:
        scan(item.expr)
    scan(select.where)
    for expr in select.group_by:
        scan(expr)
    for order in select.order_by:
        scan(order.expr)
    return names


# ----------------------------------------------------------------------
# Rule 3: replace fragment joins with the stored relation
# ----------------------------------------------------------------------
@dataclass
class _Unit:
    """A group of fragment uses to be merged into one stored-relation scan."""

    aliases: List[str]
    source: str
    attributes: Set[str]


def _equated_attrs(conjunct: Expr) -> Optional[Tuple[str, str, str]]:
    """(left alias, right alias, attribute) for a same-name equality."""
    if (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
        and conjunct.left.name == conjunct.right.name
        and conjunct.left.qualifier
        and conjunct.right.qualifier
    ):
        return conjunct.left.qualifier, conjunct.right.qualifier, conjunct.left.name
    return None


def apply_rule3(
    select: Select,
    fragment_uses: Dict[str, FragmentUse],
    base_schema: DatabaseSchema,
) -> Select:
    """Collapse lossless fragment joins into the stored relation."""
    conjuncts = select.where_conjuncts()
    # join edges between fragment uses of the same source
    edges: Dict[Tuple[str, str], Set[str]] = {}
    for conjunct in conjuncts:
        equated = _equated_attrs(conjunct)
        if equated is None:
            continue
        left, right, attr = equated
        if left not in fragment_uses or right not in fragment_uses:
            continue
        if fragment_uses[left].source != fragment_uses[right].source:
            continue
        key = tuple(sorted((left, right)))
        edges.setdefault(key, set()).add(attr)

    from_aliases = [item.alias for item in select.from_items]
    unit_of: Dict[str, _Unit] = {}
    units: List[_Unit] = []
    merged_roles: Dict[int, Set[Tuple[str, ...]]] = {}

    for alias in from_aliases:
        if alias not in fragment_uses or alias in unit_of:
            continue
        use = fragment_uses[alias]
        unit = _Unit([alias], use.source, set(use.attributes))
        roles: Set[Tuple[str, ...]] = {use.attributes}
        # grow the unit greedily along lossless join edges
        changed = True
        while changed:
            changed = False
            for other in from_aliases:
                if other in unit_of or other in unit.aliases:
                    continue
                other_use = fragment_uses.get(other)
                if other_use is None or other_use.source != unit.source:
                    continue
                if other_use.attributes in roles:
                    continue  # one use per projection role (self-joins stay)
                for member in unit.aliases:
                    pair = tuple(sorted((member, other)))
                    shared = edges.get(pair)
                    if not shared:
                        continue
                    member_key = set(fragment_uses[member].view_key)
                    other_key = set(other_use.view_key)
                    if shared >= member_key or shared >= other_key:
                        unit.aliases.append(other)
                        unit.attributes |= set(other_use.attributes)
                        roles.add(other_use.attributes)
                        changed = True
                        break
        if len(unit.aliases) >= 2:
            source_key = set(base_schema.relation(unit.source).primary_key)
            if unit.attributes >= source_key:
                units.append(unit)
                for member in unit.aliases:
                    unit_of[member] = unit

    if not units:
        return select

    # build alias remapping and new FROM list
    mapping: Dict[str, str] = {}
    replacement_alias: Dict[int, str] = {}
    counter = 0
    for unit in units:
        counter += 1
        new_alias = f"U{counter}"
        replacement_alias[id(unit)] = new_alias
        for member in unit.aliases:
            mapping[member] = new_alias

    new_from: List[FromItem] = []
    emitted: Set[int] = set()
    for item in select.from_items:
        unit = unit_of.get(item.alias)
        if unit is None:
            new_from.append(item)
            continue
        if id(unit) in emitted:
            continue
        emitted.add(id(unit))
        new_from.append(TableRef(unit.source, replacement_alias[id(unit)]))

    # drop join conditions internal to a unit, remap the rest
    new_conjuncts: List[Expr] = []
    for conjunct in conjuncts:
        equated = _equated_attrs(conjunct)
        if equated is not None:
            left, right, _ = equated
            if (
                left in unit_of
                and right in unit_of
                and unit_of[left] is unit_of[right]
            ):
                continue
        new_conjuncts.append(rewrite_qualifiers(conjunct, mapping))

    return Select(
        items=tuple(
            SelectItem(rewrite_qualifiers(item.expr, mapping), item.alias)
            for item in select.items
        ),
        from_items=tuple(new_from),
        where=Select.conjunction(new_conjuncts),
        group_by=tuple(rewrite_qualifiers(expr, mapping) for expr in select.group_by),
        order_by=tuple(
            OrderItem(rewrite_qualifiers(order.expr, mapping), order.descending)
            for order in select.order_by
        ),
        limit=select.limit,
        distinct=select.distinct,
    )


# ----------------------------------------------------------------------
# Rule 1: prune unused projected attributes
# ----------------------------------------------------------------------
def apply_rule1(
    select: Select, fragment_uses: Dict[str, FragmentUse]
) -> Select:
    """Drop subquery output columns the outer statement never references.

    The fragment's view key is always retained: dropping it from a DISTINCT
    projection would change deduplication granularity and thus aggregate
    results.
    """
    new_from: List[FromItem] = []
    for item in select.from_items:
        use = fragment_uses.get(item.alias)
        if (
            use is None
            or not isinstance(item, DerivedTable)
            or not _is_simple_projection(item.select)
        ):
            new_from.append(item)
            continue
        used = referenced_columns(select, item.alias) | set(use.view_key)
        kept = tuple(
            sub_item
            for sub_item in item.select.items
            if isinstance(sub_item.expr, ColumnRef) and sub_item.expr.name in used
        )
        if not kept or len(kept) == len(item.select.items):
            new_from.append(item)
            continue
        new_from.append(
            DerivedTable(replace(item.select, items=kept), item.alias)
        )
    return replace(select, from_items=tuple(new_from))


def _is_simple_projection(select: Select) -> bool:
    return (
        len(select.from_items) == 1
        and isinstance(select.from_items[0], TableRef)
        and select.where is None
        and not select.group_by
        and all(isinstance(item.expr, ColumnRef) for item in select.items)
    )


# ----------------------------------------------------------------------
# Rule 2: push contains-conditions into subqueries
# ----------------------------------------------------------------------
def apply_rule2(select: Select) -> Select:
    """Move ``alias.a contains t`` into the subquery bound to *alias*."""
    derived = {
        item.alias: item
        for item in select.from_items
        if isinstance(item, DerivedTable)
    }
    pushed: Dict[str, List[Expr]] = {}
    remaining: List[Expr] = []
    for conjunct in select.where_conjuncts():
        if (
            isinstance(conjunct, Contains)
            and isinstance(conjunct.column, ColumnRef)
            and conjunct.column.qualifier in derived
        ):
            alias = conjunct.column.qualifier
            item = derived[alias]
            projects = {
                sub.output_name(default="")
                for sub in item.select.items
            }
            if conjunct.column.name in projects and _is_pushable(item.select):
                pushed.setdefault(alias, []).append(
                    Contains(ColumnRef(conjunct.column.name), conjunct.phrase)
                )
                continue
        remaining.append(conjunct)
    if not pushed:
        return select
    new_from: List[FromItem] = []
    for item in select.from_items:
        if isinstance(item, DerivedTable) and item.alias in pushed:
            inner = item.select
            predicates = inner.where_conjuncts() + pushed[item.alias]
            new_from.append(
                DerivedTable(
                    replace(inner, where=Select.conjunction(predicates)),
                    item.alias,
                )
            )
        else:
            new_from.append(item)
    return replace(
        select,
        from_items=tuple(new_from),
        where=Select.conjunction(remaining),
    )


def _is_pushable(select: Select) -> bool:
    """Conditions may be pushed into plain projections (no grouping)."""
    return not select.group_by and not select.items[0].expr.contains_aggregate()


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
def rewrite(
    select: Select,
    fragment_uses: Dict[str, FragmentUse],
    base_schema: DatabaseSchema,
    tracer=NULL_TRACER,
) -> Select:
    """Apply Rules 3, 1, 2 (in that order) to one SELECT level.

    Nested levels produced by nested-aggregate wrapping are rewritten
    recursively.
    """
    inner_rewritten: List[FromItem] = []
    changed = False
    for item in select.from_items:
        if isinstance(item, DerivedTable) and item.select.has_aggregates():
            # a nested-aggregate inner query: rewrite it recursively
            new_inner = rewrite(item.select, fragment_uses, base_schema, tracer=tracer)
            inner_rewritten.append(DerivedTable(new_inner, item.alias))
            changed = changed or new_inner is not item.select
        else:
            inner_rewritten.append(item)
    if changed:
        select = replace(select, from_items=tuple(inner_rewritten))

    fragments_before = sum(
        1 for item in select.from_items if item.alias in fragment_uses
    )
    select = apply_rule3(select, fragment_uses, base_schema)
    fragments_after = sum(
        1 for item in select.from_items if item.alias in fragment_uses
    )
    if fragments_before > fragments_after:
        tracer.count("fragments_collapsed", fragments_before - fragments_after)
    select = apply_rule1(select, fragment_uses)
    select = apply_rule2(select)
    tracer.count("rewrites")
    return select
