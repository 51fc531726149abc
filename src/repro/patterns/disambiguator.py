"""Pattern disambiguation (Section 3.1.2, Algorithm 3 lines 13-23).

An object/mixed node annotated with a condition ``a = t`` may be satisfied
by several distinct objects (two students named Green).  Each such node
doubles the pattern set: one variant aggregates over *all* matching objects,
the other adds ``GROUPBY(identifier)`` so the aggregate is computed *per
distinct object*.  SQAK has only the first variant, which is where its
wrong answers come from.
"""

from __future__ import annotations

from typing import List, Optional

from repro.keywords.matcher import Catalog
from repro.observability import NULL_TRACER
from repro.patterns.pattern import GroupByAnnotation, PatternNode, QueryPattern


def disambiguate_pattern(
    pattern: QueryPattern, catalog: Optional[Catalog] = None
) -> List[QueryPattern]:
    """All disambiguation variants of *pattern* (the undistinguished
    original first).

    When *catalog* is given, the distinct-object count of a condition is
    re-checked against the data; otherwise the count recorded on the
    condition (from matching) is trusted.
    """
    variants: List[QueryPattern] = [pattern]
    if not any(node.aggregates for node in pattern.nodes):
        # disambiguation chooses *what an aggregate ranges over*; a plain
        # query (no aggregate anywhere) already returns objects themselves
        return variants
    for node in pattern.nodes:
        if not node.is_object_like:
            continue
        if any(g.from_disambiguation for g in node.groupbys):
            continue  # already distinguished
        if catalog is not None:
            identifier = set(catalog.graph.node(node.orm_node).identifier)
            if any(set(g.attributes) == identifier for g in node.groupbys):
                continue  # an explicit GROUPBY(id) already distinguishes
        multi_conditions = [
            condition
            for condition in node.conditions
            if _distinct_objects(condition, node, catalog) > 1
        ]
        if not multi_conditions:
            continue
        forked: List[QueryPattern] = []
        for variant in variants:
            # the variant shares every other node with its base
            clone = variant.fork([node.id])
            clone_node = clone.node(node.id)
            identifier = tuple(
                _identifier_of(clone_node, catalog or None, pattern)
            )
            clone_node.groupbys.append(
                GroupByAnnotation(
                    clone_node.relation, identifier, from_disambiguation=True
                )
            )
            forked.append(clone)
        variants.extend(forked)
    return variants


def _distinct_objects(condition, node: PatternNode, catalog: Optional[Catalog]) -> int:
    if catalog is not None:
        return catalog.distinct_object_count(
            condition.relation, condition.attribute, condition.phrase, condition.value
        )
    return condition.distinct_objects


def _identifier_of(node: PatternNode, catalog, pattern: QueryPattern):
    """The identifier attributes of the node's main relation.

    Resolved lazily through the pattern's nodes so that the disambiguator
    works on patterns whose catalog is unavailable (pure unit tests).
    """
    if catalog is not None:
        return catalog.graph.node(node.orm_node).identifier
    # fall back: GROUPBY over nothing would be wrong, so at minimum group by
    # the condition attribute's relation key is required; tests always pass a
    # catalog, this branch exists for defensive completeness
    raise ValueError("disambiguation requires a catalog to resolve identifiers")


def disambiguate_all(
    patterns: List[QueryPattern],
    catalog: Optional[Catalog] = None,
    tracer=NULL_TRACER,
) -> List[QueryPattern]:
    """Disambiguate every pattern, deduplicating by signature."""
    result: List[QueryPattern] = []
    seen = set()
    for pattern in patterns:
        for variant in disambiguate_pattern(pattern, catalog):
            signature = variant.signature()
            if signature in seen:
                tracer.count("variants_deduped")
                continue
            seen.add(signature)
            result.append(variant)
    tracer.count("patterns_disambiguated", len(patterns))
    tracer.count("variants_added", len(result) - len(patterns))
    return result
