"""Query-pattern ranking (Section 3.1.2).

Following [15], a pattern is ranked by (1) its number of object/mixed nodes
and (2) the average pattern-graph distance between target nodes (aggregate
annotations) and condition nodes (conditions or GROUPBY annotations) —
fewer object nodes and shorter distances rank higher.  Ties are broken by
tag exactness (exact metadata matches beat fuzzy ones), total node count,
and finally a deterministic signature, so ranking is stable across runs.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import List, Sequence, Tuple

from repro.observability import NULL_TRACER
from repro.patterns.pattern import QueryPattern


def pattern_score(pattern: QueryPattern) -> Tuple:
    """Sort key: smaller is better."""
    return _structural_score(pattern) + (repr(pattern.signature()),)


def _structural_score(pattern: QueryPattern) -> Tuple:
    """:func:`pattern_score` without its last tie-break, the signature."""
    targets = pattern.target_nodes()
    conditions = [node for node in pattern.nodes if node.is_condition]
    distances: List[int] = []
    for target in targets:
        for condition in conditions:
            if condition.id == target.id:
                continue
            distance = pattern.distance(target.id, condition.id)
            if distance is not None:
                distances.append(distance)
    average_distance = sum(distances) / len(distances) if distances else 0.0
    return (
        pattern.object_like_count(),
        average_distance,
        -pattern.tag_exactness,
        len(pattern.nodes),
    )


def rank_patterns(
    patterns: Sequence[QueryPattern], tracer=NULL_TRACER
) -> List[QueryPattern]:
    """Patterns sorted best-first; disambiguation variants stay adjacent to
    their base pattern because they share every score component."""
    tracer.count("patterns_ranked", len(patterns))
    # sorted by pattern_score, stably; the signature tie-break is costly
    # to render, so it is rendered only where the rest of the score ties
    scored = sorted(
        ((_structural_score(pattern), pattern) for pattern in patterns),
        key=itemgetter(0),
    )
    ranked: List[QueryPattern] = []
    for _, group in groupby(scored, key=itemgetter(0)):
        tied = [pattern for _, pattern in group]
        if len(tied) > 1:
            tied.sort(key=lambda pattern: repr(pattern.signature()))
        ranked.extend(tied)
    return ranked


def top_k(patterns: Sequence[QueryPattern], k: int) -> List[QueryPattern]:
    return rank_patterns(patterns)[:k]
