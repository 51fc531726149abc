"""Query-pattern generation (Section 3.1.1).

Pattern generation runs in two stages:

1. **Terminal building** — each combination of tags (one per basic term) is
   folded into *terminal specs*: the object/relationship node instances the
   query refers to, with their conditions and operator annotations.  The
   context rules of [15] merge adjacent metadata/value terms into a single
   node (``{Lecturer George}`` is one Lecturer node, not Lecturer + Student).

2. **Connection** — terminals are connected into a minimal connected graph
   over the ORM schema graph.  A type referred to by several terminals is
   instantiated once per terminal (self-joins), and every relationship node
   on the path between a replicated terminal and its nearest shared
   object/mixed node is replicated with it: ``{Green George Code}`` yields
   two Student nodes, two Enrol nodes and one shared Course node (Figure 4).

The replication rule is implemented with *replication contexts*: a
replicated terminal type spreads its replication through relationship nodes
and stops at object/mixed nodes that are not themselves replicated; a node
reached by several replicated types is instantiated once per combination
(which also yields the natural bipartite pattern when two replicated types
are adjacent).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import NoPatternError
from repro.keywords.matcher import Catalog
from repro.keywords.query import KeywordQuery, OperatorApplication, Term
from repro.keywords.tags import Tag, TagKind
from repro.observability import NULL_TRACER
from repro.orm.graph import OrmSchemaGraph
from repro.patterns.pattern import (
    AggregateAnnotation,
    Condition,
    GroupByAnnotation,
    QueryPattern,
)

_AGGREGATE_ALIAS_PREFIX = {
    "COUNT": "num",
    "SUM": "sum",
    "AVG": "avg",
    "MIN": "min",
    "MAX": "max",
}

#: tag combinations (one tag per basic term) tried per query, in
#: product order; the rest are never generated
MAX_TAG_COMBINATIONS = 64


@dataclass
class TerminalSpec:
    """One node instance required by the query, before connection."""

    orm_node: str
    relation: str  # the matched relation within the node
    conditions: List[Condition] = field(default_factory=list)
    aggregates: List[AggregateAnnotation] = field(default_factory=list)
    groupbys: List[GroupByAnnotation] = field(default_factory=list)
    projections: List[tuple] = field(default_factory=list)


def aggregate_alias(func: str, attribute: str) -> str:
    """Output-column name for ``func(attribute)`` (paper style: numCode)."""
    return f"{_AGGREGATE_ALIAS_PREFIX[func]}{attribute}"


class PatternGenerator:
    """Generates annotated query patterns for a keyword query."""

    def __init__(
        self,
        catalog: Catalog,
        max_patterns: int = 32,
    ) -> None:
        self.catalog = catalog
        self.graph: OrmSchemaGraph = catalog.graph
        self.max_patterns = max_patterns

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def generate(
        self,
        query: KeywordQuery,
        tags: Dict[int, List[Tag]],
        tracer=NULL_TRACER,
    ) -> List[QueryPattern]:
        """All distinct patterns over the tag combinations, unranked.

        ``patterns_pruned`` counts tag combinations that produced no new
        pattern: invalid terminal combinations, disconnected terminals,
        and duplicates of an already-seen pattern signature.
        """
        basic_terms = query.basic_terms
        positions = [term.position for term in basic_terms]
        choice_lists = [tags[position] for position in positions]
        patterns: List[QueryPattern] = []
        seen_signatures: Set[Tuple] = set()
        combinations = itertools.islice(
            itertools.product(*choice_lists), MAX_TAG_COMBINATIONS
        )
        for combination in combinations:
            tracer.count("tag_combinations")
            tag_choice = dict(zip(positions, combination))
            terminals = self.build_terminals(query, tag_choice)
            if terminals is None:
                tracer.count("patterns_pruned")
                continue
            try:
                pattern = self.connect_terminals(terminals)
            except NoPatternError:
                tracer.count("patterns_pruned")
                continue
            pattern.tag_exactness = 1.0
            for tag in combination:
                pattern.tag_exactness *= tag.exactness
            signature = pattern.signature()
            if signature in seen_signatures:
                tracer.count("patterns_pruned")
                continue
            seen_signatures.add(signature)
            patterns.append(pattern)
            if len(patterns) >= self.max_patterns:
                break
        if not patterns:
            raise NoPatternError(
                f"no connected query pattern for {query.raw!r}"
            )
        tracer.count("patterns_generated", len(patterns))
        return patterns

    # ------------------------------------------------------------------
    # Stage 1: terminals
    # ------------------------------------------------------------------
    def build_terminals(
        self, query: KeywordQuery, tag_choice: Dict[int, Tag]
    ) -> Optional[List[TerminalSpec]]:
        """Fold one tag combination into terminal specs.

        Returns None when the combination violates a match-dependent
        constraint (an aggregate operand that is not an attribute name, an
        operator applied to a value term, ...).
        """
        terminals: List[TerminalSpec] = []
        terminal_of_position: Dict[int, TerminalSpec] = {}
        basic_terms = query.basic_terms
        for index, term in enumerate(basic_terms):
            tag = tag_choice[term.position]
            application = query.application_for(term.position)
            if tag.kind is TagKind.RELATION:
                terminal = self._relation_terminal(term, tag, application)
                if terminal is None:
                    return None
                terminals.append(terminal)
                terminal_of_position[term.position] = terminal
            elif tag.kind is TagKind.ATTRIBUTE:
                terminal = self._attach_attribute(
                    terminals, term, tag, application
                )
                if terminal is None:
                    return None
                terminal_of_position[term.position] = terminal
            else:  # VALUE
                if application is not None:
                    return None  # operators need metadata operands
                previous = basic_terms[index - 1] if index > 0 else None
                terminal = self._value_terminal(
                    terminals, terminal_of_position, previous, term, tag
                )
                terminal_of_position[term.position] = terminal
        return terminals

    def _relation_terminal(
        self, term: Term, tag: Tag, application: Optional[OperatorApplication]
    ) -> Optional[TerminalSpec]:
        node = self.graph.node(tag.node)
        terminal = TerminalSpec(orm_node=tag.node, relation=tag.relation)
        if application is None:
            # a bare relation term names a search target: project its
            # identifier ({Lecturer George}: return the lecturer)
            relation_schema = self.graph.schema.relation(tag.relation)
            terminal.projections.append(
                (tag.relation, relation_schema.primary_key[0])
            )
            return terminal
        relation_schema = self.graph.schema.relation(tag.relation)
        identifier = relation_schema.primary_key
        if application.groupby:
            terminal.groupbys.append(
                GroupByAnnotation(tag.relation, tuple(identifier))
            )
            return terminal
        innermost = application.chain[-1]
        if innermost != "COUNT":
            # MIN/MAX/AVG/SUM must be applied to an attribute name
            return None
        terminal.aggregates.append(
            AggregateAnnotation(
                func="COUNT",
                relation=tag.relation,
                attribute=identifier[0],
                alias=aggregate_alias("COUNT", identifier[0]),
                outer_chain=tuple(application.chain[:-1]),
            )
        )
        return terminal

    def _attach_attribute(
        self,
        terminals: List[TerminalSpec],
        term: Term,
        tag: Tag,
        application: Optional[OperatorApplication],
    ) -> Optional[TerminalSpec]:
        # attribute references do not denote new object instances: attach to
        # an existing terminal of the same ORM node when one exists
        terminal = None
        for candidate in reversed(terminals):
            if candidate.orm_node == tag.node:
                terminal = candidate
                break
        if terminal is None:
            terminal = TerminalSpec(orm_node=tag.node, relation=tag.relation)
            terminals.append(terminal)
        if application is None:
            # a bare attribute term names a search target ({Green George
            # Code}: return the course codes)
            assert tag.attribute is not None
            terminal.projections.append((tag.relation, tag.attribute))
            return terminal
        assert tag.attribute is not None
        if application.groupby:
            terminal.groupbys.append(
                GroupByAnnotation(tag.relation, (tag.attribute,))
            )
            return terminal
        innermost = application.chain[-1]
        terminal.aggregates.append(
            AggregateAnnotation(
                func=innermost,
                relation=tag.relation,
                attribute=tag.attribute,
                alias=aggregate_alias(innermost, tag.attribute),
                outer_chain=tuple(application.chain[:-1]),
            )
        )
        return terminal

    def _value_terminal(
        self,
        terminals: List[TerminalSpec],
        terminal_of_position: Dict[int, TerminalSpec],
        previous: Optional[Term],
        term: Term,
        tag: Tag,
    ) -> TerminalSpec:
        assert tag.attribute is not None
        condition = Condition(
            relation=tag.relation,
            attribute=tag.attribute,
            phrase=term.text,
            distinct_objects=tag.distinct_objects,
            value=tag.value,
        )
        # context merge: a value term immediately after a metadata term of
        # the same node refines that node instead of creating a new one
        if previous is not None and previous.position == term.position - 1:
            anchor = terminal_of_position.get(previous.position)
            if (
                anchor is not None
                and anchor.orm_node == tag.node
                and not anchor.conditions
            ):
                anchor.conditions.append(condition)
                return anchor
        terminal = TerminalSpec(orm_node=tag.node, relation=tag.relation)
        terminal.conditions.append(condition)
        terminals.append(terminal)
        return terminal

    # ------------------------------------------------------------------
    # Stage 2: connection
    # ------------------------------------------------------------------
    def connect_terminals(self, terminals: Sequence[TerminalSpec]) -> QueryPattern:
        """Connect terminal specs into one query pattern."""
        if not terminals:
            raise NoPatternError("query has no terminals")
        types = list(dict.fromkeys(spec.orm_node for spec in terminals))
        counts = Counter(spec.orm_node for spec in terminals)

        from repro.errors import SchemaError

        try:
            tree_edges = self._tree_edges(types, counts)
        except SchemaError as exc:
            raise NoPatternError(str(exc)) from exc
        tree_nodes = set(types)
        for first, second in tree_edges:
            tree_nodes.add(first)
            tree_nodes.add(second)

        adjacency: Dict[str, Set[str]] = {node: set() for node in tree_nodes}
        for first, second in tree_edges:
            adjacency[first].add(second)
            adjacency[second].add(first)

        multi = {name for name, count in counts.items() if count > 1}
        groups = self._replication_groups(tree_nodes, adjacency, multi)

        pattern = QueryPattern()
        instance_ids: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], int] = {}
        assignments_of: Dict[str, List[Dict[str, int]]] = {}
        for name in sorted(tree_nodes):
            node_groups = sorted(groups.get(name, frozenset()))
            index_ranges = [range(counts[group]) for group in node_groups]
            node_assignments: List[Dict[str, int]] = [
                dict(zip(node_groups, combo))
                for combo in itertools.product(*index_ranges)
            ] or [{}]
            assignments_of[name] = node_assignments
            orm_node = self.graph.node(name)
            for assignment in node_assignments:
                key = (name, tuple(sorted(assignment.items())))
                node = pattern.add_node(
                    name, orm_node.main_relation.name, orm_node.type
                )
                instance_ids[key] = node.id

        for first, second in sorted(tree_edges):
            orm_edges = sorted(
                self.graph.edges_between(first, second),
                key=lambda e: (e.child_relation, e.foreign_key.columns),
            )
            if not orm_edges:
                raise NoPatternError(
                    f"no ORM edge between {first!r} and {second!r}"
                )
            orm_edge = orm_edges[0]
            shared = set(groups.get(first, frozenset())) & set(
                groups.get(second, frozenset())
            )
            for assign_a in assignments_of[first]:
                for assign_b in assignments_of[second]:
                    if any(assign_a[g] != assign_b[g] for g in shared):
                        continue
                    id_a = instance_ids[(first, tuple(sorted(assign_a.items())))]
                    id_b = instance_ids[(second, tuple(sorted(assign_b.items())))]
                    pattern.add_edge(id_a, id_b, orm_edge)

        self._apply_terminal_specs(
            pattern, terminals, counts, groups, instance_ids, assignments_of
        )
        if not pattern.is_connected():
            raise NoPatternError("generated pattern is disconnected")
        return pattern

    def _tree_edges(
        self, types: List[str], counts: Counter
    ) -> Set[Tuple[str, str]]:
        if len(types) == 1:
            name = types[0]
            if counts[name] == 1:
                return set()
            # several instances of a single type: route them through the
            # nearest other object/mixed node (the common-course hub)
            hub_path = self._nearest_object_like_path(name)
            if hub_path is None:
                raise NoPatternError(
                    f"cannot connect several {name!r} instances: no hub node"
                )
            return {
                tuple(sorted(pair))  # type: ignore[misc]
                for pair in zip(hub_path, hub_path[1:])
            }
        return self.graph.steiner_tree(types)

    def _nearest_object_like_path(self, source: str) -> Optional[List[str]]:
        seen = {source}
        queue = deque([[source]])
        while queue:
            path = queue.popleft()
            last = path[-1]
            if last != source and self.graph.node(last).is_object_like:
                return path
            for neighbor in self.graph.neighbors(last):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(path + [neighbor])
        return None

    def _replication_groups(
        self,
        tree_nodes: Set[str],
        adjacency: Dict[str, Set[str]],
        multi: Set[str],
    ) -> Dict[str, FrozenSet[str]]:
        groups: Dict[str, Set[str]] = {node: set() for node in tree_nodes}
        for name in multi:
            groups[name].add(name)
            visited = {name}
            queue = deque([name])
            while queue:
                current = queue.popleft()
                for neighbor in adjacency[current]:
                    if neighbor in visited:
                        continue
                    visited.add(neighbor)
                    if neighbor in multi:
                        continue  # replicated terminals keep their own count
                    if self.graph.node(neighbor).is_object_like:
                        continue  # shared object/mixed node absorbs
                    groups[neighbor].add(name)
                    queue.append(neighbor)
        return {node: frozenset(names) for node, names in groups.items()}

    def _apply_terminal_specs(
        self,
        pattern: QueryPattern,
        terminals: Sequence[TerminalSpec],
        counts: Counter,
        groups: Dict[str, FrozenSet[str]],
        instance_ids: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], int],
        assignments_of: Dict[str, List[Dict[str, int]]],
    ) -> None:
        next_index: Dict[str, int] = {}
        for spec in terminals:
            name = spec.orm_node
            if counts[name] > 1:
                index = next_index.get(name, 0)
                next_index[name] = index + 1
                target_ids = [
                    instance_ids[(name, tuple(sorted(assignment.items())))]
                    for assignment in assignments_of[name]
                    if assignment.get(name) == index
                ]
            else:
                target_ids = [
                    instance_ids[(name, tuple(sorted(assignment.items())))]
                    for assignment in assignments_of[name]
                ]
            for node_id in target_ids:
                node = pattern.node(node_id)
                node.conditions.extend(spec.conditions)
                node.aggregates.extend(spec.aggregates)
                node.groupbys.extend(spec.groupbys)
                node.projections.extend(spec.projections)
