"""Annotated query patterns.

A query pattern is a minimal connected graph whose nodes represent the
objects/relationships referred to by a query's basic terms (Section 2.1).
Operators annotate nodes: ``COUNT(Code)`` on a Course node, ``GROUPBY(Sid)``
on a Student node.  Nested aggregates (Section 3.2) hang an *outer chain*
off a node annotation: for ``{AVG COUNT Lecturer GROUPBY Course}`` the
Lecturer node carries ``COUNT(Lid)`` with outer chain ``(AVG,)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.orm.classify import RelationType
from repro.orm.graph import OrmEdge


@dataclass(frozen=True)
class Condition:
    """A selection on a node: ``attribute contains phrase`` or, when
    ``value`` is set, the exact equality ``attribute = value`` (numeric
    terms match numeric columns exactly, not by substring).

    ``relation`` owns the attribute (a component relation when the attribute
    is multivalued); ``distinct_objects`` is how many distinct objects carry
    the value — the input to pattern disambiguation.
    """

    relation: str
    attribute: str
    phrase: str
    distinct_objects: int = 0
    value: object = None


@dataclass(frozen=True)
class AggregateAnnotation:
    """``func(attribute)`` on a node, with optional nested outer functions.

    ``alias`` names the aggregate's output column (``numCode``); the outer
    chain is applied outermost-last in ``outer_chain`` order, e.g.
    ``outer_chain=("AVG",)`` wraps the whole statement in
    ``SELECT AVG(alias)``.
    """

    func: str
    relation: str
    attribute: str
    alias: str
    outer_chain: Tuple[str, ...] = ()


@dataclass(frozen=True)
class GroupByAnnotation:
    """``GROUPBY(attributes)`` on a node.

    ``attributes`` is usually one attribute; it is the full identifier
    (possibly composite) when the annotation distinguishes objects with the
    same value (pattern disambiguation).  ``from_disambiguation`` records
    which of the two sources (explicit GROUPBY term vs disambiguation)
    produced it.
    """

    relation: str
    attributes: Tuple[str, ...]
    from_disambiguation: bool = False


class PatternNode:
    """One node of a query pattern: an instance of an ORM node."""

    __slots__ = (
        "id", "orm_node", "relation", "type",
        "conditions", "aggregates", "groupbys", "projections",
    )

    def __init__(
        self,
        node_id: int,
        orm_node: str,
        relation: str,
        node_type: RelationType,
    ) -> None:
        self.id = node_id
        self.orm_node = orm_node
        self.relation = relation
        self.type = node_type
        self.conditions: List[Condition] = []
        self.aggregates: List[AggregateAnnotation] = []
        self.groupbys: List[GroupByAnnotation] = []
        # attributes the user asked to see (plain, non-aggregate queries):
        # (owning relation, attribute) pairs from metadata terms without an
        # operator, e.g. Code in {Green George Code}
        self.projections: List[Tuple[str, str]] = []

    def copy(self) -> "PatternNode":
        """This node with lists of its own (the annotations themselves
        are frozen, so they are shared)."""
        clone = PatternNode(self.id, self.orm_node, self.relation, self.type)
        clone.conditions = list(self.conditions)
        clone.aggregates = list(self.aggregates)
        clone.groupbys = list(self.groupbys)
        clone.projections = list(self.projections)
        return clone

    @property
    def is_object_like(self) -> bool:
        return self.type in (RelationType.OBJECT, RelationType.MIXED)

    @property
    def is_target(self) -> bool:
        """Target nodes carry aggregate annotations (Section 3.1.2); in a
        plain query (no aggregates anywhere) projected attributes mark the
        search target instead ([15])."""
        return bool(self.aggregates)

    @property
    def is_condition(self) -> bool:
        """Condition nodes carry conditions or GROUPBY annotations."""
        return bool(self.conditions) or bool(self.groupbys)

    def describe(self) -> str:
        parts = [self.orm_node]
        for condition in self.conditions:
            parts.append(f"{condition.attribute}~'{condition.phrase}'")
        for aggregate in self.aggregates:
            chain = "".join(f"{f}(" for f in aggregate.outer_chain)
            closers = ")" * len(aggregate.outer_chain)
            parts.append(f"{chain}{aggregate.func}({aggregate.attribute}){closers}")
        for groupby in self.groupbys:
            tagged = "*" if groupby.from_disambiguation else ""
            parts.append(f"GROUPBY{tagged}({', '.join(groupby.attributes)})")
        for __, attribute in self.projections:
            parts.append(f"->{attribute}")
        return "[" + " ".join(parts) + "]"

    def signature(self) -> Tuple:
        return (
            self.orm_node,
            tuple(sorted((c.attribute, c.phrase) for c in self.conditions)),
            tuple(
                sorted(
                    (a.func, a.attribute, a.outer_chain) for a in self.aggregates
                )
            ),
            tuple(
                sorted(
                    (g.attributes, g.from_disambiguation) for g in self.groupbys
                )
            ),
            tuple(sorted(self.projections)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PatternNode({self.id}, {self.describe()})"


@dataclass(frozen=True)
class PatternEdge:
    """An edge between two pattern nodes, labelled with the ORM edge whose
    foreign key joins them."""

    first: int
    second: int
    orm_edge: OrmEdge

    def other(self, node_id: int) -> int:
        return self.second if node_id == self.first else self.first


class QueryPattern:
    """A connected, annotated query pattern."""

    __slots__ = ("nodes", "edges", "tag_exactness", "origin")

    def __init__(self) -> None:
        self.nodes: List[PatternNode] = []
        self.edges: List[PatternEdge] = []
        self.tag_exactness: float = 1.0  # product of tag scores, for ranking
        #: index of the generated pattern this one is, or was disambiguated
        #: from, in its generation's output (keys its SQL template)
        self.origin: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self, orm_node: str, relation: str, node_type: RelationType
    ) -> PatternNode:
        node = PatternNode(len(self.nodes), orm_node, relation, node_type)
        self.nodes.append(node)
        return node

    def add_edge(self, first: int, second: int, orm_edge: OrmEdge) -> PatternEdge:
        edge = PatternEdge(first, second, orm_edge)
        self.edges.append(edge)
        return edge

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> PatternNode:
        return self.nodes[node_id]

    def neighbors(self, node_id: int) -> List[int]:
        result = []
        for edge in self.edges:
            if edge.first == node_id:
                result.append(edge.second)
            elif edge.second == node_id:
                result.append(edge.first)
        return result

    def adjacent_object_like(self, node_id: int) -> List[PatternNode]:
        """Object/mixed pattern nodes directly connected to *node_id* — the
        set ``Nu`` used by the translator's duplicate-elimination test."""
        return [
            self.nodes[other]
            for other in self.neighbors(node_id)
            if self.nodes[other].is_object_like
        ]

    def edges_of(self, node_id: int) -> List[PatternEdge]:
        return [
            edge for edge in self.edges if node_id in (edge.first, edge.second)
        ]

    def is_connected(self) -> bool:
        if not self.nodes:
            return False
        seen = {self.nodes[0].id}
        queue = deque([self.nodes[0].id])
        while queue:
            current = queue.popleft()
            for neighbor in self.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return len(seen) == len(self.nodes)

    def distance(self, source: int, target: int) -> Optional[int]:
        """Hop distance between two pattern nodes."""
        if source == target:
            return 0
        seen = {source}
        queue = deque([(source, 0)])
        while queue:
            current, depth = queue.popleft()
            for neighbor in self.neighbors(current):
                if neighbor == target:
                    return depth + 1
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append((neighbor, depth + 1))
        return None

    # ------------------------------------------------------------------
    # Node classes for ranking
    # ------------------------------------------------------------------
    def target_nodes(self) -> List[PatternNode]:
        return [node for node in self.nodes if node.is_target]

    def condition_nodes(self) -> List[PatternNode]:
        return [node for node in self.nodes if node.is_condition and not node.is_target]

    def object_like_count(self) -> int:
        return sum(1 for node in self.nodes if node.is_object_like)

    @property
    def distinguishes(self) -> bool:
        """True when any node groups by its identifier to distinguish
        same-valued objects (disambiguated variant)."""
        return any(
            groupby.from_disambiguation
            for node in self.nodes
            for groupby in node.groupbys
        )

    # ------------------------------------------------------------------
    # Identity / rendering
    # ------------------------------------------------------------------
    def signature(self) -> Tuple:
        """Structural identity used to deduplicate generated patterns."""
        signatures = [node.signature() for node in self.nodes]
        # edges as sorted pairs of node signatures (coarse but effective)
        edge_sigs = tuple(
            sorted(
                tuple(sorted((signatures[edge.first], signatures[edge.second])))
                for edge in self.edges
            )
        )
        return (tuple(sorted(signatures)), edge_sigs)

    def copy(self) -> "QueryPattern":
        """A pattern with nodes of its own: free to write anywhere."""
        return self.fork(range(len(self.nodes)))

    def fork(self, node_ids: Iterable[int]) -> "QueryPattern":
        """A pattern sharing this one's nodes and edges, except fresh
        copies of the nodes *node_ids*: the only nodes the caller may
        write.  Cached patterns share nodes this way (a text entry's
        with its shape entry's, a disambiguation variant's with its
        base), so no node reachable from a cache is ever written."""
        clone = QueryPattern()
        clone.tag_exactness = self.tag_exactness
        clone.origin = self.origin
        clone.nodes = list(self.nodes)
        for node_id in node_ids:
            clone.nodes[node_id] = self.nodes[node_id].copy()
        clone.edges = list(self.edges)  # frozen: shared, not copied
        return clone

    def describe(self) -> str:
        """One-line rendering: nodes with annotations, then edges."""
        nodes = " ".join(node.describe() for node in self.nodes)
        edges = ", ".join(
            f"{self.nodes[e.first].orm_node}#{e.first}--"
            f"{self.nodes[e.second].orm_node}#{e.second}"
            for e in self.edges
        )
        return f"{nodes} | {edges}" if edges else nodes

    def render_tree(self) -> str:
        """Multi-line ASCII rendering of the pattern graph.

        The pattern is rooted at its first target node (or the first node)
        and drawn as an indented tree; back-edges that would revisit a node
        (patterns can contain cycles through shared nodes, as in Figure 4)
        are shown as ``^`` references.
        """
        if not self.nodes:
            return "(empty pattern)"
        root = self.target_nodes()[0].id if self.target_nodes() else self.nodes[0].id
        lines: List[str] = []
        visited: set = set()

        def walk(node_id: int, prefix: str, is_last: bool, is_root: bool) -> None:
            node = self.nodes[node_id]
            connector = "" if is_root else ("`-- " if is_last else "|-- ")
            lines.append(f"{prefix}{connector}{node.describe()}")
            visited.add(node_id)
            children = [n for n in self.neighbors(node_id)]
            extension = "" if is_root else ("    " if is_last else "|   ")
            fresh = [c for c in children if c not in visited]
            seen = [c for c in children if c in visited and not is_root]
            for index, child in enumerate(fresh):
                walk(
                    child,
                    prefix + extension,
                    index == len(fresh) - 1 and not False,
                    False,
                )

        walk(root, "", True, True)
        # disconnected remnants (should not happen for valid patterns)
        for node in self.nodes:
            if node.id not in visited:
                walk(node.id, "", True, True)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryPattern({self.describe()})"
