"""Term matching: find every interpretation (tag) of each basic term.

Matching runs against a *catalog*: the logical schema the ORM graph is built
on plus a way to probe tuple values.  For a normalized database the catalog
is the database itself; for an unnormalized database it is the normalized
view, which maps value hits on the stored relations to the view relations
that own the matched attribute (Algorithm 2, lines 15-19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import NoMatchError
from repro.keywords.query import KeywordQuery, Term
from repro.keywords.tags import Tag, TagKind
from repro.observability import NULL_TRACER
from repro.orm.graph import OrmSchemaGraph
from repro.relational.database import Database
from repro.relational.index import parses_as_number
from repro.relational.schema import RelationSchema


@dataclass(frozen=True)
class ValueHit:
    """A value-level match: the logical relation/attribute containing the
    phrase and how many distinct objects (by identifier) carry it.

    ``value`` is set for exact numeric matches (the parsed number)."""

    relation: str
    attribute: str
    distinct_objects: int
    value: object = None


def name_match_score(term: str, name: str) -> Optional[float]:
    """Score a term against a metadata name.

    Exact (case-insensitive) matches score 1.0, singular/plural variants
    0.9, prefix matches of at least four characters 0.7 (so ``order`` finds
    the denormalized ``Ordering`` relation), and containment matches 0.6
    (``proceeding`` finds ``EditorProceeding``).  Returns None for no match.
    """
    t = term.lower()
    n = name.lower()
    if t == n:
        return 1.0
    if t + "s" == n or n + "s" == t:
        return 0.9
    if len(t) >= 4 and n.startswith(t):
        return 0.7
    if len(t) >= 4 and t in n:
        return 0.6
    # abbreviated attribute names: 'supplier' ~ 'suppkey', 'proceeding' ~
    # 'procid' share a long common prefix covering most of the name
    common = 0
    for a, b in zip(t, n):
        if a != b:
            break
        common += 1
    if common >= 4 and common * 2 >= len(n):
        return 0.5
    return None


class Catalog:
    """Base catalog: logical relations + value probing.

    ``graph`` is the ORM schema graph over the logical schema.  Subclasses
    provide :meth:`value_matches`.
    """

    def __init__(self, graph: OrmSchemaGraph) -> None:
        self.graph = graph

    def relations(self) -> Iterable[RelationSchema]:
        return iter(self.graph.schema)

    def value_matches(
        self, phrase: str, counts: Optional["Catalog"] = None
    ) -> List[ValueHit]:
        """Value hits of *phrase*; a catalog that counts a hit's objects
        with :meth:`distinct_object_count` asks *counts* (default: itself)."""
        raise NotImplementedError

    def distinct_object_count(
        self, relation: str, attribute: str, phrase: str
    ) -> int:
        """Distinct identifiers among tuples whose attribute contains the
        phrase (used again by pattern disambiguation)."""
        raise NotImplementedError

    def value_completions(self, prefix: str, limit: int = 10) -> List[str]:
        """Indexed value tokens completing *prefix* (for suggestions)."""
        return []


class NormalizedCatalog(Catalog):
    """Catalog over a normalized database: logical schema == stored schema.

    A stored table holds each primary key once (it rejects NULL and
    duplicate keys on every write), so the distinct objects among
    matching rows are as many as the rows."""

    def __init__(self, database: Database, graph: Optional[OrmSchemaGraph] = None) -> None:
        super().__init__(graph or OrmSchemaGraph(database.schema))
        self.database = database

    def value_matches(
        self, phrase: str, counts: Optional[Catalog] = None
    ) -> List[ValueHit]:
        hits: List[ValueHit] = []
        for match in self.database.text_index.match_phrase(phrase):
            count = len(match.row_positions)
            hits.append(ValueHit(match.relation, match.attribute, count))
        hits.extend(self._numeric_matches(phrase))
        return hits

    def _numeric_matches(self, phrase: str) -> List[ValueHit]:
        hits: List[ValueHit] = []
        if not parses_as_number(phrase):
            return hits
        for match in self.database.numeric_index.match_number(phrase):
            count = len(match.row_positions)
            value = float(phrase)
            if value.is_integer():
                value = int(value)
            hits.append(
                ValueHit(match.relation, match.attribute, count, value=value)
            )
        return hits

    def value_completions(self, prefix: str, limit: int = 10) -> List[str]:
        return self.database.text_index.tokens_with_prefix(prefix, limit)

    def distinct_object_count(
        self, relation: str, attribute: str, phrase: str
    ) -> int:
        positions = self.database.text_index.positions_for_contains(
            relation, attribute, phrase
        )
        if positions is not None:
            return len(positions)
        # non-text attribute (or tokenless phrase): fall back to a scan
        table = self.database.table(relation)
        attr_idx = table.schema.column_index(attribute)
        needle = phrase.lower()
        return sum(
            1
            for row in table.rows
            if row[attr_idx] is not None and needle in str(row[attr_idx]).lower()
        )


class CompileCatalog(Catalog):
    """One compile's view of *catalog*: each distinct-object count is
    probed once, whoever asks.  ``ViewCatalog.value_matches`` counts every
    hit, and disambiguation asks again for each condition of each
    pattern; both go through this memo.  Made per compile and dropped
    with it, so a count never outlives the data it was read from."""

    def __init__(self, catalog: Catalog) -> None:
        super().__init__(catalog.graph)
        self.catalog = catalog
        self._counts: Dict[Tuple[str, str, str], int] = {}

    def relations(self) -> Iterable[RelationSchema]:
        return self.catalog.relations()

    def value_matches(
        self, phrase: str, counts: Optional[Catalog] = None
    ) -> List[ValueHit]:
        return self.catalog.value_matches(phrase, counts or self)

    def distinct_object_count(
        self, relation: str, attribute: str, phrase: str
    ) -> int:
        key = (relation, attribute, phrase)
        count = self._counts.get(key)
        if count is None:
            count = self._counts[key] = self.catalog.distinct_object_count(*key)
        return count


class TermMatcher:
    """Produces the tag set of every basic term of a query."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def match_term(self, term: Term) -> List[Tag]:
        """All tags for one basic term, metadata matches first."""
        tags: List[Tag] = []
        if not term.quoted:
            tags.extend(self._relation_tags(term))
            tags.extend(self._attribute_tags(term))
        tags.extend(self._value_tags(term))
        return tags

    def match_query(self, query: KeywordQuery, tracer=NULL_TRACER) -> Dict[int, List[Tag]]:
        """Tags per basic-term position; raises when a term matches nothing."""
        result: Dict[int, List[Tag]] = {}
        for term in query.basic_terms:
            tags = self.match_term(term)
            if not tags:
                raise NoMatchError(
                    f"term {term.text!r} matches nothing in the database"
                )
            result[term.position] = tags
            tracer.count("terms_matched")
            tracer.count("tags_produced", len(tags))
        return result

    # ------------------------------------------------------------------
    # Tag producers
    # ------------------------------------------------------------------
    def _relation_tags(self, term: Term) -> List[Tag]:
        tags: List[Tag] = []
        for relation in self.catalog.relations():
            score = name_match_score(term.text, relation.name)
            if score is None:
                continue
            node = self.catalog.graph.node_of_relation(relation.name)
            tags.append(
                Tag(
                    term_position=term.position,
                    term_text=term.text,
                    kind=TagKind.RELATION,
                    node=node.name,
                    relation=relation.name,
                    exactness=score,
                )
            )
        tags.sort(key=lambda tag: (-tag.exactness, tag.relation))
        return tags

    def _attribute_tags(self, term: Term) -> List[Tag]:
        tags: List[Tag] = []
        for relation in self.catalog.relations():
            for column in relation.columns:
                score = name_match_score(term.text, column.name)
                if score is None:
                    continue
                node = self.catalog.graph.node_of_relation(relation.name)
                tags.append(
                    Tag(
                        term_position=term.position,
                        term_text=term.text,
                        kind=TagKind.ATTRIBUTE,
                        node=node.name,
                        relation=relation.name,
                        attribute=column.name,
                        exactness=score,
                    )
                )
        tags.sort(key=lambda tag: (-tag.exactness, tag.relation, tag.attribute or ""))
        return tags

    def _value_tags(self, term: Term) -> List[Tag]:
        tags: List[Tag] = []
        for hit in self.catalog.value_matches(term.text):
            node = self.catalog.graph.node_of_relation(hit.relation)
            tags.append(
                Tag(
                    term_position=term.position,
                    term_text=term.text,
                    kind=TagKind.VALUE,
                    node=node.name,
                    relation=hit.relation,
                    attribute=hit.attribute,
                    distinct_objects=hit.distinct_objects,
                    # a value interpretation yields to an exact metadata
                    # interpretation of the same term ({Lecturer George}:
                    # the Lecturer relation, not a value match on 'lecturer')
                    exactness=0.8,
                    value=hit.value,
                )
            )
        tags.sort(key=lambda tag: (tag.relation, tag.attribute or ""))
        return tags
