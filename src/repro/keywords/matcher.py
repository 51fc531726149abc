"""Term matching: find every interpretation (tag) of each basic term.

Matching runs against a *catalog*: the logical schema the ORM graph is built
on plus the stored data.  Value terms are matched once, on the base
:class:`Catalog`: the database names the columns a term may hit
(``Database.hits``), the catalog maps each to the logical relations that
own it, and counts their distinct objects through the executor's probe
(``Database.candidates``), checking each row with the predicate the
generated SQL applies.  For a normalized database the logical relations
are the stored ones; for an unnormalized database they are the normalized
view's, which own the matched attribute (Algorithm 2, lines 15-19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import NoMatchError
from repro.keywords.query import KeywordQuery, Term
from repro.keywords.tags import Tag, TagKind
from repro.observability import NULL_TRACER
from repro.orm.graph import OrmSchemaGraph
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

    ``graph`` is the ORM schema graph over the logical schema;
    ``database`` holds the stored relations and answers
    :meth:`~repro.relational.database.Database.hits`, ``completions``,
    ``candidates`` and ``table(name).columns``.  Subclasses say which
    logical relations own a stored column (:meth:`owners`) and where a
    relation's objects are counted (:meth:`source`); matching and
    counting are the same for every catalog.
    """

    def __init__(self, graph: OrmSchemaGraph, database: Any) -> None:
        self.graph = graph
        self.database = database

    def relations(self) -> Iterable[RelationSchema]:
        return iter(self.graph.schema)

    def owners(self, table: str, column: str) -> List[str]:
        """The logical relations a value match on stored
        ``table.column`` belongs to."""
        raise NotImplementedError

    def source(self, relation: str, attribute: str) -> Optional[Tuple[str, Sequence[str]]]:
        """The stored table that holds *attribute* beside the identifier
        of *relation*, with the identifier's columns; None if none does."""
        raise NotImplementedError

    def value_matches(self, phrase: str) -> List[ValueHit]:
        """Value hits of *phrase*: each owner of a column the database
        hits, with its count; a column whose count is 0 is no hit."""
        found: List[ValueHit] = []
        seen: Set[Tuple[str, str]] = set()
        for table, column, value in self.database.hits(phrase):
            for relation in self.owners(table, column):
                if (relation, column) in seen:
                    continue
                seen.add((relation, column))
                count = self.distinct_object_count(relation, column, phrase, value)
                if count:
                    found.append(ValueHit(relation, column, count, value))
        found.sort(key=lambda hit: (hit.relation, hit.attribute))
        return found

    def distinct_object_count(
        self, relation: str, attribute: str, phrase: str, value: Any = None
    ) -> int:
        """Distinct identifiers among the tuples of *relation* whose
        *attribute* passes the test the generated SQL applies: contains
        *phrase* (lowered substring), or equals the number *value*.
        Used again by pattern disambiguation."""
        source = self.source(relation, attribute)
        if source is None:
            return 0
        name, key = source
        if value is None:
            kind, probe, needle = "contains", phrase, phrase.lower()

            def passes(cell: Any) -> bool:
                return needle in str(cell).lower()

        else:
            kind, probe = "numeric-eq", value

            def passes(cell: Any) -> bool:
                return bool(cell == value)

        positions = self.database.candidates(kind, name, attribute, (probe,))
        table = self.database.table(name)
        index = table.schema.column_index
        cells, *ids = table.columns(
            [index(attribute), *map(index, key)],
            None if positions is None else sorted(positions),
        )
        return len({
            ident for cell, ident in zip(cells, zip(*ids))
            if cell is not None and passes(cell)
        })

    def value_completions(self, prefix: str, limit: int = 10) -> List[str]:
        """Indexed value tokens completing *prefix* (for suggestions)."""
        return self.database.completions(prefix, limit)


class NormalizedCatalog(Catalog):
    """Catalog over a normalized database: logical schema == stored
    schema, so a column belongs to its own table and a relation's
    objects are counted by its primary key."""

    def __init__(self, database: Any, graph: Optional[OrmSchemaGraph] = None) -> None:
        super().__init__(graph or OrmSchemaGraph(database.schema), database)

    def owners(self, table: str, column: str) -> List[str]:
        return [table]

    def source(self, relation: str, attribute: str) -> Optional[Tuple[str, Sequence[str]]]:
        return relation, self.database.table(relation).schema.primary_key


class CompileCatalog(Catalog):
    """One compile's view of *catalog*: each distinct-object count is
    probed once, whoever asks.  :meth:`value_matches` counts every hit,
    and disambiguation asks again for each condition of each pattern;
    both go through this memo.  Made per compile and dropped with it,
    so a count never outlives the data it was read from."""

    def __init__(self, catalog: Catalog) -> None:
        super().__init__(catalog.graph, catalog.database)
        self.catalog = catalog
        self._counts: Dict[Tuple[str, str, str, Any], int] = {}

    def relations(self) -> Iterable[RelationSchema]:
        return self.catalog.relations()

    def owners(self, table: str, column: str) -> List[str]:
        return self.catalog.owners(table, column)

    def source(self, relation: str, attribute: str) -> Optional[Tuple[str, Sequence[str]]]:
        return self.catalog.source(relation, attribute)

    def distinct_object_count(
        self, relation: str, attribute: str, phrase: str, value: Any = None
    ) -> int:
        key = (relation, attribute, phrase, value)
        count = self._counts.get(key)
        if count is None:
            count = self._counts[key] = super().distinct_object_count(*key)
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
