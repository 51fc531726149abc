"""Normalized 3NF view of an unnormalized database (Section 4, Algorithm 1).

Given the stored (possibly denormalized) relations and their functional
dependencies, this module synthesizes the minimal set of 3NF *view
relations*, merging same-key relations across the whole database, and keeps
the mapping between each view relation and the stored relations that can
reconstruct it (*fragments*).  The ORM schema graph of an unnormalized
database is built over this view, so pattern generation and annotation work
unchanged; only translation differs (fragments become subqueries) — exactly
the architecture of Algorithm 2, lines 14-26.

Naming: a view relation keeps its stored relation's name when that relation
was already in 3NF; synthesized fragments get a deterministic
``<source>_<key>`` name unless the caller supplies *name hints* (a mapping
from key-attribute sets to names).  Hints matter because keyword queries
match relation names: the TPC-H denormalizer knows the ``orderkey``-keyed
fragment of ``Ordering`` represents orders and names it ``Order``.

:class:`ViewCatalog` is the matcher's catalog over the view.  It says only
which view relations own a value match on a stored column and which
stored relation a view relation's objects are counted in; matching and
counting are the base :class:`~repro.keywords.matcher.Catalog`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.errors import NormalizationError
from repro.fd.functional_dependency import FunctionalDependency, parse_fds
from repro.fd.normal_forms import is_3nf
from repro.fd.synthesis import synthesize_3nf
from repro.keywords.matcher import Catalog
from repro.orm.graph import OrmSchemaGraph
from repro.relational.database import Database
from repro.relational.schema import Column, DatabaseSchema, ForeignKey, RelationSchema


@dataclass(frozen=True)
class Fragment:
    """One way to obtain (part of) a view relation from a stored relation:
    ``project(source, attributes)``."""

    source: str
    attributes: Tuple[str, ...]

    def covers(self, needed: Iterable[str]) -> bool:
        return set(needed) <= set(self.attributes)


class ViewRelation:
    """A relation of the normalized view with its reconstruction fragments."""

    def __init__(
        self,
        name: str,
        columns: Tuple[Column, ...],
        key: Tuple[str, ...],
        fragments: List[Fragment],
    ) -> None:
        self.name = name
        self.columns = columns
        self.key = key
        self.fragments = fragments

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def fragments_covering(self, needed: Iterable[str]) -> List[Fragment]:
        return [frag for frag in self.fragments if frag.covers(needed)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ViewRelation({self.name!r}, key={self.key}, "
            f"fragments={[f.source for f in self.fragments]})"
        )


FdSpec = Mapping[str, Sequence]  # relation -> FDs (objects or "A -> B" text)
NameHints = Mapping[FrozenSet[str], str]


def _coerce_fds(spec: Optional[FdSpec], relation: RelationSchema) -> List[FunctionalDependency]:
    """Declared FDs of a relation plus the FD implied by its primary key."""
    declared: List[FunctionalDependency] = []
    if spec and relation.name in spec:
        for item in spec[relation.name]:
            if isinstance(item, FunctionalDependency):
                declared.append(item)
            else:
                declared.append(FunctionalDependency.parse(str(item)))
    key = frozenset(relation.primary_key)
    rest = frozenset(relation.column_names) - key
    if rest:
        declared.append(FunctionalDependency(key, rest))
    return declared


def validate_declared_fds(database: Database, fds: Optional[FdSpec]) -> None:
    """Verify that every declared FD holds on the stored data.

    Raises :class:`NormalizationError` naming the first violated FD.  The
    view-building pipeline assumes declared FDs are true; a violated one
    would make the DISTINCT fragment projections collapse tuples that are
    actually distinct, corrupting aggregates.
    """
    from repro.fd.discovery import holds

    if not fds:
        return
    for relation_name, items in fds.items():
        table = database.table(relation_name)
        for item in items:
            fd = (
                item
                if isinstance(item, FunctionalDependency)
                else FunctionalDependency.parse(str(item))
            )
            if not holds(table, fd):
                raise NormalizationError(
                    f"declared FD {fd} does not hold on relation "
                    f"{relation_name!r}"
                )


def database_is_normalized(database: Database, fds: Optional[FdSpec] = None) -> bool:
    """True when every stored relation is in 3NF under its FDs."""
    for relation in database.schema:
        relation_fds = _coerce_fds(fds, relation)
        attributes = frozenset(relation.column_names)
        if not is_3nf(attributes, relation_fds):
            return False
    return True


class NormalizedView:
    """The normalized view D' of an unnormalized database D."""

    def __init__(
        self,
        database: Database,
        relations: Dict[str, ViewRelation],
        schema: DatabaseSchema,
    ) -> None:
        self.database = database
        self.relations = relations
        self.schema = schema
        self.graph = OrmSchemaGraph(schema)

    # ------------------------------------------------------------------
    # Construction (Algorithm 1)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: Database,
        fds: Optional[FdSpec] = None,
        name_hints: Optional[NameHints] = None,
        check_fds: bool = False,
    ) -> "NormalizedView":
        """Build the view; ``check_fds=True`` additionally verifies every
        declared FD against the stored data (a wrong FD makes fragment
        projections silently lossy, so the check fails loudly instead)."""
        if check_fds:
            validate_declared_fds(database, fds)
        hints = dict(name_hints or {})
        base_schema = database.schema

        # 1-8: normalize each stored relation into 3NF pieces
        pieces: List[Tuple[Tuple[str, ...], Tuple[str, ...], str]] = []
        # each piece: (attributes ordered, key ordered, source relation)
        for relation in base_schema:
            relation_fds = _coerce_fds(fds, relation)
            attributes = frozenset(relation.column_names)
            if is_3nf(attributes, relation_fds):
                pieces.append(
                    (relation.column_names, relation.primary_key, relation.name)
                )
                continue
            for decomposed in synthesize_3nf(attributes, relation_fds):
                ordered_attrs = tuple(
                    name
                    for name in relation.column_names
                    if name in decomposed.attributes
                )
                ordered_key = tuple(
                    name for name in ordered_attrs if name in decomposed.key
                )
                pieces.append((ordered_attrs, ordered_key, relation.name))

        # 9-11: merge pieces with the same key (across the whole database)
        merged: Dict[FrozenSet[str], Dict] = {}
        order: List[FrozenSet[str]] = []
        for attrs, key, source in pieces:
            key_set = frozenset(key)
            if key_set not in merged:
                merged[key_set] = {
                    "attrs": list(attrs),
                    "key": key,
                    "fragments": [],
                }
                order.append(key_set)
            entry = merged[key_set]
            for attr in attrs:
                if attr not in entry["attrs"]:
                    entry["attrs"].append(attr)
            entry["fragments"].append(Fragment(source, attrs))

        # build view relations with names and column types
        relations: Dict[str, ViewRelation] = {}
        used_names: Set[str] = set()
        for key_set in order:
            entry = merged[key_set]
            name = cls._pick_name(
                key_set, entry, base_schema, hints, used_names
            )
            used_names.add(name)
            columns = tuple(
                cls._column_type(base_schema, entry["fragments"], attr)
                for attr in entry["attrs"]
            )
            relations[name] = ViewRelation(
                name, columns, tuple(entry["key"]), list(entry["fragments"])
            )

        schema = cls._build_schema(base_schema.name + "_view", relations)
        return cls(database, relations, schema)

    @staticmethod
    def _pick_name(
        key_set: FrozenSet[str],
        entry: Dict,
        base_schema: DatabaseSchema,
        hints: Dict[FrozenSet[str], str],
        used: Set[str],
    ) -> str:
        if key_set in hints and hints[key_set] not in used:
            return hints[key_set]
        # a piece that is exactly an original 3NF relation keeps its name
        for fragment in entry["fragments"]:
            source = base_schema.relation(fragment.source)
            if (
                set(fragment.attributes) == set(source.column_names)
                and frozenset(source.primary_key) == key_set
                and source.name not in used
            ):
                return source.name
        source_name = entry["fragments"][0].source
        candidate = f"{source_name}_{'_'.join(entry['key'])}"
        suffix = 2
        name = candidate
        while name in used:
            name = f"{candidate}_{suffix}"
            suffix += 1
        return name

    @staticmethod
    def _column_type(
        base_schema: DatabaseSchema, fragments: List[Fragment], attr: str
    ) -> Column:
        for fragment in fragments:
            source = base_schema.relation(fragment.source)
            if source.has_column(attr):
                return source.column(attr)
        raise NormalizationError(f"no source column for view attribute {attr!r}")

    @staticmethod
    def _build_schema(
        name: str, relations: Dict[str, ViewRelation]
    ) -> DatabaseSchema:
        """Logical schema of the view, with foreign keys inferred by key
        containment: V references W when W's key attributes all appear in V
        (denormalization preserves attribute names, so name-based inference
        is sound for views built from it)."""
        schema = DatabaseSchema(name)
        key_owner: Dict[FrozenSet[str], str] = {
            frozenset(rel.key): rel.name for rel in relations.values()
        }
        for rel in relations.values():
            foreign_keys = []
            for other in relations.values():
                if other.name == rel.name:
                    continue
                other_key = set(other.key)
                if other_key == set(rel.key):
                    continue
                if other_key <= set(rel.column_names):
                    foreign_keys.append(
                        ForeignKey(tuple(other.key), other.name, tuple(other.key))
                    )
            schema.add_relation(
                rel.name,
                [(col.name, col.dtype) for col in rel.columns],
                rel.key,
                foreign_keys,
            )
        schema.validate()
        return schema

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def relation(self, name: str) -> ViewRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise NormalizationError(f"no view relation {name!r}") from None

    def owners_of_attribute(
        self, source: str, attribute: str
    ) -> List[ViewRelation]:
        """View relations that can own a value match on
        ``source.attribute``, best owner first: a relation identified by the
        attribute (single-attribute key) beats one merely containing it, and
        non-key ownership beats incidental foreign-key occurrence."""
        candidates: List[Tuple[int, str, ViewRelation]] = []
        for rel in self.relations.values():
            if attribute not in rel.column_names:
                continue
            if not any(f.source == source for f in rel.fragments):
                continue
            if rel.key == (attribute,):
                rank = 0
            elif attribute not in rel.key:
                rank = 1
            else:
                rank = 2
            candidates.append((rank, rel.name, rel))
        candidates.sort(key=lambda item: (item[0], item[1]))
        best_rank = candidates[0][0] if candidates else None
        return [rel for rank, _, rel in candidates if rank == best_rank]

    def describe(self) -> str:
        lines = [f"normalized view of {self.database.schema.name!r}:"]
        for rel in self.relations.values():
            frags = ", ".join(
                f"pi_{{{','.join(f.attributes)}}}({f.source})" for f in rel.fragments
            )
            lines.append(
                f"  {rel.name}({', '.join(rel.column_names)}) key={rel.key} = {frags}"
            )
        return "\n".join(lines)


class ViewCatalog(Catalog):
    """Catalog over the normalized view: metadata matching against view
    relations, value matching against the stored database mapped into the
    view (Algorithm 2, lines 15-19).  A view relation's objects are
    counted by its key in the first stored relation that holds the key
    and the matched attribute."""

    def __init__(self, view: NormalizedView) -> None:
        super().__init__(view.graph, view.database)
        self.view = view

    def owners(self, table: str, column: str) -> List[str]:
        return [rel.name for rel in self.view.owners_of_attribute(table, column)]

    def source(self, relation: str, attribute: str) -> Optional[Tuple[str, Sequence[str]]]:
        view_rel = self.view.relation(relation)
        fragments = view_rel.fragments_covering(set(view_rel.key) | {attribute})
        return (fragments[0].source, view_rel.key) if fragments else None
