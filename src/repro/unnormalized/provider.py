"""Source provider for unnormalized databases.

Maps each pattern node (over a normalized-view relation) to SQL against the
stored relations: a projection subquery over one fragment when possible, or
a join of several fragment projections when no single stored relation covers
the needed attributes (merged view relations like the Figure-2 Department).

Projections add ``DISTINCT`` exactly when they do not retain a key of the
stored relation — this is what removes the duplication introduced by
denormalization (Example 9: Student' and Course' get DISTINCT, Enrol' does
not because ``(Sid, Code)`` is Enrolment's key).

The provider records a :class:`FragmentUse` for every simple projection it
emits; the rewriter's Rule 3 consumes that metadata to collapse fragment
joins back into the stored relation (Example 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NormalizationError
from repro.patterns.pattern import PatternNode
from repro.patterns.translator import SourceProvider
from repro.sql.ast import (
    ColumnRef,
    DerivedTable,
    FromItem,
    Select,
    SelectItem,
    TableRef,
    eq,
)
from repro.unnormalized.view import Fragment, NormalizedView, ViewRelation


@dataclass(frozen=True)
class FragmentUse:
    """Metadata about one emitted fragment projection (for Rule 3)."""

    alias: str
    source: str
    attributes: Tuple[str, ...]
    view_key: Tuple[str, ...]
    distinct: bool


class UnnormalizedSourceProvider(SourceProvider):
    """Provider reading pattern nodes from normalized-view fragments.

    ``naive=True`` skips attribute pruning (every fragment attribute is
    projected) — the input shape the paper's rewrite Rule 1 targets, kept
    for the rewrite ablation benchmark.
    """

    def __init__(self, view: NormalizedView, naive: bool = False) -> None:
        self.view = view
        self.naive = naive
        self.fragment_uses: Dict[str, FragmentUse] = {}

    # ------------------------------------------------------------------
    def from_item(
        self,
        node: PatternNode,
        needed_attrs: Sequence[str],
        force_distinct: bool,
        alias: str,
    ) -> FromItem:
        view_rel = self.view.relation(node.relation)
        needed: List[str] = list(needed_attrs)
        if not force_distinct:
            # keep the identifier so projections never collapse distinct
            # objects that share non-key values
            for attr in view_rel.key:
                if attr not in needed:
                    needed.insert(0, attr)
        if not needed:
            needed = list(view_rel.key)

        single = view_rel.fragments_covering(needed)
        if single:
            # prefer a fragment that is an entire stored relation (cheap
            # scan, often no DISTINCT) over a projection of a wide
            # denormalized relation; ties break on source name
            def preference(fragment: Fragment):
                source = self.view.database.schema.relation(fragment.source)
                is_whole = set(fragment.attributes) == set(source.column_names)
                keeps_key = set(fragment.attributes) >= set(source.primary_key)
                return (not is_whole, not keeps_key, fragment.source)

            best = min(single, key=preference)
            return self._single_fragment_item(
                view_rel, best, needed, force_distinct, alias
            )
        return self._joined_fragments_item(view_rel, needed, force_distinct, alias)

    # ------------------------------------------------------------------
    def _single_fragment_item(
        self,
        view_rel: ViewRelation,
        fragment: Fragment,
        needed: Sequence[str],
        force_distinct: bool,
        alias: str,
    ) -> FromItem:
        source_schema = self.view.database.schema.relation(fragment.source)
        projected = self._projection_attrs(fragment, needed)
        distinct = force_distinct or not (
            set(projected) >= set(source_schema.primary_key)
        )
        if (
            not distinct
            and set(projected) == set(source_schema.column_names)
        ):
            # the fragment is the whole stored relation: read it directly
            self.fragment_uses[alias] = FragmentUse(
                alias,
                fragment.source,
                tuple(source_schema.column_names),
                view_rel.key,
                distinct=False,
            )
            return TableRef(fragment.source, alias)
        projection = Select(
            items=tuple(SelectItem(ColumnRef(attr)) for attr in projected),
            from_items=(TableRef.of(fragment.source),),
            distinct=distinct,
        )
        self.fragment_uses[alias] = FragmentUse(
            alias, fragment.source, tuple(projected), view_rel.key, distinct
        )
        return DerivedTable(projection, alias)

    def _projection_attrs(
        self, fragment: Fragment, needed: Sequence[str]
    ) -> List[str]:
        if self.naive:
            return list(fragment.attributes)
        # preserve the fragment's deterministic attribute order
        needed_set = set(needed)
        return [attr for attr in fragment.attributes if attr in needed_set]

    def _joined_fragments_item(
        self,
        view_rel: ViewRelation,
        needed: Sequence[str],
        force_distinct: bool,
        alias: str,
    ) -> FromItem:
        """Cover *needed* with several fragments joined on the view key."""
        remaining = [attr for attr in needed if attr not in view_rel.key]
        chosen: List[Fragment] = []
        for fragment in view_rel.fragments:
            covered = [attr for attr in remaining if attr in fragment.attributes]
            if covered:
                chosen.append(fragment)
                remaining = [attr for attr in remaining if attr not in covered]
            if not remaining:
                break
        if remaining:
            raise NormalizationError(
                f"view relation {view_rel.name!r} cannot provide attributes "
                f"{remaining}"
            )
        if not chosen:
            chosen = [view_rel.fragments[0]]

        inner_items: List[FromItem] = []
        predicates = []
        provided: Dict[str, str] = {}
        for index, fragment in enumerate(chosen):
            frag_alias = f"F{index + 1}"
            attrs = [
                attr
                for attr in fragment.attributes
                if attr in set(needed) | set(view_rel.key)
            ]
            for attr in view_rel.key:
                if attr not in attrs:
                    attrs.append(attr)
            source_schema = self.view.database.schema.relation(fragment.source)
            distinct = not (set(attrs) >= set(source_schema.primary_key))
            projection = Select(
                items=tuple(SelectItem(ColumnRef(attr)) for attr in attrs),
                from_items=(TableRef.of(fragment.source),),
                distinct=distinct,
            )
            inner_items.append(DerivedTable(projection, frag_alias))
            if index > 0:
                for key_attr in view_rel.key:
                    predicates.append(
                        eq(ColumnRef(key_attr, "F1"), ColumnRef(key_attr, frag_alias))
                    )
            for attr in attrs:
                provided.setdefault(attr, frag_alias)

        items = tuple(
            SelectItem(ColumnRef(attr, provided[attr]), alias=attr)
            for attr in needed
        )
        joined = Select(
            items=items,
            from_items=tuple(inner_items),
            where=Select.conjunction(predicates),
            distinct=force_distinct,
        )
        return DerivedTable(joined, alias)
