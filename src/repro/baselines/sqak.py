"""The SQAK baseline (Tata & Lohman, SIGMOD 2008), reimplemented from its
published description and the SQL statements shown in the paper under
reproduction.

SQAK models the database as a plain schema graph, matches query terms to
relations (by relation name, attribute name or tuple value), connects the
matched relations with a minimal *simple query network* (SQN) and emits one
SQL statement:

* the aggregate is applied to the attribute following the aggregate term
  (or the primary key when the term names a relation);
* value-matched attributes are selected and grouped by — ``{Green SUM
  Credit}`` becomes ``GROUP BY Sname``, mixing every student named Green;
* relationship relations are joined as-is — no duplicate elimination — so
  a ternary relation traversed through two of its participants over-counts;
* denormalized relations are scanned as stored, so duplicated information
  is aggregated repeatedly.

Documented limitations (returned as N.A. by raising
:class:`~repro.errors.UnsupportedQueryError`):

* more than one aggregate function in the SELECT clause (queries T7, A6);
* self-joins — two value terms matching the same relation (T8, A7, A8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.schema_graph import SchemaGraph
from repro.errors import NoMatchError, UnsupportedQueryError
from repro.keywords.matcher import name_match_score
from repro.keywords.query import KeywordQuery, OperatorApplication, Term
from repro.observability import NULL_TRACER
from repro.relational.database import Database
from repro.relational.executor import Executor, QueryResult
from repro.sql.ast import (
    ColumnRef,
    Contains,
    DerivedTable,
    Expr,
    FuncCall,
    Select,
    SelectItem,
    TableRef,
    eq,
)
from repro.sql.render import render, render_pretty


@dataclass(frozen=True)
class SqakMatch:
    """SQAK's interpretation of one basic term."""

    term: Term
    relation: str
    kind: str  # 'relation' | 'attribute' | 'value'
    attribute: Optional[str] = None


@dataclass
class SqakStatement:
    """The single SQL statement SQAK generates for a query."""

    select: Select

    @property
    def sql(self) -> str:
        return render_pretty(self.select)

    @property
    def sql_compact(self) -> str:
        return render(self.select)


class SqakEngine:
    """Keyword search with aggregates, the SQAK way."""

    def __init__(self, database: Database, extra_joins: Sequence = ()) -> None:
        self.database = database
        self.graph = SchemaGraph(database.schema, extra_joins)
        self.executor = Executor(database)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match_term(self, term: Term) -> SqakMatch:
        """SQAK's best match for a term: relation name, then attribute
        name, then tuple value (deterministic tie-break by name)."""
        if not term.quoted:
            best: Optional[Tuple[float, str]] = None
            for relation in self.database.schema:
                score = name_match_score(term.text, relation.name)
                if score is not None and (best is None or score > best[0]):
                    best = (score, relation.name)
            if best is not None:
                return SqakMatch(term, best[1], "relation")
            best_attr: Optional[Tuple[float, str, str]] = None
            for relation in self.database.schema:
                for column in relation.columns:
                    score = name_match_score(term.text, column.name)
                    if score is not None and (
                        best_attr is None or score > best_attr[0]
                    ):
                        best_attr = (score, relation.name, column.name)
            if best_attr is not None:
                return SqakMatch(term, best_attr[1], "attribute", best_attr[2])
        for table, column, value in self.database.hits(term.text):
            if value is None and self.database.candidates(
                "contains", table, column, (term.text,)
            ):
                return SqakMatch(term, table, "value", column)
        raise NoMatchError(f"SQAK: term {term.text!r} matches nothing")

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, query_text: str, tracer=NULL_TRACER) -> SqakStatement:
        """Generate SQAK's SQL; raises UnsupportedQueryError for N.A.

        *tracer* records the same span/counter names as the semantic
        engine (``match``/``translate``, ``terms_matched``,
        ``patterns_translated``) so per-stage baseline comparisons line
        up metric for metric.
        """
        with tracer.span("parse"):
            query = KeywordQuery(query_text)
        with tracer.span("match"):
            matches = {
                term.position: self.match_term(term) for term in query.basic_terms
            }
            tracer.count("terms_matched", len(matches))
            tracer.count("tags_produced", len(matches))
        self._check_supported(query, matches)
        with tracer.span("translate"):
            statement = self._build_statement(query, matches)
        tracer.count("patterns_translated")
        return statement

    def _build_statement(
        self, query: KeywordQuery, matches: Dict[int, SqakMatch]
    ) -> SqakStatement:
        relations = list(
            dict.fromkeys(match.relation for match in matches.values())
        )
        tree_edges = self.graph.steiner_tree(relations)
        joined: List[str] = list(relations)
        for first, second in sorted(tree_edges):
            for name in (first, second):
                if name not in joined:
                    joined.append(name)

        aliases = {name: f"R{i + 1}" for i, name in enumerate(joined)}
        predicates: List[Expr] = []
        for first, second in sorted(tree_edges):
            child = self.graph.child_of_edge(first, second)
            parent = second if child == first else first
            fk = self.graph.foreign_keys_between(first, second)[0]
            for child_col, parent_col in zip(fk.columns, fk.ref_columns):
                predicates.append(
                    eq(
                        ColumnRef(child_col, aliases[child]),
                        ColumnRef(parent_col, aliases[parent]),
                    )
                )

        select_items: List[SelectItem] = []
        group_by: List[Expr] = []
        outer_chain: Tuple[str, ...] = ()
        aggregate_alias: Optional[str] = None

        # value conditions: select + group by the matched attribute
        for term in query.basic_terms:
            match = matches[term.position]
            if match.kind != "value":
                continue
            assert match.attribute is not None
            ref = ColumnRef(match.attribute, aliases[match.relation])
            predicates.append(Contains(ref, term.text))
            if not any(item.expr == ref for item in select_items):
                select_items.append(SelectItem(ref))
                group_by.append(ref)

        # operator applications (GROUPBY first so group keys lead the row)
        ordered_applications = sorted(
            query.applications, key=lambda app: not app.groupby
        )
        for application in ordered_applications:
            match = matches[application.target_position]
            target_ref = self._operand_ref(match, aliases)
            if application.groupby:
                if not any(item.expr == target_ref for item in select_items):
                    select_items.append(SelectItem(target_ref))
                    group_by.append(target_ref)
                continue
            func = application.chain[-1]
            alias = f"{func.lower()}_{target_ref.name}"
            select_items.append(
                SelectItem(FuncCall(func, (target_ref,)), alias=alias)
            )
            outer_chain = tuple(application.chain[:-1])
            aggregate_alias = alias

        from_items = tuple(TableRef(name, aliases[name]) for name in joined)
        select = Select(
            items=tuple(select_items),
            from_items=from_items,
            where=Select.conjunction(predicates),
            group_by=tuple(group_by),
        )
        for level, func in enumerate(reversed(outer_chain), start=1):
            assert aggregate_alias is not None
            new_alias = f"{func.lower()}_{aggregate_alias}"
            select = Select(
                items=(
                    SelectItem(
                        FuncCall(func, (ColumnRef(aggregate_alias),)),
                        alias=new_alias,
                    ),
                ),
                from_items=(DerivedTable(select, f"Q{level}"),),
            )
            aggregate_alias = new_alias
        return SqakStatement(select)

    def _operand_ref(
        self, match: SqakMatch, aliases: Dict[str, str]
    ) -> ColumnRef:
        if match.kind == "attribute":
            assert match.attribute is not None
            return ColumnRef(match.attribute, aliases[match.relation])
        if match.kind == "relation":
            key = self.database.schema.relation(match.relation).primary_key
            # for a composite key pick the column whose name best matches
            # the term ('proceeding' -> procid of EditorProceeding)
            best_col = key[0]
            best_score = -1.0
            for col in key:
                score = name_match_score(match.term.text, col) or 0.0
                if score > best_score:
                    best_score = score
                    best_col = col
            return ColumnRef(best_col, aliases[match.relation])
        raise UnsupportedQueryError(
            f"SQAK: operator applied to value term {match.term.text!r}"
        )

    def _check_supported(
        self, query: KeywordQuery, matches: Dict[int, SqakMatch]
    ) -> None:
        aggregate_chains = [
            application
            for application in query.applications
            if not application.groupby
        ]
        if len(aggregate_chains) > 1:
            raise UnsupportedQueryError(
                "SQAK: the SELECT clause of a generated SQL statement must "
                "specify exactly one aggregate function"
            )
        value_relations: List[str] = [
            match.relation
            for match in matches.values()
            if match.kind == "value"
        ]
        if len(value_relations) != len(set(value_relations)):
            raise UnsupportedQueryError(
                "SQAK: several value terms match the same relation "
                "(self-joins of relations are not generated)"
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query_text: str) -> QueryResult:
        return self.executor.execute(self.compile(query_text).select)

    def answer(self, query_text: str) -> Optional[QueryResult]:
        """Execute, or None when SQAK does not handle the query (N.A.)."""
        try:
            return self.execute(query_text)
        except UnsupportedQueryError:
            return None
