"""The semantic keyword-search engine (Algorithm 2).

:class:`KeywordSearchEngine` ties everything together: it classifies the
database as normalized or unnormalized (via the declared functional
dependencies), builds the ORM schema graph — over the stored schema or over
the normalized 3NF view — matches query terms, generates, disambiguates and
ranks annotated query patterns, translates the top-k into SQL (rewriting
fragment joins for unnormalized databases), and can execute the SQL against
the in-memory database.

Typical use::

    engine = KeywordSearchEngine(db)
    result = engine.search("COUNT Lecturer GROUPBY Course")
    best = result.best
    print(best.sql)          # the generated SQL text
    print(best.rows())       # executed answer rows
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.backends.base import (
    Backend,
    accepted_options,
    available_backends,
    create_backend,
)
from repro.backends.memory import MemoryBackend
from repro.cancellation import current_token
from repro.analysis.pattern_analyzers import analyze_interpretation_set
from repro.analysis.pipeline import TranslationParts, analyze_compilation
from repro.analysis.plan_analyzers import analyze_plan
from repro.analysis.sql_analyzers import analyze_dialect
from repro.errors import StaticAnalysisError
from repro.keywords.matcher import (
    Catalog,
    CompileCatalog,
    NormalizedCatalog,
    TermMatcher,
)
from repro.keywords.query import KeywordQuery
from repro.observability import NULL_TRACER, MetricsRegistry, Trace, Tracer
from repro.patterns.disambiguator import disambiguate_all
from repro.patterns.generator import PatternGenerator
from repro.patterns.pattern import QueryPattern
from repro.patterns.ranker import rank_patterns
from repro.patterns.shape import ValueBinding, shape_of
from repro.patterns.translator import (
    NormalizedSourceProvider,
    PatternTranslator,
)
from repro.relational.database import Database
from repro.relational.executor import Executor, QueryResult
from repro.relational.lru import StampedLRU
from repro.sql.ast import Select
from repro.sql.render import render, render_pretty
from repro.unnormalized.provider import UnnormalizedSourceProvider
from repro.unnormalized.rewriter import rewrite
from repro.unnormalized.view import (
    FdSpec,
    NameHints,
    NormalizedView,
    ViewCatalog,
    database_is_normalized,
)


@dataclass
class Interpretation:
    """One interpretation of a keyword query: an annotated pattern, its SQL
    and a human-readable description."""

    rank: int
    pattern: QueryPattern
    select: Select
    description: str
    # Executor or Backend — both expose execute(select, tracer=...)
    _executor: Executor = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    _result: Optional[QueryResult] = field(  # guarded-by: _execute_lock
        default=None, repr=False, compare=False
    )
    _tracer: object = field(default=None, repr=False, compare=False)
    # static-analysis artifacts: populated by analyze()/strict searches
    diagnostics: List[Diagnostic] = field(
        default_factory=list, repr=False, compare=False
    )
    _parts: Optional[TranslationParts] = field(
        default=None, repr=False, compare=False
    )
    # serving-layer concurrency: single-flight deduplication hands the same
    # Interpretation to several waiting requests, so first execution is
    # serialized (double-checked) instead of racing.  The lambda looks
    # ``threading.Lock`` up per instance, so a patched factory (the lock
    # sanitizer) sees this lock too.
    _execute_lock: threading.Lock = field(
        default_factory=lambda: threading.Lock(), repr=False, compare=False
    )

    @property
    def sql(self) -> str:
        return render_pretty(self.select)

    @property
    def sql_compact(self) -> str:
        return render(self.select)

    @property
    def distinguishes(self) -> bool:
        return self.pattern.distinguishes

    def execute(self) -> QueryResult:
        """Run the SQL (cached).  When the interpretation came from a
        traced ``search()``, execution spans attach to the same trace."""
        if self._result is None:
            with self._execute_lock:
                if self._result is None:
                    self._result = self._executor.execute(
                        self.select, tracer=self._tracer or NULL_TRACER
                    )
        return self._result

    def rows(self) -> List[Tuple]:
        return self.execute().rows


@dataclass
class SearchResult:
    """Ranked interpretations of one keyword query.

    ``trace`` is populated by ``search(..., trace=True)``: the span tree
    of the pipeline run (see ``docs/OBSERVABILITY.md``).  Executing an
    interpretation afterwards appends ``execute`` spans to it.
    """

    query: KeywordQuery
    interpretations: List[Interpretation]
    trace: Optional[Trace] = None

    @property
    def best(self) -> Interpretation:
        return self.interpretations[0]

    def __len__(self) -> int:
        return len(self.interpretations)

    def __iter__(self):
        return iter(self.interpretations)

    def find(self, distinguishes: Optional[bool] = None) -> Optional[Interpretation]:
        """First interpretation matching the filter (rank order)."""
        for interpretation in self.interpretations:
            if distinguishes is not None and interpretation.distinguishes != distinguishes:
                continue
            return interpretation
        return None


class KeywordSearchEngine:
    """Semantic keyword search with aggregates and GROUPBY."""

    def __init__(
        self,
        database: Database,
        fds: Optional[FdSpec] = None,
        name_hints: Optional[NameHints] = None,
        top_k: int = 10,
        max_patterns: int = 32,
        dedup_relationships: bool = True,
        disambiguate: bool = True,
        rewrite_sql: bool = True,
        check_fds: bool = False,
        strict: bool = False,
        backend: str = "memory",
        backend_options: Optional[Dict[str, object]] = None,
    ) -> None:
        self.database = database
        self.top_k = top_k
        # strict mode: statically analyze every compiled interpretation and
        # refuse to return one with error-severity diagnostics
        self.strict = strict
        # cross-query metrics sink; traced searches report into it too
        self.metrics = MetricsRegistry()
        # ablation knobs (see DESIGN.md section 5)
        self.dedup_relationships = dedup_relationships
        self.disambiguate = disambiguate
        self.rewrite_sql = rewrite_sql
        self.executor = Executor(database)
        # execution backends, keyed by name.  The memory backend wraps the
        # engine's own executor (sharing its plan cache); others — e.g.
        # "sqlite" — materialize the database on first use and are cached
        # for the engine's lifetime.  ``backend`` picks the default used
        # by search()/compile(); per-call overrides go through
        # search(..., backend=...).
        self._backends: Dict[str, Backend] = {  # guarded-by: _backend_lock
            "memory": MemoryBackend(executor=self.executor)
        }
        self._backend_lock = threading.Lock()
        # one flat option set for all backends: each backend is given the
        # options its constructor accepts (``pool_capacity`` reaches disk,
        # not sqlite); an option nobody accepts is a mistake, caught here
        self._backend_options = dict(backend_options or {})
        unclaimed = set(self._backend_options).difference(
            *(
                accepted_options(name, self._backend_options)
                for name in available_backends()
            )
        )
        if unclaimed:
            raise ValueError(
                f"backend option(s) {sorted(unclaimed)} accepted by no "
                f"registered backend ({', '.join(available_backends())})"
            )
        self.backend = self.get_backend(backend)
        self.is_normalized = database_is_normalized(database, fds)
        self.view: Optional[NormalizedView] = None
        if self.is_normalized:
            self.catalog: Catalog = NormalizedCatalog(database)
        else:
            self.view = NormalizedView.build(
                database, fds, name_hints, check_fds=check_fds
            )
            self.catalog = ViewCatalog(self.view)
        self.graph = self.catalog.graph
        self.generator = PatternGenerator(self.catalog, max_patterns=max_patterns)
        # compile caches, two levels of 128 entries each (StampedLRU).
        # The shape level, keyed by the matched query's tag signature
        # (repro.patterns.shape), holds the generated patterns and one
        # SQL template per translated variant; its entries carry no
        # stamp, since they depend only on which schema slots a value
        # hits.  The text level, keyed by query text, binds one query's
        # values into its shape entry and keeps its ranked patterns,
        # stamped with data_versions().  Patterns are immutable after
        # ranking, and translation copies nothing the caller may mutate,
        # so sharing them is safe.
        self._pattern_cache = StampedLRU(128)
        self._shape_cache = StampedLRU(128)
        # every table: a phrase or number probe walks the postings of
        # every text and numeric column (see data_versions)
        self._table_names = tuple(rel.name for rel in database.schema)

    def data_versions(self) -> Tuple[int, ...]:
        """The stamp of what a compile or an answer reads: the
        :attr:`~repro.relational.table.Table.version` of every table.

        A text entry and a service result-cache entry keep the stamp
        read before they were computed, and count as absent once it
        differs, so a write is never answered stale.  Shape entries need
        none: they depend only on which schema slots a value hits."""
        return self.database.versions(self._table_names)

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def get_backend(self, name: Optional[str] = None, tracer=NULL_TRACER) -> Backend:
        """The execution backend registered as *name* (default: the
        engine's configured backend), created and loaded on first use.

        *tracer* observes first-use setup (the backend's ``materialize``
        span), so ``--explain`` attributes backend setup time."""
        if name is None:
            configured: Optional[Backend] = getattr(self, "backend", None)
            if configured is not None:
                return configured
            name = "memory"
        with self._backend_lock:
            backend = self._backends.get(name)
            if backend is None:
                options = accepted_options(name, self._backend_options)
                if name == "sqlite":
                    # statistics-driven secondary indexes on top of the
                    # foreign-key ones the backend always creates
                    options.setdefault("index_hints", "auto")
                backend = create_backend(
                    name, self.database, tracer=tracer, **options
                )
                self._backends[name] = backend
            return backend

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def parse(self, query_text: str) -> KeywordQuery:
        return KeywordQuery(query_text)

    def patterns(self, query_text: str, tracer=NULL_TRACER) -> List[QueryPattern]:
        """Ranked, disambiguated query patterns for a query (cached).

        A traced run bypasses the cache reads (the spans must reflect a
        real pipeline run, not a dictionary lookup) but still refreshes
        the cached entries.
        """
        return self._bound(query_text, tracer).ranked

    def _bound(self, query_text: str, tracer=NULL_TRACER) -> "_TextEntry":
        """The text entry of *query_text*: from the text level, else
        matched and bound into its shape entry — generating that only
        when the shape is new — then disambiguated and ranked."""
        stamp = self.data_versions()  # before matching reads the data
        cached = self._pattern_cache.get(query_text, stamp)
        if cached is not None:
            if not tracer.enabled:
                self.metrics.increment("pattern_cache_hits")
                return cached
            tracer.count("pattern_cache_bypassed")
        # deadline checkpoint before the generate/disambiguate/rank stages
        # (the executor has its own; see repro.cancellation)
        current_token().check()
        query = self.parse(query_text)
        catalog = CompileCatalog(self.catalog)
        with tracer.span("match"):
            matcher = TermMatcher(catalog)
            tags = matcher.match_query(query, tracer=tracer)
        key, binding = shape_of(query, tags)
        shape = self._shape_cache.get(key)
        if shape is not None and not tracer.enabled:
            self.metrics.increment("pattern_cache_hits")
            self.metrics.increment("shape_cache_hits")
            generated = [binding.instantiate(pattern) for pattern in shape.patterns]
        else:
            if cached is None:
                self.metrics.increment("pattern_cache_misses")
            with tracer.span("generate"):
                generated = self.generator.generate(query, tags, tracer=tracer)
            for origin, pattern in enumerate(generated):
                pattern.origin = origin
            if shape is None:
                shape = _ShapeEntry([binding.abstract(p) for p in generated])
        if self.disambiguate:
            with tracer.span("disambiguate"):
                generated = disambiguate_all(generated, catalog, tracer=tracer)
        with tracer.span("rank"):
            ranked = rank_patterns(generated, tracer=tracer)
        entry = _TextEntry(shape, binding, ranked)
        self._pattern_cache.put(query_text, entry, stamp)
        self._shape_cache.put(key, shape)
        return entry

    def clear_cache(self) -> None:
        """Release the memory of what is derived from *queries*: cached
        text and shape entries, every backend's compiled plans and
        optimizer memo.  Not needed after a write — each of these
        follows the versions of the tables it read — and what is derived
        from *data* (indexes, planner statistics, backend copies) is
        kept, caught up with writes on its own."""
        self._pattern_cache.clear()
        self._shape_cache.clear()
        with self._backend_lock:
            backends = list(self._backends.values())
        for backend in backends:  # the memory backend's is self.executor
            backend.clear_plan_cache()

    def compile(
        self,
        query_text: str,
        k: Optional[int] = None,
        tracer=NULL_TRACER,
        backend: Optional[str] = None,
    ) -> List[Interpretation]:
        """Generate SQL for the top-k interpretations of a query.

        *backend* selects the execution backend the interpretations will
        run on (default: the engine's configured backend; the plan cache
        is shared either way for analysis/EXPLAIN purposes).
        """
        executor = self.get_backend(backend, tracer=tracer)
        entry = self._bound(query_text, tracer=tracer)
        interpretations: List[Interpretation] = []
        token = current_token()
        with tracer.span("translate"):
            for rank, pattern in enumerate(entry.ranked[: (k or self.top_k)], start=1):
                token.check()
                parts = self._translated(entry, pattern, tracer)
                interpretations.append(
                    Interpretation(
                        rank=rank,
                        pattern=pattern,
                        select=parts.final,
                        description=describe_pattern(pattern),
                        _executor=executor,
                        _tracer=tracer if tracer.enabled else None,
                        _parts=parts,
                    )
                )
        return interpretations

    def _translated(
        self, entry: "_TextEntry", pattern: QueryPattern, tracer=NULL_TRACER
    ) -> TranslationParts:
        """*pattern*'s translation: its variant's template from the shape
        entry (translated from the shaped pattern on first use) with the
        entry's values bound in.  A traced run translates *pattern*
        itself, so its spans reflect real work."""
        if tracer.enabled:
            return self.translate_parts(pattern, tracer=tracer)
        variant = (
            pattern.origin,
            tuple(node.id for node in pattern.nodes if any(
                groupby.from_disambiguation for groupby in node.groupbys)),
        )
        templates = entry.shape.templates
        template = templates.get(variant)
        if template is None:
            template = self.translate_parts(entry.binding.abstract(pattern))
            # dict.setdefault is atomic: the first template stored wins
            templates.setdefault(variant, template)
        if not entry.binding.placeholders:
            return template  # a query without value terms: nothing to bind
        bind = entry.binding.bind_select
        final = bind(template.final)
        return TranslationParts(
            raw=final if template.final is template.raw else bind(template.raw),
            final=final,
            fragment_uses=dict(template.fragment_uses),
        )

    def translate_parts(
        self, pattern: QueryPattern, tracer=NULL_TRACER
    ) -> TranslationParts:
        """Translate one pattern, keeping the pre-rewrite statement and the
        fragment-use metadata the static analyzers need."""
        if self.is_normalized:
            translator = PatternTranslator(
                self.graph,
                NormalizedSourceProvider(),
                dedup_relationships=self.dedup_relationships,
            )
            select = translator.translate(pattern, tracer=tracer)
            return TranslationParts(raw=select, final=select)
        assert self.view is not None
        provider = UnnormalizedSourceProvider(self.view)
        translator = PatternTranslator(
            self.graph, provider, dedup_relationships=self.dedup_relationships
        )
        select = translator.translate(pattern, tracer=tracer)
        if not self.rewrite_sql:
            return TranslationParts(
                raw=select, final=select, fragment_uses=dict(provider.fragment_uses)
            )
        with tracer.span("rewrite"):
            rewritten = rewrite(
                select, provider.fragment_uses, self.database.schema, tracer=tracer
            )
        return TranslationParts(
            raw=select,
            final=rewritten,
            fragment_uses=dict(provider.fragment_uses),
        )

    def search(
        self,
        query_text: str,
        k: Optional[int] = None,
        trace: bool = False,
        strict: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> SearchResult:
        """Compile a query and return its ranked interpretations.

        With ``trace=True`` the run is instrumented: the returned
        :class:`SearchResult` carries a :class:`~repro.observability.Trace`
        span tree (parse/match/generate/disambiguate/rank/translate, plus
        execute spans as interpretations are executed), and all counters
        also flow into ``engine.metrics``.

        ``strict`` (default: the engine's ``strict`` setting) runs every
        static analyzer over the compiled interpretations and raises
        :class:`~repro.errors.StaticAnalysisError` when any error-severity
        diagnostic is found; warnings/infos are attached to each
        interpretation's ``diagnostics``.
        """
        effective_strict = self.strict if strict is None else strict
        tracer = Tracer(registry=self.metrics) if trace else NULL_TRACER
        with tracer.span("search", query=query_text):
            with tracer.span("parse"):
                query = self.parse(query_text)
            interpretations = self.compile(
                query_text, k, tracer=tracer, backend=backend
            )
            tracer.count("interpretations", len(interpretations))
            if effective_strict:
                report = self._analyze_compiled(
                    query_text, interpretations, tracer=tracer
                )
                if report.has_errors:
                    raise StaticAnalysisError(
                        f"strict search rejected {query_text!r}: "
                        + "; ".join(str(d) for d in report.errors),
                        diagnostics=report.errors,
                    )
        return SearchResult(
            query=query,
            interpretations=interpretations,
            trace=tracer.trace,
        )

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def analyze(
        self, query_text: str, k: Optional[int] = None, tracer=NULL_TRACER
    ) -> AnalysisReport:
        """Statically analyze the top-k interpretations of a query.

        Compiles (without executing) and runs all analyzer families —
        pattern, translation, SQL/type, rewrite postconditions and
        physical-plan soundness.  The per-interpretation findings are also
        attached to each interpretation's ``diagnostics`` list.
        """
        interpretations = self.compile(query_text, k, tracer=tracer)
        return self._analyze_compiled(query_text, interpretations, tracer=tracer)

    def analyze_stats(self, tracer=NULL_TRACER) -> Dict[str, Any]:
        """ANALYZE: collect planner statistics for every table in a new
        full pass each.

        Returns ``{relation: TableProfile}`` — row count, reservoir
        sample, sampled NDV, null fractions and min/max (see
        ``docs/PLANNER.md``).  Profiles live in the executor's optimizer
        catalog, so collecting them here warms the cost-based planner.
        Afterwards they follow their table's version on their own — an
        append continues the table's pass over the new rows — and
        :meth:`clear_cache` leaves them alone.  CLI entry point: ``python -m repro stats``.
        """
        return self.executor.statistics(tracer)

    def _analyze_compiled(
        self,
        query_text: str,
        interpretations: List[Interpretation],
        tracer=NULL_TRACER,
    ) -> AnalysisReport:
        report = AnalysisReport()
        with tracer.span("analyze"):
            # set-level: the disambiguation check needs the full ranked set,
            # not the top-k truncation (cache makes this a lookup)
            ranked = self.patterns(query_text, tracer=NULL_TRACER)
            report.extend(
                analyze_interpretation_set(ranked)
                if self.disambiguate
                else []
            )
            for interpretation in interpretations:
                parts = interpretation._parts
                if parts is None:
                    parts = self.translate_parts(interpretation.pattern)
                location = f"interpretation #{interpretation.rank}"
                findings = analyze_compilation(
                    interpretation.pattern,
                    parts,
                    self.graph,
                    self.database.schema,
                    dedup_enabled=self.dedup_relationships,
                    location=location,
                )
                findings.extend(
                    analyze_dialect(parts.final, self.backend.dialect, location)
                )
                plan = self.executor.plan_for(parts.final, tracer)
                findings.extend(analyze_plan(plan, location))
                interpretation.diagnostics = findings
                report.extend(findings)
            tracer.count("diagnostics", len(report))
            tracer.count(
                "diagnostics_errors",
                sum(1 for d in report if d.severity is Severity.ERROR),
            )
        return report

    def execute(self, query_text: str, backend: Optional[str] = None) -> QueryResult:
        """Execute the top-ranked interpretation."""
        return self.search(query_text, k=1, backend=backend).best.execute()


@dataclass
class _ShapeEntry:
    """The shape level: what every query of one tag signature shares —
    its generated patterns, phrases and numbers left as placeholders, and
    the translation of each variant, keyed by (generated pattern, nodes
    disambiguation grouped by their identifier)."""

    patterns: List[QueryPattern]
    templates: Dict[Tuple[Optional[int], Tuple[int, ...]], TranslationParts] = field(
        default_factory=dict
    )


@dataclass
class _TextEntry:
    """The text level: one query's binding into its shape entry and its
    ranked patterns (never a plan, an interpretation or a result), stored
    at the stamp :meth:`KeywordSearchEngine.data_versions` read before
    matching."""

    shape: _ShapeEntry
    binding: ValueBinding
    ranked: List[QueryPattern]


def describe_pattern(pattern: QueryPattern) -> str:
    """Human-readable summary of a query pattern's interpretation."""
    parts: List[str] = []
    for node in pattern.nodes:
        fragments: List[str] = []
        for aggregate in node.aggregates:
            text = f"{aggregate.func}({node.orm_node}.{aggregate.attribute})"
            for func in reversed(aggregate.outer_chain):
                text = f"{func}({text})"
            fragments.append(f"find {text}")
        for condition in node.conditions:
            fragments.append(
                f"where {node.orm_node}.{condition.attribute} contains "
                f"'{condition.phrase}'"
            )
        for groupby in node.groupbys:
            if groupby.from_disambiguation:
                fragments.append(
                    f"for each distinct {node.orm_node} "
                    f"(by {', '.join(groupby.attributes)})"
                )
            else:
                fragments.append(
                    f"grouped by {node.orm_node}.{', '.join(groupby.attributes)}"
                )
        if fragments:
            parts.append("; ".join(fragments))
    joined = " / ".join(parts) if parts else "retrieve matching objects"
    route = " - ".join(
        dict.fromkeys(node.orm_node for node in pattern.nodes)
    )
    return f"{joined} [via {route}]"
