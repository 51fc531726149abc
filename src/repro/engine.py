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
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
from repro.errors import KeywordQueryError, StaticAnalysisError
from repro.keywords.matcher import Catalog, NormalizedCatalog, TermMatcher
from repro.keywords.query import KeywordQuery
from repro.observability import NULL_TRACER, MetricsRegistry, Trace, Tracer
from repro.patterns.disambiguator import disambiguate_all
from repro.patterns.generator import PatternGenerator
from repro.patterns.pattern import QueryPattern
from repro.patterns.ranker import rank_patterns
from repro.patterns.translator import (
    NormalizedSourceProvider,
    PatternTranslator,
)
from repro.relational.database import Database
from repro.relational.executor import Executor, QueryResult
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
    _result: Optional[QueryResult] = field(default=None, repr=False, compare=False)
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
    # serialized (double-checked) instead of racing
    _execute_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
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
        self._backends: Dict[str, Backend] = {
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
        # compile cache: query text -> ranked patterns, true LRU (a hit
        # refreshes the entry; eviction drops the least recently used).
        # Patterns are immutable after ranking, and translation copies
        # nothing the caller may mutate, so caching per query text is safe.
        # The lock makes cache bookkeeping safe under search_many().
        self._pattern_cache: "OrderedDict[str, List[QueryPattern]]" = OrderedDict()
        self._pattern_cache_lock = threading.Lock()
        self.cache_size = 128
        # caches registered against this engine (the serving layer's TTL
        # result cache): clear_cache() resets them too, so a write
        # followed by clear_cache() can never serve stale responses
        self._invalidation_hooks: List[Callable[[], None]] = []

    def register_invalidation_hook(self, hook: Callable[[], None]) -> None:
        """Call *hook* whenever :meth:`clear_cache` runs.

        The serving layer registers its result-cache invalidation here so
        dropping the engine caches (after mutating the underlying data)
        also drops any cached service responses derived from them.
        """
        self._invalidation_hooks.append(hook)

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

    def available_backends(self) -> List[str]:
        return available_backends()

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def parse(self, query_text: str) -> KeywordQuery:
        return KeywordQuery(query_text)

    def patterns(self, query_text: str, tracer=NULL_TRACER) -> List[QueryPattern]:
        """Ranked, disambiguated query patterns for a query (cached).

        A traced run bypasses the cache read (the spans must reflect a
        real pipeline run, not a dictionary lookup) but still refreshes
        the cached entry.
        """
        with self._pattern_cache_lock:
            cached = self._pattern_cache.get(query_text)
            if cached is not None and not tracer.enabled:
                self._pattern_cache.move_to_end(query_text)
                self.metrics.increment("pattern_cache_hits")
                return cached
        if cached is not None:
            tracer.count("pattern_cache_bypassed")
        else:
            self.metrics.increment("pattern_cache_misses")
        # deadline checkpoint before the generate/disambiguate/rank stages
        # (the executor has its own; see repro.cancellation)
        current_token().check()
        query = self.parse(query_text)
        with tracer.span("match"):
            matcher = TermMatcher(self.catalog)
            tags = matcher.match_query(query, tracer=tracer)
        with tracer.span("generate"):
            generated = self.generator.generate(query, tags, tracer=tracer)
        if self.disambiguate:
            with tracer.span("disambiguate"):
                generated = disambiguate_all(generated, self.catalog, tracer=tracer)
        with tracer.span("rank"):
            ranked = rank_patterns(generated, tracer=tracer)
        with self._pattern_cache_lock:
            self._pattern_cache[query_text] = ranked
            self._pattern_cache.move_to_end(query_text)
            while len(self._pattern_cache) > self.cache_size:
                self._pattern_cache.popitem(last=False)
        return ranked

    def clear_cache(self) -> None:
        """Drop what is derived from *queries* — cached patterns,
        compiled plans, optimizer memos, registered downstream caches —
        after mutating the underlying data.  What is derived from *data*
        (indexes, planner statistics, backend copies) is not dropped: it
        follows each table's version and catches up with the write on
        its own."""
        with self._pattern_cache_lock:
            self._pattern_cache.clear()
        self.executor.clear_plan_cache()
        for hook in self._invalidation_hooks:
            hook()

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
        ranked = self.patterns(query_text, tracer=tracer)[: (k or self.top_k)]
        interpretations: List[Interpretation] = []
        token = current_token()
        with tracer.span("translate"):
            for rank, pattern in enumerate(ranked, start=1):
                token.check()
                parts = self.translate_parts(pattern, tracer=tracer)
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

    def translate(self, pattern: QueryPattern, tracer=NULL_TRACER) -> Select:
        """Translate one pattern to SQL (with rewriting when unnormalized)."""
        return self.translate_parts(pattern, tracer=tracer).final

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
        append continues the table's pass over the new rows, an update
        or delete runs it again — and :meth:`clear_cache` leaves them
        alone.  CLI entry point: ``python -m repro stats``.
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

    def search_many(
        self,
        query_texts: Sequence[str],
        k: Optional[int] = None,
        parallel: int = 4,
        trace: bool = False,
    ) -> List[SearchResult]:
        """Batch :meth:`search`, one :class:`SearchResult` per input query.

        Duplicate query texts are compiled once and share the same result
        object; distinct queries run on a thread pool of *parallel* workers
        (the pattern and plan caches are lock-protected, so workers warm
        them for each other).  Results come back in input order.
        """
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        unique = list(dict.fromkeys(query_texts))
        self.metrics.increment("batch_searches")
        self.metrics.increment("batch_queries", len(query_texts))
        self.metrics.increment("batch_deduped", len(query_texts) - len(unique))
        if parallel == 1 or len(unique) <= 1:
            by_text = {text: self.search(text, k, trace=trace) for text in unique}
        else:
            with ThreadPoolExecutor(max_workers=parallel) as pool:
                results = pool.map(lambda text: self.search(text, k, trace=trace), unique)
                by_text = dict(zip(unique, results))
        return [by_text[text] for text in query_texts]

    def execute(self, query_text: str, backend: Optional[str] = None) -> QueryResult:
        """Execute the top-ranked interpretation."""
        return self.search(query_text, k=1, backend=backend).best.execute()


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
