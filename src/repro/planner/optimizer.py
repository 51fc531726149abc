"""Cost-based plan decisions: join order and access paths.

:meth:`Optimizer.decide` runs once per compiled plan (memoized by
rendered SQL, stamped with the versions of the tables the statement
reads) and produces a :class:`PlanDecisions`:

* per-scan row estimates and **access-path choices** — for every pushed
  predicate with an index strategy, cost a probe (fixed setup plus
  per-candidate fetch/verify) against the sequential scan it would
  replace and keep the cheaper path;
* a **join order**: within each connected component of the equi-join
  graph (up to :data:`DP_RELATION_LIMIT` relations) a Selinger-style
  dynamic program over connected sub-plans minimizes the summed
  hash-join cost, using NDV-based equi-join selectivities; larger
  components fall back to the executor's runtime greedy (size-product)
  order;
* output estimates for the join result, the GROUP BY group count and
  the final result, surfaced as ``est≈`` annotations in ``--explain``
  and compared against actuals after each execution.

At run time the same cost comparison answers one more question
(:meth:`Optimizer.key_filter_rows`): whether a scan handed the join keys
its sibling already holds should fetch their rows through an index, one
probe per key, or be scanned as before.

The optimizer only *reorders* the same hash joins, *disables* index
lookups the scan would otherwise consult and *narrows* a scan to rows
the join it feeds would keep — so its choices never change a result
set; a :class:`~repro.relational.plan.CompiledPlan` built without an
optimizer is the reference the equivalence sweeps hold it to.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.observability import NULL_TRACER
from repro.planner.cardinality import (
    expression_selectivity,
    group_output_estimate,
    join_selectivity,
    scan_selectivity,
)
from repro.planner.cost import (
    MEMORY_COST_PARAMS,
    CostParams,
    hash_join_cost,
    index_scan_cost,
    seq_scan_cost,
)
from repro.planner.stats import (
    DEFAULT_PREDICATE_SELECTIVITY,
    ColumnProfile,
    StatisticsCatalog,
)
from repro.sql.ast import ColumnRef, Expr
from repro.sql.render import render

__all__ = [
    "DP_RELATION_LIMIT",
    "JoinDecision",
    "ScanDecision",
    "PlanDecisions",
    "Optimizer",
    "recommend_indexes",
]

#: largest connected join-graph component ordered by dynamic programming;
#: beyond it the executor's runtime greedy order takes over
DP_RELATION_LIMIT = 8

@dataclass(frozen=True)
class JoinDecision:
    """One decided hash join: merge the components owning exactly these
    alias sets, in this order."""

    left: FrozenSet[str]
    right: FrozenSet[str]
    est_rows: float

    def describe(self) -> str:
        left = "+".join(sorted(self.left))
        right = "+".join(sorted(self.right))
        return f"{left} ⋈ {right}"


@dataclass(frozen=True)
class ScanDecision:
    """Estimates and access-path choices for one FROM item."""

    alias: str
    relation: Optional[str]
    base_rows: float
    est_rows: float
    #: aligned with the scan's pushed predicates: True/False = use/skip
    #: the available index lookup, None = no index strategy exists
    index_choices: Tuple[Optional[bool], ...]


@dataclass(frozen=True)
class PlanDecisions:
    """Everything the optimizer decided for one compiled plan."""

    scans: Dict[str, ScanDecision]
    join_steps: Tuple[JoinDecision, ...]
    search: str  # 'dp' | 'greedy-runtime' | 'single' | 'none'
    est_joined: float
    est_groups: Optional[float]
    est_output: float

    @property
    def indexes_kept(self) -> int:
        return sum(
            1
            for scan in self.scans.values()
            for choice in scan.index_choices
            if choice is True
        )

    @property
    def indexes_skipped(self) -> int:
        return sum(
            1
            for scan in self.scans.values()
            for choice in scan.index_choices
            if choice is False
        )


class _Edge:
    """An equi-join edge of the join graph."""

    __slots__ = ("left", "right", "selectivity")

    def __init__(self, left: str, right: str, selectivity: float) -> None:
        self.left = left
        self.right = right
        self.selectivity = selectivity


class _DerivedProfile:
    """A derived scan's columns seen through to the base tables: an
    output that is a plain copy of a base column has that column's
    profile (the callers cap its NDV by the sub-plan's estimated
    output); any other output has none."""

    def __init__(self, scan: Any, catalog: StatisticsCatalog) -> None:
        self._scan = scan
        self._catalog = catalog

    def column(self, name: str) -> Optional[ColumnProfile]:
        target = self._scan.key_target(name)
        if target is None:
            return None
        return self._catalog.profile(target.scan.table_name).column(target.column)


class Optimizer:
    """Statistics-driven decisions for :class:`CompiledPlan`.

    One instance is owned by each :class:`~repro.relational.executor.
    Executor` (lazily).  The decision memo is dropped by
    :meth:`invalidate` and each entry is stamped with the versions of
    the tables its statement reads; the statistics catalog follows those
    versions itself (:class:`~repro.planner.stats.StatisticsCatalog`),
    so a write can never serve stale decisions and never costs more
    than the tables it touched.
    """

    memo_size = 256

    def __init__(
        self,
        database: Any,
        cost_params: Optional[CostParams] = None,
    ) -> None:
        self.database = database
        self.params = cost_params or MEMORY_COST_PARAMS
        self.catalog = StatisticsCatalog(database)
        # rendered SQL -> (versions of the tables read, decisions)
        self._memo: "OrderedDict[str, Tuple[Any, PlanDecisions]]" = OrderedDict()
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop memoized plan decisions."""
        with self._memo_lock:
            self._memo.clear()

    @property
    def memo_len(self) -> int:
        with self._memo_lock:
            return len(self._memo)

    def decide(self, plan: Any, tracer: Any = NULL_TRACER) -> PlanDecisions:
        """Decisions for *plan*, memoized by SQL text for as long as the
        tables it reads keep their versions."""
        key = render(plan.select)
        versions = self.database.versions(plan.select.tables())
        with self._memo_lock:
            cached = self._memo.get(key)
            if cached is not None and cached[0] == versions:
                self._memo.move_to_end(key)
                tracer.count("planner_memo_hits")
                return cached[1]
        with tracer.span("plan_costing"):
            decisions = self._decide(plan, tracer)
        tracer.count("planner_plans_costed")
        if decisions.search == "dp":
            tracer.count("planner_dp_searches")
        elif decisions.search == "greedy-runtime":
            tracer.count("planner_greedy_fallbacks")
        tracer.count("planner_index_paths_kept", decisions.indexes_kept)
        tracer.count("planner_index_paths_skipped", decisions.indexes_skipped)
        with self._memo_lock:
            self._memo[key] = (versions, decisions)
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
        return decisions

    def key_filter_rows(
        self, relation: str, column: str, keys: float
    ) -> Optional[float]:
        """Rows of *relation* expected to hold one of *keys* distinct
        values in *column* — when fetching them through an index, one
        probe per key, costs less than the sequential scan it would
        replace; None when it does not.

        Asked at run time by a scan that was handed the join keys its
        sibling already holds (``CompiledPlan`` sideways key passing), so
        *keys* is an actual count; the NDV comes from the catalog."""
        profile = self.catalog.profile(relation)
        stats = profile.column(column)
        rows = float(profile.rows)
        matching = rows
        if stats is not None:
            matching = rows * (1.0 - stats.null_fraction) / max(1.0, stats.ndv)
        candidates = min(rows, keys * matching)
        if index_scan_cost(self.params, candidates, probes=keys) < seq_scan_cost(
            self.params, rows
        ):
            return candidates
        return None

    # ------------------------------------------------------------------
    # Decision pipeline
    # ------------------------------------------------------------------
    def _decide(self, plan: Any, tracer: Any) -> PlanDecisions:
        # alias -> TableProfile | _DerivedProfile: all _ref_ndv needs of
        # either is column(name)
        profiles: Dict[str, Any] = {}
        scans: Dict[str, ScanDecision] = {}
        for scan in plan.scans:
            decision, profile = self._scan_decision(scan, tracer)
            scans[scan.alias] = decision
            profiles[scan.alias] = profile
        edges, residuals = self._join_graph(plan, scans, profiles)

        def subset_rows(subset: FrozenSet[str]) -> float:
            rows = 1.0
            for alias in subset:
                rows *= max(0.0, scans[alias].est_rows)
            for edge in edges:
                if edge.left in subset and edge.right in subset:
                    rows *= edge.selectivity
            for aliases, selectivity in residuals:
                if len(aliases) > 1 and aliases <= subset:
                    rows *= selectivity
            return rows

        steps: List[JoinDecision] = []
        search = "single" if len(scans) <= 1 else "none"
        for component in self._components(list(scans), edges):
            if len(component) < 2:
                continue
            if len(component) > DP_RELATION_LIMIT:
                # too many relations for exhaustive search: keep the
                # executor's runtime greedy order for the whole plan
                steps = []
                search = "greedy-runtime"
                break
            search = "dp"
            steps.extend(self._dp_order(sorted(component), edges, subset_rows))
        est_joined = subset_rows(frozenset(scans))
        est_groups, est_output = self._output_estimates(
            plan, est_joined, profiles, scans
        )
        return PlanDecisions(
            scans=scans,
            join_steps=tuple(steps),
            search=search,
            est_joined=est_joined,
            est_groups=est_groups,
            est_output=est_output,
        )

    def _scan_decision(
        self, scan: Any, tracer: Any
    ) -> Tuple[ScanDecision, Any]:
        table_name = getattr(scan, "table_name", None)
        if table_name is None:
            # derived table: estimates flow up from the sub-plan
            base = scan.subplan.decisions.est_output
            est = base
            for pred in scan.pushed:
                est *= expression_selectivity(pred.expr)
            return (
                ScanDecision(
                    alias=scan.alias,
                    relation=None,
                    base_rows=base,
                    est_rows=max(0.0, min(base, est)),
                    index_choices=tuple(None for _ in scan.pushed),
                ),
                _DerivedProfile(scan, self.catalog),
            )
        profile = self.catalog.profile(table_name, tracer)
        base = float(profile.rows)
        selectivities = [
            scan_selectivity((pred.expr,), (pred.closure,), profile.sample)
            for pred in scan.pushed
        ]
        # one predicate: its own selectivity is the joint one
        joint = selectivities[0] if len(selectivities) == 1 else scan_selectivity(
            [pred.expr for pred in scan.pushed],
            [pred.closure for pred in scan.pushed],
            profile.sample,
        )
        est = max(0.0, min(base, base * joint))
        choices: List[Optional[bool]] = []
        for pred, selectivity in zip(scan.pushed, selectivities):
            if pred.lookup is None:
                choices.append(None)
            elif pred.lookup.kind == "never":
                choices.append(True)  # answers from the empty set, free
            else:
                candidates = selectivity * base
                choices.append(
                    index_scan_cost(self.params, candidates)
                    < seq_scan_cost(self.params, base)
                )
        return (
            ScanDecision(
                alias=scan.alias,
                relation=table_name,
                base_rows=base,
                est_rows=est,
                index_choices=tuple(choices),
            ),
            profile,
        )

    def _join_graph(
        self,
        plan: Any,
        scans: Dict[str, ScanDecision],
        profiles: Dict[str, Any],
    ) -> Tuple[List[_Edge], List[Tuple[FrozenSet[str], float]]]:
        edges: List[_Edge] = []
        residuals: List[Tuple[FrozenSet[str], float]] = []
        known = set(scans)
        for conjunct in plan.pending:
            if not conjunct.aliases or not set(conjunct.aliases) <= known:
                continue  # unknown qualifier: fails at runtime, not costed
            if (
                conjunct.is_equi
                and len(conjunct.aliases) == 2
                and conjunct.left_alias in conjunct.aliases
            ):
                left_alias = conjunct.left_alias
                right_alias = next(iter(conjunct.aliases - {left_alias}))
                selectivity = join_selectivity(
                    self._ref_ndv(conjunct.left_ref, left_alias, scans, profiles),
                    self._ref_ndv(conjunct.right_ref, right_alias, scans, profiles),
                )
                edges.append(_Edge(left_alias, right_alias, selectivity))
            else:
                residuals.append(
                    (frozenset(conjunct.aliases), DEFAULT_PREDICATE_SELECTIVITY)
                )
        return edges, residuals

    @staticmethod
    def _ref_ndv(
        ref: Optional[ColumnRef],
        alias: str,
        scans: Dict[str, ScanDecision],
        profiles: Dict[str, Any],
    ) -> float:
        est_rows = max(1.0, scans[alias].est_rows)
        profile = profiles.get(alias)
        if profile is None or ref is None:
            return est_rows
        column = profile.column(ref.name)
        if column is None:
            return est_rows
        # filtering a table cannot raise its distinct count
        return max(1.0, min(column.ndv, est_rows))

    @staticmethod
    def _components(
        aliases: List[str], edges: List[_Edge]
    ) -> List[List[str]]:
        neighbours: Dict[str, set] = {alias: set() for alias in aliases}
        for edge in edges:
            neighbours[edge.left].add(edge.right)
            neighbours[edge.right].add(edge.left)
        seen: set = set()
        components: List[List[str]] = []
        for alias in aliases:
            if alias in seen:
                continue
            frontier = [alias]
            component = []
            while frontier:
                node = frontier.pop()
                if node in seen:
                    continue
                seen.add(node)
                component.append(node)
                frontier.extend(neighbours[node] - seen)
            components.append(component)
        return components

    def _dp_order(
        self,
        nodes: Sequence[str],
        edges: List[_Edge],
        subset_rows: Callable[[FrozenSet[str]], float],
    ) -> List[JoinDecision]:
        """Selinger-style DP over connected sub-sets of one component."""
        index = {alias: i for i, alias in enumerate(nodes)}
        count = len(nodes)
        adjacency = [0] * count
        for edge in edges:
            if edge.left in index and edge.right in index:
                adjacency[index[edge.left]] |= 1 << index[edge.right]
                adjacency[index[edge.right]] |= 1 << index[edge.left]
        full = (1 << count) - 1

        alias_cache: Dict[int, FrozenSet[str]] = {}

        def aliases_of(mask: int) -> FrozenSet[str]:
            cached = alias_cache.get(mask)
            if cached is None:
                cached = frozenset(
                    nodes[i] for i in range(count) if mask & (1 << i)
                )
                alias_cache[mask] = cached
            return cached

        rows_cache: Dict[int, float] = {}

        def rows_of(mask: int) -> float:
            cached = rows_cache.get(mask)
            if cached is None:
                cached = subset_rows(aliases_of(mask))
                rows_cache[mask] = cached
            return cached

        def crosses(left_mask: int, right_mask: int) -> bool:
            for i in range(count):
                if left_mask & (1 << i) and adjacency[i] & right_mask:
                    return True
            return False

        best_cost: Dict[int, float] = {1 << i: 0.0 for i in range(count)}
        choice: Dict[int, Tuple[int, int]] = {}
        masks = sorted(range(1, full + 1), key=lambda m: bin(m).count("1"))
        for mask in masks:
            if bin(mask).count("1") < 2:
                continue
            best: Optional[float] = None
            split: Optional[Tuple[int, int]] = None
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:
                    left_cost = best_cost.get(sub)
                    right_cost = best_cost.get(other)
                    if (
                        left_cost is not None
                        and right_cost is not None
                        and crosses(sub, other)
                    ):
                        cost = (
                            left_cost
                            + right_cost
                            + hash_join_cost(
                                self.params,
                                rows_of(sub),
                                rows_of(other),
                                rows_of(mask),
                            )
                        )
                        if best is None or cost < best:
                            best = cost
                            split = (sub, other)
                sub = (sub - 1) & mask
            if best is not None and split is not None:
                best_cost[mask] = best
                choice[mask] = split
        steps: List[JoinDecision] = []

        def emit(mask: int) -> None:
            if bin(mask).count("1") < 2:
                return
            left_mask, right_mask = choice[mask]
            emit(left_mask)
            emit(right_mask)
            steps.append(
                JoinDecision(
                    left=aliases_of(left_mask),
                    right=aliases_of(right_mask),
                    est_rows=rows_of(mask),
                )
            )

        emit(full)
        return steps

    def _output_estimates(
        self,
        plan: Any,
        est_joined: float,
        profiles: Dict[str, Any],
        scans: Dict[str, ScanDecision],
    ) -> Tuple[Optional[float], float]:
        select = plan.select
        aggregated = select.has_aggregates() or bool(select.group_by)
        est_groups: Optional[float] = None
        if aggregated:
            if select.group_by:
                ndvs: List[float] = []
                for expr in select.group_by:
                    ndvs.append(
                        self._group_key_ndv(plan, expr, profiles, scans, est_joined)
                    )
                est_groups = group_output_estimate(est_joined, ndvs)
            else:
                est_groups = 1.0
            est_output = est_groups
        else:
            est_output = est_joined
            if select.distinct and plan.distinct_elided_key is None:
                # DISTINCT groups by every output column
                est_output = group_output_estimate(
                    est_joined,
                    [
                        self._group_key_ndv(
                            plan, item.expr, profiles, scans, est_joined
                        )
                        for item in select.items
                    ],
                )
        if select.limit is not None:
            est_output = min(est_output, float(select.limit))
        return est_groups, est_output

    def _group_key_ndv(
        self,
        plan: Any,
        expr: Expr,
        profiles: Dict[str, Any],
        scans: Dict[str, ScanDecision],
        est_joined: float,
    ) -> float:
        fallback = max(1.0, est_joined ** 0.5)
        if not isinstance(expr, ColumnRef):
            return fallback
        try:
            alias = plan._alias_of_ref(expr)
        except SqlExecutionError:
            return fallback
        if alias not in scans:
            return fallback
        return self._ref_ndv(expr, alias, scans, profiles)


def recommend_indexes(
    catalog: StatisticsCatalog,
    tracer: Any = NULL_TRACER,
    min_rows: int = 64,
    min_ndv_fraction: float = 0.1,
) -> List[Tuple[str, str]]:
    """Secondary-index recommendations from table statistics.

    Suggests ``(table, column)`` pairs where an equality probe would be
    selective: tables of at least *min_rows* rows and columns whose
    estimated distinct count is at least *min_ndv_fraction* of the row
    count.  The SQLite backend turns these into ``CREATE INDEX``
    statements on top of its foreign-key indexes.
    """
    recommendations: List[Tuple[str, str]] = []
    for relation, profile in sorted(catalog.profiles(tracer).items()):
        if profile.rows < min_rows:
            continue
        for column in profile.columns:
            if column.ndv >= profile.rows * min_ndv_fraction:
                recommendations.append((relation, column.column))
    return recommendations
