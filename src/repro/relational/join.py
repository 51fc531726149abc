"""The join phase of a compiled plan.

FROM items become :class:`Component` objects — some aliases and their
rows as :class:`~repro.relational.expressions.Columns` — and
:class:`Join` merges them until one is left: by the optimizer's decided
steps (:class:`HashJoin`, each owning its estimate) while they match the
runtime components, then greedily, smallest size product first, with a
cartesian product where no equi-predicate connects what remains.  A
hash join reads the key columns of its two sides, gets a pair of
position vectors back (:func:`~repro.relational.algebra.hash_join`) and
gathers through them only the columns something later still reads: the
projection's, and those of the conjuncts not applied yet.

A decided step also says *when* a derived table runs: a deferred
:class:`~repro.relational.scan.DerivedScan` is executed with the step
that reaches it, and if the other side is built by then its distinct
join keys are handed down (:class:`~repro.relational.scan.KeyFilter`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.cancellation import current_token
from repro.relational.algebra import Positions, cross_join, gather, hash_join
from repro.relational.expressions import Binding, Columns, Kernel, compile_kernel
from repro.relational.scan import KeyFilter, KeyFilters, filtered
from repro.sql.ast import ColumnRef, Expr


@dataclass(eq=False)
class Conjunct:
    """A WHERE conjunct spanning several FROM items, with its alias set,
    the slots it reads and its equi-join shape resolved at compile time."""

    expr: Expr
    aliases: frozenset
    slots: FrozenSet[int]
    is_equi: bool
    left_ref: Optional[ColumnRef] = None
    right_ref: Optional[ColumnRef] = None
    left_alias: Optional[str] = None
    _kernel: Optional[Kernel] = None

    def kernel(self, binding: Binding) -> Kernel:
        """The conjunct as a filter — compiled on first use, since most
        conjuncts are consumed as join keys and never evaluated."""
        if self._kernel is None:
            self._kernel = compile_kernel(self.expr, binding)
        return self._kernel


class KeySource(NamedTuple):
    """An equi-conjunct through which a deferred scan can be offered the
    other side's join keys: its own *column*, the other side's ref."""

    column: str
    other_ref: ColumnRef
    other_alias: str


def one_alias_sides(step: Any) -> Iterable[Tuple[str, FrozenSet[str]]]:
    """``(alias, other side)`` for each side of a decided join step that
    is a single FROM item — the way every alias enters its join tree."""
    for own, other in ((step.left, step.right), (step.right, step.left)):
        if len(own) == 1:
            (alias,) = own
            yield alias, other


class Component:
    """A connected group of FROM items during join execution."""

    __slots__ = ("aliases", "columns")

    def __init__(self, aliases: Set[str], columns: Columns) -> None:
        self.aliases = aliases
        self.columns = columns

    @property
    def rows(self) -> int:
        return self.columns.rows


def _merged(
    left: Component,
    right: Component,
    left_positions: Positions,
    right_positions: Positions,
    live: FrozenSet[int],
) -> Component:
    """The hash join of two components through its pair of position
    vectors (at most one of them None): of their columns, the *live*
    ones."""
    matched = left_positions if left_positions is not None else right_positions
    assert matched is not None
    vectors = {
        slot: gather(vector, positions)
        for side, positions in ((left, left_positions), (right, right_positions))
        for slot, vector in side.columns.vectors.items()
        if slot in live
    }
    return Component(left.aliases | right.aliases, Columns(len(matched), vectors))


def _crossed(left: Component, right: Component, live: FrozenSet[int]) -> Component:
    """The cartesian product of two components: of their columns, the
    *live* ones."""
    sides = [
        {slot: v for slot, v in side.columns.vectors.items() if slot in live}
        for side in (left, right)
    ]
    outputs = cross_join(
        list(sides[0].values()), list(sides[1].values()), left.rows, right.rows
    )
    vectors = {
        slot: vector
        for side, output in zip(sides, outputs)
        for slot, vector in zip(side, output)
    }
    return Component(
        left.aliases | right.aliases, Columns(left.rows * right.rows, vectors)
    )


class HashJoin:
    """One hash join: the two alias sets a decided step names and the
    optimizer's estimate of what joining them yields."""

    __slots__ = ("step", "label", "est_rows")

    def __init__(self, step: Any) -> None:
        self.step = step
        self.label = f"join {step.describe()}"
        self.est_rows = step.est_rows

    def find(
        self, components: List[Component]
    ) -> Optional[Tuple[Component, Component]]:
        """The component pair the decided step names, by exact alias-set
        match — or None when the decisions went stale."""
        by_aliases = {frozenset(c.aliases): c for c in components}
        left, right = by_aliases.get(self.step.left), by_aliases.get(self.step.right)
        return (left, right) if left is not None and right is not None else None

    @staticmethod
    def positions(
        left: Component, right: Component, pending: List[Conjunct], binding: Binding
    ) -> Tuple[Positions, Positions]:
        """Match two components on every equi-predicate linking them
        (each removed from *pending*)."""
        left_keys: List[List[Any]] = []
        right_keys: List[List[Any]] = []
        both = left.aliases | right.aliases
        for conjunct in list(pending):
            if not conjunct.is_equi or not conjunct.aliases <= both:
                continue
            if not (conjunct.aliases & left.aliases and conjunct.aliases & right.aliases):
                continue
            refs = (conjunct.left_ref, conjunct.right_ref)
            if conjunct.left_alias not in left.aliases:
                refs = refs[::-1]
            left_keys.append(left.columns.vectors[binding.resolve(refs[0])])
            right_keys.append(right.columns.vectors[binding.resolve(refs[1])])
            pending.remove(conjunct)
        return hash_join(left_keys, right_keys)


class Join:
    """Runs one plan's FROM items into a single component."""

    # the owning CompiledPlan is an argument, not a member: a plan ->
    # join -> plan cycle would keep a dropped plan, and the database
    # behind it, alive until the cyclic collector's next full pass

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps: List[HashJoin] = []

    def decided(self, steps: Iterable[Any]) -> None:
        self.steps = [HashJoin(step) for step in steps]

    @staticmethod
    def _live(plan: Any, pending: List[Conjunct]) -> FrozenSet[int]:
        return plan.output_slots.union(*(c.slots for c in pending))

    @staticmethod
    def _sibling_keys(
        plan: Any, scan: Any, other: frozenset, components: List[Component]
    ) -> List[Tuple[str, KeyFilter]]:
        """Key filters for deferred *scan* from the component its join
        step pairs it with — none when that side is not built yet."""
        holder = next((c for c in components if c.aliases == other), None)
        if holder is None:
            return []
        filters: List[Tuple[str, KeyFilter]] = []
        for source in plan.key_sources.get(scan.alias, ()):
            if source.other_alias not in other:
                continue
            slot = plan.binding.resolve(source.other_ref)
            keys = set(holder.columns.vectors[slot])
            keys.discard(None)  # NULL never joins
            filters.append((source.column, KeyFilter(str(source.other_ref), keys)))
        return filters

    @staticmethod
    def apply_pending(
        plan: Any, components: List[Component], pending: List[Conjunct], tracer: Any
    ) -> List[Conjunct]:
        """Filter by every conjunct some component now covers; returns
        the others."""
        remaining: List[Conjunct] = []
        for conjunct in pending:
            owner = next(
                (c for c in components if conjunct.aliases <= c.aliases), None
            )
            if owner is None:
                remaining.append(conjunct)
                continue
            mask = conjunct.kernel(plan.binding)(owner.columns)
            owner.columns = filtered(owner.columns, mask, tracer)
            tracer.count("predicates_pushed")
        return remaining

    def execute(
        self,
        plan: Any,
        components: List[Component],
        deferred: Dict[str, Any],
        handed: Dict[str, KeyFilters],
        tracer: Any,
        run: Any,
    ) -> Component:
        token = current_token()
        pending = self.apply_pending(plan, components, list(plan.pending), tracer)
        steps = list(self.steps)
        while len(components) + len(deferred) > 1:
            token.check()
            started = perf_counter()
            pair = None
            step = None
            if steps:
                candidate = steps.pop(0)
                for alias, other in one_alias_sides(candidate.step):
                    scan = deferred.pop(alias, None)
                    if scan is None:
                        continue
                    offered = self._sibling_keys(plan, scan, other, components)
                    own = [f for _, f in offered]
                    offered.extend(handed.get(scan.alias, ()))
                    components.append(plan.run_scan(scan, offered, tracer, run))
                    run.key_filters[scan.alias] = [f.release() for f in own]
                    started = perf_counter()  # the scan's time is its own
                pair = candidate.find(components)
                if pair is None:
                    # the decided order no longer matches the runtime
                    # components: abandon it, fall back to the greedy order
                    steps = []
                    tracer.count("planner_step_fallbacks")
                else:
                    step = candidate
                    tracer.count("planner_steps_applied")
            if pair is None:
                # no decided step will reach them: run what is left now,
                # unfiltered, as a plan without decisions does up front
                for scan in deferred.values():
                    components.append(
                        plan.run_scan(scan, handed.get(scan.alias, ()), tracer, run)
                    )
                deferred.clear()
                pair = self._pick_pair(components, pending)
            if pair is None:
                # no connecting predicate: cartesian product of two smallest
                components.sort(key=lambda component: component.rows)
                left, right = components[0], components[1]
                merged = _crossed(left, right, self._live(plan, pending))
                components = [merged] + components[2:]
                tracer.count("cross_joins")
                tracer.count("cross_join_rows", merged.rows)
            else:
                left, right = pair
                positions = HashJoin.positions(left, right, pending, plan.binding)
                merged = _merged(left, right, *positions, self._live(plan, pending))
                components = [
                    component
                    for component in components
                    if component is not left and component is not right
                ]
                components.append(merged)
                tracer.count("hash_joins")
                tracer.count("hash_join_rows", merged.rows)
            pending = self.apply_pending(plan, components, pending, tracer)
            if run is not None and step is not None:
                # measured after residual predicates, like the estimate
                run.record(step.label, step.est_rows, merged.rows, started)
        only = components[0]
        for conjunct in pending:
            # an alias no FROM item provides: fails on the first row
            only.columns = only.columns.keep(
                conjunct.kernel(plan.binding)(only.columns)
            )
        return only

    @staticmethod
    def forecast_key_filters(plan: Any) -> Dict[str, List[KeyFilter]]:
        """Explain before any execution: walk the decided steps as
        :meth:`execute` will and cost each deferred scan's key filters
        on the optimizer's row estimate of the side that will supply
        them, in place of the actual key count."""
        if not plan.deferred:
            return {}
        scans = {scan.alias: scan for scan in plan.scans}
        built = {
            frozenset((alias,)): decision.est_rows
            for alias, decision in plan.decisions.scans.items()
            if alias not in plan.deferred
        }
        forecast: Dict[str, List[KeyFilter]] = {}
        for step in plan.decisions.join_steps:
            for alias, other in one_alias_sides(step):
                own = frozenset((alias,))
                if own in built:
                    continue
                forecast[alias] = []
                for source in plan.key_sources.get(alias, ()):
                    if other not in built or source.other_alias not in other:
                        continue
                    key_filter = KeyFilter(str(source.other_ref), None, built[other])
                    target = scans[alias].key_target(source.column)
                    target.scan.cost_key_filter(target.column, key_filter)
                    forecast[alias].append(key_filter)
                built[own] = plan.decisions.scans[alias].est_rows
            built[step.left | step.right] = step.est_rows
        return forecast

    @staticmethod
    def _pick_pair(
        components: List[Component], pending: List[Conjunct]
    ) -> Optional[Tuple[Component, Component]]:
        """The joinable component pair with the smallest size product —
        a cheap greedy join order that keeps intermediate results small."""
        best: Optional[Tuple[Component, Component]] = None
        best_cost: Optional[int] = None
        for conjunct in pending:
            if not conjunct.is_equi:
                continue
            touched = [
                component
                for component in components
                if conjunct.aliases & component.aliases
            ]
            if len(touched) != 2:
                continue
            cost = touched[0].rows * touched[1].rows
            if best_cost is None or cost < best_cost:
                best = (touched[0], touched[1])
                best_cost = cost
        return best
