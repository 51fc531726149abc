"""The top of a compiled plan: grouping and the final projection.

:class:`Project` turns the joined :class:`~repro.relational.expressions.
Columns` into the statement's output.  Every select item is one kernel
producing one output column — a plain column reference is the joined
column itself, an aggregate reads the :class:`~repro.relational.algebra.
Grouping` the :class:`Group` operator formed and one column of values —
and row tuples are built exactly once, by ``zip`` over the output
columns, when the statement's result leaves the engine
(:meth:`Project.rows`) or a DISTINCT / ORDER BY has to compare whole
rows.  A plan nested as a derived table hands its output columns to the
enclosing plan as they are (:meth:`Project.columns`), and only those the
enclosing plan reads (:meth:`Project.keep`).
"""

from __future__ import annotations

import operator
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import SqlExecutionError
from repro.relational.algebra import (
    Grouping, Vector, distinct, gather, null_safe_sort_key, probe_join,
)
from repro.relational.expressions import (
    Binding,
    Columns,
    compile_aggregate,
    compile_kernel,
)
from repro.relational.scan import KeyFilter
from repro.sql.ast import BinaryOp, ColumnRef, Expr, FuncCall, Select, Star
from repro.sql.render import render_expr

Row = Tuple[Any, ...]


class Group:
    """GROUP BY: assigns every joined row its group (first-seen order).
    Without GROUP BY keys an aggregated statement has the one group of
    all rows."""

    def __init__(self, select: Select, binding: Binding) -> None:
        self.exprs = select.group_by
        self.keys = [compile_kernel(expr, binding) for expr in select.group_by]
        self.slots = frozenset(slot for key in self.keys for slot in key.slots)

    def execute(
        self, columns: Columns, tracer: Any, weights: Optional[Sequence[int]] = None
    ) -> Grouping:
        """The groups of *columns*' rows — each row standing for its
        entry of *weights* rows when given (counts taken before a
        join: :meth:`Grouping.summed`)."""
        if not self.keys:
            keys = None
        elif len(self.keys) == 1:
            keys = self.keys[0](columns)
        else:
            keys = list(zip(*[key(columns) for key in self.keys]))
        if weights is None:
            grouping = Grouping(keys, columns.rows)
        else:
            grouping = Grouping.summed(keys, weights)
        tracer.count("groups_formed", grouping.size)
        return grouping

    def describe(self) -> str:
        return "group by " + ", ".join(render_expr(expr) for expr in self.exprs)


class KeyCount:
    """COUNT per value of one INT column of a base table, from the index
    over the column (``database.key_counts``): the distinct values with
    their row counts, in first-seen order — the groups, sizes and order
    a ``Counter`` over the scanned column gives, without reading a row.

    Alone it is a whole plan: ``SELECT c, COUNT(*) FROM T GROUP BY c``
    over an unfiltered table.  Where the index cannot answer (a NULL, a
    key beyond ±2**53) the plan scans instead; below a join
    (:class:`EagerCount`) the scanned column is counted."""

    __slots__ = ("scan", "column", "slot", "use_index", "est_rows", "label")

    def __init__(self, scan: Any, column: str, use_index: bool, est_rows: float) -> None:
        self.scan = scan  # a repro.relational.scan.TableScan
        self.column = column
        self.slot = scan.base + scan.schema.column_index(column)
        self.use_index = use_index
        self.est_rows = est_rows
        self.label = f"count {scan.alias}"  # its operator in a PlanRun

    def from_index(self, database: Any, tracer: Any) -> Any:
        """The index's :class:`~repro.relational.index.KeyCounts`, or
        None when it cannot answer."""
        if not self.use_index:
            return None
        found = database.key_counts(self.scan.table_name, self.column)
        if found is not None:
            tracer.count("index_key_counts")
        return found

    def counted(self, plan: Any, tracer: Any, run: Any) -> Tuple[Vector, List[int], int]:
        """``(values, counts, rows)``: the non-NULL values in first-seen
        order, the rows of each, and the rows counted (NULLs included)
        — off the index, else by a ``Counter`` over the scan, which the
        run records."""
        started = perf_counter()
        found = self.from_index(plan.database, tracer)
        if found is not None:
            run.record(self.label, self.est_rows, len(found.keys), started)
            return found.keys, found.counts, sum(found.counts)
        columns = plan.run_scan(self.scan, (), tracer, run).columns
        started = perf_counter()
        tally = Counter(columns.vectors[self.slot])
        tally.pop(None, None)  # NULL joins nothing
        run.record(self.label, self.est_rows, len(tally), started)
        return list(tally), list(tally.values()), columns.rows

    def execute(self, plan: Any, tracer: Any, run: Any) -> Optional[Grouping]:
        """The statement's groups off the index; None when it cannot
        answer, and the plan scans."""
        started = perf_counter()
        found = self.from_index(plan.database, tracer)
        if found is None:
            return None
        run.record(self.label, self.est_rows, len(found.keys), started)
        grouping = Grouping.summed(found.keys, found.counts)
        tracer.count("groups_formed", grouping.size)
        return grouping

    def describe(self, indent: str, note: str, run: Any) -> str:
        """Its line: via the index, or via the scan the plan decided on
        or *run* fell back to."""
        scan = self.scan
        via = "scan"
        if self.use_index and not (run and run.observation(scan.label)):
            via = f"NumericIndex[{scan.table_name}.{self.column}]"
        return f"{indent}count {scan.table_name} AS {scan.alias} by {self.column} via {via}{note}"


class EagerCount:
    """Eager aggregation below a many-to-one join: ``GROUP BY`` columns
    of S over ``R ⋈ S ON R.f = S.k``, S.k the whole primary key of S,
    where every output is a GROUP BY column or counts joined rows.  R
    is counted per f first (:class:`KeyCount`, off the index when it
    answers), those ≤ NDV(f) rows are joined with S, and each group's
    count is the sum of its joined rows' counts
    (:meth:`Grouping.summed`).

    The groups come out in the order the hash join would have made: the
    side it would probe with — the larger, as it would see them, R
    filtered by S's keys where those would be pushed to it — drives the
    join, R's counted values in first-seen order or S's rows in scan
    order."""

    __slots__ = ("counted", "joined", "key_slot", "counted_left", "est_rows", "label")

    def __init__(
        self, counted: KeyCount, joined: Any, key: str, counted_left: bool, est_rows: float
    ) -> None:
        self.counted = counted
        self.joined = joined  # S: a repro.relational.scan.TableScan
        self.key_slot = joined.base + joined.schema.column_index(key)
        self.counted_left = counted_left  # whether R is the decided step's left side
        self.est_rows = est_rows
        self.label = f"join count {counted.scan.alias} ⋈ {joined.alias}"

    def execute(self, plan: Any, tracer: Any, run: Any) -> Grouping:
        values, counts, rows = self.counted.counted(plan, tracer, run)
        side = plan.run_scan(self.joined, (), tracer, run).columns
        started = perf_counter()
        keys = side.vectors[self.key_slot]
        found, at = probe_join(keys, values)  # in R's first-seen order
        if at is None:
            at = range(len(values))
        if self._key_filtered(plan, len(keys)):
            rows = sum(map(counts.__getitem__, at))
        left, right = (rows, len(keys)) if self.counted_left else (len(keys), rows)
        if (right < left) != self.counted_left:
            # S probes: its rows' order
            order = sorted(range(len(found)), key=found.__getitem__)
            found, at = gather(found, order), gather(at, order)
        weights = gather(counts, at)
        joined = Columns(
            len(found),
            {
                slot: gather(vector, found)
                for slot, vector in side.vectors.items()
                if slot in plan.project.group.slots
            },
        )
        grouping = plan.project.group.execute(joined, tracer, weights)
        run.record(self.label, self.est_rows, len(found), started)
        tracer.count("eager_aggregations")
        return grouping

    def _key_filtered(self, plan: Any, keys: int) -> bool:
        """Whether the plan would hand S's *keys* to R's scan and answer
        them from the index — then R's rows are those S holds keys for."""
        scan = self.counted.scan
        if scan.alias not in plan.deferred or not plan.key_sources.get(scan.alias):
            return False
        return scan.cost_key_filter(self.counted.column, KeyFilter(self.joined.alias, None, keys))


class Project:
    """Select items, DISTINCT, ORDER BY and LIMIT of one statement."""

    def __init__(
        self,
        select: Select,
        binding: Binding,
        output_columns: Sequence[str],
        distinct_elided: bool,
        non_null: FrozenSet[int] = frozenset(),
    ) -> None:
        self.select = select
        self.output_columns = list(output_columns)
        self.aggregated = select.has_aggregates() or bool(select.group_by)
        self.group = Group(select, binding) if self.aggregated else None
        self.items: List[Any] = [
            compile_aggregate(item.expr, binding, self.group.keys, non_null)
            if self.group is not None
            else compile_kernel(item.expr, binding)
            for item in select.items
        ]
        #: whether every output reads only the groups' row counts and
        #: GROUP BY key values — what a count taken per key answers
        self.counts_only = self.group is not None and all(
            _counts_rows(
                item.expr,
                binding,
                non_null,
                {key.column for key in self.group.keys if key.column is not None},
            )
            for item in select.items
        )
        self.distinct = select.distinct and not distinct_elided
        self.distinct_elided = select.distinct and distinct_elided
        #: ORDER BY keys the select list drops, read off the joined rows
        #: beside the outputs and cut from the rows once they are sorted
        self.hidden: List[Any] = []
        output_binding = Binding([(None, name) for name in self.output_columns])
        self.order_keys = [
            (self._order_value(item.expr, binding, output_binding), item.descending)
            for item in select.order_by
        ]
        #: the outputs anything reads: all of them, until an enclosing
        #: plan says which it wants (:meth:`keep`)
        self.wanted: List[int] = list(range(len(self.items)))

    def keep(self, outputs: Sequence[int]) -> None:
        """Compile-time, from the enclosing plan: produce only *outputs*.
        Ignored where a dropped column could change the rows that come
        out (a real DISTINCT) or is needed to order them."""
        if not self.distinct and not self.order_keys:
            self.wanted = list(outputs)

    @property
    def slots(self) -> frozenset:
        """The joined columns this operator reads."""
        slots = {slot for output in self.wanted for slot in self.items[output].slots}
        slots.update(slot for kernel in self.hidden for slot in kernel.slots)
        return frozenset(slots | (self.group.slots if self.group else set()))

    def _order_value(
        self, expr: Expr, binding: Binding, output_binding: Binding
    ) -> Callable[[Row], Any]:
        """An ORDER BY key as a closure over an output row: an unqualified
        output-column reference wins, then a select-item match, then —
        where SQL allows it, no DISTINCT and no aggregation — any
        expression over the joined rows, carried beside the outputs."""
        if isinstance(expr, ColumnRef) and expr.qualifier is None:
            try:
                return operator.itemgetter(output_binding.resolve(expr))
            except SqlExecutionError:
                pass
        for index, item in enumerate(self.select.items):
            if item.expr == expr:
                return operator.itemgetter(index)
        if self.select.distinct or self.aggregated:
            return _order_error(expr)
        self.hidden.append(compile_kernel(expr, binding))
        return operator.itemgetter(len(self.items) + len(self.hidden) - 1)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _outputs(
        self, columns: Columns, tracer: Any, grouping: Optional[Grouping]
    ) -> Tuple[int, Dict[int, Vector]]:
        if self.distinct_elided:
            tracer.count("distinct_elided")
        if self.group is not None:
            if grouping is None:
                grouping = self.group.execute(columns, tracer)
            return grouping.size, {
                output: self.items[output](columns, grouping) for output in self.wanted
            }
        outputs = {output: self.items[output](columns) for output in self.wanted}
        for at, kernel in enumerate(self.hidden, len(self.items)):
            outputs[at] = kernel(columns)
        return columns.rows, outputs

    def _finish(self, outputs: Sequence[Vector]) -> List[Row]:
        """The output columns as rows — where tuples are built — after
        DISTINCT, ORDER BY and LIMIT, which compare or count whole rows;
        the hidden ORDER BY keys are cut once the rows are sorted."""
        rows = distinct(outputs) if self.distinct else list(zip(*outputs))
        # stable multi-key sort honouring each key's direction: sort by
        # the least-significant key first, most-significant last
        for fn, descending in reversed(self.order_keys):
            rows.sort(
                key=lambda row, fn=fn: null_safe_sort_key(fn(row)),  # type: ignore[misc]
                reverse=descending,
            )
        if self.select.limit is not None:
            rows = rows[: self.select.limit]
        if self.hidden:
            width = len(self.items)
            rows = [row[:width] for row in rows]
        return rows

    def rows(
        self, columns: Columns, tracer: Any, grouping: Optional[Grouping] = None
    ) -> List[Row]:
        """The statement's result rows — of *grouping* when the groups
        were formed already (:class:`KeyCount`, :class:`EagerCount`)."""
        _, outputs = self._outputs(columns, tracer, grouping)
        rows = self._finish(list(outputs.values()))
        tracer.count("rows_output", len(rows))
        return rows

    def columns(
        self, columns: Columns, tracer: Any, grouping: Optional[Grouping] = None
    ) -> Columns:
        """The same result as column vectors keyed by output index, for
        the plan this one is a derived table of."""
        count, outputs = self._outputs(columns, tracer, grouping)
        if self.distinct or self.order_keys:
            # whole rows have to be compared: through tuples and back
            rows = self._finish(list(outputs.values()))
            count = len(rows)
            vectors = map(list, zip(*rows)) if rows else ([] for _ in self.wanted)
            outputs = dict(zip(self.wanted, vectors))
        elif self.select.limit is not None and self.select.limit < count:
            count = self.select.limit
            outputs = {output: vector[:count] for output, vector in outputs.items()}
        tracer.count("rows_output", count)
        return Columns(count, outputs)

    def describe(self, summing: bool = False) -> List[str]:
        """The summary of the projection; *summing* when the groups add
        up counts taken before a join."""
        summary: List[str] = []
        if self.group is not None:
            if self.group.keys:
                summary.append(self.group.describe() + (" over counts" if summing else ""))
            summary.append("aggregate " + ", ".join(self.output_columns))
        else:
            summary.append("project " + ", ".join(self.output_columns))
        return summary


def _counts_rows(
    expr: Expr, binding: Binding, non_null: FrozenSet[int], key_slots: Set[int]
) -> bool:
    """Whether *expr*, an output of an aggregated statement, reads of a
    group only its row count and GROUP BY key values: ``COUNT(*)``,
    ``COUNT`` of a column holding no NULL, a GROUP BY column, a
    constant, and arithmetic over those (the kernels
    :func:`compile_aggregate` makes of them)."""
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        if expr.name.upper() != "COUNT" or expr.distinct or len(expr.args) != 1:
            return False
        (arg,) = expr.args
        return isinstance(arg, Star) or _slot_of(arg, binding) in non_null
    if isinstance(expr, BinaryOp) and expr.contains_aggregate():
        return expr.op.upper() not in ("AND", "OR") and all(
            _counts_rows(side, binding, non_null, key_slots)
            for side in (expr.left, expr.right)
        )
    if not any(isinstance(node, ColumnRef) for node in expr.walk()):
        return True
    return _slot_of(expr, binding) in key_slots


def _slot_of(expr: Expr, binding: Binding) -> Optional[int]:
    """The slot of *expr* when it is a column reference *binding*
    resolves."""
    if isinstance(expr, ColumnRef) and binding.can_resolve(expr):
        return binding.resolve(expr)
    return None


def _order_error(expr: Expr) -> Callable[[Row], Any]:
    def fail(_row: Sequence[Any]) -> Any:
        raise SqlExecutionError(
            f"ORDER BY expression {expr!r} must reference an output column"
        )

    return fail
