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
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.relational.algebra import Grouping, Vector, distinct, null_safe_sort_key
from repro.relational.expressions import (
    Binding,
    Columns,
    compile_aggregate,
    compile_kernel,
)
from repro.sql.ast import ColumnRef, Expr, Select
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

    def execute(self, columns: Columns, tracer: Any) -> Grouping:
        if not self.keys:
            keys = None
        elif len(self.keys) == 1:
            keys = self.keys[0](columns)
        else:
            keys = list(zip(*[key(columns) for key in self.keys]))
        grouping = Grouping(keys, columns.rows)
        tracer.count("groups_formed", grouping.size)
        return grouping

    def describe(self) -> str:
        return "group by " + ", ".join(render_expr(expr) for expr in self.exprs)


class Project:
    """Select items, DISTINCT, ORDER BY and LIMIT of one statement."""

    def __init__(
        self,
        select: Select,
        binding: Binding,
        output_columns: Sequence[str],
        distinct_elided: bool,
    ) -> None:
        self.select = select
        self.output_columns = list(output_columns)
        self.aggregated = select.has_aggregates() or bool(select.group_by)
        self.group = Group(select, binding) if self.aggregated else None
        self.items: List[Any] = [
            compile_aggregate(item.expr, binding, self.group.keys)
            if self.group is not None
            else compile_kernel(item.expr, binding)
            for item in select.items
        ]
        self.distinct = select.distinct and not distinct_elided
        self.distinct_elided = select.distinct and distinct_elided
        output_binding = Binding([(None, name) for name in self.output_columns])
        self.order_keys = [
            (self._order_value(item.expr, output_binding), item.descending)
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
        return frozenset(slots | (self.group.slots if self.group else set()))

    def _order_value(self, expr: Expr, output_binding: Binding) -> Callable[[Row], Any]:
        """An ORDER BY key as a closure over an output row: an unqualified
        output-column reference wins, then a select-item match."""
        if isinstance(expr, ColumnRef) and expr.qualifier is None:
            try:
                return operator.itemgetter(output_binding.resolve(expr))
            except SqlExecutionError:
                pass
        for index, item in enumerate(self.select.items):
            if item.expr == expr:
                return operator.itemgetter(index)
        return _order_error(expr)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _outputs(self, columns: Columns, tracer: Any) -> Tuple[int, Dict[int, Vector]]:
        if self.distinct_elided:
            tracer.count("distinct_elided")
        if self.group is not None:
            grouping = self.group.execute(columns, tracer)
            return grouping.size, {
                output: self.items[output](columns, grouping) for output in self.wanted
            }
        return columns.rows, {
            output: self.items[output](columns) for output in self.wanted
        }

    def _finish(self, outputs: Sequence[Vector]) -> List[Row]:
        """The output columns as rows — where tuples are built — after
        DISTINCT, ORDER BY and LIMIT, which compare or count whole rows."""
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
        return rows

    def rows(self, columns: Columns, tracer: Any) -> List[Row]:
        """The statement's result rows."""
        _, outputs = self._outputs(columns, tracer)
        rows = self._finish(list(outputs.values()))
        tracer.count("rows_output", len(rows))
        return rows

    def columns(self, columns: Columns, tracer: Any) -> Columns:
        """The same result as column vectors keyed by output index, for
        the plan this one is a derived table of."""
        count, outputs = self._outputs(columns, tracer)
        if self.distinct or self.order_keys:
            # whole rows have to be compared: through tuples and back
            rows = self._finish(list(outputs.values()))
            count = len(rows)
            vectors = map(list, zip(*rows)) if rows else ([] for _ in outputs)
            outputs = dict(zip(outputs, vectors))
        elif self.select.limit is not None and self.select.limit < count:
            count = self.select.limit
            outputs = {output: vector[:count] for output, vector in outputs.items()}
        tracer.count("rows_output", count)
        return Columns(count, outputs)

    def describe(self) -> List[str]:
        summary: List[str] = []
        if self.group is not None:
            if self.group.keys:
                summary.append(self.group.describe())
            summary.append("aggregate " + ", ".join(self.output_columns))
        else:
            summary.append("project " + ", ".join(self.output_columns))
        return summary


def _order_error(expr: Expr) -> Callable[[Row], Any]:
    def fail(_row: Sequence[Any]) -> Any:
        raise SqlExecutionError(
            f"ORDER BY expression {expr!r} must reference an output column"
        )

    return fail
