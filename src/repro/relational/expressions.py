"""Scalar and aggregate expression evaluation for the executor.

A :class:`Binding` maps column references (qualified or not) to *slots*:
positions in the label list of everything a statement's FROM clause
provides.  What flows between operators is :class:`Columns` — some rows
held as one vector per slot — and an expression is compiled once into a
:class:`Kernel` that reads the vectors of the slots it references and
answers with a vector (:func:`compile_kernel`), or, for the select items
of an aggregated statement, into a :class:`GroupKernel` answering with
one value per group (:func:`compile_aggregate`).  NULL semantics follow
SQL where it matters for the paper's queries: comparisons involving NULL
are not satisfied, aggregates ignore NULLs, and
``SUM``/``MIN``/``MAX``/``AVG`` over an empty or all-NULL input yield NULL.
"""

from __future__ import annotations

import operator
from itertools import compress, repeat
from typing import (
    Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.errors import SqlExecutionError
from repro.relational.algebra import Grouping, Vector, gather
from repro.relational.result import normalize_aggregate
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Contains,
    Expr,
    FuncCall,
    IsNull,
    Literal,
    Star,
)

ColumnLabel = Tuple[Optional[str], str]  # (qualifier, column name)


class Binding:
    """Resolves column references against an ordered list of column labels."""

    __slots__ = ("labels", "_slots")

    def __init__(self, labels: Sequence[ColumnLabel]) -> None:
        self.labels: Tuple[ColumnLabel, ...] = tuple(labels)
        #: lowercased column name -> its slot, or the slots of every label
        #: with that name (qualified or not, a reference starts here)
        self._slots: Dict[str, Union[int, Tuple[int, ...]]] = {}
        for index, (_, name) in enumerate(self.labels):
            key = name.lower()
            self._slots[key] = self._named(key) + (index,) if key in self._slots else index

    def _named(self, name: str) -> Tuple[int, ...]:
        """The slots of the labels called *name* (lowercased)."""
        found = self._slots.get(name, ())
        return found if isinstance(found, tuple) else (found,)

    def resolve(self, ref: ColumnRef) -> int:
        """Position of *ref* in the row; raises on unknown or ambiguous."""
        candidates = self._named(ref.name.lower())
        if ref.qualifier is not None:
            candidates = tuple(
                index for index in candidates if self.labels[index][0] == ref.qualifier
            )
        if not candidates:
            raise SqlExecutionError(f"unknown column {ref}")
        if len(candidates) > 1:
            raise SqlExecutionError(f"ambiguous column {ref}")
        return candidates[0]

    def can_resolve(self, ref: ColumnRef) -> bool:
        try:
            self.resolve(ref)
        except SqlExecutionError:
            return False
        return True

    def merge(self, other: "Binding") -> "Binding":
        return Binding(self.labels + other.labels)

    def __len__(self) -> int:
        return len(self.labels)


def _align_comparable(left: Any, right: Any) -> Tuple[Any, Any]:
    """Allow int/float comparisons; otherwise require matching types."""
    if isinstance(left, bool) or isinstance(right, bool):
        if type(left) is not type(right):
            raise SqlExecutionError(f"cannot compare {left!r} with {right!r}")
        return left, right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    raise SqlExecutionError(f"cannot compare {left!r} with {right!r}")


def _require_numeric(values: Sequence[Any], func: str) -> None:
    # bool is its own type, so a column of True/False still reaches the
    # raising loop below
    if {int, float}.issuperset(map(type, values)):
        return
    for value in values:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SqlExecutionError(f"{func} over non-numeric value {value!r}")


# ----------------------------------------------------------------------
# Closure compilation
# ----------------------------------------------------------------------
# Compiled plans (repro.relational.plan) evaluate expressions through
# closures built once per expression instead of walking the AST and
# re-resolving column references on every row.  Evaluation errors
# (unknown column, type mismatch, division by zero) surface when a
# closure is called on a row, never at compile time, so a statement over
# an empty input still succeeds.

ScalarFn = Callable[[Sequence[Any]], Any]

_COMPARISON_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _raising(message: str) -> ScalarFn:
    """A closure that raises at call time: evaluation errors surface
    only when a row is evaluated."""

    def fail(_row: Sequence[Any]) -> Any:
        raise SqlExecutionError(message)

    return fail


def compile_scalar(expr: Expr, binding: Binding) -> ScalarFn:
    """Compile a scalar expression into a ``row -> value`` closure."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        try:
            index = binding.resolve(expr)
        except SqlExecutionError as exc:
            return _raising(str(exc))
        return operator.itemgetter(index)
    if isinstance(expr, Contains):
        operand = compile_scalar(expr.column, binding)
        needle = expr.phrase.lower()

        def contains(row: Sequence[Any]) -> bool:
            value = operand(row)
            if value is None:
                return False
            return needle in str(value).lower()

        return contains
    if isinstance(expr, IsNull):
        operand = compile_scalar(expr.operand, binding)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, BinaryOp):
        return _binary_closure(
            expr.op,
            compile_scalar(expr.left, binding),
            compile_scalar(expr.right, binding),
        )
    if isinstance(expr, FuncCall):
        if expr.is_aggregate:
            return _raising(
                f"aggregate {expr.name} used outside GROUP BY evaluation"
            )
        return _raising(f"unknown function {expr.name!r}")
    if isinstance(expr, Star):
        return _raising("'*' is only valid inside COUNT(*)")
    return _raising(f"cannot evaluate expression {expr!r}")


def _binary_closure(op_text: str, left: Callable, right: Callable) -> Callable:
    """``left <op> right`` over compiled operands.  The operands take
    whatever the result is called with — a row for scalar expressions,
    a group's rows for arithmetic over aggregates."""
    op = op_text.upper()
    if op == "AND":
        return lambda row: bool(left(row)) and bool(right(row))
    if op == "OR":
        return lambda row: bool(left(row)) or bool(right(row))
    compare = _COMPARISON_OPS.get(op)
    if compare is not None:

        def comparison(row: Sequence[Any]) -> bool:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False  # SQL UNKNOWN, treated as not-satisfied
            a, b = _align_comparable(a, b)
            return compare(a, b)

        return comparison
    if op in ("+", "-", "*", "/"):
        combine = {
            "+": operator.add,
            "-": operator.sub,
            "*": operator.mul,
        }.get(op)

        def arithmetic(row: Sequence[Any]) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                raise SqlExecutionError(
                    f"arithmetic on non-numeric values {a!r}, {b!r}"
                )
            if combine is not None:
                return combine(a, b)
            if b == 0:
                raise SqlExecutionError("division by zero")
            return a / b

        return arithmetic
    return _raising(f"unknown operator {op_text!r}")


# ----------------------------------------------------------------------
# Column kernels
# ----------------------------------------------------------------------
class Columns:
    """Some rows held column-wise: one vector per slot, all ``rows``
    long.  A slot nothing downstream reads is simply absent."""

    __slots__ = ("rows", "vectors")

    def __init__(self, rows: int, vectors: Dict[int, Vector]) -> None:
        self.rows = rows
        self.vectors = vectors

    def __len__(self) -> int:
        return self.rows

    def keep(self, mask: Sequence[Any]) -> "Columns":
        """The rows whose *mask* entry is true."""
        if all(mask):
            return self  # nothing to drop: no column is copied
        vectors = {
            slot: list(compress(vector, mask))
            for slot, vector in self.vectors.items()
        }
        if vectors:
            return Columns(len(next(iter(vectors.values()))), vectors)
        return Columns(sum(map(bool, mask)), vectors)


class _SlotMap:
    """Resolves references as *binding* does, numbering the slots in
    the order an expression first mentions them: the layout of the
    narrow row its closure reads."""

    def __init__(self, binding: Binding) -> None:
        self.binding = binding
        self.slots: List[int] = []

    def resolve(self, ref: ColumnRef) -> int:
        slot = self.binding.resolve(ref)
        if slot not in self.slots:
            self.slots.append(slot)
        return self.slots.index(slot)


class Kernel:
    """A scalar expression compiled for whole columns: the values of the
    expression over every row of a :class:`Columns` (or over the rows at
    some positions of it).

    A bare column reference is its column — nothing is evaluated.  Any
    other expression is a ``compile_scalar`` closure mapped over the
    narrow rows ``zip`` makes of the referenced vectors (``zip`` recycles
    its tuple, so no row outlives its evaluation)."""

    __slots__ = ("slots", "column", "fn")

    def __init__(
        self, slots: Sequence[int], fn: ScalarFn, column: Optional[int] = None
    ) -> None:
        self.slots = tuple(slots)
        self.column = column  # the slot, when the expression is a bare column
        self.fn = fn

    def __call__(
        self, columns: Columns, positions: Optional[Sequence[int]] = None
    ) -> Vector:
        vectors = columns.vectors
        if self.column is not None:
            return gather(vectors[self.column], positions)
        if not self.slots:
            rows = columns.rows if positions is None else len(positions)
            return list(map(self.fn, repeat((), rows)))
        narrow = zip(*[gather(vectors[slot], positions) for slot in self.slots])
        return list(map(self.fn, narrow))

    def row_closure(self, base: int) -> ScalarFn:
        """The expression over whole rows of the table whose column *i*
        is slot ``base + i`` — what the optimizer runs over its row
        sample."""
        fn = self.fn
        picks = [slot - base for slot in self.slots]
        if len(picks) == 1:  # the usual pushed predicate: one column
            (only,) = picks
            return lambda row: fn((row[only],))
        return lambda row: fn([row[pick] for pick in picks])


def compile_kernel(expr: Expr, binding: Binding) -> Kernel:
    """Compile a scalar expression (a WHERE conjunct, a GROUP BY key, a
    select item) over the slots of *binding*."""
    slot_map = _SlotMap(binding)
    fn = compile_scalar(expr, slot_map)  # type: ignore[arg-type]  # duck-typed
    bare = isinstance(expr, ColumnRef) and slot_map.slots  # else: unknown, raises
    return Kernel(slot_map.slots, fn, slot_map.slots[0] if bare else None)


GroupFn = Callable[[Columns, Grouping], Vector]


class GroupKernel(NamedTuple):
    """A select item of an aggregated statement: one value per group."""

    slots: Tuple[int, ...]
    fn: GroupFn

    def __call__(self, columns: Columns, grouping: Grouping) -> Vector:
        return self.fn(columns, grouping)


def _raising_group(message: str) -> GroupKernel:
    def fail(_columns: Columns, grouping: Grouping) -> Vector:
        if grouping.size:
            raise SqlExecutionError(message)
        return []

    return GroupKernel((), fail)


def _compile_aggregate_call(
    call: FuncCall, binding: Binding, non_null: FrozenSet[int]
) -> GroupKernel:
    name = call.name.upper()
    if name == "COUNT":
        # COUNT kernels produce ints by construction, which is exactly
        # normalize_aggregate("COUNT", ...) — no wrapper
        if len(call.args) == 1 and isinstance(call.args[0], Star):
            return GroupKernel((), _count_rows)
        arg = compile_kernel(call.args[0], binding)
        if not call.distinct and arg.column in non_null:
            # a column that holds no NULL counts rows, and is not read
            return GroupKernel((), _count_rows)
        if call.distinct:
            return GroupKernel(
                arg.slots,
                lambda columns, grouping: [
                    len(set(values)) for values in grouping.split(arg(columns))
                ],
            )
        return GroupKernel(
            arg.slots,
            lambda columns, grouping: grouping.count_values(arg(columns)),
        )
    if len(call.args) != 1:
        return _raising_group(f"{name} takes exactly one argument")
    arg = compile_kernel(call.args[0], binding)
    use_distinct = call.distinct

    # each reducer sees one group's non-NULL values, in row order
    if name == "SUM":

        def reduce(values: Vector) -> Any:
            if not values:
                return None
            _require_numeric(values, "SUM")
            return normalize_aggregate("SUM", sum(values))

    elif name == "AVG":

        def reduce(values: Vector) -> Any:
            if not values:
                return None
            _require_numeric(values, "AVG")
            return normalize_aggregate("AVG", sum(values) / len(values))

    elif name in ("MIN", "MAX"):
        pick = min if name == "MIN" else max

        def reduce(values: Vector) -> Any:
            return normalize_aggregate(name, pick(values, default=None))

    else:
        return _raising_group(f"unknown aggregate {name!r}")

    def aggregate(columns: Columns, grouping: Grouping) -> Vector:
        groups = grouping.split(arg(columns))
        if use_distinct:
            groups = [list(set(values)) for values in groups]
        return list(map(reduce, groups))

    return GroupKernel(arg.slots, aggregate)


def _count_rows(columns: Columns, grouping: Grouping) -> Vector:
    return grouping.counts()


def compile_aggregate(
    expr: Expr,
    binding: Binding,
    keys: Sequence[Kernel] = (),
    non_null: FrozenSet[int] = frozenset(),
) -> GroupKernel:
    """Compile an output expression that may mix aggregates and scalars
    into a kernel answering with one value per group; *keys* are the
    statement's compiled GROUP BY keys, *non_null* the slots of columns
    that hold no NULL (``COUNT`` of one is the group's row count).

    Scalar sub-expressions are evaluated on the group's first row (legal
    because translators only put group-by expressions outside aggregates)
    — which, for a column that is itself a GROUP BY key, is the group's
    key value, already at hand.
    """
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return _compile_aggregate_call(expr, binding, non_null)
    if isinstance(expr, BinaryOp) and expr.contains_aggregate():
        if expr.op.upper() in ("AND", "OR"):
            return _raising_group("boolean aggregates are not supported")
        left = compile_aggregate(expr.left, binding, keys, non_null)
        right = compile_aggregate(expr.right, binding, keys, non_null)
        combine = _binary_closure(
            expr.op, operator.itemgetter(0), operator.itemgetter(1)
        )
        return GroupKernel(
            left.slots + right.slots,
            lambda columns, grouping: list(
                map(combine, zip(left(columns, grouping), right(columns, grouping)))
            ),
        )
    scalar = compile_kernel(expr, binding)
    for part, key in enumerate(keys):
        if scalar.column is not None and key.column == scalar.column:
            return GroupKernel(
                scalar.slots,
                lambda columns, grouping: grouping.key_part(part, len(keys)),
            )

    def first_row(columns: Columns, grouping: Grouping) -> Vector:
        if not scalar.slots:  # a constant: no row to read
            return scalar(Columns(grouping.size, {}))
        if not grouping.rows:
            return [None] * grouping.size  # the one group of an empty input
        return scalar(columns, grouping.firsts())

    return GroupKernel(scalar.slots, first_row)
