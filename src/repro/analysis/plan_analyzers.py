"""Physical-plan analyzers: CompiledPlan consistency checks.

:func:`analyze_plan` re-derives the soundness invariant that
``TableScan._index_strategy`` is supposed to maintain, independently of
its implementation:

* **S020** — every :class:`~repro.relational.scan.IndexLookup` kind must be
  sound for the scanned column's datatype and the probe value's Python
  type: ``contains`` needs a TEXT/DATE column; ``numeric-eq`` needs a
  numeric column probed with a number; ``hash-eq`` needs a TEXT/DATE
  column probed with a string.  An unsound lookup would return a candidate
  set that misses rows the predicate closure accepts;
* **S021** — every pushed predicate may reference only the scan's own
  alias (a cross-scan predicate evaluated on one table reads garbage).

Two planner-facing advisories read the optimizer's
:class:`~repro.planner.optimizer.PlanDecisions` when the plan carries
them (``plan.decisions`` is ``None`` for a plan built without an
optimizer):

* **S022** (warning) — the estimated joined cardinality exceeds the
  *row_budget*, so the statement is predicted to materialize an
  intermediate large enough to deserve a look before running it;
* **S023** (info) — an index lookup was available on a scan but the
  cost model chose the sequential path, the visible trace of an
  access-path decision (informational: skipping an unselective index is
  usually the *right* call, see ``docs/PLANNER.md``).

One check covers what the plan skips or narrows on the strength of a
schema argument, re-derived from the statement's AST and the schema
alone (nothing ``CompiledPlan`` computed is trusted):

* **S024** — a DISTINCT the plan elides must project plain columns of
  exactly one base table covering its primary key (otherwise the
  DISTINCT could remove rows); and a derived scan the plan may hand join
  keys to (``plan.key_sources``) must expose the join column as a plain
  copy of a base-table column — through sub-selects that neither
  aggregate nor LIMIT — of the same type class (numeric / text) as the
  column the keys come from, else the filter could drop rows the hash
  join would have matched.

Derived scans are analyzed recursively through their sub-plans.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.type_inference import build_scope, infer_expr_type
from repro.relational.plan import CompiledPlan
from repro.relational.scan import DerivedScan, TableScan
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.sql.ast import ColumnRef, DerivedTable, Select, TableRef
from repro.sql.render import render_expr

_TEXT_LIKE = (DataType.TEXT, DataType.DATE)
_NUMERIC = (DataType.INT, DataType.FLOAT)

#: S022 threshold: joined cardinalities the planner itself handles fine
#: stay silent — only estimates predicting a runaway intermediate warn
DEFAULT_ROW_BUDGET = 1_000_000


def analyze_plan(
    plan: CompiledPlan,
    location: str = "",
    row_budget: int = DEFAULT_ROW_BUDGET,
) -> List[Diagnostic]:
    """Soundness + planner diagnostics for one compiled physical plan."""
    diagnostics: List[Diagnostic] = []
    for scan in plan.scans:
        if isinstance(scan, TableScan):
            diagnostics.extend(_check_table_scan(scan, location))
        elif isinstance(scan, DerivedScan):
            sub_location = (
                f"{location}/derived {scan.alias}"
                if location
                else f"derived {scan.alias}"
            )
            diagnostics.extend(
                analyze_plan(scan.subplan, sub_location, row_budget=row_budget)
            )
            diagnostics.extend(_check_pushed_scope(scan, location))
    diagnostics.extend(_check_decisions(plan, location, row_budget))
    diagnostics.extend(_check_key_passing(plan, location))
    return diagnostics


def _check_key_passing(plan: CompiledPlan, location: str) -> List[Diagnostic]:
    """S024: DISTINCT elision and sideways key passing, from the AST."""
    schema = plan.database.schema
    select = plan.select
    problems: List[str] = []
    if plan.distinct_elided_key is not None:
        problem = _elision_problem(select, schema)
        if problem:
            problems.append(f"DISTINCT elided but {problem}")
    items = {item.alias: item for item in select.from_items}
    scope = build_scope(select, schema)
    for alias, sources in plan.key_sources.items():
        for source in sources:
            own = f"{alias}.{source.column}"
            if not _is_plain_base_column(items.get(alias), source.column, schema):
                problems.append(
                    f"keys offered to {own}, which is not a plain copy of "
                    "a base-table column"
                )
                continue
            own_type = infer_expr_type(ColumnRef(source.column, alias), scope)
            other_type = infer_expr_type(source.other_ref, scope)
            if _type_class(own_type) is None or _type_class(
                own_type
            ) != _type_class(other_type):
                problems.append(
                    f"keys offered to {own} ({own_type}) come from "
                    f"{source.other_ref} ({other_type})"
                )
    return [
        Diagnostic(
            "S024",
            Severity.ERROR,
            problem,
            location,
            hint="the plan would drop rows the unoptimized plan keeps",
        )
        for problem in problems
    ]


def _type_class(dtype: Optional[DataType]) -> Optional[str]:
    if dtype in _NUMERIC:
        return "numeric"
    if dtype in _TEXT_LIKE:
        return "text"
    return None


def _elision_problem(select: Select, schema: DatabaseSchema) -> str:
    """Why *select*'s DISTINCT could remove a row ('' when it cannot)."""
    if select.has_aggregates() or select.group_by:
        return "the select aggregates"
    if len(select.from_items) != 1 or not isinstance(
        select.from_items[0], TableRef
    ):
        return "its FROM is not exactly one base table"
    relation = schema.find_relation(select.from_items[0].table)
    if relation is None:
        return "its table is not in the schema"
    projected = set()
    for item in select.items:
        if not isinstance(item.expr, ColumnRef):
            return f"{render_expr(item.expr)} is not a plain column"
        projected.add(item.expr.name.lower())
    missing = [c for c in relation.primary_key if c.lower() not in projected]
    if missing:
        return f"its projection drops key column(s) {', '.join(missing)}"
    return ""


def _is_plain_base_column(
    item: object, column: str, schema: DatabaseSchema
) -> bool:
    """Whether *column* of FROM *item* is a base-table column copied
    unchanged through every derived table in between, none of which
    aggregates or LIMITs."""
    if isinstance(item, TableRef):
        relation = schema.find_relation(item.table)
        return relation is not None and column.lower() in {
            name.lower() for name in relation.column_names
        }
    if not isinstance(item, DerivedTable):
        return False
    select = item.select
    if select.has_aggregates() or select.group_by or select.limit is not None:
        return False
    scope = build_scope(select, schema)
    for index, sub in enumerate(select.items):
        if sub.output_name(default=f"col{index + 1}").lower() != column.lower():
            continue
        ref = sub.expr
        if not isinstance(ref, ColumnRef):
            return False
        owners = [
            alias
            for alias, columns in scope.items()
            if ref.name.lower() in columns and ref.qualifier in (None, alias)
        ]
        if len(owners) != 1:
            return False
        inner = next(i for i in select.from_items if i.alias == owners[0])
        return _is_plain_base_column(inner, ref.name, schema)
    return False


def _check_decisions(
    plan: CompiledPlan, location: str, row_budget: int
) -> List[Diagnostic]:
    """S022/S023: advisories derived from the optimizer's decisions."""
    decisions = plan.decisions
    if decisions is None:
        return []
    diagnostics: List[Diagnostic] = []
    if decisions.est_joined > row_budget:
        diagnostics.append(
            Diagnostic(
                "S022",
                Severity.WARNING,
                f"estimated joined cardinality "
                f"{decisions.est_joined:,.0f} exceeds the row budget "
                f"{row_budget:,}",
                location,
                hint="a predicted runaway intermediate — check the join "
                "conditions (or raise row_budget if the size is intended)",
            )
        )
    for scan in plan.scans:
        if not isinstance(scan, TableScan):
            continue
        decision = decisions.scans.get(scan.alias)
        if decision is None:
            continue
        for pushed, kept in zip(scan.pushed, decision.index_choices):
            lookup = pushed.lookup
            if lookup is None or lookup.kind == "never" or kept is not False:
                continue
            diagnostics.append(
                Diagnostic(
                    "S023",
                    Severity.INFO,
                    f"scan {scan.alias!r}: {lookup.describe()} available "
                    f"but the cost model chose a sequential scan",
                    location,
                )
            )
    return diagnostics


def _check_table_scan(scan: TableScan, location: str) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_pushed_scope(scan, location))
    for pushed in scan.pushed:
        lookup = pushed.lookup
        if lookup is None or lookup.kind == "never":
            continue
        if not scan.schema.has_column(lookup.column):
            diagnostics.append(
                Diagnostic(
                    "S021",
                    Severity.ERROR,
                    f"index lookup on {lookup.table}.{lookup.column}: column "
                    f"is not in the scanned relation",
                    location,
                )
            )
            continue
        dtype = scan.schema.column(lookup.column).dtype
        problem = _lookup_problem(lookup.kind, dtype, lookup.value)
        if problem:
            diagnostics.append(
                Diagnostic(
                    "S020",
                    Severity.ERROR,
                    f"{lookup.kind} lookup on {lookup.table}.{lookup.column} "
                    f"({dtype}): {problem}",
                    location,
                    hint="index strategies must agree with the column "
                    "datatype, else index and sequential scans diverge",
                )
            )
    return diagnostics


def _lookup_problem(kind: str, dtype: DataType, value: object) -> str:
    if kind == "contains":
        if dtype not in _TEXT_LIKE:
            return "inverted index over a non-text column"
        if not isinstance(value, str):
            return f"non-string probe {value!r}"
    elif kind == "numeric-eq":
        if dtype not in _NUMERIC:
            return "numeric index over a non-numeric column"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"non-numeric probe {value!r}"
    elif kind == "hash-eq":
        if dtype not in _TEXT_LIKE:
            return "hash-eq chosen where the numeric index applies"
        if not isinstance(value, str):
            return f"non-string probe {value!r}"
    else:
        return f"unknown lookup kind {kind!r}"
    return ""


def _check_pushed_scope(scan: object, location: str) -> List[Diagnostic]:
    """S021: pushed predicates may only reference the scan's own alias."""
    diagnostics: List[Diagnostic] = []
    alias = getattr(scan, "alias")
    for pushed in getattr(scan, "pushed"):
        foreign = sorted(
            {
                node.qualifier
                for node in pushed.expr.walk()
                if isinstance(node, ColumnRef)
                and node.qualifier is not None
                and node.qualifier != alias
            }
        )
        if foreign:
            diagnostics.append(
                Diagnostic(
                    "S021",
                    Severity.ERROR,
                    f"predicate {render_expr(pushed.expr)} pushed to scan "
                    f"{alias!r} references alias(es) {foreign}",
                    location,
                )
            )
    return diagnostics
