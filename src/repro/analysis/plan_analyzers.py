"""Physical-plan analyzers: CompiledPlan consistency checks.

:func:`analyze_plan` re-derives the soundness invariant that
``CompiledPlan._index_strategy`` is supposed to maintain, independently of
its implementation:

* **S020** — every :class:`~repro.relational.plan.IndexLookup` kind must be
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

Derived scans are analyzed recursively through their sub-plans.
"""

from __future__ import annotations

from typing import List

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.relational.plan import CompiledPlan, _DerivedScan, _TableScan
from repro.relational.types import DataType
from repro.sql.ast import ColumnRef
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
        if isinstance(scan, _TableScan):
            diagnostics.extend(_check_table_scan(scan, location))
        elif isinstance(scan, _DerivedScan):
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
    return diagnostics


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
        if not isinstance(scan, _TableScan):
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


def _check_table_scan(scan: _TableScan, location: str) -> List[Diagnostic]:
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
