"""The shared diagnostic model of the static-analysis subsystem.

Every analyzer family (pattern, SQL/plan, rewrite) reports findings as
:class:`Diagnostic` values: a stable code (``P002``, ``S010``, ``R004``),
a :class:`Severity`, a human message, the location of the artifact the
finding is about, and a fix hint.  Codes are namespaced by family:

* ``Pxxx`` — query-pattern analyzers (:mod:`repro.analysis.pattern_analyzers`)
* ``Sxxx`` — SQL and physical-plan analyzers
  (:mod:`repro.analysis.sql_analyzers`,
  :mod:`repro.analysis.plan_analyzers`, and the codes assigned by
  :func:`repro.sql.validate.validate_select`)
* ``Rxxx`` — rewrite postconditions (:mod:`repro.analysis.rewrite_analyzers`)
* ``Cxxx`` — what the runtime lock-order sanitizer observes
  (:mod:`repro.analysis.runtime`); the lock discipline that needs no run
  is checked from ``# guarded-by:`` declarations by the LR rules of
  :mod:`repro.analysis.codebase`

``docs/ANALYSIS.md`` documents every code; :data:`CODE_CATALOG` is the
machine-readable version of that table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional


class Severity(enum.IntEnum):
    """How bad a finding is; ordered so ``max()`` picks the worst."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a coded, located, actionable problem description."""

    code: str
    severity: Severity
    message: str
    location: str = ""
    hint: str = ""

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        tail = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.code} {self.severity}: {self.message}{where}{tail}"


# One-line description of every diagnostic code the analyzers can emit.
CODE_CATALOG: Dict[str, str] = {
    # -- pattern analyzers ---------------------------------------------
    "P001": "query pattern has no nodes",
    "P002": "query pattern is not connected",
    "P003": "non-minimal pattern: unannotated leaf node contributes nothing",
    "P004": "pattern node does not match any ORM schema-graph node",
    "P005": "annotation references an attribute its node does not own",
    "P006": "pattern edge's ORM edge does not connect its endpoints",
    "P007": "multi-object condition has no GROUPBY(identifier) variant",
    "P008": "invalid aggregate function or outer chain on an annotation",
    "P009": "partial n-ary relationship use without a DISTINCT projection",
    # -- SQL analyzers (validate_select + type inference) --------------
    "S001": "unknown table in FROM",
    "S002": "unresolved column or alias reference",
    "S003": "ambiguous unqualified column reference",
    "S004": "duplicate FROM alias",
    "S005": "'*' used outside COUNT(*)",
    "S006": "aggregate nested inside another aggregate",
    "S007": "aggregate in WHERE or GROUP BY clause",
    "S008": "non-aggregate output column missing from GROUP BY",
    "S009": "malformed statement shape (empty FROM, negative LIMIT)",
    "S010": "SUM/AVG over a non-numeric column",
    "S011": "comparison across incompatible datatypes",
    "S012": "arithmetic on a non-numeric operand",
    "S013": "contains-predicate on a non-text column",
    "S014": "ORDER BY references neither an output name nor a column",
    "S015": "outer aggregate over an ungrouped aggregate subquery",
    "S016": "statement not renderable in the target SQL dialect",
    # -- plan analyzers ------------------------------------------------
    "S020": "index lookup kind is unsound for the column datatype",
    "S021": "pushed predicate references a column outside its scan",
    "S022": "estimated plan cardinality exceeds the row budget",
    "S023": "index lookup available but the plan chose a sequential scan",
    "S024": "elided DISTINCT or sideways key filter is not justified by the schema",
    # -- rewrite analyzers ---------------------------------------------
    "R001": "rewritten SQL references a relation outside the base schema",
    "R002": "rewrite changed the GROUP BY keys",
    "R003": "rewrite changed the output columns",
    "R004": "fragment projection lost its view key",
    "R005": "rewrite changed the aggregate functions",
    # -- runtime lock-order sanitizer ----------------------------------
    "C002": "lock pair acquired in both orders during a run (potential deadlock)",
    "C007": "anomalously long lock hold observed at runtime",
}


@dataclass
class AnalysisReport:
    """An ordered collection of diagnostics with severity roll-ups."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, findings: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(findings)

    def add(self, finding: Diagnostic) -> None:
        self.diagnostics.append(finding)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def has_findings(self) -> bool:
        """True when anything of WARNING severity or worse was found."""
        return any(
            d.severity is not Severity.INFO for d in self.diagnostics
        )

    def worst(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def render(self, indent: str = "") -> str:
        if not self.diagnostics:
            return f"{indent}no diagnostics"
        return "\n".join(f"{indent}{d}" for d in self.diagnostics)
