"""Static analysis of pipeline artifacts (patterns, SQL, plans, rewrites).

Three analyzer families share one :class:`Diagnostic` model:

* pattern analyzers (``P...`` codes) — connectivity, minimality, ORA
  consistency, disambiguation and DISTINCT-projection preconditions;
* SQL/plan analyzers (``S...``) — name resolution, grouping discipline,
  schema-aware type inference, aggregate-nesting legality, and
  ``CompiledPlan`` index soundness;
* rewrite analyzers (``R...``) — §4.1 Rule 1–3 postconditions.

Two further passes analyze the *codebase* rather than its artifacts:
the LR lint rules (:mod:`repro.analysis.codebase`), which include the
lock discipline checked from ``# guarded-by:`` declarations, and the
runtime lock-order sanitizer of :mod:`repro.analysis.runtime` (``C...``
codes), which watches every lock the package creates while the tests
run.

See ``docs/ANALYSIS.md`` for the full code catalog, strict mode and the
``repro check`` CLI.
"""

from repro.analysis.diagnostics import (
    CODE_CATALOG,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.pattern_analyzers import (
    analyze_interpretation_set,
    analyze_pattern,
    analyze_translation,
)
from repro.analysis.pipeline import TranslationParts, analyze_compilation
from repro.analysis.plan_analyzers import analyze_plan
from repro.analysis.rewrite_analyzers import analyze_rewrite
from repro.analysis.runtime import LockSanitizer
from repro.analysis.sql_analyzers import analyze_dialect, analyze_select

__all__ = [
    "CODE_CATALOG",
    "AnalysisReport",
    "Diagnostic",
    "LockSanitizer",
    "Severity",
    "TranslationParts",
    "analyze_compilation",
    "analyze_interpretation_set",
    "analyze_pattern",
    "analyze_plan",
    "analyze_rewrite",
    "analyze_dialect",
    "analyze_select",
    "analyze_translation",
]
