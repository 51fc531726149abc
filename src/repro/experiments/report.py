"""The paper's tables and Figure 11 rendered from experiment outcomes.

:func:`format_answer_table` and :func:`format_timing_series` render one
table or series; :func:`full_report` prints every table and figure of
the paper in one call (shared by ``examples/reproduce_paper.py`` and
``python -m repro --reproduce``).
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence, TextIO

from repro.baselines import SqakEngine
from repro.datasets import (
    denormalize_acmdl,
    denormalize_tpch,
    generate_acmdl,
    generate_tpch,
)
from repro.engine import KeywordSearchEngine
from repro.experiments.queries import ACMDL_QUERIES, TPCH_QUERIES
from repro.experiments.runner import QueryOutcome, run_suite
from repro.observability import stage_breakdown


def format_answer_table(
    title: str, outcomes: Sequence[QueryOutcome], max_values: int = 6
) -> str:
    """Render a Table-5/6/8/9-style comparison of SQAK vs our approach."""
    rows = [("#", "SQAK", "Our Proposed Approach")]
    for outcome in outcomes:
        rows.append(
            (
                outcome.spec.qid,
                outcome.summarize("sqak", max_values),
                outcome.summarize("semantic", max_values),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [title, "=" * len(title)]
    header, *body = rows
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in body:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_timing_series(
    title: str, outcomes: Sequence[QueryOutcome]
) -> str:
    """Render a Figure-11-style SQL-generation-time comparison."""
    lines = [title, "=" * len(title)]
    lines.append(f"{'#':<4}{'Proposed (ms)':>16}{'SQAK (ms)':>12}")
    for outcome in outcomes:
        sqak_ms = (
            f"{outcome.sqak_compile_ms:.3f}"
            if outcome.sqak_compile_ms is not None
            else "N.A."
        )
        lines.append(
            f"{outcome.spec.qid:<4}{outcome.semantic_compile_ms:>16.3f}{sqak_ms:>12}"
        )
    return "\n".join(lines)


def format_comparison_row(outcome: QueryOutcome) -> str:
    """One-line per-query summary used by the example scripts."""
    return (
        f"{outcome.spec.qid}: ours={outcome.summarize('semantic', 4)} | "
        f"SQAK={outcome.summarize('sqak', 4)}"
    )


def full_report(out: Optional[TextIO] = None) -> None:
    """Print Tables 5, 6, 8, 9, both Figure-11 series and stage breakdowns."""
    out = out or sys.stdout
    tpch = generate_tpch()
    acmdl = generate_acmdl()

    tpch_engine = KeywordSearchEngine(tpch)
    tpch_outcomes = run_suite(tpch_engine, SqakEngine(tpch), TPCH_QUERIES)
    print(
        format_answer_table(
            "Table 5 - answers of queries for normalized TPCH", tpch_outcomes
        ),
        file=out,
    )
    print(file=out)

    acmdl_engine = KeywordSearchEngine(acmdl)
    acmdl_outcomes = run_suite(acmdl_engine, SqakEngine(acmdl), ACMDL_QUERIES)
    print(
        format_answer_table(
            "Table 6 - answers of queries for normalized ACMDL", acmdl_outcomes
        ),
        file=out,
    )
    print(file=out)

    tpch_unnorm = denormalize_tpch(tpch)
    outcomes_8 = run_suite(
        KeywordSearchEngine(
            tpch_unnorm.database,
            fds=tpch_unnorm.fds,
            name_hints=tpch_unnorm.name_hints,
        ),
        SqakEngine(tpch_unnorm.database, extra_joins=tpch_unnorm.sqak_extra_joins),
        TPCH_QUERIES,
    )
    print(
        format_answer_table(
            "Table 8 - query answers on unnormalized TPCH (TPCH')", outcomes_8
        ),
        file=out,
    )
    print(file=out)

    acmdl_unnorm = denormalize_acmdl(acmdl)
    outcomes_9 = run_suite(
        KeywordSearchEngine(
            acmdl_unnorm.database,
            fds=acmdl_unnorm.fds,
            name_hints=acmdl_unnorm.name_hints,
        ),
        SqakEngine(
            acmdl_unnorm.database, extra_joins=acmdl_unnorm.sqak_extra_joins
        ),
        ACMDL_QUERIES,
    )
    print(
        format_answer_table(
            "Table 9 - query answers on unnormalized ACMDL (ACMDL')", outcomes_9
        ),
        file=out,
    )
    print(file=out)

    print(
        format_timing_series(
            "Figure 11(a) - SQL generation time, TPCH queries", tpch_outcomes
        ),
        file=out,
    )
    print(file=out)
    print(
        format_timing_series(
            "Figure 11(b) - SQL generation time, ACMDL queries", acmdl_outcomes
        ),
        file=out,
    )
    print(file=out)

    print(
        stage_breakdown(
            tpch_engine,
            [spec.text for spec in TPCH_QUERIES],
            "Per-stage pipeline breakdown (traced) - TPCH query set",
        ),
        file=out,
    )
    print(file=out)
    print(
        stage_breakdown(
            acmdl_engine,
            [spec.text for spec in ACMDL_QUERIES],
            "Per-stage pipeline breakdown (traced) - ACMDL query set",
        ),
        file=out,
    )
