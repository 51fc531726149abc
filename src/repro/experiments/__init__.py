"""The paper's evaluation harness: query specs, runner, reporting."""

from repro.experiments.queries import ACMDL_QUERIES, TPCH_QUERIES, QuerySpec, spec_by_id
from repro.experiments.report import (
    format_answer_table,
    format_comparison_row,
    format_timing_series,
)
from repro.experiments.ranking_quality import (
    RankingOutcome,
    RankingReport,
    intended_rank,
    ranking_report,
)
from repro.experiments.runner import (
    QueryOutcome,
    pick_interpretation,
    run_query,
    run_suite,
)

__all__ = [
    "ACMDL_QUERIES",
    "QueryOutcome",
    "QuerySpec",
    "RankingOutcome",
    "RankingReport",
    "TPCH_QUERIES",
    "intended_rank",
    "ranking_report",
    "format_answer_table",
    "format_comparison_row",
    "format_timing_series",
    "pick_interpretation",
    "run_query",
    "run_suite",
    "spec_by_id",
]
