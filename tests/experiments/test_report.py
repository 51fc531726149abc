"""Smoke test for the one-call full reproduction report."""

import io

from repro.experiments.report import full_report


def test_full_report_contains_all_tables_and_figures():
    out = io.StringIO()
    full_report(out)
    text = out.getvalue()
    for marker in (
        "Table 5",
        "Table 6",
        "Table 8",
        "Table 9",
        "Figure 11(a)",
        "Figure 11(b)",
    ):
        assert marker in text, marker
    # all sixteen query ids appear
    for qid in [f"T{i}" for i in range(1, 9)] + [f"A{i}" for i in range(1, 9)]:
        assert qid in text, qid
    # the headline disagreements are present
    assert "N.A." in text


def test_comparison_row_puts_both_systems_answers_on_one_line():
    from repro.baselines import SqakEngine
    from repro.datasets import generate_tpch
    from repro.engine import KeywordSearchEngine
    from repro.experiments.queries import TPCH_QUERIES
    from repro.experiments.report import format_comparison_row
    from repro.experiments.runner import run_query

    tpch = generate_tpch()
    by_qid = {spec.qid: spec for spec in TPCH_QUERIES}
    engine, sqak = KeywordSearchEngine(tpch), SqakEngine(tpch)
    row = format_comparison_row(run_query(engine, sqak, by_qid["T1"]))
    assert row.startswith("T1: ours=1 answer: ") and " | SQAK=1 answer: " in row
    # T7 is beyond SQAK: its side reads N.A.
    assert format_comparison_row(run_query(engine, sqak, by_qid["T7"])).endswith("| SQAK=N.A.")
