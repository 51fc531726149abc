"""The ``repro check`` subcommand and the CLI analysis surface."""

import io

import pytest

from repro.analysis.check import CHECK_DATASETS, run_check
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.cli import main
from repro.engine import KeywordSearchEngine


class TestCheckCommand:
    def test_clean_dataset_exits_zero(self):
        out = io.StringIO()
        code = main(
            ["check", "--dataset", "tpch", "--skip-sqak", "--top", "3"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "tpch: clean" in text
        assert "0 with findings" in text

    def test_both_engines_run_by_default(self):
        out = io.StringIO()
        code = run_check(["--dataset", "tpch", "--top", "2"], out=out)
        assert code == 0
        # 8 semantic + SQAK-expressible statements
        assert "artifacts analyzed" in out.getvalue()

    def test_findings_flip_the_exit_code(self, monkeypatch):
        bad = AnalysisReport()
        bad.add(Diagnostic("P009", Severity.ERROR, "injected"))
        monkeypatch.setattr(
            KeywordSearchEngine,
            "analyze",
            lambda self, text, k=None, tracer=None: bad,
        )
        out = io.StringIO()
        code = run_check(
            ["--dataset", "tpch", "--skip-sqak", "--top", "1"], out=out
        )
        assert code == 1
        assert "P009" in out.getvalue()
        assert "tpch: error" in out.getvalue()

    def test_dataset_choices(self):
        assert CHECK_DATASETS == (
            "tpch",
            "tpch-unnorm",
            "acmdl",
            "acmdl-unnorm",
        )
        with pytest.raises(SystemExit):
            run_check(["--dataset", "university"], out=io.StringIO())


class TestCliAnalysisFlags:
    def test_strict_search_succeeds_on_clean_query(self):
        out = io.StringIO()
        code = main(
            [
                "--dataset",
                "university",
                "--strict",
                "COUNT Lecturer GROUPBY Course",
            ],
            out=out,
        )
        assert code == 0
        assert "numLid" in out.getvalue()

    def test_explain_prints_diagnostics_section(self):
        out = io.StringIO()
        code = main(
            [
                "--dataset",
                "university",
                "--explain",
                "COUNT Lecturer GROUPBY Course",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "-- diagnostics" in text
        assert "no diagnostics" in text
