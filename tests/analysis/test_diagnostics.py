"""The shared diagnostic model: severities, reports, code catalog."""

import re

from repro.analysis.diagnostics import (
    CODE_CATALOG,
    AnalysisReport,
    Diagnostic,
    Severity,
)


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert max([Severity.WARNING, Severity.ERROR]) is Severity.ERROR

    def test_str(self):
        assert str(Severity.ERROR) == "error"
        assert str(Severity.WARNING) == "warning"


class TestDiagnostic:
    def test_str_full(self):
        diagnostic = Diagnostic(
            "S001", Severity.ERROR, "unknown table 'X'", "interpretation #1",
            hint="check FROM",
        )
        assert str(diagnostic) == (
            "S001 error: unknown table 'X' [interpretation #1] "
            "(hint: check FROM)"
        )

    def test_str_minimal(self):
        diagnostic = Diagnostic("P002", Severity.WARNING, "disconnected")
        assert str(diagnostic) == "P002 warning: disconnected"

    def test_frozen(self):
        diagnostic = Diagnostic("P001", Severity.ERROR, "x")
        try:
            diagnostic.code = "P002"
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("Diagnostic should be immutable")


class TestCodeCatalog:
    def test_code_shape(self):
        for code in CODE_CATALOG:
            assert re.fullmatch(r"[PSRC]\d{3}", code), code

    def test_known_codes_present(self):
        expected = (
            [f"P{i:03d}" for i in range(1, 10)]
            + [f"S{i:03d}" for i in range(1, 17)]
            + ["S020", "S021", "S022", "S023", "S024"]
            + [f"R{i:03d}" for i in range(1, 6)]
            + ["C002", "C007"]
        )
        for code in expected:
            assert code in CODE_CATALOG, code

    def test_descriptions_nonempty(self):
        assert all(CODE_CATALOG.values())


class TestAnalysisReport:
    def _sample(self):
        report = AnalysisReport()
        report.add(Diagnostic("P002", Severity.ERROR, "disconnected"))
        report.add(Diagnostic("P007", Severity.WARNING, "no variant"))
        report.add(Diagnostic("S013", Severity.INFO, "informational"))
        return report

    def test_rollups(self):
        report = self._sample()
        assert len(report) == 3
        assert [d.code for d in report] == ["P002", "P007", "S013"]
        assert [d.code for d in report.errors] == ["P002"]
        assert [d.code for d in report.warnings] == ["P007"]
        assert report.has_errors
        assert report.has_findings
        assert report.worst() is Severity.ERROR

    def test_info_only_is_not_a_finding(self):
        report = AnalysisReport()
        report.add(Diagnostic("S013", Severity.INFO, "note"))
        assert not report.has_findings
        assert not report.has_errors
        assert report.worst() is Severity.INFO

    def test_empty(self):
        report = AnalysisReport()
        assert len(report) == 0
        assert report.worst() is None
        assert report.render() == "no diagnostics"

    def test_codes_and_by_code(self):
        report = self._sample()
        assert report.codes() == ["P002", "P007", "S013"]
        assert len(report.by_code("P007")) == 1
        assert report.by_code("R001") == []

    def test_render_indent(self):
        report = AnalysisReport()
        report.add(Diagnostic("P002", Severity.ERROR, "disconnected"))
        assert report.render(indent="  ") == "  P002 error: disconnected"

    def test_extend(self):
        report = AnalysisReport()
        report.extend(self._sample().diagnostics)
        assert len(report) == 3
