"""Plan analyzers: index-lookup soundness, pushed-predicate scope, the
planner advisories (S022 row budget, S023 skipped index) and the schema
arguments behind DISTINCT elision and sideways key passing (S024)."""

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.plan_analyzers import analyze_plan
from repro.datasets import university_database
from repro.relational.executor import Executor
from repro.relational.join import KeySource
from repro.relational.plan import CompiledPlan
from repro.relational.scan import IndexLookup, TableScan
from repro.sql.ast import ColumnRef, eq
from repro.sql.parser import parse


@pytest.fixture(scope="module")
def database():
    return university_database()


@pytest.fixture(scope="module")
def cost_executor(database):
    return Executor(database)


def bare_plan(database, sql):
    # soundness checks need no optimizer decisions; the planner
    # advisories (S022/S023) go through cost_executor
    return CompiledPlan(parse(sql), database)


def plan_for(executor, sql):
    return executor.plan_for(parse(sql))


def table_scans(plan):
    return [scan for scan in plan.scans if isinstance(scan, TableScan)]


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestCleanPlans:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT Sname FROM Student WHERE Sname LIKE '%Green%'",
            "SELECT Sname FROM Student WHERE Age = 24",
            "SELECT C.Code, COUNT(L.Lid) AS n FROM Course C, Lecturer L, "
            "Teach T WHERE T.Code = C.Code AND T.Lid = L.Lid GROUP BY C.Code",
            "SELECT AVG(n) AS a FROM (SELECT Code, COUNT(Sid) AS n "
            "FROM Enrol GROUP BY Code) X",
        ],
    )
    def test_compiled_plans_are_sound(self, database, sql):
        assert analyze_plan(bare_plan(database, sql)) == []


class TestBrokenLookups:
    def _scan_with_lookup(self, database, sql):
        plan = bare_plan(database, sql)
        scans = [
            scan
            for scan in table_scans(plan)
            if any(p.lookup is not None for p in scan.pushed)
        ]
        assert scans, "expected a pushed index lookup"
        return plan, scans[0]

    def test_s020_contains_on_numeric_column(self, database):
        plan, scan = self._scan_with_lookup(
            database, "SELECT Sid FROM Student WHERE Sname LIKE '%Green%'"
        )
        pushed = next(p for p in scan.pushed if p.lookup is not None)
        pushed.lookup = IndexLookup("contains", "Student", "Age", "Green")
        assert codes(analyze_plan(plan)) == ["S020"]

    def test_s020_numeric_eq_on_text_column(self, database):
        plan, scan = self._scan_with_lookup(
            database, "SELECT Sid FROM Student WHERE Age = 24"
        )
        pushed = next(p for p in scan.pushed if p.lookup is not None)
        pushed.lookup = IndexLookup("numeric-eq", "Student", "Sname", 24)
        assert codes(analyze_plan(plan)) == ["S020"]

    def test_s020_non_numeric_probe(self, database):
        plan, scan = self._scan_with_lookup(
            database, "SELECT Sid FROM Student WHERE Age = 24"
        )
        pushed = next(p for p in scan.pushed if p.lookup is not None)
        pushed.lookup = IndexLookup("numeric-eq", "Student", "Age", "24")
        assert codes(analyze_plan(plan)) == ["S020"]

    def test_s020_unknown_kind(self, database):
        plan, scan = self._scan_with_lookup(
            database, "SELECT Sid FROM Student WHERE Age = 24"
        )
        pushed = next(p for p in scan.pushed if p.lookup is not None)
        pushed.lookup = IndexLookup("bitmap", "Student", "Age", 24)
        assert codes(analyze_plan(plan)) == ["S020"]

    def test_s021_lookup_column_not_in_relation(self, database):
        plan, scan = self._scan_with_lookup(
            database, "SELECT Sid FROM Student WHERE Age = 24"
        )
        pushed = next(p for p in scan.pushed if p.lookup is not None)
        pushed.lookup = IndexLookup("numeric-eq", "Student", "Credit", 24)
        assert codes(analyze_plan(plan)) == ["S021"]

    def test_never_lookups_are_fine(self, database):
        plan, scan = self._scan_with_lookup(
            database, "SELECT Sid FROM Student WHERE Age = 24"
        )
        pushed = next(p for p in scan.pushed if p.lookup is not None)
        pushed.lookup = IndexLookup("never", "Student", "Age", None)
        assert analyze_plan(plan) == []


class TestPushedScope:
    def test_s021_foreign_alias_in_pushed_predicate(self, database):
        plan = bare_plan(
            database, "SELECT S.Sid FROM Student S WHERE S.Age = 24"
        )
        scan = table_scans(plan)[0]
        assert scan.pushed, "expected a pushed predicate"
        scan.pushed[0].expr = eq(
            ColumnRef("Age", "S"), ColumnRef("Credit", "C")
        )
        found = analyze_plan(plan)
        assert "S021" in codes(found)

    def test_derived_scans_recurse(self, database):
        plan = bare_plan(
            database,
            "SELECT AVG(n) AS a FROM (SELECT Code, COUNT(Sid) AS n "
            "FROM Enrol WHERE Grade LIKE '%A%' GROUP BY Code) X",
        )
        # sanity: the derived scan's subplan is analyzed (clean here)
        assert analyze_plan(plan) == []


class TestPlannerAdvisories:
    def test_no_advisories_without_decisions(self, database):
        plan = bare_plan(database, "SELECT Sid FROM Student WHERE Age = 24")
        assert plan.decisions is None
        assert analyze_plan(plan, row_budget=0) == []

    def test_s022_row_budget_exceeded(self, cost_executor):
        plan = plan_for(
            cost_executor, "SELECT S.Sname, E.Grade FROM Student S, Enrol E"
        )
        found = [d for d in analyze_plan(plan, row_budget=1) if d.code == "S022"]
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_s022_silent_under_budget(self, cost_executor):
        plan = plan_for(cost_executor, "SELECT Sid FROM Student")
        assert "S022" not in codes(analyze_plan(plan))

    def test_s023_skipped_index_is_info(self, cost_executor):
        # tiny table: a seq scan beats paying the index probe, so the
        # cost model skips the available hash lookup — and says so
        plan = plan_for(
            cost_executor, "SELECT Sid FROM Student WHERE Age = 24"
        )
        skipped = [
            pushed
            for scan in table_scans(plan)
            for pushed in scan.pushed
            if pushed.lookup is not None and not pushed.use_lookup
        ]
        assert skipped, "expected the cost model to skip the index probe"
        found = [d for d in analyze_plan(plan) if d.code == "S023"]
        assert found and all(d.severity is Severity.INFO for d in found)

    def test_s023_does_not_fail_check(self, cost_executor):
        from repro.analysis.diagnostics import AnalysisReport

        plan = plan_for(
            cost_executor, "SELECT Sid FROM Student WHERE Age = 24"
        )
        report = AnalysisReport()
        report.extend(analyze_plan(plan))
        assert not report.has_findings


KEYED_SQL = (
    "SELECT S.Sname, COUNT(E.Code) AS n FROM (SELECT DISTINCT Sid, Code "
    "FROM Enrol) E, Student S WHERE E.Sid = S.Sid AND S.Age = 24 "
    "GROUP BY S.Sname"
)


class TestKeyPassingSoundness:
    """S024 trusts nothing the plan computed: each case breaks what the
    plan advertises and expects the AST to contradict it."""

    def test_sound_plans_are_clean(self, cost_executor):
        plan = plan_for(cost_executor, KEYED_SQL)
        assert plan.key_sources["E"] == [
            KeySource("Sid", ColumnRef("Sid", "S"), "S")
        ]
        elided = plan_for(cost_executor, "SELECT DISTINCT Sid, Code, Grade FROM Enrol")
        assert elided.distinct_elided_key == ("Sid", "Code")
        assert "S024" not in codes(analyze_plan(plan) + analyze_plan(elided))

    @pytest.mark.parametrize(
        "sql, reason",
        [
            ("SELECT DISTINCT Sid, Grade FROM Enrol", "drops key column"),
            (
                "SELECT DISTINCT E.Sid, E.Code FROM Enrol E, Course C "
                "WHERE E.Code = C.Code",
                "one base table",
            ),
            (
                "SELECT DISTINCT Sid, Code FROM (SELECT Sid, Code FROM Enrol) E",
                "one base table",
            ),
            ("SELECT DISTINCT Code, Credit + 0 AS c FROM Course", "plain column"),
            (
                "SELECT DISTINCT Code, COUNT(Sid) AS n FROM Enrol GROUP BY Code",
                "aggregates",
            ),
        ],
    )
    def test_s024_unjustified_elision(self, database, sql, reason):
        plan = bare_plan(database, sql)
        assert plan.distinct_elided_key is None
        plan.distinct_elided_key = ("Code",)
        found = [d for d in analyze_plan(plan) if d.code == "S024"]
        assert len(found) == 1 and found[0].severity is Severity.ERROR
        assert reason in found[0].message

    @staticmethod
    def _credit_join(executor, inner):
        return plan_for(
            executor,
            f"SELECT S.Sname FROM ({inner}) E, Student S WHERE E.Credit = S.Age",
        )

    def test_renamed_plain_column_is_a_plain_copy(self, cost_executor):
        plan = self._credit_join(
            cost_executor, "SELECT C.Credit AS Credit, Code FROM Course C"
        )
        assert plan.key_sources["E"] == [
            KeySource("Credit", ColumnRef("Age", "S"), "S")
        ]
        assert "S024" not in codes(analyze_plan(plan))

    @pytest.mark.parametrize(
        "inner",
        [
            "SELECT Credit, COUNT(Code) AS n FROM Course GROUP BY Credit",
            "SELECT Credit, Code FROM Course LIMIT 2",
            "SELECT Credit + 0 AS Credit, Code FROM Course",
        ],
    )
    def test_s024_key_column_is_not_a_plain_copy(self, cost_executor, inner):
        plan = self._credit_join(cost_executor, inner)
        assert plan.key_sources == {}
        plan.key_sources = {
            "E": [KeySource("Credit", ColumnRef("Age", "S"), "S")]
        }
        found = [d for d in analyze_plan(plan) if d.code == "S024"]
        assert len(found) == 1 and "not a plain copy" in found[0].message

    def test_s024_type_class_mismatch(self, database):
        # a private executor: the shared one caches the plan mutated here
        plan = plan_for(Executor(database), KEYED_SQL)
        plan.key_sources = {"E": [KeySource("Sid", ColumnRef("Age", "S"), "S")]}
        found = [d for d in analyze_plan(plan) if d.code == "S024"]
        assert len(found) == 1 and "come from S.Age" in found[0].message
