"""Integration-grade tests for the SQL executor against the university DB.

These use SQL text (exercising lexer + parser + executor together) and
assert against hand-computed answers over the Figure 1 data.
"""

import pytest

from repro.backends import create_backend
from repro.errors import SqlExecutionError
from repro.relational.database import Database
from repro.relational.executor import execute_sql
from repro.relational.schema import Column, DatabaseSchema, RelationSchema
from repro.relational.types import DataType


class TestBasicSelect:
    def test_full_scan(self, university_db):
        result = execute_sql(university_db, "SELECT Sid FROM Student")
        assert sorted(result.column("Sid")) == ["s1", "s2", "s3"]

    def test_filter_equality(self, university_db):
        result = execute_sql(
            university_db, "SELECT Sid FROM Student WHERE Sname = 'Green'"
        )
        assert sorted(result.column("Sid")) == ["s2", "s3"]

    def test_filter_contains(self, university_db):
        result = execute_sql(
            university_db, "SELECT Sid FROM Student WHERE Sname LIKE '%reen%'"
        )
        assert sorted(result.column("Sid")) == ["s2", "s3"]

    def test_filter_comparison(self, university_db):
        result = execute_sql(
            university_db, "SELECT Sname FROM Student WHERE Age >= 22"
        )
        assert sorted(result.column("Sname")) == ["George", "Green"]

    def test_projection_alias(self, university_db):
        result = execute_sql(university_db, "SELECT Sname AS name FROM Student")
        assert result.columns == ("name",)

    def test_distinct(self, university_db):
        result = execute_sql(university_db, "SELECT DISTINCT Sname FROM Student")
        assert sorted(result.column("Sname")) == ["George", "Green"]

    def test_order_by_and_limit(self, university_db):
        result = execute_sql(
            university_db, "SELECT Sname FROM Student ORDER BY Sname LIMIT 2"
        )
        assert result.column("Sname") == ["George", "Green"]

    def test_order_by_desc(self, university_db):
        result = execute_sql(
            university_db, "SELECT Age FROM Student ORDER BY Age DESC"
        )
        assert result.column("Age") == [24, 22, 21]

    def test_order_by_a_column_not_in_the_output_raises(self, university_db):
        """Where SQL forbids it: a DISTINCT or aggregated output has no
        row to read a dropped column from.  Without them the rows are
        sorted by it (``tests/backends/test_protocol.py``)."""
        for sql in [
            "SELECT DISTINCT Sname FROM Student ORDER BY Age",
            "SELECT Sname, COUNT(*) FROM Student GROUP BY Sname ORDER BY Age",
            "SELECT COUNT(*) FROM Student ORDER BY Age",
        ]:
            with pytest.raises(SqlExecutionError, match="must reference an output column"):
                execute_sql(university_db, sql)


class TestJoins:
    def test_two_way_join(self, university_db):
        result = execute_sql(
            university_db,
            "SELECT S.Sname, C.Title FROM Student S, Enrol E, Course C "
            "WHERE E.Sid = S.Sid AND E.Code = C.Code AND C.Title = 'Database'",
        )
        assert result.rows == [("George", "Database")]

    def test_self_join(self, university_db):
        # pairs of different students enrolled in the same course
        result = execute_sql(
            university_db,
            "SELECT DISTINCT S1.Sid, S2.Sid FROM Student S1, Enrol E1, "
            "Enrol E2, Student S2 WHERE E1.Sid = S1.Sid AND E2.Sid = S2.Sid "
            "AND E1.Code = E2.Code AND S1.Sid < S2.Sid",
        )
        assert sorted(result.rows) == [("s1", "s2"), ("s1", "s3"), ("s2", "s3")]

    def test_cartesian_product_when_no_join_condition(self, university_db):
        result = execute_sql(
            university_db, "SELECT F.Fname, D.Dname FROM Faculty F, Department D"
        )
        assert result.rows == [("Engineering", "CS")]

    def test_duplicate_alias_rejected(self, university_db):
        with pytest.raises(SqlExecutionError):
            execute_sql(
                university_db, "SELECT S.Sid FROM Student S, Course S"
            )

    def test_unknown_column_rejected(self, university_db):
        with pytest.raises(SqlExecutionError):
            execute_sql(university_db, "SELECT Nope FROM Student")

    def test_ambiguous_column_rejected(self, university_db):
        with pytest.raises(SqlExecutionError):
            execute_sql(
                university_db, "SELECT Sid FROM Student S, Enrol E"
            )

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_qualified_name_shared_by_two_columns_is_ambiguous(self, backend):
        # R1 has two columns named partkey; SQLite answers the first of
        # them, and reading either one silently is wrong
        schema = DatabaseSchema("parts")
        schema.add(RelationSchema(
            "P", [Column("partkey", DataType.INT), Column("size", DataType.INT)],
            ["partkey"],
        ))
        database = Database(schema)
        database.load("P", [(1, 10), (2, 20)])
        sql = (
            "SELECT R1.partkey FROM (SELECT P1.partkey, P2.size AS partkey "
            "FROM P P1, P P2 WHERE P1.partkey = P2.partkey) R1"
        )
        runner = create_backend(backend, database)
        try:
            with pytest.raises(SqlExecutionError, match="ambiguous column R1.partkey"):
                runner.execute(sql)
        finally:
            runner.close()


class TestAggregation:
    def test_global_aggregates(self, university_db):
        result = execute_sql(
            university_db,
            "SELECT COUNT(Sid) AS n, AVG(Age) AS a, MIN(Age) AS lo, "
            "MAX(Age) AS hi FROM Student",
        )
        assert result.rows == [(3, 67 / 3, 21, 24)]

    def test_count_star(self, university_db):
        assert execute_sql(university_db, "SELECT COUNT(*) FROM Enrol").scalar() == 6

    def test_group_by(self, university_db):
        result = execute_sql(
            university_db,
            "SELECT Sname, COUNT(Sid) AS n FROM Student GROUP BY Sname",
        )
        assert sorted(result.rows) == [("George", 1), ("Green", 2)]

    def test_group_by_with_join(self, university_db):
        result = execute_sql(
            university_db,
            "SELECT C.Code, COUNT(S.Sid) AS numSid FROM Student S, Enrol E, "
            "Course C WHERE E.Sid = S.Sid AND E.Code = C.Code GROUP BY C.Code",
        )
        assert sorted(result.rows) == [("c1", 3), ("c2", 1), ("c3", 2)]

    def test_count_distinct(self, university_db):
        result = execute_sql(
            university_db, "SELECT COUNT(DISTINCT Sname) FROM Student"
        )
        assert result.scalar() == 2

    def test_sum_of_empty_filter_is_null(self, university_db):
        result = execute_sql(
            university_db, "SELECT SUM(Age) FROM Student WHERE Sname = 'Nobody'"
        )
        assert result.scalar() is None

    def test_derived_table(self, university_db):
        result = execute_sql(
            university_db,
            "SELECT MAX(R.n) FROM (SELECT Sname, COUNT(Sid) AS n FROM Student "
            "GROUP BY Sname) R",
        )
        assert result.scalar() == 2

    def test_distinct_projection_subquery(self, university_db):
        result = execute_sql(
            university_db,
            "SELECT COUNT(T.Bid) FROM (SELECT DISTINCT Code, Bid FROM Teach) T "
            "WHERE T.Code = 'c1'",
        )
        assert result.scalar() == 2  # b1 deduplicated across lecturers


class TestQueryResult:
    def test_to_dicts(self, university_db):
        result = execute_sql(university_db, "SELECT Sid FROM Student LIMIT 1")
        assert result.to_dicts() == [{"Sid": "s1"}]

    def test_scalar_requires_1x1(self, university_db):
        result = execute_sql(university_db, "SELECT Sid FROM Student")
        with pytest.raises(SqlExecutionError):
            result.scalar()

    def test_format_table(self, university_db):
        result = execute_sql(university_db, "SELECT Sid, Age FROM Student")
        text = result.format_table()
        assert "Sid" in text and "s1" in text

    def test_format_table_truncates(self, university_db):
        result = execute_sql(university_db, "SELECT Sid FROM Enrol")
        assert "more rows" in result.format_table(max_rows=2)

    def test_equality_ignores_row_order(self, university_db):
        first = execute_sql(university_db, "SELECT Sid FROM Student ORDER BY Sid")
        second = execute_sql(
            university_db, "SELECT Sid FROM Student ORDER BY Sid DESC"
        )
        assert first == second

    def test_unknown_result_column(self, university_db):
        result = execute_sql(university_db, "SELECT Sid FROM Student")
        with pytest.raises(SqlExecutionError):
            result.column("nope")


class TestPaperSqlStatements:
    """The exact SQL statements printed in the paper, verbatim semantics."""

    def test_q1_sqak_mixes_greens(self, university_db):
        result = execute_sql(
            university_db,
            "SELECT S.Sname, SUM(C.Credit) FROM Student S, Enrol E, Course C "
            "WHERE E.Sid = S.Sid AND E.Code = C.Code AND S.Sname = 'Green' "
            "GROUP BY Sname",
        )
        assert result.rows == [("Green", 13.0)]

    def test_q1_semantic_distinguishes_greens(self, university_db):
        result = execute_sql(
            university_db,
            "SELECT S.Sid, SUM(C.Credit) AS t FROM Student S, Enrol E, Course C "
            "WHERE E.Sid = S.Sid AND E.Code = C.Code AND S.Sname = 'Green' "
            "GROUP BY S.Sid",
        )
        assert sorted(result.rows) == [("s2", 5.0), ("s3", 8.0)]

    def test_q2_duplicate_textbooks(self, university_db):
        wrong = execute_sql(
            university_db,
            "SELECT C.Title, SUM(B.Price) FROM Course C, Teach T, Textbook B "
            "WHERE T.Bid = B.Bid AND T.Code = C.Code AND C.Title = 'Java' "
            "GROUP BY C.Title",
        )
        assert wrong.rows[0][1] == 35.0
        right = execute_sql(
            university_db,
            "SELECT C.Title, SUM(B.Price) FROM Course C, "
            "(SELECT DISTINCT Code, Bid FROM Teach) T, Textbook B "
            "WHERE T.Bid = B.Bid AND T.Code = C.Code AND C.Title = 'Java' "
            "GROUP BY C.Title",
        )
        assert right.rows[0][1] == 25.0

    def test_example7_nested_average(self, university_db):
        result = execute_sql(
            university_db,
            "SELECT AVG(R.numLid) AS avgnumLid FROM "
            "(SELECT C.Code, COUNT(L.Lid) AS numLid FROM Lecturer L, Course C, "
            "(SELECT DISTINCT Lid, Code FROM Teach) T "
            "WHERE T.Lid = L.Lid AND T.Code = C.Code GROUP BY C.Code) R",
        )
        assert result.scalar() == pytest.approx(4 / 3)
