"""The dialect layer, checked against SQLite's own parser.

``tests/sql/test_render.py`` covers the ANSI renderer's shape; this file
covers what the dialect layer adds — and, crucially, it round-trips the
escaping rules through ``sqlite3`` itself, so "escaped correctly" means
"a real SQL parser reads back the original value", not "matches our own
expectations".
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, strategies as st

from repro.errors import SqlRenderError
from repro.sql.ast import BinaryOp, ColumnRef, Contains, Literal, Select, SelectItem, TableRef
from repro.sql.parser import parse
from repro.sql.render import (
    ANSI_DIALECT,
    SQLITE_DIALECT,
    check_renderable_text,
    dialect_for,
    escape_string,
    quote_identifier,
    render,
)

# Text a SQL string literal can carry: anything except the control
# characters check_renderable_text rejects.
renderable_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters=[chr(c) for c in range(0x20) if chr(c) not in "\n\t\r"]
        + [chr(0x7F)],
    )
)


@pytest.fixture()
def conn():
    connection = sqlite3.connect(":memory:")
    yield connection
    connection.close()


class TestStringEscaping:
    def test_embedded_quotes_are_doubled(self):
        assert escape_string("O'Brien") == "'O''Brien'"

    @given(renderable_text)
    def test_round_trips_through_sqlite_parser(self, value):
        connection = sqlite3.connect(":memory:")
        try:
            got = connection.execute(f"SELECT {escape_string(value)}").fetchone()[0]
        finally:
            connection.close()
        assert got == value

    @pytest.mark.parametrize("bad", ["a\x00b", "x\x1by", "\x7f", "bell\x07"])
    def test_control_characters_rejected(self, bad):
        with pytest.raises(SqlRenderError, match="control character"):
            escape_string(bad)
        with pytest.raises(SqlRenderError):
            check_renderable_text(bad)

    @pytest.mark.parametrize("ok", ["line\nbreak", "tab\there", "cr\rhere"])
    def test_legal_control_characters_survive(self, ok, conn):
        assert conn.execute(f"SELECT {escape_string(ok)}").fetchone()[0] == ok


class TestIdentifierQuoting:
    def test_ansi_quotes_only_our_keywords(self):
        assert quote_identifier("Student", ANSI_DIALECT) == "Student"
        assert quote_identifier("Order", ANSI_DIALECT) == '"Order"'

    def test_sqlite_quotes_everything(self):
        assert quote_identifier("Student", SQLITE_DIALECT) == "`Student`"
        assert quote_identifier("Date", SQLITE_DIALECT) == "`Date`"

    def test_embedded_quote_is_doubled(self):
        assert quote_identifier("we`ird", SQLITE_DIALECT) == "`we``ird`"
        assert quote_identifier('we"ird', SQLITE_DIALECT) == '`we"ird`'

    @pytest.mark.parametrize("name", ["Order", "Group", 'col"umn', "we`ird", "from", "Date"])
    def test_round_trips_through_sqlite_parser(self, name, conn):
        quoted = quote_identifier(name, SQLITE_DIALECT)
        conn.execute(f"CREATE TABLE {quoted} (x INTEGER)")
        conn.execute(f"INSERT INTO {quoted} VALUES (1)")
        assert conn.execute(f"SELECT x FROM {quoted}").fetchone() == (1,)


class TestLikeEscaping:
    def _contains_sql(self, phrase, dialect):
        select = Select(
            items=(SelectItem(ColumnRef("x")),),
            from_items=(TableRef("t", "t"),),
            where=Contains(ColumnRef("x"), phrase),
        )
        return render(select, dialect)

    def test_ansi_leaves_wildcards_alone(self):
        sql = self._contains_sql("100%", ANSI_DIALECT)
        assert "LIKE '%100%%'" in sql and "ESCAPE" not in sql

    def test_sqlite_escapes_and_declares_escape_char(self):
        sql = self._contains_sql("100%", SQLITE_DIALECT)
        assert "LIKE '%100\\%%' ESCAPE '\\'" in sql

    @pytest.mark.parametrize(
        "phrase,rows,expected",
        [
            ("100%", ["100% done", "100x done"], ["100% done"]),
            ("a_c", ["a_c", "abc"], ["a_c"]),
            ("back\\slash", ["back\\slash", "backslash"], ["back\\slash"]),
        ],
    )
    def test_wildcard_phrases_match_literally_in_sqlite(
        self, phrase, rows, expected, conn
    ):
        conn.execute("CREATE TABLE t (x TEXT)")
        conn.executemany("INSERT INTO t VALUES (?)", [(r,) for r in rows])
        got = [r[0] for r in conn.execute(self._contains_sql(phrase, SQLITE_DIALECT))]
        assert got == expected


class TestDialectRendering:
    def test_boolean_literals(self):
        select = parse("SELECT COUNT(*) FROM t WHERE b = TRUE")
        assert "b = TRUE" in render(select, ANSI_DIALECT)
        assert "`b` = 1" in render(select, SQLITE_DIALECT)

    def test_division_cast_only_on_sqlite(self):
        expr = BinaryOp("/", ColumnRef("a"), Literal(2))
        select = Select(
            items=(SelectItem(expr),), from_items=(TableRef("t", "t"),)
        )
        assert "CAST" not in render(select, ANSI_DIALECT)
        assert "CAST(`a` AS REAL) / 2" in render(select, SQLITE_DIALECT)

    def test_cast_makes_sqlite_divide_truly(self, conn):
        assert conn.execute("SELECT 7 / 2").fetchone() == (3,)  # the trap
        assert conn.execute("SELECT CAST(7 AS REAL) / 2").fetchone() == (3.5,)

    def test_ansi_dialect_is_byte_identical_to_default(self):
        select = parse(
            "SELECT S.Sname, SUM(C.Credit) FROM Student S, Course C "
            "WHERE S.Sname = 'Green' GROUP BY S.Sname"
        )
        assert render(select) == render(select, ANSI_DIALECT)

    def test_dialect_lookup(self):
        assert dialect_for("sqlite") is SQLITE_DIALECT
        assert dialect_for("ansi") is ANSI_DIALECT
        with pytest.raises(SqlRenderError, match="unknown SQL dialect"):
            dialect_for("postgres")
