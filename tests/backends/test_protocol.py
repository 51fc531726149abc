"""The Backend protocol and registry: names, dialects, construction."""

from __future__ import annotations

import pytest

from repro.backends import (
    Backend,
    MemoryBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.backends import base as backends_base
from repro.engine import KeywordSearchEngine
from repro.errors import BackendError, ReproError
from repro.sql.parser import parse
from repro.sql.render import render


class TestRegistry:
    def test_both_backends_registered_memory_first(self):
        names = available_backends()
        assert names[0] == "memory"
        assert "sqlite" in names

    def test_create_backend_loads_the_database(self, university_db):
        backend = create_backend("memory", university_db)
        assert backend.database is university_db
        assert backend.execute(parse("SELECT AVG(Credit) FROM Course")).rows == [
            (4.0,)
        ]

    def test_create_backend_unknown_name(self, university_db):
        with pytest.raises(BackendError, match="unknown backend 'oracle'"):
            create_backend("oracle", university_db)

    def test_register_backend_is_pluggable(self, university_db):
        class NullBackend(MemoryBackend):
            name = "null"

        register_backend("null", NullBackend)
        try:
            assert "null" in available_backends()
            backend = create_backend("null", university_db)
            assert isinstance(backend, NullBackend)
        finally:
            del backends_base._REGISTRY["null"]
        assert "null" not in available_backends()


class TestDialects:
    def test_dialects_differ(self, university_db):
        select = parse("SELECT Sname FROM Student")
        memory = create_backend("memory", university_db)
        sqlite = create_backend("sqlite", university_db)
        try:
            assert render(select, memory.dialect) == "SELECT Sname FROM Student"
            assert render(select, sqlite.dialect) == "SELECT `Sname` FROM `Student`"
        finally:
            sqlite.close()


class TestMisspeltColumn:
    """A name that is no column raises on every backend.  SQLite reads a
    double-quoted name that matches no column as a string literal, so
    its dialect quotes in backticks, which it never reads as text."""

    @pytest.mark.parametrize("backend_name", ["memory", "disk", "sqlite"])
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT Snmae FROM Student",
            "SELECT Sid FROM Student WHERE Snmae = 'Snmae'",
        ],
    )
    def test_raises_in_the_select_list_and_the_where_clause(
        self, university_db, backend_name, sql
    ):
        backend = create_backend(backend_name, university_db)
        try:
            with pytest.raises(ReproError, match="(unknown|no such) column:? Snmae"):
                backend.execute(parse(sql))
        finally:
            backend.close()


class TestOrderByADroppedColumn:
    """SQL sorts by a column the select list drops when the statement
    has no DISTINCT and no aggregation; every backend does."""

    @pytest.mark.parametrize("backend_name", ["memory", "disk", "sqlite"])
    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT Sid FROM Student ORDER BY Age", ["s3", "s1", "s2"]),
            ("SELECT Sid FROM Student ORDER BY Age DESC", ["s2", "s1", "s3"]),
            ("SELECT S.Sid FROM Student S ORDER BY S.Age DESC LIMIT 2", ["s2", "s1"]),
            ("SELECT Sname FROM Student ORDER BY Age, Sid", ["Green", "George", "Green"]),
            ("SELECT E.Sid FROM Enrol E, Course C WHERE E.Code = C.Code "
             "ORDER BY C.Credit DESC, E.Sid, C.Code", None),
            # a derived table sorted by the column it drops, and an empty one
            ("SELECT T.Sid FROM (SELECT Sid FROM Student ORDER BY Age DESC LIMIT 2) T "
             "ORDER BY T.Sid", ["s1", "s2"]),
            ("SELECT T.Sid FROM (SELECT Sid FROM Student WHERE Age > 99 ORDER BY Age) T", []),
        ],
    )
    def test_sorts_by_it(self, university_db, backend_name, sql, expected):
        backend = create_backend(backend_name, university_db)
        oracle = create_backend("sqlite", university_db)
        try:
            got = [row[0] for row in backend.execute(parse(sql)).rows]
            want = [row[0] for row in oracle.execute(parse(sql)).rows]
        finally:
            backend.close()
            oracle.close()
        assert got == want
        if expected is not None:
            assert got == expected


class TestMemoryBackend:
    def test_execute_without_database_raises(self):
        with pytest.raises(BackendError, match="no database loaded"):
            MemoryBackend().execute("SELECT 1 FROM Student")

    def test_accepts_sql_text_and_ast(self, university_db):
        backend = MemoryBackend()
        backend.load(university_db)
        from_text = backend.execute("SELECT SUM(Credit) FROM Course")
        from_ast = backend.execute(parse("SELECT SUM(Credit) FROM Course"))
        assert from_text.rows == from_ast.rows == [(12.0,)]

    def test_wrapping_an_executor_shares_its_plan_cache(self, university_db):
        engine = KeywordSearchEngine(university_db)
        backend = MemoryBackend(executor=engine.executor)
        assert backend.executor is engine.executor
        assert backend.database is university_db

    def test_load_resets_a_foreign_executor(self, university_db, tpch_db):
        backend = MemoryBackend()
        backend.load(university_db)
        first = backend.executor
        backend.load(tpch_db)
        assert backend.executor is not first
        assert backend.executor.database is tpch_db


class TestEngineIntegration:
    def test_engine_default_backend_is_memory(self, university_engine):
        assert university_engine.backend.name == "memory"

    def test_get_backend_caches_instances(self, university_db):
        engine = KeywordSearchEngine(university_db)
        sqlite = engine.get_backend("sqlite")
        assert sqlite is engine.get_backend("sqlite")
        assert engine.get_backend() is engine.backend

    def test_search_results_agree_across_backends(self, university_db):
        engine = KeywordSearchEngine(university_db)
        on_memory = engine.search("Green SUM Credit").best.execute()
        on_sqlite = engine.search("Green SUM Credit", backend="sqlite").best.execute()
        assert sorted(on_memory.rows) == sorted(on_sqlite.rows)

    def test_engine_constructed_on_sqlite_backend(self, university_db):
        engine = KeywordSearchEngine(university_db, backend="sqlite")
        assert engine.backend.name == "sqlite"
        result = engine.execute("AVG Credit")
        assert result.rows == [(4.0,)]

    def test_one_option_set_serves_every_backend(self, university_db):
        # pool_capacity is a disk option: sqlite and memory must not be
        # handed it (that was a TypeError on the first sqlite request)
        engine = KeywordSearchEngine(
            university_db, backend_options={"pool_capacity": 49}
        )
        rows = {
            name: engine.search("Green SUM Credit", backend=name).best.execute().rows
            for name in ("memory", "sqlite", "disk")
        }
        assert rows["memory"] == rows["sqlite"] == rows["disk"]
        assert engine.get_backend("disk").pool_capacity == 49

    def test_option_no_backend_accepts_is_rejected(self, university_db):
        with pytest.raises(ValueError, match="pool_capcity"):
            KeywordSearchEngine(
                university_db, backend_options={"pool_capcity": 49}
            )
        # the plan policy is not an option of any backend
        with pytest.raises(ValueError, match="optimizer"):
            KeywordSearchEngine(
                university_db, backend_options={"optimizer": "off"}
            )

    def test_abstract_backend_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Backend()  # abstract: load/execute missing
