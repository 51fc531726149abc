"""Compiled physical plans: closure semantics, index pushdown, caching.

These tests pin the places where closures and index-backed scans could
plausibly diverge from SQL semantics (NULLs, lazy errors, substring
matching), with SQLite as the independent reference.  The full workload
runs against SQLite in ``tests/backends/test_differential.py``.
"""

import inspect

import pytest

from repro.backends import (
    MemoryBackend,
    SqliteBackend,
    available_backends,
    create_backend,
)
from repro.backends.differential import diff_statement
from repro.errors import SqlExecutionError
from repro.observability import Tracer
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.plan import CompiledPlan
from repro.relational.types import DataType
from repro.sql.parser import parse


@pytest.fixture()
def shop_db():
    db = Database.from_definitions(
        "shop",
        [
            (
                "Item",
                [
                    ("Id", DataType.INT),
                    ("Name", DataType.TEXT),
                    ("Price", DataType.FLOAT),
                    ("Stock", DataType.INT),
                ],
                ["Id"],
                [],
            ),
        ],
    )
    db.load(
        "Item",
        [
            (1, "royal olive", 4.5, 10),
            (2, "Roy's bread", 2.0, 0),
            (3, "plain olive", 4.5, None),
            (4, None, None, 7),
            (5, "viceroy tea", 9.0, 10),
        ],
    )
    return db


def execute(db, sql):
    return Executor(db).execute(sql)


class TestCompiledSemantics:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT Name FROM Item",
            "SELECT Name, Price FROM Item WHERE Price > 3",
            "SELECT Name FROM Item WHERE Price = 4.5 AND Stock = 10",
            "SELECT Name FROM Item WHERE Stock IS NULL",
            "SELECT Name FROM Item WHERE Stock IS NOT NULL",
            "SELECT Id, Price * 2 FROM Item",
            "SELECT COUNT(*) FROM Item",
            "SELECT Price, COUNT(*) FROM Item GROUP BY Price",
            "SELECT DISTINCT Price FROM Item",
            "SELECT Name FROM Item ORDER BY Name DESC LIMIT 2",
            "SELECT Name FROM Item WHERE Name LIKE '%roy%'",
        ],
    )
    def test_matches_sqlite(self, shop_db, sql):
        memory = MemoryBackend()
        memory.load(shop_db)
        sqlite = SqliteBackend()
        sqlite.load(shop_db)
        try:
            assert diff_statement(memory, sqlite, parse(sql)) is None
        finally:
            sqlite.close()

    def test_null_comparisons_not_satisfied(self, shop_db):
        result = execute(shop_db, "SELECT Id FROM Item WHERE Price > 0")
        assert sorted(result.column("Id")) == [1, 2, 3, 5]  # NULL price out

    def test_division_by_zero_raised_lazily(self, shop_db):
        # the error surfaces at execution (on the offending row), never at
        # plan-compilation time
        sql = "SELECT Id / Stock FROM Item WHERE Stock IS NOT NULL"
        plan = CompiledPlan(parse(sql), shop_db)
        with pytest.raises(SqlExecutionError, match="division by zero"):
            plan.execute()

    def test_mixed_type_comparison_raises_like_interpreter(self, shop_db):
        sql = "SELECT Id FROM Item WHERE Name = 3"
        with pytest.raises(SqlExecutionError, match="cannot compare"):
            execute(shop_db, sql)

    def test_unknown_column_raises(self, shop_db):
        with pytest.raises(SqlExecutionError, match="unknown column"):
            execute(shop_db, "SELECT Nope FROM Item WHERE Nope = 1")


class TestIndexPushdown:
    def test_contains_pushdown_is_substring_exact(self, shop_db):
        """'roy' must match 'royal', "Roy's" and 'viceroy' — token-exact
        candidate generation would miss the first and last."""
        result = execute(shop_db, "SELECT Id FROM Item WHERE Name LIKE '%roy%'")
        assert sorted(result.column("Id")) == [1, 2, 5]

    def test_contains_uses_inverted_index(self, shop_db):
        plan = CompiledPlan(
            parse("SELECT Id FROM Item WHERE Name LIKE '%olive%'"), shop_db
        )
        assert "InvertedIndex" in plan.explain()
        tracer = Tracer()
        with tracer.span("t"):
            result = plan.execute(tracer)
        assert sorted(result.column("Id")) == [1, 3]
        assert tracer.trace.counter("index_scans") >= 1
        assert tracer.trace.counter("rows_skipped_by_index") == 3  # rows 2, 4, 5

    def test_numeric_equality_uses_index(self, shop_db):
        plan = CompiledPlan(
            parse("SELECT Id FROM Item WHERE Price = 4.5"), shop_db
        )
        assert "NumericIndex" in plan.explain()
        assert sorted(plan.execute().column("Id")) == [1, 3]

    def test_text_equality_uses_hash_index(self, shop_db):
        plan = CompiledPlan(
            parse("SELECT Id FROM Item WHERE Name = 'plain olive'"), shop_db
        )
        assert "HashIndex" in plan.explain()
        assert plan.execute().column("Id") == [3]

    def test_equality_with_null_literal_matches_nothing(self, shop_db):
        assert len(execute(shop_db, "SELECT Id FROM Item WHERE Price = NULL")) == 0

    def test_index_results_track_mutations(self, shop_db):
        # one statement per index family (inverted, numeric, hash), on
        # every backend, across loads and an insert: each answers from
        # the data as it is now, never from positions or copies taken
        # before the write
        backends = [create_backend(name, shop_db) for name in available_backends()]
        item = shop_db.table("Item")
        statements = {
            "olive": "SELECT Id FROM Item WHERE Name LIKE '%olive%'",
            "4.5": "SELECT Id FROM Item WHERE Price = 4.5",
            "tea": "SELECT Id FROM Item WHERE Name = 'viceroy tea'",
        }

        def ids():
            answers = {
                tuple(
                    tuple(sorted(backend.execute(sql).column("Id")))
                    for sql in statements.values()
                )
                for backend in backends
            }
            (answer,) = answers  # the backends agree
            return dict(zip(statements, answer))

        try:
            assert ids() == {"olive": (1, 3), "4.5": (1, 3), "tea": (5,)}
            shop_db.load("Item", [(6, "green olive", 4.5, 1)])
            assert ids() == {"olive": (1, 3, 6), "4.5": (1, 3, 6), "tea": (5,)}
            shop_db.load("Item", [(7, "viceroy tea", 1.0, 2), (8, "olive oil", 9.0, 1)])
            assert ids() == {"olive": (1, 3, 6, 8), "4.5": (1, 3, 6), "tea": (5, 7)}
            item.insert((9, "black olive", 4.5, 2))
            assert ids() == {"olive": (1, 3, 6, 8, 9), "4.5": (1, 3, 6, 9), "tea": (5, 7)}
        finally:
            for backend in backends:
                backend.close()

    def test_pushdown_survives_direct_insert(self, shop_db):
        # rows appended via table.insert() bypass load(); the table's
        # version must still move (its row count is half of it)
        executor = Executor(shop_db)
        sql = "SELECT Id FROM Item WHERE Price = 4.5"
        assert len(executor.execute(sql)) == 2
        shop_db.table("Item").insert((7, "cheap olive", 4.5, 2))
        assert sorted(executor.execute(sql).column("Id")) == [1, 3, 7]


def test_executor_has_one_execution_path():
    # no mode switch: any execution-strategy keyword is a TypeError
    assert list(inspect.signature(Executor).parameters) == [
        "database", "tracer", "validate", "backend_label",
    ]
    assert list(inspect.signature(CompiledPlan).parameters) == [
        "select", "database", "optimizer", "tracer",
    ]


class TestPlanCache:
    def test_warm_equals_cold(self, shop_db):
        executor = Executor(shop_db)
        sql = "SELECT Name FROM Item WHERE Price > 3 ORDER BY Name"
        cold = executor.execute(sql)
        warm = executor.execute(sql)
        assert cold == warm
        assert cold.rows == warm.rows

    def test_cache_hit_reuses_plan(self, shop_db):
        executor = Executor(shop_db)
        select = parse("SELECT Id FROM Item")
        first = executor.plan_for(select)
        second = executor.plan_for(select)
        assert first is second

    def test_equivalent_ast_shares_plan(self, shop_db):
        # keyed by rendered SQL: structurally equal ASTs hit the same entry
        executor = Executor(shop_db)
        first = executor.plan_for(parse("SELECT Id FROM Item"))
        second = executor.plan_for(parse("SELECT Id FROM Item"))
        assert first is second

    def test_clear_plan_cache_recompiles(self, shop_db):
        executor = Executor(shop_db)
        select = parse("SELECT Id FROM Item")
        first = executor.plan_for(select)
        executor.clear_plan_cache()
        assert executor.plan_for(select) is not first

    def test_mutation_invalidates_cached_plan(self, shop_db):
        executor = Executor(shop_db)
        select = parse("SELECT Id FROM Item")
        item = shop_db.table("Item")
        for mutate in (
            lambda: shop_db.load("Item", [(8, "new", 1.0, 1)]),
            lambda: shop_db.insert("Item", (9, "newer", 2.0, 1)),
            lambda: item.extend([(10, "newest", 3.0, 1)]),
        ):
            before = executor.plan_for(select)
            assert executor.plan_for(select) is before
            mutate()
            assert executor.plan_for(select) is not before

    def test_mutation_spares_plans_over_other_tables(self):
        db = Database.from_definitions(
            "two",
            [
                ("A", [("id", DataType.INT)], ["id"], []),
                ("B", [("id", DataType.INT)], ["id"], []),
            ],
        )
        executor = Executor(db)
        over_a = executor.plan_for(parse("SELECT id FROM A"))
        nested = executor.plan_for(
            parse("SELECT X.id FROM (SELECT id FROM B) X, A WHERE X.id = A.id")
        )
        tracer = Tracer()
        db.load("B", [(1,)])
        with tracer.span("t"):
            assert executor.plan_for(parse("SELECT id FROM A"), tracer) is over_a
            assert executor.plan_for(nested.select, tracer) is not nested
        assert tracer.trace.counter("plan_cache_hits") == 1
        assert tracer.trace.counter("plan_cache_misses") == 1

    def test_cache_is_bounded_lru(self, shop_db):
        executor = Executor(shop_db)
        executor._plan_cache.capacity = executor._shape_plans.capacity = 2
        a = executor.plan_for(parse("SELECT Id FROM Item"))
        executor.plan_for(parse("SELECT Name FROM Item"))
        executor.plan_for(parse("SELECT Id FROM Item"))  # refresh a
        executor.plan_for(parse("SELECT Price FROM Item"))  # evicts Name
        assert len(executor._plan_cache) == 2
        assert executor.plan_for(parse("SELECT Id FROM Item")) is a

    def test_shape_hit_refreshes_the_shape_level(self, shop_db):
        # shapes A, B, A again (a shape hit), then C: B is the least
        # recently used shape, so C evicts B and A stays bindable
        executor = Executor(shop_db)
        executor._shape_plans.capacity = 2
        tracer = Tracer()
        with tracer.span("t"):
            for sql in (
                "SELECT Name FROM Item WHERE Id = 1",  # A
                "SELECT Name FROM Item WHERE Stock = 10",  # B
                "SELECT Name FROM Item WHERE Id = 2",  # A, bound
                "SELECT Name FROM Item WHERE Price = 4.5",  # C
            ):
                executor.plan_for(parse(sql), tracer)
            assert tracer.trace.counter("plan_shape_hits") == 1
            executor.plan_for(parse("SELECT Name FROM Item WHERE Id = 3"), tracer)
            assert tracer.trace.counter("plan_shape_hits") == 2  # A kept
            misses = tracer.trace.counter("plan_cache_misses")
            executor.plan_for(parse("SELECT Name FROM Item WHERE Stock = 11"), tracer)
            assert tracer.trace.counter("plan_cache_misses") == misses + 1  # B gone

    def test_cache_counters(self, shop_db):
        executor = Executor(shop_db)
        tracer = Tracer()
        with tracer.span("t"):
            executor.execute("SELECT Id FROM Item", tracer=tracer)
            executor.execute("SELECT Id FROM Item", tracer=tracer)
        assert tracer.trace.counter("plan_cache_misses") == 1
        assert tracer.trace.counter("plan_cache_hits") == 1
        assert tracer.trace.counter("compiled_predicates") == 0


class TestExplain:
    def test_explain_renders_without_executing(self, shop_db):
        plan = CompiledPlan(
            parse(
                "SELECT Price, COUNT(*) AS n FROM Item "
                "WHERE Name LIKE '%olive%' GROUP BY Price ORDER BY n LIMIT 3"
            ),
            shop_db,
        )
        text = plan.explain()
        assert "scan Item" in text
        assert "push" in text
        assert "group by" in text
        assert "limit 3" in text

    def test_explain_shows_join_strategy(self, university_db):
        plan = CompiledPlan(
            parse(
                "SELECT S.Sname FROM Student S, Enrol E "
                "WHERE S.Sid = E.Sid AND E.Grade = 'A+' AND S.Sname <> E.Grade"
            ),
            university_db,
        )
        lines = plan.explain().splitlines()
        assert "equi-join S.Sid = E.Sid" in lines
        # a non-equi conjunct across scans is a filter after the join
        assert "filter S.Sname <> E.Grade" in lines
