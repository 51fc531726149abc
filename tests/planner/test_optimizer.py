"""The optimizer: plan decisions, DP join ordering, memoization,
staleness, access-path choices, executor integration, and plan quality
against the greedy runtime order (``CompiledPlan(select, db)``)."""

import statistics

import pytest

from repro.backends import create_backend
from repro.backends.normalize import rows_match
from repro.cli import load_dataset
from repro.engine import KeywordSearchEngine
from repro.observability import Tracer
from repro.planner import (
    DP_RELATION_LIMIT,
    StatisticsCatalog,
    params_for_backend,
    recommend_indexes,
)
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.plan import CompiledPlan, q_error
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType
from repro.sql.parser import parse


@pytest.fixture(scope="module")
def tpch():
    database, _, _, _ = load_dataset("tpch")
    return database


@pytest.fixture(scope="module")
def executor(tpch):
    return Executor(tpch)


def plan_for(executor, sql, tracer=None):
    return executor.plan_for(parse(sql), tracer or Tracer())


JOIN_AGG_SQL = (
    'SELECT N.nname, SUM(O.amount) AS total FROM Supplier S, Customer C, '
    '"Order" O, Nation N WHERE S.nationkey = N.nationkey AND '
    "C.nationkey = N.nationkey AND O.custkey = C.custkey GROUP BY N.nname"
)


class TestDecisions:
    def test_dp_search_on_join_query(self, executor):
        plan = plan_for(executor, JOIN_AGG_SQL)
        decisions = plan.decisions
        assert decisions is not None
        assert decisions.search == "dp"
        assert len(decisions.join_steps) == 3
        # every alias is joined exactly once
        merged = set()
        for step in decisions.join_steps:
            assert not (step.left & step.right)
            merged |= step.left | step.right
        assert merged == {"S", "C", "O", "N"}

    def test_dp_defers_the_expanding_edge(self, executor):
        # S.nationkey = N.nationkey and C.nationkey = N.nationkey form a
        # many-to-many pair through Nation; the greedy min-product pick
        # would join S with C's component early, but DP keeps the
        # expanding join late.  The first decided step must be a real
        # FK-ish edge (through Nation or Order), never S⋈C directly.
        plan = plan_for(executor, JOIN_AGG_SQL)
        first = plan.decisions.join_steps[0]
        assert first.left | first.right != {"S", "C"}

    def test_single_table_plan(self, executor):
        plan = plan_for(executor, "SELECT COUNT(*) FROM Region R")
        assert plan.decisions.search == "single"
        assert plan.decisions.join_steps == ()

    def test_estimates_are_recorded_per_scan(self, executor):
        plan = plan_for(executor, JOIN_AGG_SQL)
        scans = plan.decisions.scans
        assert set(scans) == {"S", "C", "O", "N"}
        assert scans["N"].base_rows == 25
        assert scans["O"].base_rows == 900

    def test_group_output_estimate(self, executor):
        plan = plan_for(executor, JOIN_AGG_SQL)
        decisions = plan.decisions
        # 25 nations: the GROUP BY estimate must be in that ballpark,
        # far below the joined cardinality
        assert decisions.est_groups is not None
        assert decisions.est_groups <= 25
        assert decisions.est_output < decisions.est_joined


class TestExecutionAgreement:
    @pytest.mark.parametrize(
        "sql",
        [
            JOIN_AGG_SQL,
            'SELECT C.cname FROM Customer C, "Order" O '
            "WHERE O.custkey = C.custkey AND O.amount > 50000",
            "SELECT R.rname, COUNT(N.nname) AS n FROM Region R, Nation N "
            "WHERE N.regionkey = R.regionkey GROUP BY R.rname",
        ],
    )
    def test_cost_and_off_agree(self, tpch, sql):
        select = parse(sql)
        on = Executor(tpch).execute(select)
        off = CompiledPlan(select, tpch).execute()
        assert on == off

    def test_observed_actuals_after_execute(self, executor):
        plan = plan_for(executor, JOIN_AGG_SQL)
        plan.execute(tracer=Tracer())
        run = plan.last_run
        assert run is not None
        labels = [obs.label for obs in run.operators]
        assert "output" in labels
        assert any(label.startswith("scan ") for label in labels)
        for obs in run.operators:
            assert obs.q_error >= 1.0

    def test_explain_carries_estimates_and_actuals(self, executor):
        plan = plan_for(executor, JOIN_AGG_SQL)
        plan.execute(tracer=Tracer())
        text = plan.explain()
        assert "est≈" in text
        assert "actual" in text
        assert "join order" in text


#: T2 and T3 of the paper's TPC-H workload, as the translator emits them
T2_INNER_SQL = (
    "SELECT S1.nationkey, COUNT(L1.orderkey) AS numorderkey FROM "
    "(SELECT DISTINCT suppkey, orderkey, partkey FROM Lineitem) L1, Supplier S1 "
    "WHERE L1.suppkey = S1.suppkey GROUP BY S1.nationkey"
)
T3_SQL = (
    "SELECT P1.partkey, COUNT(L1.orderkey) AS numorderkey FROM "
    "(SELECT DISTINCT partkey, orderkey, suppkey FROM Lineitem) L1, Part P1 "
    "WHERE L1.partkey = P1.partkey AND P1.pname LIKE '%royal olive%' "
    "GROUP BY P1.partkey"
)


class TestEstimatesThroughDerivedTables:
    def test_join_on_a_derived_column_uses_the_base_column_ndv(self, executor):
        # L1.suppkey has Lineitem.suppkey's 60 distinct values, not one
        # per row: every Lineitem row finds its supplier.  The plan
        # counts Lineitem per suppkey before the join (eager
        # aggregation), so the 3,343 joined rows are the counts' sum
        plan = plan_for(executor, T2_INNER_SQL)
        result = plan.execute()
        assert sum(count for _, count in result.rows) == 3343
        (step,) = plan.decisions.join_steps
        assert q_error(step.est_rows, 3343) <= 2.0

    def test_distinct_output_is_capped_by_the_ndv_product(self, executor):
        plan = plan_for(executor, "SELECT DISTINCT suppkey FROM Lineitem")
        assert plan.decisions.est_output == pytest.approx(60, rel=0.25)

    def test_key_filtered_scan_records_the_push_estimate(self, executor):
        plan = plan_for(executor, T3_SQL)
        tracer = Tracer()
        with tracer.span("run"):
            plan.execute(tracer)
        assert tracer.trace.counter("key_filters_pushed") == 1
        scan = plan.last_run.observation("scan L1")
        unfiltered = plan.decisions.scans["L1"].est_rows
        assert scan.estimated < unfiltered / 4
        assert scan.q_error <= 4.0

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_push_rule_on_both_cost_presets(self, tpch, backend):
        # sideways keys are pushed when one probe per key plus the
        # expected candidates cost less than the scan: T3's handful of
        # part keys do, T2's supplier keys (all 60 of 60) never
        from repro.planner import Optimizer

        optimizer = Optimizer(tpch, cost_params=params_for_backend(backend))
        rows = len(tpch.table("Lineitem").rows)
        few = optimizer.key_filter_rows("Lineitem", "partkey", 2)
        assert few is not None and few < rows / 10
        assert optimizer.key_filter_rows("Lineitem", "suppkey", 60) is None
        assert optimizer.key_filter_rows("Lineitem", "partkey", 0) == 0.0


class TestMemoAndStaleness:
    def _database(self):
        schema = DatabaseSchema("memo")
        schema.add_relation(
            "A", [("id", DataType.INT), ("bid", DataType.INT)], ["id"]
        )
        schema.add_relation(
            "B", [("id", DataType.INT), ("v", DataType.INT)], ["id"]
        )
        db = Database(schema)
        db.load("A", [(i, i % 5) for i in range(20)])
        db.load("B", [(i, i * 2) for i in range(5)])
        return db

    SQL = "SELECT A.id FROM A, B WHERE A.bid = B.id"

    def test_memo_hit_on_repeat_decide(self):
        db = self._database()
        executor = Executor(db)
        tracer = Tracer()
        executor.plan_for(parse(self.SQL), tracer)
        assert len(executor.optimizer._memo) == 1
        before = tracer.registry.counter("planner_memo_hits")
        # bypass the plan cache to force a fresh compile + decide
        executor.clear_plan_cache()
        # clear_plan_cache also invalidates the memo; re-seed, then hit
        executor.plan_for(parse(self.SQL), tracer)
        executor._plan_cache.clear()  # both levels: no plan to bind from
        executor._shape_plans.clear()
        executor.plan_for(parse(self.SQL), tracer)
        assert tracer.registry.counter("planner_memo_hits") > before

    def test_bound_plan_decides_for_its_own_literals(self):
        # statements of one shape share a compiled plan, not its decisions
        db = self._database()
        executor = Executor(db)
        tracer = Tracer()
        few = executor.plan_for(parse(self.SQL + " AND A.id < 2"), tracer)
        many = executor.plan_for(parse(self.SQL + " AND A.id < 19"), tracer)
        assert tracer.registry.counter("plan_shape_hits") == 1
        fresh = Executor(db).plan_for(parse(self.SQL + " AND A.id < 19"))
        assert many.decisions == fresh.decisions != few.decisions
        assert many.explain() == fresh.explain()
        assert len(executor._shape_plans) == 1  # one plan per shape

    def test_bound_plan_with_equal_sample_hits_is_a_memo_hit(self):
        db = self._database()
        executor = Executor(db)
        tracer = Tracer()
        one = executor.plan_for(parse(self.SQL + " AND A.bid = 1"), tracer)
        before = tracer.registry.counter("planner_memo_hits")
        # bid 1 and bid 2 each keep 4 of A's 20 rows
        two = executor.plan_for(parse(self.SQL + " AND A.bid = 2"), tracer)
        assert tracer.registry.counter("planner_memo_hits") == before + 1
        assert two is not one and two.decisions is one.decisions

    def test_mutation_between_searches_recollects_stats(self):
        # the satellite regression: mutate a table between two searches
        # and the second one must plan from fresh statistics — by
        # continuing the table's pass, not running it again — and answer
        # from fresh data on every backend
        db = self._database()
        executor = Executor(db)
        others = [create_backend(name, db) for name in ("sqlite", "disk")]
        tracer = Tracer()
        select = parse(self.SQL)

        def rows_everywhere():
            counts = {len(executor.execute(select, tracer=tracer).rows)}
            counts.update(len(backend.execute(select).rows) for backend in others)
            (count,) = counts
            return count

        try:
            assert rows_everywhere() == 20
            catalog = executor.optimizer.catalog
            assert catalog.builds == 2  # A and B, one full pass each
            db.insert("A", (99, 0))
            assert rows_everywhere() == 21
            assert catalog.profile("A").rows == 21
            assert catalog.builds == 2  # caught up, not rebuilt
            assert tracer.registry.counter("planner_stats_catchups") == 1
            db.load("A", [(100, 77), (101, 1)])  # 77 joins nothing
            assert rows_everywhere() == 22
            assert catalog.profile("A").rows == 23
            assert catalog.profile("A").column("bid").maximum == 77
            assert catalog.builds == 2
            assert tracer.registry.counter("planner_stats_catchups") == 2
            # B was never written: its first profile served throughout
            assert tracer.registry.counter("planner_stats_rows_profiled") == (
                20 + 5 + 1 + 2
            )
        finally:
            for backend in others:
                backend.close()

    def test_clear_cache_drops_memo_keeps_stats(self):
        # clear_cache() drops what is derived from statements; statistics
        # are derived from data and follow the tables' versions instead
        db = self._database()
        engine = KeywordSearchEngine(db)
        executor = engine.executor
        executor.plan_for(parse(self.SQL), Tracer())
        optimizer = executor.optimizer
        kept = optimizer.catalog.profile("A")
        assert len(optimizer._memo) == 1
        engine.clear_cache()
        assert len(optimizer._memo) == 0
        assert len(executor._plan_cache) == len(executor._shape_plans) == 0
        assert optimizer.catalog.cached_relations == ("a", "b")
        assert optimizer.catalog.profile("A") is kept
        db.insert("A", (99, 0))
        engine.clear_cache()
        caught_up = optimizer.catalog.profile("A")
        assert caught_up.rows == 21 and optimizer.catalog.builds == 2
        # ANALYZE is the one call that profiles afresh regardless
        analyzed = engine.analyze_stats()
        assert analyzed["A"] == caught_up and analyzed["A"] is not caught_up
        assert optimizer.catalog.builds == 4

    def test_optimizer_off_never_builds_planner_state(self):
        db = self._database()
        plan = CompiledPlan(parse(self.SQL), db)
        assert len(plan.execute().rows) == 20
        assert plan.decisions is None
        assert plan.last_run is None


class TestGreedyFallback:
    def test_wide_join_uses_runtime_greedy(self):
        # DP_RELATION_LIMIT + 1 copies of one table, chained on id
        schema = DatabaseSchema("wide")
        schema.add_relation("W", [("id", DataType.INT)], ["id"])
        db = Database(schema)
        db.load("W", [(i,) for i in range(4)])
        n = DP_RELATION_LIMIT + 1
        aliases = [f"W{i}" for i in range(n)]
        froms = ", ".join(f"W {a}" for a in aliases)
        conds = " AND ".join(
            f"{aliases[i]}.id = {aliases[i + 1]}.id" for i in range(n - 1)
        )
        sql = f"SELECT {aliases[0]}.id FROM {froms} WHERE {conds}"
        executor = Executor(db)
        tracer = Tracer()
        plan = executor.plan_for(parse(sql), tracer)
        assert plan.decisions.search == "greedy-runtime"
        assert plan.decisions.join_steps == ()
        assert tracer.registry.counter("planner_greedy_fallbacks") >= 1
        result = executor.execute(parse(sql))
        assert len(result.rows) == 4


#: the >= 4-relation join-aggregates, where join order dominates.  The
#: cyclic ones (TPC-H Q5 shape: the supplier-customer nation/region edge
#: closes a cycle) are the traps: the greedy min-product pick joins the
#: expanding many-to-many edge early, the DP search defers it.
BIG_JOINS = {
    "q5-cycle": (
        "tpch",
        'SELECT N.nname, SUM(O.amount) AS rev FROM Customer C, "Order" O, '
        "Lineitem L, Supplier S, Nation N WHERE C.custkey = O.custkey "
        "AND O.orderkey = L.orderkey AND L.suppkey = S.suppkey "
        "AND S.nationkey = C.nationkey AND N.nationkey = C.nationkey "
        "GROUP BY N.nname",
    ),
    "region-cycle": (
        "tpch",
        "SELECT R.rname, SUM(O.amount) AS rev FROM Region R, Nation N1, "
        'Nation N2, Customer C, "Order" O, Lineitem L, Supplier S '
        "WHERE C.nationkey = N1.nationkey AND S.nationkey = N2.nationkey "
        "AND N1.regionkey = R.regionkey AND N2.regionkey = R.regionkey "
        "AND O.custkey = C.custkey AND L.orderkey = O.orderkey "
        "AND L.suppkey = S.suppkey GROUP BY R.rname",
    ),
    "nation-revenue": (
        "tpch",
        "SELECT N.nname, SUM(O.amount) AS total FROM Supplier S, Customer C, "
        '"Order" O, Nation N WHERE S.nationkey = N.nationkey '
        "AND C.nationkey = N.nationkey AND O.custkey = C.custkey "
        "GROUP BY N.nname",
    ),
    "france-parts": (
        "tpch",
        "SELECT P.type, COUNT(L.quantity) AS n FROM Part P, Lineitem L, "
        "Supplier S, Nation N WHERE L.partkey = P.partkey "
        "AND L.suppkey = S.suppkey AND S.nationkey = N.nationkey "
        "AND N.nname = 'FRANCE' GROUP BY P.type",
    ),
    "publisher-authors": (
        "acmdl",
        "SELECT U.name, COUNT(A.lname) AS n FROM Publisher U, Proceeding P, "
        "Paper R, Write W, Author A WHERE P.publisherid = U.publisherid "
        "AND R.procid = P.procid AND W.paperid = R.paperid "
        "AND W.authorid = A.authorid GROUP BY U.name",
    ),
    "editor-papers": (
        "acmdl",
        "SELECT E.lname, COUNT(R.paperid) AS n FROM Editor E, Edit D, "
        "Proceeding P, Paper R WHERE D.editorid = E.editorid "
        "AND D.procid = P.procid AND R.procid = P.procid GROUP BY E.lname",
    ),
    "long-proceedings": (
        "acmdl",
        "SELECT A.lname, COUNT(P.procid) AS n FROM Author A, Write W, "
        "Paper R, Proceeding P WHERE W.authorid = A.authorid "
        "AND W.paperid = R.paperid AND R.procid = P.procid "
        "AND P.pages > 200 GROUP BY A.lname",
    ),
}


class TestPlanQuality:
    """Cost-chosen vs greedy order, counted in rows, not timed."""

    @pytest.fixture(scope="class")
    def databases(self, tpch):
        return {"tpch": tpch, "acmdl": load_dataset("acmdl")[0]}

    @staticmethod
    def _run(plan):
        tracer = Tracer()
        with tracer.span("run"):
            result = plan.execute(tracer)
        return result, tracer.trace.counter("hash_join_rows")

    @pytest.mark.parametrize("qid", list(BIG_JOINS))
    def test_cost_order_joins_no_more_rows_than_greedy(self, databases, qid):
        dataset, sql = BIG_JOINS[qid]
        database, select = databases[dataset], parse(sql)
        cost, cost_rows = self._run(Executor(database).plan_for(select))
        greedy, greedy_rows = self._run(CompiledPlan(select, database))
        # a different join order sums floats in a different order
        assert rows_match(cost.rows, greedy.rows)
        assert cost_rows <= greedy_rows
        if qid == "region-cycle":
            assert cost_rows < greedy_rows

    def test_median_q_error(self, databases):
        q_errors = []
        for dataset, sql in BIG_JOINS.values():
            plan = Executor(databases[dataset]).plan_for(parse(sql))
            plan.execute()
            q_errors.extend(plan.last_run.q_errors())
        # the estimator may be wrong in the tails, not in the middle
        assert statistics.median(q_errors) <= 4.0


class TestCostParams:
    def test_backend_presets(self):
        assert params_for_backend("memory").backend == "memory"
        assert params_for_backend("disk").backend == "disk"
        assert params_for_backend("anything-else").backend == "memory"
        assert (
            params_for_backend("disk").index_probe
            > params_for_backend("memory").index_probe
        )


class TestRecommendIndexes:
    def test_recommends_selective_columns_on_large_tables(self, tpch):
        pairs = recommend_indexes(StatisticsCatalog(tpch))
        tables_in_order = [table for table, _ in pairs]
        assert tables_in_order == sorted(tables_in_order)
        tables = set(tables_in_order)
        # only tables clearing the row floor qualify (Region has 5 rows)
        assert "Region" not in tables
        assert any(table == "Order" for table, _ in pairs)
