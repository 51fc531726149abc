"""The cost-chosen join order must be result-identical to the greedy
runtime order on every workload statement, for both engines, normalized
and unnormalized.

Same SQL, same database, two join orders and access-path choices —
``Executor`` plans with the optimizer, ``CompiledPlan(select, db)``
without one — equal :class:`QueryResult`s.  Equality against an
independent engine (SQLite) on the same statements lives in
``tests/backends/test_differential.py``.

The optimizer-less plan neither defers a derived scan nor filters one by
its sibling's keys, so it is also the reference for sideways key passing
and DISTINCT elision; the semantic sweeps assert each of the two fired
(``fired=``), so they cannot pass by never exercising them.
"""

import functools

from repro.backends.differential import collect_statements
from repro.engine import KeywordSearchEngine
from repro.observability import Tracer
from repro.relational.executor import Executor
from repro.relational.plan import CompiledPlan


@functools.lru_cache(maxsize=None)
def _workload(dataset):
    return collect_statements(dataset)


def _assert_orders_agree(dataset, source, fired=()):
    database, statements = _workload(dataset)
    executor = Executor(database)
    selects = [select for _, origin, select in statements if origin == source]
    assert selects
    tracer = Tracer()
    with tracer.span("sweep"):
        for select in selects:
            # join reordering may permute rows, but the result must stay
            # multiset-identical (QueryResult == canonicalizes)
            optimized = executor.execute(select, tracer=tracer)
            assert optimized == CompiledPlan(select, database).execute()
    for counter in fired:
        assert tracer.trace.counter(counter) > 0, counter


class TestSemanticEngineEquivalence:
    def test_small_datasets(self):
        _assert_orders_agree("university", "semantic")
        _assert_orders_agree("enrolment", "semantic")

    def test_tpch(self):
        _assert_orders_agree(
            "tpch", "semantic", fired=("key_filters_pushed", "distinct_elided")
        )

    def test_acmdl(self):
        _assert_orders_agree(
            "acmdl", "semantic", fired=("key_filters_pushed", "distinct_elided")
        )

    def test_tpch_unnormalized(self):
        _assert_orders_agree(
            "tpch-unnorm", "semantic", fired=("key_filters_pushed", "distinct_elided")
        )

    def test_acmdl_unnormalized(self):
        # no elision here: no DISTINCT projection of the universal
        # relation keeps its whole key
        _assert_orders_agree("acmdl-unnorm", "semantic", fired=("key_filters_pushed",))


class TestSqakEquivalence:
    def test_tpch(self):
        _assert_orders_agree("tpch", "sqak")

    def test_acmdl(self):
        _assert_orders_agree("acmdl", "sqak")

    def test_tpch_unnormalized(self):
        _assert_orders_agree("tpch-unnorm", "sqak")

    def test_acmdl_unnormalized(self):
        _assert_orders_agree("acmdl-unnorm", "sqak")


class TestEngineClearCache:
    def test_clear_cache_drops_plans(self, university_db):
        engine = KeywordSearchEngine(university_db)
        engine.execute("Green SUM Credit")
        assert len(engine.executor._plan_cache) > 0
        engine.clear_cache()
        assert len(engine.executor._plan_cache) == 0
