"""The cost-chosen join order must be result-identical to the greedy
runtime order on every workload statement, for both engines, normalized
and unnormalized.

Same SQL, same database, two join orders and access-path choices —
``Executor`` plans with the optimizer, ``CompiledPlan(select, db)``
without one — equal :class:`QueryResult`s.  Equality against an
independent engine (SQLite) on the same statements lives in
``tests/backends/test_differential.py``.
"""

import functools

from repro.backends.differential import collect_statements
from repro.engine import KeywordSearchEngine
from repro.relational.executor import Executor
from repro.relational.plan import CompiledPlan


@functools.lru_cache(maxsize=None)
def _workload(dataset):
    return collect_statements(dataset)


def _assert_orders_agree(dataset, source):
    database, statements = _workload(dataset)
    executor = Executor(database)
    selects = [select for _, origin, select in statements if origin == source]
    assert selects
    for select in selects:
        # join reordering may permute rows, but the result must stay
        # multiset-identical (QueryResult == canonicalizes)
        assert executor.execute(select) == CompiledPlan(select, database).execute()


class TestSemanticEngineEquivalence:
    def test_small_datasets(self):
        _assert_orders_agree("university", "semantic")
        _assert_orders_agree("enrolment", "semantic")

    def test_tpch(self):
        _assert_orders_agree("tpch", "semantic")

    def test_acmdl(self):
        _assert_orders_agree("acmdl", "semantic")

    def test_tpch_unnormalized(self):
        _assert_orders_agree("tpch-unnorm", "semantic")

    def test_acmdl_unnormalized(self):
        _assert_orders_agree("acmdl-unnorm", "semantic")


class TestSqakEquivalence:
    def test_tpch(self):
        _assert_orders_agree("tpch", "sqak")

    def test_acmdl(self):
        _assert_orders_agree("acmdl", "sqak")

    def test_tpch_unnormalized(self):
        _assert_orders_agree("tpch-unnorm", "sqak")

    def test_acmdl_unnormalized(self):
        _assert_orders_agree("acmdl-unnorm", "sqak")


class TestEngineKnob:
    def test_clear_cache_drops_plans(self, university_db):
        engine = KeywordSearchEngine(university_db)
        engine.execute("Green SUM Credit")
        assert engine.executor.plan_cache_len > 0
        engine.clear_cache()
        assert engine.executor.plan_cache_len == 0
