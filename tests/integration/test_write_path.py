"""What a 50-row load costs the next reader: 50 rows' worth.

The counters here are the ones a traced request emits, asserted the way
``test_plan_equivalence.py`` asserts ``key_filters_pushed``: after a
warm-up over the whole TPC-H workload on all three backends, 50 rows are
loaded into ``Order`` and one probe is traced per backend.  Nothing is
rebuilt — no statistics pass, no materialization, no index — the delta
is applied, and plans over tables the load did not touch are still
cache hits.
"""

from repro.backends import create_backend
from repro.backends.differential import collect_statements
from repro.observability import Tracer
from repro.sql.parser import parse

#: reads Order only (T1), Part and Supplier only, and everything but Order (T6)
ORDER_ONLY = parse('SELECT AVG(O1.amount) AS avgamount FROM "Order" O1')
PART_SUPPLIER = parse(
    "SELECT S.sname, COUNT(P.partkey) AS parts FROM Part P, Supplier S "
    "WHERE P.size = S.nationkey GROUP BY S.sname"
)
NOT_ORDER = parse(
    "SELECT S.sname, COUNT(L.partkey) AS parts FROM Lineitem L, Supplier S "
    "WHERE L.suppkey = S.suppkey GROUP BY S.sname"
)
PROBES = (ORDER_ONLY, PART_SUPPLIER, NOT_ORDER)


def test_fifty_row_load_is_applied_as_fifty_rows():
    database, statements = collect_statements("tpch", k=2, skip_sqak=True)
    backends = {
        name: create_backend(name, database, **options)
        for name, options in (
            ("memory", {}),
            ("sqlite", {}),
            ("disk", {"pool_capacity": 16}),
        )
    }
    try:
        for backend in backends.values():
            for select in [select for _, _, select in statements] + list(PROBES):
                backend.execute(select)
        indexes = (database.text_index, database.numeric_index)
        first = 9_000_000
        database.load(
            "Order",
            [(first + i, 1 + i % 7, 100.0 + i, "1997-01-01", "1-URGENT") for i in range(50)],
        )
        counters = {}
        for name, backend in backends.items():
            tracer = Tracer()
            with tracer.span("probes"):
                rows = [backend.execute(select, tracer=tracer).rows for select in PROBES]
            counters[name] = tracer.trace.counters()
            assert len(rows[0]) == 1  # the mean, over 950 orders now
    finally:
        for backend in backends.values():
            backend.close()
    orders = len(database.table("Order").rows)
    assert orders == 950

    for name in ("memory", "disk"):  # the two that plan with statistics
        seen = counters[name]
        # Order's pass was continued over the 50 new rows; Lineitem's,
        # Part's and Supplier's profiles were served as they were
        assert seen.get("planner_stats_builds", 0) == 0
        assert seen["planner_stats_catchups"] == 1
        assert seen["planner_stats_rows_profiled"] == 50
        # only the plan over Order was compiled again
        assert seen["plan_cache_misses"] == 1
        assert seen["plan_cache_hits"] == 2
    for name in ("sqlite", "disk"):  # the two that keep a copy
        seen = counters[name]
        assert seen.get("materializations", 0) == 0
        assert seen.get("materializations_reused", 0) == 0
        assert seen["materialized_rows"] == 50
    assert "materialized_rows" not in counters["memory"]
    # the in-memory indexes are the objects they were, 50 rows longer
    assert (database.text_index, database.numeric_index) == indexes
    assert database.numeric_index.positions_for_value("Order", "amount", 149.0) == {
        orders - 1
    }
