"""A write is visible to the next search, with no ``clear_cache()``.

The paper's running example is two students who share a name: summing
their credits into one number is the value-mixing error disambiguation
exists to prevent.  Here the second *George* arrives by a write after
the engine (and the service's result cache) already answered the query
for one George.  The text level and the result cache are stamped with
every table's version (``KeywordSearchEngine.data_versions``), so the
next search re-matches and re-disambiguates, and the next request
recomputes, instead of serving the one-George answer.  Shape entries
carry no stamp: the re-match hits them.

The property at the end interleaves appends with searches on one engine
and compares every answer with a fresh engine's over the same data.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import university_database
from repro.engine import KeywordSearchEngine
from repro.service import QueryService, ServiceConfig, ServiceRequest

QUERY = "Student George SUM Credit"
ONE_GEORGE = [(12.0,)]
TWO_GEORGES = [("s1", 12.0), ("s99", 5.0)]


def add_second_george(database) -> None:
    database.insert("Student", ("s99", "George", 30))
    database.insert("Enrol", ("s99", "c1", "A"))


def answer(engine, text, k=None):
    """``[(sql, rows as a multiset)]`` of the top-k interpretations."""
    return [
        (interpretation.sql_compact, Counter(interpretation.rows()))
        for interpretation in engine.search(text, k=k)
    ]


@pytest.mark.parametrize("backend", ["memory", "sqlite", "disk"])
def test_second_george_is_told_apart_without_clear_cache(backend):
    database = university_database()
    engine = KeywordSearchEngine(database, backend=backend)
    try:
        assert engine.search(QUERY).best.rows() == ONE_GEORGE
        add_second_george(database)
        assert sorted(engine.search(QUERY).best.rows()) == TWO_GEORGES
    finally:
        engine.backend.close()


def test_service_recomputes_a_cached_response_after_a_write():
    database = university_database()
    engine = KeywordSearchEngine(database)
    service = QueryService(ServiceConfig(max_workers=1, cache_ttl_s=60.0))
    service.register_dataset("university", engine)
    request = ServiceRequest(query=QUERY, k=1)
    with service:
        first = service.serve(request, timeout=30.0)
        assert (first.cache, first.payload["best"]["rows"]) == ("miss", [[12.0]])
        assert service.serve(request, timeout=30.0).cache == "hit"
        add_second_george(database)
        second = service.serve(request, timeout=30.0)
        assert second.cache == "miss"
        assert sorted(map(tuple, second.payload["best"]["rows"])) == TWO_GEORGES
        # the recomputed response is cached again under the new stamp
        assert service.serve(request, timeout=30.0).cache == "hit"
        # the stale entry was replaced, not kept beside its successor
        assert service.health()["cache_entries"] == 1


def test_write_rematches_through_the_shape_level():
    database = university_database()
    engine = KeywordSearchEngine(database)
    engine.search(QUERY)
    add_second_george(database)
    hits = engine.metrics.counter("shape_cache_hits")
    warm = answer(engine, QUERY)
    assert engine.metrics.counter("shape_cache_hits") == hits + 1
    assert warm == answer(KeywordSearchEngine(database), QUERY)
    # unchanged data: the text level answers again
    texts = engine.metrics.counter("pattern_cache_hits")
    assert answer(engine, QUERY) == warm
    assert engine.metrics.counter("pattern_cache_hits") == texts + 1
    assert engine.metrics.counter("shape_cache_hits") == hits + 1


TEXTS = (
    QUERY,
    "Green SUM Credit",
    "George COUNT Course",
    "COUNT Student GROUPBY Course",
    "Java COUNT Student",
    "Student Green AVG Age",
    "Credit 5 COUNT Student",
)
NAMES = st.sampled_from(["George", "Green", "Java", "Steven", "Nova"])
COURSES = st.lists(st.sampled_from(["c1", "c2", "c3"]), unique=True, max_size=3)
WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), NAMES, COURSES),
        st.tuples(st.just("load"), st.lists(st.tuples(NAMES, COURSES), max_size=3)),
        st.tuples(st.just("course"), NAMES, st.sampled_from([3.0, 5.0, 7.0])),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=12, deadline=None)
@given(WRITES)
def test_interleaved_writes_answer_like_a_fresh_engine(writes):
    """Every text is searched before the first write and after each one,
    on one engine that never drops its caches."""
    database = university_database()
    engine = KeywordSearchEngine(database)
    added = [0]

    def new_id(prefix):
        added[0] += 1
        return f"{prefix}{100 + added[0]}"

    def students(entries):
        rows, enrols = [], []
        for name, codes in entries:
            sid = new_id("s")
            rows.append((sid, name, 20 + len(codes)))
            enrols.extend((sid, code, "B") for code in codes)
        return rows, enrols

    def answers_like_a_fresh_engine():
        fresh = KeywordSearchEngine(database)
        for text in TEXTS:
            assert answer(engine, text, k=3) == answer(fresh, text, k=3), text

    answers_like_a_fresh_engine()
    for write in writes:
        if write[0] == "insert":
            (row,), enrols = students([write[1:]])
            database.insert("Student", row)
            for enrol in enrols:
                database.insert("Enrol", enrol)
        elif write[0] == "load":
            rows, enrols = students(write[1])
            database.load("Student", rows)
            database.load("Enrol", enrols)
        else:
            database.insert("Course", (new_id("c"), write[1], write[2]))
        answers_like_a_fresh_engine()
