"""Engine compile cache and declared-FD validation."""

import pytest

from repro.engine import KeywordSearchEngine
from repro.errors import NormalizationError
from repro.unnormalized import validate_declared_fds


class TestCompileCache:
    def test_patterns_cached_per_query_text(self, university_db):
        engine = KeywordSearchEngine(university_db)
        first = engine.patterns("Green SUM Credit")
        second = engine.patterns("Green SUM Credit")
        assert first is second

    def test_different_queries_not_shared(self, university_db):
        engine = KeywordSearchEngine(university_db)
        assert engine.patterns("Green SUM Credit") is not engine.patterns(
            "Java SUM Price"
        )

    def test_clear_cache(self, university_db):
        engine = KeywordSearchEngine(university_db)
        first = engine.patterns("Green SUM Credit")
        engine.clear_cache()
        assert engine.patterns("Green SUM Credit") is not first

    def test_clear_cache_drops_every_backends_plans(self, university_db):
        engine = KeywordSearchEngine(university_db)
        for backend in ("memory", "disk"):
            engine.search("Green SUM Credit", backend=backend).best.execute()
        executors = [engine.executor, engine.get_backend("disk")._executor]
        assert all(len(e._plan_cache) and len(e.optimizer._memo) for e in executors)
        engine.clear_cache()
        assert [(len(e._plan_cache), len(e.optimizer._memo)) for e in executors] == [
            (0, 0), (0, 0)
        ]

    def test_cache_eviction_bounded(self, university_db):
        engine = KeywordSearchEngine(university_db)
        engine._pattern_cache.capacity = engine._shape_cache.capacity = 2
        engine.patterns("Green SUM Credit")
        engine.patterns("Java SUM Price")
        engine.patterns("COUNT Student GROUPBY Course")
        assert len(engine._pattern_cache) <= 2
        assert len(engine._shape_cache) <= 2

    def test_lru_hit_refreshes_entry(self, university_db):
        """A cache hit must move the entry to most-recently-used, so the
        *other* entry is the one evicted when the cache fills."""
        engine = KeywordSearchEngine(university_db)
        engine._pattern_cache.capacity = 2
        green = engine.patterns("Green SUM Credit")
        engine.patterns("Java SUM Price")
        refreshed = engine.patterns("Green SUM Credit")  # hit: refresh
        assert refreshed is green
        engine.patterns("COUNT Student GROUPBY Course")  # evicts Java
        texts = dict(engine._pattern_cache.items())
        assert "Green SUM Credit" in texts
        assert "Java SUM Price" not in texts
        assert engine.patterns("Green SUM Credit") is green

    def test_lru_evicts_least_recently_used(self, university_db):
        engine = KeywordSearchEngine(university_db)
        engine._pattern_cache.capacity = 2
        engine.patterns("Green SUM Credit")
        engine.patterns("Java SUM Price")
        engine.patterns("COUNT Student GROUPBY Course")
        texts = dict(engine._pattern_cache.items())
        assert len(texts) == 2
        assert "Green SUM Credit" not in texts
        assert "Java SUM Price" in texts

    def test_hit_metric_recorded(self, university_db):
        engine = KeywordSearchEngine(university_db)
        engine.patterns("Green SUM Credit")
        engine.patterns("Green SUM Credit")
        assert engine.metrics.counter("pattern_cache_hits") == 1
        assert engine.metrics.counter("pattern_cache_misses") == 1

    def test_cached_compile_is_faster_second_time(self, tpch_db):
        import time

        engine = KeywordSearchEngine(tpch_db)
        start = time.perf_counter()
        engine.compile("COUNT part GROUPBY supplier")
        cold = time.perf_counter() - start
        start = time.perf_counter()
        engine.compile("COUNT part GROUPBY supplier")
        warm = time.perf_counter() - start
        assert warm < cold  # pattern generation dominates compile time


class TestDeclaredFdValidation:
    def test_valid_fds_pass(self, enrolment_db, enrolment_fds):
        validate_declared_fds(enrolment_db, enrolment_fds)

    def test_violated_fd_detected(self, enrolment_db):
        with pytest.raises(NormalizationError):
            validate_declared_fds(
                enrolment_db, {"Enrolment": ["Sname -> Sid"]}
            )  # the two Greens have different Sids

    def test_engine_check_fds_flag(self, enrolment_db):
        with pytest.raises(NormalizationError):
            KeywordSearchEngine(
                enrolment_db,
                fds={"Enrolment": ["Sid -> Sname, Age", "Grade -> Sid"]},
                check_fds=True,
            )

    def test_engine_check_fds_accepts_valid(self, enrolment_db, enrolment_fds):
        engine = KeywordSearchEngine(
            enrolment_db, fds=enrolment_fds, check_fds=True
        )
        assert not engine.is_normalized

    def test_empty_fds_trivially_valid(self, university_db):
        validate_declared_fds(university_db, None)
        validate_declared_fds(university_db, {})
