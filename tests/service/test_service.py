"""Unit tests for the serving layer: config, cache, breaker, service.

Everything time-dependent uses injected fake clocks, so TTL expiry and
breaker reset windows are deterministic; the only real waiting in this
file is on events with generous timeouts.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import KeywordSearchEngine
from repro.errors import (
    DeadlineExceededError,
    ServiceUnavailableError,
)
from repro.service import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    QueryService,
    ResultCache,
    ServiceConfig,
    ServiceRequest,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# ServiceConfig
# ----------------------------------------------------------------------
class TestServiceConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.max_workers == 4
        assert config.effective_degrade_depth == config.queue_limit // 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": 0},
            {"queue_limit": 0},
            {"default_k": 0},
            {"cache_ttl_s": -1.0},
            {"cache_size": 0},
            {"breaker_failure_threshold": 0},
            {"breaker_reset_s": 0.0},
            {"breaker_backoff_factor": 0.5},
            {"degrade_queue_depth": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_explicit_degrade_depth_wins(self):
        config = ServiceConfig(queue_limit=10, degrade_queue_depth=9)
        assert config.effective_degrade_depth == 9

    def test_degrade_depth_floor_is_one(self):
        assert ServiceConfig(queue_limit=1).effective_degrade_depth == 1


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(size=4, ttl_s=10.0, clock=FakeClock())
        value, outcome = cache.get_or_compute("k", lambda: 41)
        assert (value, outcome) == (41, "miss")
        value, outcome = cache.get_or_compute("k", lambda: 42)
        assert (value, outcome) == (41, "hit")

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = ResultCache(size=4, ttl_s=10.0, clock=clock)
        cache.get_or_compute("k", lambda: 1)
        clock.advance(9.9)
        assert cache.get_or_compute("k", lambda: 2)[1] == "hit"
        clock.advance(0.2)
        value, outcome = cache.get_or_compute("k", lambda: 2)
        assert (value, outcome) == (2, "miss")

    def test_lru_eviction(self):
        cache = ResultCache(size=2, ttl_s=10.0, clock=FakeClock())
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 0)  # refresh a's recency
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert cache.get_or_compute("a", lambda: 9)[1] == "hit"
        assert cache.get_or_compute("b", lambda: 9)[1] == "miss"

    def test_zero_ttl_disables_storage(self):
        cache = ResultCache(size=4, ttl_s=0.0, clock=FakeClock())
        cache.get_or_compute("k", lambda: 1)
        assert cache.get_or_compute("k", lambda: 2)[1] == "miss"
        assert len(cache) == 0

    def test_single_flight_coalesces(self):
        cache = ResultCache(size=4, ttl_s=10.0, clock=FakeClock())
        release = threading.Event()
        computed = []

        def compute():
            release.wait(5.0)
            computed.append(1)
            return "value"

        outcomes = []

        def follower():
            value, outcome = cache.get_or_compute("k", compute)
            outcomes.append((value, outcome))

        leader = threading.Thread(target=follower, name="t-leader", daemon=True)
        leader.start()
        while "k" not in cache._flights:  # wait until the leader owns it
            time.sleep(0.001)
        followers = [
            threading.Thread(target=follower, name=f"t-f{i}", daemon=True)
            for i in range(3)
        ]
        for thread in followers:
            thread.start()
        while cache._flights["k"].followers < 3:
            time.sleep(0.001)
        release.set()
        leader.join(5.0)
        for thread in followers:
            thread.join(5.0)
        assert computed == [1]  # exactly one compute
        assert sorted(o for _, o in outcomes) == [
            "coalesced",
            "coalesced",
            "coalesced",
            "miss",
        ]
        assert all(v == "value" for v, _ in outcomes)

    def test_follower_timeout(self):
        cache = ResultCache(size=4, ttl_s=10.0, clock=FakeClock())
        release = threading.Event()

        def compute():
            release.wait(5.0)
            return 1

        leader = threading.Thread(
            target=lambda: cache.get_or_compute("k", compute),
            name="t-leader",
            daemon=True,
        )
        leader.start()
        while "k" not in cache._flights:
            time.sleep(0.001)
        with pytest.raises(DeadlineExceededError):
            cache.get_or_compute("k", compute, timeout=0.01)
        release.set()
        leader.join(5.0)

    def test_leader_error_propagates_and_is_not_cached(self):
        cache = ResultCache(size=4, ttl_s=10.0, clock=FakeClock())
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert cache.get_or_compute("k", lambda: 7) == (7, "miss")

    def test_invalidate_predicate(self):
        cache = ResultCache(size=8, ttl_s=10.0, clock=FakeClock())
        cache.get_or_compute(("a", 1), lambda: 1)
        cache.get_or_compute(("b", 1), lambda: 2)
        assert cache.invalidate(lambda key: key[0] == "a") == 1
        assert cache.get_or_compute(("a", 1), lambda: 9)[1] == "miss"
        assert cache.get_or_compute(("b", 1), lambda: 9)[1] == "hit"

    def test_invalidation_epoch_blocks_stale_store(self):
        """A value computed before an invalidate() must not be stored."""
        cache = ResultCache(size=4, ttl_s=10.0, clock=FakeClock())
        started = threading.Event()
        release = threading.Event()

        def compute():
            started.set()
            release.wait(5.0)
            return "stale"

        leader = threading.Thread(
            target=lambda: cache.get_or_compute("k", compute),
            name="t-leader",
            daemon=True,
        )
        leader.start()
        assert started.wait(5.0)
        cache.invalidate()  # data changed while the leader was computing
        release.set()
        leader.join(5.0)
        # the stale value must not have been stored with a fresh TTL
        assert cache.get_or_compute("k", lambda: "fresh") == ("fresh", "miss")

    def test_invalidation_detaches_flights_begun_before_it(self):
        """A request admitted after invalidate() starts its own flight;
        followers already waiting still get their leader's value, and
        that leader's landing leaves the newer flight alone."""
        cache = ResultCache(size=4, ttl_s=0.0, clock=FakeClock())
        release = {name: threading.Event() for name in ("old", "new")}
        started = {name: threading.Event() for name in ("old", "new")}
        results = {}

        def compute(name):
            started[name].set()
            release[name].wait(5.0)
            return name

        def request(label, name):
            results[label] = cache.get_or_compute("k", lambda: compute(name))

        def spawn(label, name):
            thread = threading.Thread(
                target=request, args=(label, name), name=f"t-{label}", daemon=True
            )
            thread.start()
            return thread

        old_leader = spawn("old-leader", "old")
        assert started["old"].wait(5.0)
        old_follower = spawn("old-follower", "unused")
        deadline = time.monotonic() + 5.0
        while cache._flights["k"].followers < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        cache.invalidate()  # data changed while the old flight was running
        new_leader = spawn("new-leader", "new")
        assert started["new"].wait(5.0)  # its own flight, not the old one
        release["old"].set()
        old_leader.join(5.0)
        old_follower.join(5.0)
        assert results["old-leader"] == ("old", "miss")
        assert results["old-follower"] == ("old", "coalesced")
        # the old leader landed; the new flight is still the key's
        new_follower = spawn("new-follower", "unused")
        deadline = time.monotonic() + 5.0
        while cache._flights["k"].followers < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        release["new"].set()
        new_leader.join(5.0)
        new_follower.join(5.0)
        assert results["new-leader"] == ("new", "miss")
        assert results["new-follower"] == ("new", "coalesced")
        assert not cache._flights

    def test_observe_reports_before_compute_failure(self):
        cache = ResultCache(size=4, ttl_s=10.0, clock=FakeClock())
        seen = []
        with pytest.raises(RuntimeError):
            cache.get_or_compute(
                "k",
                lambda: (_ for _ in ()).throw(RuntimeError("boom")),
                observe=seen.append,
            )
        assert seen == ["miss"]


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, clock, threshold=3):
        return CircuitBreaker(
            failure_threshold=threshold,
            reset_s=1.0,
            backoff_factor=2.0,
            max_reset_s=8.0,
            clock=clock,
        )

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(2):
            breaker.allow()
            assert breaker.record_failure() == []
        breaker.allow()
        assert breaker.record_failure() == [(CLOSED, OPEN)]
        assert breaker.state == OPEN
        with pytest.raises(ServiceUnavailableError):
            breaker.allow()

    def test_success_resets_failure_streak(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.allow(), breaker.record_failure()
        breaker.allow(), breaker.record_failure()
        breaker.allow(), breaker.record_success()
        assert breaker.consecutive_failures == 0
        assert breaker.state == CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow() == [(OPEN, HALF_OPEN)]
        # concurrent request while the probe is in flight: rejected
        with pytest.raises(ServiceUnavailableError):
            breaker.allow()
        assert breaker.record_success() == [(HALF_OPEN, CLOSED)]
        assert breaker.state == CLOSED
        assert breaker.allow() == []

    def test_failed_probe_backs_off_exponentially(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        clock.advance(1.1)
        breaker.allow()
        assert breaker.record_failure() == [(HALF_OPEN, OPEN)]
        assert breaker.snapshot()["reset_s"] == 2.0
        clock.advance(1.1)  # not enough any more
        with pytest.raises(ServiceUnavailableError):
            breaker.allow()
        clock.advance(1.0)  # 2.1s total
        assert breaker.allow() == [(OPEN, HALF_OPEN)]
        breaker.record_failure()
        assert breaker.snapshot()["reset_s"] == 4.0

    def test_backoff_is_capped(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        for _ in range(6):  # 1 -> 2 -> 4 -> 8 (cap) -> 8 ...
            clock.advance(100.0)
            breaker.allow()
            breaker.record_failure()
        assert breaker.snapshot()["reset_s"] == 8.0

    def test_successful_probe_resets_backoff(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        clock.advance(1.1)
        breaker.allow()
        breaker.record_failure()  # backoff -> 2.0
        clock.advance(2.1)
        breaker.allow()
        breaker.record_success()
        assert breaker.snapshot()["reset_s"] == 1.0

    def test_would_reject_is_nonmutating(self):
        clock = FakeClock()
        breaker = self.make(clock)
        assert not breaker.would_reject()
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        assert breaker.would_reject()
        clock.advance(1.1)
        # due for a probe: would_reject defers to allow(), and does not
        # itself transition to half-open
        assert not breaker.would_reject()
        assert breaker.state == OPEN
        assert breaker.allow() == [(OPEN, HALF_OPEN)]


# ----------------------------------------------------------------------
# QueryService lifecycle
# ----------------------------------------------------------------------
@pytest.fixture()
def service(university_engine):
    svc = QueryService(ServiceConfig(max_workers=2, cache_ttl_s=30.0))
    svc.register_dataset("university", university_engine)
    with svc:
        yield svc


class TestQueryService:
    def test_basic_search(self, service):
        response = service.serve(ServiceRequest(query="AVG Credit"), timeout=30.0)
        assert response.ok and response.http_status == 200
        assert response.payload["best"]["rows"] == [[4.0]]
        assert response.cache == "miss"

    def test_cache_hit_is_byte_identical(self, service):
        first = service.serve(ServiceRequest(query="COUNT Student"), timeout=30.0)
        second = service.serve(ServiceRequest(query="COUNT Student"), timeout=30.0)
        assert second.cache == "hit"
        assert first.body() == second.body()

    def test_unknown_dataset_404(self, service):
        response = service.serve(
            ServiceRequest(query="AVG Credit", dataset="nope"), timeout=30.0
        )
        assert response.status == "not_found"
        assert response.http_status == 404

    def test_invalid_inputs_400(self, service):
        for request in [
            ServiceRequest(query="   "),
            ServiceRequest(query="AVG Credit", mode="dance"),
            ServiceRequest(query="AVG Credit", engine="oracle"),
            ServiceRequest(query="AVG Credit", k=0),
            ServiceRequest(query="AVG Credit", engine="sqak"),  # none registered
        ]:
            response = service.serve(request, timeout=30.0)
            assert response.status == "invalid", request
            assert response.http_status == 400

    def test_engine_rejection_is_invalid_not_failure(self, service):
        response = service.serve(
            ServiceRequest(query="zzznomatch xyzzy"), timeout=30.0
        )
        assert response.status == "invalid"
        assert service._runtimes["university"].breaker.state == CLOSED

    def test_trace_spans(self, service):
        response = service.serve(
            ServiceRequest(query="MAX COUNT Student", trace=True), timeout=30.0
        )
        names = [span.name for span in response.trace.root.walk()]
        assert names[0] == "request"
        for expected in ("admit", "queue_wait", "serve"):
            assert expected in names

    def test_deadline_already_expired_times_out_in_queue(self, service):
        response = service.serve(
            ServiceRequest(query="AVG Credit", deadline_s=0.0), timeout=30.0
        )
        assert response.status == "timeout"
        assert response.http_status == 504
        assert service.metrics.counter("requests_timed_out") >= 1

    def test_duplicate_dataset_rejected(self, university_engine):
        svc = QueryService()
        svc.register_dataset("u", university_engine)
        with pytest.raises(ValueError):
            svc.register_dataset("u", university_engine)

    def test_start_requires_datasets(self):
        with pytest.raises(RuntimeError):
            QueryService().start()

    def test_health_payload(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["datasets"] == ["university"]
        assert health["breakers"]["university"]["state"] == CLOSED

    def test_metrics_reconcile(self, service):
        for query in ["AVG Credit", "AVG Credit", "COUNT Lecturer GROUPBY Course"]:
            service.serve(ServiceRequest(query=query), timeout=30.0)
        counters = service.metrics_snapshot()["service"]["counters"]
        assert counters["requests_admitted"] == (
            counters.get("result_cache_hits", 0)
            + counters.get("result_cache_misses", 0)
            + counters.get("singleflight_coalesced", 0)
        )


class TestAdmissionControl:
    """Shed / degrade behaviour with workers deliberately wedged."""

    def _wedged_service(self, university_engine, **config_kwargs):
        """A service whose single worker is blocked on a slow request."""
        svc = QueryService(
            ServiceConfig(max_workers=1, cache_ttl_s=0.0, **config_kwargs)
        )
        svc.register_dataset("university", university_engine)

        release = threading.Event()
        started = threading.Event()
        original = university_engine.search

        def slow_search(query_text, *args, **kwargs):
            if query_text == "__slow__":
                started.set()
                release.wait(10.0)
                query_text = "AVG Credit"
            return original(query_text, *args, **kwargs)

        return svc, slow_search, original, release, started

    def test_queue_full_sheds_with_429(self, university_engine, monkeypatch):
        svc, slow, original, release, started = self._wedged_service(
            university_engine, queue_limit=2
        )
        monkeypatch.setattr(university_engine, "search", slow)
        try:
            with svc:
                blocker = svc.submit(ServiceRequest(query="__slow__"))
                assert started.wait(10.0)
                queued = [
                    svc.submit(ServiceRequest(query=f"AVG Credit {i}"))
                    for i in range(2)
                ]
                shed = svc.submit(ServiceRequest(query="COUNT Student"))
                response = shed.wait(1.0)
                assert response.status == "shed"
                assert response.http_status == 429
                assert svc.metrics.counter("requests_shed") == 1
                release.set()
                assert blocker.wait(30.0).ok
                for pending in queued:
                    pending.wait(30.0)
        finally:
            release.set()
            monkeypatch.setattr(university_engine, "search", original)

    def test_degraded_mode_serves_top1(self, university_engine, monkeypatch):
        svc, slow, original, release, started = self._wedged_service(
            university_engine, queue_limit=8, degrade_queue_depth=1
        )
        monkeypatch.setattr(university_engine, "search", slow)
        try:
            with svc:
                blocker = svc.submit(ServiceRequest(query="__slow__"))
                assert started.wait(10.0)
                # these sit in the queue (depth >= 1), so they degrade
                queued = [
                    svc.submit(ServiceRequest(query="MAX COUNT Student", k=3))
                    for _ in range(2)
                ]
                release.set()
                responses = [pending.wait(30.0) for pending in queued]
                assert blocker.wait(30.0).ok
                degraded = [r for r in responses if r.degraded]
                assert degraded, "expected at least one degraded response"
                for response in degraded:
                    assert response.payload["k"] == 1
                    assert len(response.payload["interpretations"]) == 1
                assert svc.metrics.counter("requests_degraded") >= 1
        finally:
            release.set()
            monkeypatch.setattr(university_engine, "search", original)

    def test_breaker_opens_after_failures_and_recovers(
        self, university_engine, monkeypatch
    ):
        svc = QueryService(
            ServiceConfig(
                max_workers=1,
                cache_ttl_s=0.0,
                breaker_failure_threshold=2,
                breaker_reset_s=0.05,
            )
        )
        svc.register_dataset("university", university_engine)
        original = university_engine.search
        boom = True

        def flaky_search(*args, **kwargs):
            if boom:
                raise RuntimeError("engine down")
            return original(*args, **kwargs)

        monkeypatch.setattr(university_engine, "search", flaky_search)
        try:
            with svc:
                for i in range(2):
                    response = svc.serve(
                        ServiceRequest(query=f"AVG Credit {i}"), timeout=30.0
                    )
                    assert response.status == "error"
                assert svc._runtimes["university"].breaker.state == OPEN
                assert svc.metrics.counter("breaker_open_total") == 1
                # fast-rejected at admission while open
                rejected = svc.serve(
                    ServiceRequest(query="COUNT Student"), timeout=30.0
                )
                assert rejected.status == "unavailable"
                assert rejected.http_status == 503
                assert svc.metrics.counter("requests_rejected_breaker") >= 1
                # after the reset window a probe succeeds and closes it
                boom = False
                time.sleep(0.06)
                recovered = svc.serve(
                    ServiceRequest(query="COUNT Student"), timeout=30.0
                )
                assert recovered.ok
                assert svc._runtimes["university"].breaker.state == CLOSED
        finally:
            monkeypatch.setattr(university_engine, "search", original)

    def test_stop_drains_queue_with_clean_rejections(self, university_engine):
        svc = QueryService(ServiceConfig(max_workers=1, queue_limit=4))
        svc.register_dataset("university", university_engine)
        # never started (no workers): enqueue directly, then stop must
        # resolve the stranded request with a clean rejection
        svc._running = True
        pending = svc.submit(ServiceRequest(query="AVG Credit"))
        svc.stop()
        assert pending.wait(1.0).status == "unavailable"


class TestCacheInvalidationHook:
    def test_clear_cache_drops_cached_responses(self):
        from repro.datasets import university_database

        database = university_database()
        engine = KeywordSearchEngine(database)
        svc = QueryService(ServiceConfig(max_workers=1, cache_ttl_s=60.0))
        svc.register_dataset("university", engine)
        with svc:
            first = svc.serve(ServiceRequest(query="COUNT Student"), timeout=30.0)
            assert first.cache == "miss"
            assert svc.serve(
                ServiceRequest(query="COUNT Student"), timeout=30.0
            ).cache == "hit"
            engine.clear_cache()  # e.g. after a data mutation
            refreshed = svc.serve(
                ServiceRequest(query="COUNT Student"), timeout=30.0
            )
            assert refreshed.cache == "miss"
            assert svc.metrics.counter("result_cache_invalidations") >= 1
