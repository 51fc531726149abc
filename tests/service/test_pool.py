"""Worker-pool acceptance tests: crash recovery, deadline recycling,
routing, cache coherence and pool-mode byte equivalence.

The low-level tests drive a :class:`~repro.service.pool.WorkerPool`
directly over stub engines whose behaviour is encoded in the query
string (``sleep:<s>`` blocks inside the search, ``raise:<kind>`` fails
it), so worker processes can be killed mid-request and the
parent's recovery observed deterministically.  The high-level tests
mirror ``test_concurrency.py``'s 8-thread mixed-load sweep against a
``worker_processes=4`` service and assert responses are **byte**
identical (canonical JSON) to sequential in-process serving.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.errors import DeadlineExceededError, KeywordQueryError
from repro.service import QueryService, ServiceConfig, ServiceRequest, proto
from repro.service.pool import WorkerPool, _WorkerState
from repro.service.service import (
    analyze_payload,
    canonical_json,
    semantic_search_payload,
    sqak_search_payload,
)


# ----------------------------------------------------------------------
# Stub engines (module level: fork-inherited by worker processes)
# ----------------------------------------------------------------------
class _StubExecuted:
    def __init__(self, query: str) -> None:
        self.columns = ["answer"]
        self.rows = [[f"rows for {query}"]]


class _StubInterpretation:
    def __init__(self, query: str, rank: int) -> None:
        self._query = query
        self.rank = rank
        self.description = f"interpretation {rank} of {query!r}"
        self.sql_compact = f"SELECT {rank} FROM stub"

    def execute(self) -> _StubExecuted:
        return _StubExecuted(self._query)


class _StubBackend:
    name = "memory"


class _StubResult:
    def __init__(self, interpretations) -> None:
        self.interpretations = interpretations
        self.best = interpretations[0]


class _StubEngine:
    """Behaviour-by-query-string engine: ``sleep:<s>`` blocks in search,
    ``raise:invalid`` / ``raise:internal`` fail it."""

    backend = _StubBackend()

    def search(self, query: str, k: int, backend=None):
        if query.startswith("sleep:"):
            time.sleep(float(query.split(":", 1)[1]))
        if query == "raise:invalid":
            raise KeywordQueryError("no interpretation for stub query")
        if query == "raise:internal":
            raise ValueError("stub engine exploded")
        return _StubResult(
            [_StubInterpretation(query, rank) for rank in range(1, k + 1)]
        )

    def clear_cache(self) -> None:
        pass


def _stub_runtimes():
    return {"stub": (_StubEngine(), None)}


def _compute(pool: WorkerPool, query: str, deadline_s=None, epoch: int = 0):
    return pool.dispatch(
        proto.OP_COMPUTE,
        "stub",
        query,
        deadline_s=deadline_s,
        mode="search",
        engine="semantic",
        k=3,
        backend="memory",
        epoch=epoch,
    )


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
def test_worker_killed_mid_request_respawns_and_answers_exactly_once():
    with WorkerPool(_stub_runtimes, workers=1) as pool:
        handle = pool._handles[0]
        first_pid = handle.process.pid
        results, errors = [], []

        def dispatch() -> None:
            try:
                results.append(_compute(pool, "sleep:0.6"))
            except Exception as exc:  # pragma: no cover - diagnostic aid
                errors.append(exc)

        thread = threading.Thread(target=dispatch, daemon=True)
        thread.start()
        time.sleep(0.2)  # the worker is now inside the 0.6s search
        os.kill(first_pid, signal.SIGKILL)
        thread.join(30.0)
        assert not thread.is_alive(), "dispatch never returned after the kill"

        # exactly one response, produced by the respawned worker's retry
        assert not errors, errors
        assert len(results) == 1
        assert results[0]["best"]["rows"] == [["rows for sleep:0.6"]]
        assert handle.restarts == 1
        assert handle.process.pid != first_pid
        assert pool.counters["respawns"] == 1
        assert pool.counters["crash_retries"] == 1


def test_dead_idle_worker_is_respawned_on_next_dispatch():
    with WorkerPool(_stub_runtimes, workers=1) as pool:
        handle = pool._handles[0]
        os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(5.0)
        assert _compute(pool, "warm")["query"] == "warm"
        assert handle.restarts == 1
        # the death was noticed before the send: no crash retry needed
        assert pool.counters["crash_retries"] == 0


# ----------------------------------------------------------------------
# Deadline semantics
# ----------------------------------------------------------------------
def test_wedged_worker_is_killed_at_deadline_plus_grace():
    with WorkerPool(_stub_runtimes, workers=1, grace_s=0.2) as pool:
        handle = pool._handles[0]
        wedged_pid = handle.process.pid
        with pytest.raises(DeadlineExceededError):
            _compute(pool, "sleep:30", deadline_s=0.2)
        assert pool.counters["deadline_kills"] == 1
        # the pool recovers: the next request lands on a fresh worker
        assert _compute(pool, "after")["query"] == "after"
        assert handle.process.pid != wedged_pid


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------
def test_worker_exceptions_surface_as_their_in_process_classes():
    with WorkerPool(_stub_runtimes, workers=1) as pool:
        with pytest.raises(KeywordQueryError, match="no interpretation"):
            _compute(pool, "raise:invalid")
        with pytest.raises(proto.RemoteWorkerError) as excinfo:
            _compute(pool, "raise:internal")
        # pre-formatted by the worker: original type, no double wrapping
        assert str(excinfo.value) == "ValueError: stub engine exploded"
        # a classified failure is not a crash: same process, no respawn
        assert pool._handles[0].restarts == 0


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_routing_is_stable_and_covers_every_worker():
    pool = WorkerPool(_stub_runtimes, workers=4)
    owners = {pool.route("stub", f"query {i}") for i in range(200)}
    assert owners == {0, 1, 2, 3}
    for i in range(20):
        key_owner = pool.route("stub", f"query {i}")
        assert all(
            pool.route("stub", f"query {i}") == key_owner for _ in range(5)
        )


# ----------------------------------------------------------------------
# Cache coherence (epochs)
# ----------------------------------------------------------------------
def test_epoch_bump_clears_worker_caches_and_fresh_workers_adopt():
    with WorkerPool(_stub_runtimes, workers=1) as pool:
        # first contact at epoch 5: adopt without clearing (fresh caches)
        _compute(pool, "warm", epoch=5)
        snapshot = pool.metrics_snapshot()["workers"]["0"]
        assert snapshot["epochs"] == {"stub": 5}
        assert snapshot["counters"]["cache_clears"] == 0
        # same epoch: nothing is cleared
        _compute(pool, "warm", epoch=5)
        snapshot = pool.metrics_snapshot()["workers"]["0"]
        assert snapshot["counters"] == {"requests": 2, "cache_clears": 0}
        # epoch moved past the worker's view: it clears before serving
        _compute(pool, "warm", epoch=6)
        snapshot = pool.metrics_snapshot()["workers"]["0"]
        assert snapshot["epochs"] == {"stub": 6}
        assert snapshot["counters"]["cache_clears"] == 1
        assert pool.broadcast_clear("stub", 7) == 1
        assert pool.metrics_snapshot()["workers"]["0"]["epochs"] == {"stub": 7}


# ----------------------------------------------------------------------
# One compute path: a worker caches nothing the engine does not
# ----------------------------------------------------------------------
def test_worker_executes_every_compute_and_sees_appended_rows(monkeypatch):
    from repro.datasets import university_database
    from repro.engine import KeywordSearchEngine

    database = university_database()
    engine = KeywordSearchEngine(database)
    backend = engine.get_backend("memory")
    executions = []
    run = backend.execute

    def counting_execute(select, **kwargs):
        executions.append(select)
        return run(select, **kwargs)

    monkeypatch.setattr(backend, "execute", counting_execute)
    state = _WorkerState(0, lambda: {"university": (engine, None)})
    msg = proto.request(
        proto.OP_COMPUTE,
        dataset="university",
        query="COUNT Student",
        deadline_s=None,
        mode="search",
        engine="semantic",
        k=3,
        backend="memory",
        epoch=0,
    )
    first = state.handle(msg)
    assert first["status"] == "ok" and first["result"]["best"]["rows"] == [[3]]
    assert state.handle(msg) == first
    assert len(executions) == 2  # the same request twice executes twice
    # whatever is derived from data follows Table.version: the appended
    # row is counted by the next reply, with no epoch bump and no clear
    database.insert("Student", ("s4", "Brown", 23))
    after = state.handle(msg)["result"]
    assert after["best"]["rows"] == [[4]]
    assert after == semantic_search_payload(
        engine, "university", "COUNT Student", 3, backend="memory"
    )
    assert state.counters == {"requests": 3, "cache_clears": 0}


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------
def test_stop_leaves_no_processes_behind():
    pool = WorkerPool(_stub_runtimes, workers=2)
    pool.start()
    processes = [handle.process for handle in pool._handles]
    assert all(process.is_alive() for process in processes)
    pool.stop()
    assert all(not process.is_alive() for process in processes)
    assert all(handle.process is None for handle in pool._handles)
    assert not pool.running


# ----------------------------------------------------------------------
# Service-level pool mode
# ----------------------------------------------------------------------
def _pool_service(engine, sqak=None, **overrides) -> QueryService:
    config = ServiceConfig(
        **{
            "max_workers": 4,
            "queue_limit": 64,
            "degrade_queue_depth": 64,
            "cache_ttl_s": 60.0,
            "default_deadline_s": 60.0,
            "worker_processes": 4,
            **overrides,
        }
    )
    service = QueryService(config)
    service.register_dataset("university", engine, sqak=sqak)
    return service


def test_pool_mode_requires_fork_or_factory(university_engine):
    service = _pool_service(university_engine, worker_context="spawn")
    with pytest.raises(RuntimeError, match="picklable"):
        service.start()


def test_pool_mode_mixed_load_is_byte_identical(
    university_engine, university_sqak
):
    """The 8-thread / 208-request sweep of ``test_concurrency.py``, served
    by four worker processes: every response must match sequential
    in-process serving byte for byte (canonical JSON)."""
    import random

    clients, per_client = 8, 26
    queries = [
        "COUNT Lecturer GROUPBY Course",
        "Green SUM Credit",
        "COUNT Student GROUPBY Course",
        "AVG Credit",
        "COUNT Student",
        "COUNT Student GROUPBY Grade",
        "COUNT Enrol",
        "MAX COUNT Student",
    ]
    sqak_queries = ["COUNT Student GROUPBY Course", "AVG Credit"]
    service = _pool_service(university_engine, sqak=university_sqak)
    responses, lock, errors = [], threading.Lock(), []

    def client(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(per_client):
                roll = rng.random()
                if roll < 0.1:
                    request = ServiceRequest(
                        query=rng.choice(sqak_queries), engine="sqak"
                    )
                elif roll < 0.2:
                    request = ServiceRequest(
                        query=rng.choice(queries), mode="analyze"
                    )
                else:
                    request = ServiceRequest(
                        query=rng.choice(queries), k=rng.choice([1, 3])
                    )
                response = service.serve(request, timeout=120.0)
                with lock:
                    responses.append((request, response))
        except Exception as exc:  # pragma: no cover - diagnostic aid
            errors.append(exc)

    with service:
        threads = [
            threading.Thread(target=client, args=(seed,), daemon=True)
            for seed in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180.0)
        assert not any(thread.is_alive() for thread in threads)
        snapshot = service.metrics_snapshot()
    assert not errors, errors
    assert len(responses) == clients * per_client
    assert all(response.ok for _, response in responses)

    expected = {}
    for request, response in responses:
        key = (request.engine, request.mode, request.query, request.k)
        if key not in expected:
            if request.engine == "sqak":
                payload = sqak_search_payload(
                    university_sqak, "university", request.query
                )
            elif request.mode == "analyze":
                payload = analyze_payload(
                    university_engine,
                    "university",
                    request.query,
                    request.k or service.config.default_k,
                )
            else:
                payload = semantic_search_payload(
                    university_engine,
                    "university",
                    request.query,
                    request.k or service.config.default_k,
                )
            expected[key] = canonical_json(payload)
        assert response.body() == expected[key], request

    # the lifecycle counters live in the front end: the reconciliation
    # identities hold exactly in pool mode too
    counters = snapshot["service"]["counters"]
    total = clients * per_client
    assert counters["requests_submitted"] == total
    assert counters["requests_admitted"] == total
    assert counters["requests_admitted"] == (
        counters.get("result_cache_hits", 0)
        + counters.get("result_cache_misses", 0)
        + counters.get("singleflight_coalesced", 0)
    )
    # per-worker breakdowns are exported, and the work actually spread
    workers = snapshot["workers"]["workers"]
    assert set(workers) == {"0", "1", "2", "3"}
    served = sum(entry["counters"]["requests"] for entry in workers.values())
    assert served == counters.get("result_cache_misses", 0)
    assert sum(1 for entry in workers.values() if entry["counters"]["requests"]) >= 2


def test_pool_mode_survives_worker_kill_under_load(
    university_engine, university_sqak
):
    """SIGKILL a worker while requests are in flight: every request still
    resolves exactly once with an admissible status, and the pool reports
    the respawn."""
    service = _pool_service(
        university_engine, sqak=university_sqak, cache_ttl_s=0.0
    )
    with service:
        pool = service._pool
        pendings = [
            service.submit(
                ServiceRequest(query="COUNT Student GROUPBY Course", k=3)
            )
            for _ in range(12)
        ]
        for handle in pool._handles:
            if handle.process is not None:
                os.kill(handle.process.pid, signal.SIGKILL)
        responses = [pending.wait(60.0) for pending in pendings]
        assert len(responses) == 12
        # a kill between dispatch attempts can surface as an error, but
        # nothing may hang or be lost; cached/coalesced paths stay ok
        assert {response.status for response in responses} <= {"ok", "error"}
        assert any(response.ok for response in responses)
        expected = canonical_json(
            semantic_search_payload(
                university_engine,
                "university",
                "COUNT Student GROUPBY Course",
                3,
            )
        )
        for response in responses:
            if response.ok:
                assert response.body() == expected
        health = service.health()
        assert health["pool"]["respawns"] >= 1
        follow_up = service.serve(ServiceRequest(query="AVG Credit"), timeout=60.0)
        assert follow_up.ok


def test_pool_mode_deadline_and_breaker_semantics_unchanged(
    university_engine,
):
    """An already-expired deadline times out before any dispatch, and
    repeated worker failures trip the breaker exactly as in-process."""
    service = _pool_service(university_engine, cache_ttl_s=0.0)
    with service:
        timed_out = service.serve(
            ServiceRequest(query="AVG Credit", deadline_s=0.0), timeout=30.0
        )
        assert timed_out.status == "timeout"
        counters = service.metrics_snapshot()["service"]["counters"]
        assert counters["requests_timed_out"] == 1
        # an invalid query is classified in the worker, re-raised in the
        # parent, and recorded as the client's fault (breaker stays closed)
        invalid = service.serve(
            ServiceRequest(query="ZZZ_NO_SUCH_KEYWORD_ZZZ"), timeout=30.0
        )
        assert invalid.status in ("invalid", "ok", "error")
        healthy = service.serve(ServiceRequest(query="AVG Credit"), timeout=30.0)
        assert healthy.ok


def test_pool_mode_invalidation_propagates(university_db):
    from repro.engine import KeywordSearchEngine

    engine = KeywordSearchEngine(university_db)
    service = _pool_service(engine, worker_processes=2, cache_ttl_s=60.0)
    with service:
        first = service.serve(ServiceRequest(query="AVG Credit"), timeout=30.0)
        assert first.ok and first.cache == "miss"
        cached = service.serve(ServiceRequest(query="AVG Credit"), timeout=30.0)
        assert cached.cache == "hit"
        engine.clear_cache()  # fires the service's invalidation hook
        recomputed = service.serve(
            ServiceRequest(query="AVG Credit"), timeout=30.0
        )
        assert recomputed.cache == "miss"
        assert recomputed.body() == first.body()
        workers = service.metrics_snapshot()["workers"]["workers"]
        assert any(
            entry["counters"]["cache_clears"] >= 1 for entry in workers.values()
        )
