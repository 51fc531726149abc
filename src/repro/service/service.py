"""The concurrent query service: request lifecycle around the engines.

One :class:`QueryService` wraps any number of datasets (each a semantic
:class:`~repro.engine.KeywordSearchEngine` plus an optional SQAK
baseline) behind a production-shaped request lifecycle:

``submit`` → **admission control** (bounded queue, load shedding) →
**queue wait** (deadline still ticking) → **gates** (deadline, circuit
breaker) → **result cache** (TTL + single-flight) → **engine** (under a
:func:`~repro.cancellation.cancellation_scope`) → **response**.

Every stage is observable: the service-level
:class:`~repro.observability.MetricsRegistry` carries the counters
documented in ``docs/SERVING.md`` (``requests_admitted``,
``requests_shed``, ``requests_timed_out``, ``result_cache_hits`` …), and
a request submitted with ``trace=True`` gets a span tree
(``admit`` / ``queue_wait`` / ``serve`` / ``breaker_transition``).

The counters reconcile by construction:

* ``requests_submitted = requests_enqueued + requests_shed +
  requests_rejected_breaker(at admission)``
* ``requests_admitted = result_cache_hits + result_cache_misses +
  singleflight_coalesced`` — *admitted* means the request passed every
  gate and reached the result cache.

Degradation ladder (in order of increasing pressure): full service →
top-1 interpretation mode (queue depth ≥ watermark) → load shedding
(queue full, HTTP 429) → circuit breaker (dataset failing, HTTP 503).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cancellation import CancellationToken, cancellation_scope
from repro.errors import (
    DeadlineExceededError,
    KeywordQueryError,
    ServiceUnavailableError,
    StaticAnalysisError,
)
from repro.observability import NULL_TRACER, MetricsRegistry, Trace, Tracer
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.cache import ResultCache
from repro.service.config import ServiceConfig

__all__ = [
    "QueryService",
    "ServiceRequest",
    "ServiceResponse",
    "canonical_json",
    "analyze_payload",
    "compute_payload",
    "semantic_search_payload",
    "sqak_search_payload",
]

_STATUS_HTTP = {
    "ok": 200,
    "invalid": 400,
    "not_found": 404,
    "shed": 429,
    "error": 500,
    "unavailable": 503,
    "timeout": 504,
}


def canonical_json(payload: Dict[str, Any]) -> bytes:
    """The canonical wire encoding of a response payload.

    Sorted keys, no whitespace, UTF-8 — so two payloads are equal iff
    their bytes are equal (the equivalence contract the concurrency
    tests assert: a served response is byte-identical to a sequential
    ``engine.search`` of the same query and ``k``).
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


# ----------------------------------------------------------------------
# Payload builders (shared by the service and the equivalence tests)
# ----------------------------------------------------------------------
def semantic_search_payload(
    engine: Any, dataset: str, query: str, k: int, backend: Optional[str] = None
) -> Dict[str, Any]:
    """The response payload for one semantic search: every interpretation's
    SQL plus the executed rows of the best one.

    *backend* selects the execution backend (``None``: the engine's
    configured default, normally ``"memory"``)."""
    result = engine.search(query, k=k, backend=backend)
    executed = result.best.execute()
    return {
        "dataset": dataset,
        "engine": "semantic",
        "backend": backend or engine.backend.name,
        "query": query,
        "k": k,
        "interpretations": [
            {
                "rank": interpretation.rank,
                "description": interpretation.description,
                "sql": interpretation.sql_compact,
            }
            for interpretation in result.interpretations
        ],
        "best": {
            "columns": list(executed.columns),
            "rows": [list(row) for row in executed.rows],
        },
    }


def sqak_search_payload(sqak: Any, dataset: str, query: str) -> Dict[str, Any]:
    """The response payload for one SQAK baseline search."""
    statement = sqak.compile(query)
    executed = sqak.executor.execute(statement.select)
    return {
        "dataset": dataset,
        "engine": "sqak",
        "query": query,
        "sql": statement.sql,
        "best": {
            "columns": list(executed.columns),
            "rows": [list(row) for row in executed.rows],
        },
    }


def analyze_payload(engine: Any, dataset: str, query: str, k: int) -> Dict[str, Any]:
    """The response payload for ``/analyze``: the static-analysis report
    over the top-k interpretations."""
    report = engine.analyze(query, k=k)
    return {
        "dataset": dataset,
        "engine": "semantic",
        "query": query,
        "k": k,
        "diagnostics": [
            {
                "code": diagnostic.code,
                "severity": str(diagnostic.severity),
                "message": diagnostic.message,
                "location": diagnostic.location,
                "hint": diagnostic.hint,
            }
            for diagnostic in report
        ],
    }


def compute_payload(
    engine: Any,
    sqak: Any,
    dataset: str,
    mode: str,
    engine_kind: str,
    query: str,
    k: int,
    backend: Optional[str],
) -> Dict[str, Any]:
    """What a result-cache miss computes, run by a service thread under the
    request's :func:`~repro.cancellation.cancellation_scope`."""
    if mode == "analyze":
        return analyze_payload(engine, dataset, query, k)
    if engine_kind == "sqak":
        return sqak_search_payload(sqak, dataset, query)
    return semantic_search_payload(engine, dataset, query, k, backend=backend)


# ----------------------------------------------------------------------
# Request / response
# ----------------------------------------------------------------------
@dataclass
class ServiceRequest:
    """One query to serve.

    ``dataset=None`` targets the service's default (first registered)
    dataset; ``k=None`` uses the config default; ``deadline_s=None``
    uses the config default deadline (which may itself be None — no
    deadline).  ``mode`` is ``"search"`` or ``"analyze"``; ``engine`` is
    ``"semantic"`` or ``"sqak"``.
    """

    query: str
    dataset: Optional[str] = None
    engine: str = "semantic"
    mode: str = "search"
    k: Optional[int] = None
    deadline_s: Optional[float] = None
    trace: bool = False
    # execution backend for semantic searches ("memory", "sqlite" or
    # "disk"); the SQAK baseline always executes on the in-memory engine
    backend: str = "memory"


@dataclass
class ServiceResponse:
    """The outcome of one request, whatever the path it took."""

    status: str  # ok | invalid | not_found | shed | error | unavailable | timeout
    payload: Dict[str, Any]
    cache: str = "none"  # hit | miss | coalesced | none
    degraded: bool = False
    queue_wait_ms: float = 0.0
    serve_ms: float = 0.0
    trace: Optional[Trace] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def http_status(self) -> int:
        return _STATUS_HTTP[self.status]

    def body(self) -> bytes:
        """Canonical JSON body (see :func:`canonical_json`)."""
        return canonical_json(self.payload)


class _Pending:
    """A submitted request travelling through the lifecycle."""

    __slots__ = (
        "request",
        "runtime",
        "token",
        "tracer",
        "enqueued_at",
        "_done",
        "_response",
    )

    def __init__(self, request: ServiceRequest, runtime, token, tracer) -> None:
        self.request = request
        self.runtime = runtime
        self.token = token
        self.tracer = tracer
        self.enqueued_at = time.perf_counter()
        self._done = threading.Event()
        self._response: Optional[ServiceResponse] = None

    def resolve(self, response: ServiceResponse) -> None:
        if self._done.is_set():  # pragma: no cover - defensive
            return
        if response.trace is None and self.tracer is not NULL_TRACER:
            response.trace = self.tracer.trace
        self._response = response
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> ServiceResponse:
        if not self._done.wait(timeout):
            raise TimeoutError("request still in flight")
        assert self._response is not None
        return self._response


class _Runtime:
    """One registered dataset: engines plus its circuit breaker."""

    __slots__ = ("name", "engine", "sqak", "breaker")

    def __init__(self, name: str, engine, sqak, breaker: CircuitBreaker) -> None:
        self.name = name
        self.engine = engine
        self.sqak = sqak
        self.breaker = breaker


class QueryService:
    """Concurrent, overload-protected serving of keyword queries."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self._clock = clock
        self._cache = ResultCache(ttl_s=self.config.cache_ttl_s, clock=clock)
        self._runtimes: Dict[str, _Runtime] = {}
        self._default_dataset: Optional[str] = None
        self._queue: "queue.Queue[_Pending]" = queue.Queue(
            maxsize=self.config.queue_limit
        )
        self._workers: List[threading.Thread] = []  # guarded-by: _lifecycle_lock
        self._running = False  # guarded-by: _lifecycle_lock
        self._lifecycle_lock = threading.Lock()
        # in-flight requests, so stop() can cancel their tokens after the
        # join grace instead of waiting unboundedly
        self._inflight: set = set()  # guarded-by: _inflight_lock
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration / lifecycle
    # ------------------------------------------------------------------
    def register_dataset(self, name: str, engine, sqak=None) -> None:
        """Serve *engine* (and optionally the *sqak* baseline) as *name*.

        Cached responses need no hook into the engine: each is stamped
        with ``engine.data_versions()`` as read before it was computed,
        and a write to the dataset's tables changes the stamp, so the
        next request recomputes.
        """
        if name in self._runtimes:
            raise ValueError(f"dataset {name!r} already registered")
        breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_s=self.config.breaker_reset_s,
            clock=self._clock,
        )
        self._runtimes[name] = _Runtime(name, engine, sqak, breaker)
        if self._default_dataset is None:
            self._default_dataset = name

    @property
    def datasets(self) -> List[str]:
        return list(self._runtimes)

    def start(self) -> "QueryService":
        with self._lifecycle_lock:
            if self._running:
                return self
            if not self._runtimes:
                raise RuntimeError("no datasets registered")
            self._running = True
            for index in range(self.config.max_workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-service-worker-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work and shut down deterministically.

        Drain order: (1) join worker threads for a bounded grace period
        (*timeout*, 5 s by default),
        (2) cancel the tokens of requests still in flight — cooperative
        cancellation aborts engine work at its next checkpoint — and join
        again, (3) resolve everything still queued with a clean
        ``unavailable``, so repeated bench runs and test teardowns never
        leak threads."""
        grace = 5.0 if timeout is None else timeout
        with self._lifecycle_lock:
            if not self._running:
                return
            self._running = False
            workers, self._workers = self._workers, []
        deadline = time.monotonic() + grace
        for worker in workers:
            worker.join(max(0.05, (deadline - time.monotonic()) / 2))
        stragglers = [worker for worker in workers if worker.is_alive()]
        if stragglers:
            with self._inflight_lock:
                inflight = list(self._inflight)
            for pending in inflight:
                pending.token.cancel("service stopping")
            for worker in stragglers:
                worker.join(max(0.05, deadline - time.monotonic()))
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            pending.token.cancel("service stopping")
            pending.resolve(
                ServiceResponse(
                    status="unavailable",
                    payload={"error": "service stopped"},
                )
            )

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload."""
        return {
            "status": "ok" if self._running else "stopped",
            "datasets": self.datasets,
            "workers": self.config.max_workers,
            "queue_depth": self.queue_depth,
            "queue_limit": self.config.queue_limit,
            "cache_entries": len(self._cache),
            "breakers": {
                name: runtime.breaker.snapshot()
                for name, runtime in self._runtimes.items()
            },
        }

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, request: ServiceRequest) -> _Pending:
        """Admit *request* or reject it immediately; never blocks.

        Returns a pending handle whose :meth:`_Pending.wait` yields the
        :class:`ServiceResponse` once a worker (or this very call, for
        rejections) resolves it.
        """
        self.metrics.increment("requests_submitted")
        # a per-request tracer has its own registry: tracer.count mirrors a
        # counter into the span tree, self.metrics carries the service total
        tracer = Tracer() if request.trace else NULL_TRACER
        runtime, problem = self._resolve_runtime(request)
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        token = (
            CancellationToken.with_timeout(deadline_s, reason="request deadline")
            if deadline_s is not None
            else CancellationToken(reason="request")
        )
        pending = _Pending(request, runtime, token, tracer)
        rejection: Optional[ServiceResponse] = None
        # the admission spans must be closed before the request reaches a
        # worker: a tracer is single-threaded, and workers open late spans
        # on it as soon as they dequeue the pending
        with tracer.span("request", query=request.query):
            with tracer.span("admit", dataset=runtime.name if runtime else "?"):
                if problem is not None:
                    status, message = problem
                    self.metrics.increment(f"requests_{status}")
                    tracer.count(f"requests_{status}")
                    rejection = ServiceResponse(
                        status=status, payload={"error": message}
                    )
                elif not self._running:
                    rejection = ServiceResponse(
                        status="unavailable",
                        payload={"error": "service not started"},
                    )
                elif runtime is not None and runtime.breaker.would_reject():
                    self.metrics.increment("requests_rejected_breaker")
                    tracer.count("requests_rejected_breaker")
                    rejection = ServiceResponse(
                        status="unavailable",
                        payload={
                            "error": "circuit breaker open for dataset "
                            + runtime.name
                        },
                    )
        if rejection is not None:
            pending.resolve(rejection)
            return pending
        pending.enqueued_at = time.perf_counter()
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self.metrics.increment("requests_shed")
            tracer.count("requests_shed")
            pending.resolve(
                ServiceResponse(
                    status="shed",
                    payload={
                        "error": "service overloaded, request shed",
                        "queue_limit": self.config.queue_limit,
                    },
                )
            )
            return pending
        self.metrics.increment("requests_enqueued")
        return pending

    def serve(
        self, request: ServiceRequest, timeout: Optional[float] = None
    ) -> ServiceResponse:
        """Blocking convenience: :meth:`submit` + wait for the response."""
        return self.submit(request).wait(timeout)

    def _resolve_runtime(
        self, request: ServiceRequest
    ) -> Tuple[Optional[_Runtime], Optional[Tuple[str, str]]]:
        """(runtime, problem): problem is a (status, message) rejection."""
        if not request.query or not request.query.strip():
            return None, ("invalid", "empty query")
        if request.mode not in ("search", "analyze"):
            return None, ("invalid", f"unknown mode {request.mode!r}")
        if request.engine not in ("semantic", "sqak"):
            return None, ("invalid", f"unknown engine {request.engine!r}")
        from repro.backends.base import available_backends

        if request.backend not in available_backends():
            return None, ("invalid", f"unknown backend {request.backend!r}")
        if request.engine == "sqak" and request.backend != "memory":
            return None, (
                "invalid",
                "the SQAK baseline only executes on the memory backend",
            )
        name = request.dataset or self._default_dataset
        if name is None:
            return None, ("not_found", "no datasets registered")
        runtime = self._runtimes.get(name)
        if runtime is None:
            return None, ("not_found", f"unknown dataset {name!r}")
        if request.engine == "sqak" and runtime.sqak is None:
            return runtime, (
                "invalid",
                f"dataset {name!r} has no SQAK baseline configured",
            )
        if request.engine == "sqak" and request.mode == "analyze":
            return runtime, ("invalid", "analyze mode requires the semantic engine")
        if request.k is not None and request.k < 1:
            return runtime, ("invalid", f"k must be >= 1, got {request.k}")
        return runtime, None

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            try:
                pending = self._queue.get(timeout=0.1)
            except queue.Empty:
                if not self._running:
                    return
                continue
            with self._inflight_lock:
                self._inflight.add(pending)
            try:
                self._serve_pending(pending)
            except BaseException as exc:  # pragma: no cover - last resort
                # a worker must never die with a request unresolved
                pending.resolve(
                    ServiceResponse(
                        status="error",
                        payload={"error": f"{type(exc).__name__}: {exc}"},
                    )
                )
            finally:
                with self._inflight_lock:
                    self._inflight.discard(pending)

    def _serve_pending(self, pending: _Pending) -> None:
        request, runtime, token, tracer = (
            pending.request,
            pending.runtime,
            pending.token,
            pending.tracer,
        )
        assert runtime is not None
        queue_wait_s = time.perf_counter() - pending.enqueued_at
        with tracer.span("queue_wait") as span:
            if span is not None:
                # the wait happened before this span opened; backdate it
                span.duration = queue_wait_s
        queue_wait_ms = queue_wait_s * 1000.0
        # gate 1: the deadline may have passed while queued
        if token.expired():
            self.metrics.increment("requests_timed_out")
            tracer.count("requests_timed_out")
            pending.resolve(
                ServiceResponse(
                    status="timeout",
                    payload={"error": "deadline exceeded while queued"},
                    queue_wait_ms=queue_wait_ms,
                )
            )
            return
        # gate 2: the circuit breaker (may admit a half-open probe)
        try:
            self._log_transitions(runtime, runtime.breaker.allow(), tracer)
        except ServiceUnavailableError as exc:
            self.metrics.increment("requests_rejected_breaker")
            tracer.count("requests_rejected_breaker")
            pending.resolve(
                ServiceResponse(
                    status="unavailable",
                    payload={"error": str(exc)},
                    queue_wait_ms=queue_wait_ms,
                )
            )
            return
        # past every gate: this request is admitted to execution
        self.metrics.increment("requests_admitted")
        tracer.count("requests_admitted")
        # graceful degradation: under backlog pressure serve top-1 only
        degraded = self.queue_depth >= self.config.effective_degrade_depth
        k = 1 if degraded else (request.k or self.config.default_k)
        if degraded:
            self.metrics.increment("requests_degraded")
            tracer.count("requests_degraded")
        started = time.perf_counter()
        try:
            with tracer.span(
                "serve", dataset=runtime.name, mode=request.mode, k=k
            ):
                payload, outcome = self._lookup_or_compute(
                    runtime, request, k, token, tracer
                )
        except DeadlineExceededError as exc:
            self.metrics.increment("requests_timed_out")
            tracer.count("requests_timed_out")
            self._log_transitions(runtime, runtime.breaker.record_failure(), tracer)
            pending.resolve(
                ServiceResponse(
                    status="timeout",
                    payload={"error": str(exc)},
                    degraded=degraded,
                    queue_wait_ms=queue_wait_ms,
                    serve_ms=(time.perf_counter() - started) * 1000.0,
                )
            )
            return
        except (KeywordQueryError, StaticAnalysisError) as exc:
            # a bad query is the client's problem, not the dataset's —
            # the breaker records it as a success
            self.metrics.increment("requests_invalid")
            tracer.count("requests_invalid")
            self._log_transitions(runtime, runtime.breaker.record_success(), tracer)
            pending.resolve(
                ServiceResponse(
                    status="invalid",
                    payload={"error": str(exc)},
                    degraded=degraded,
                    queue_wait_ms=queue_wait_ms,
                    serve_ms=(time.perf_counter() - started) * 1000.0,
                )
            )
            return
        except Exception as exc:
            self.metrics.increment("requests_failed")
            tracer.count("requests_failed")
            self._log_transitions(runtime, runtime.breaker.record_failure(), tracer)
            pending.resolve(
                ServiceResponse(
                    status="error",
                    payload={"error": f"{type(exc).__name__}: {exc}"},
                    degraded=degraded,
                    queue_wait_ms=queue_wait_ms,
                    serve_ms=(time.perf_counter() - started) * 1000.0,
                )
            )
            return
        self.metrics.increment("requests_ok")
        self._log_transitions(runtime, runtime.breaker.record_success(), tracer)
        pending.resolve(
            ServiceResponse(
                status="ok",
                payload=payload,
                cache=outcome,
                degraded=degraded,
                queue_wait_ms=queue_wait_ms,
                serve_ms=(time.perf_counter() - started) * 1000.0,
            )
        )

    def _lookup_or_compute(
        self,
        runtime: _Runtime,
        request: ServiceRequest,
        k: int,
        token: CancellationToken,
        tracer,
    ) -> Tuple[Dict[str, Any], str]:
        key = (
            runtime.name,
            request.engine,
            request.mode,
            request.query,
            k,
            request.backend,
        )

        def compute() -> Dict[str, Any]:
            with cancellation_scope(token):
                return compute_payload(
                    runtime.engine,
                    runtime.sqak,
                    runtime.name,
                    request.mode,
                    request.engine,
                    request.query,
                    k,
                    request.backend,
                )

        def observe(outcome: str) -> None:
            # reported before the compute runs, so the counters reconcile
            # (admitted = hits + misses + coalesced) even when it fails
            counter = {
                "hit": "result_cache_hits",
                "miss": "result_cache_misses",
                "coalesced": "singleflight_coalesced",
            }[outcome]
            self.metrics.increment(counter)
            tracer.count(counter)

        return self._cache.get_or_compute(
            key,
            compute,
            stamp=runtime.engine.data_versions(),
            timeout=token.remaining(),
            observe=observe,
        )

    def _log_transitions(self, runtime: _Runtime, transitions, tracer) -> None:
        for old, new in transitions:
            self.metrics.increment("breaker_transitions")
            if new == OPEN:
                self.metrics.increment("breaker_open_total")
            with tracer.span(
                "breaker_transition",
                dataset=runtime.name,
                from_state=old,
                to_state=new,
            ):
                pass

    # ------------------------------------------------------------------
    # Metrics export
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` payload: service counters, per-engine metrics
        and breaker states."""
        return {
            "service": self.metrics.snapshot(),
            "engines": {
                name: runtime.engine.metrics.snapshot()
                for name, runtime in self._runtimes.items()
                if getattr(runtime.engine, "metrics", None) is not None
            },
            "breakers": {
                name: runtime.breaker.snapshot()
                for name, runtime in self._runtimes.items()
            },
            "cache": {"entries": len(self._cache)},
        }
