"""Serving-layer configuration.

One frozen dataclass holds every knob of the query service; defaults are
sized for the in-memory evaluation datasets (small queries, worker counts
in the single digits).  ``docs/SERVING.md`` documents each knob and the
degradation ladder they control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for :class:`~repro.service.service.QueryService`.

    Admission control
        ``max_workers`` threads drain a bounded queue of at most
        ``queue_limit`` waiting requests; a submit against a full queue
        is shed immediately (HTTP 429), never blocked.

    Deadlines
        ``default_deadline_s`` applies to requests that do not carry
        their own; ``None`` disables the default (requests may still opt
        in per call).

    Result cache
        ``cache_size`` entries, each fresh for ``cache_ttl_s`` seconds,
        keyed by ``(dataset, engine, mode, query, k, backend)`` with
        single-flight deduplication.  ``cache_ttl_s=0`` disables caching but keeps the
        single-flight behaviour.

    Circuit breaker (per dataset)
        ``breaker_failure_threshold`` consecutive failures open the
        breaker for ``breaker_reset_s`` seconds; each failed half-open
        probe multiplies the wait by ``breaker_backoff_factor`` up to
        ``breaker_max_reset_s``.

    Graceful degradation
        once the queue depth reaches ``degrade_queue_depth`` (default:
        half the queue limit, at least 1), requests are served in top-1
        interpretation mode regardless of their requested ``k``.

    Process worker tier (``docs/SERVING.md`` § scale-out)
        ``worker_processes`` engine-owning worker *processes* behind the
        thread tier (0 — the default — serves in-process exactly as
        before).  ``worker_context`` picks the multiprocessing start
        method (``None``: fork where available, else spawn);
        ``worker_grace_s`` is the slack past a request's deadline before
        a wedged worker is killed and respawned; and ``shutdown_grace_s``
        bounds how long :meth:`QueryService.stop` waits for threads and
        processes before escalating.
    """

    max_workers: int = 4
    queue_limit: int = 16
    default_deadline_s: Optional[float] = 5.0
    default_k: int = 3
    cache_ttl_s: float = 30.0
    cache_size: int = 256
    breaker_failure_threshold: int = 5
    breaker_reset_s: float = 1.0
    breaker_backoff_factor: float = 2.0
    breaker_max_reset_s: float = 30.0
    degrade_queue_depth: Optional[int] = None
    worker_processes: int = 0
    worker_context: Optional[str] = None
    worker_grace_s: float = 2.0
    shutdown_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.default_k < 1:
            raise ValueError(f"default_k must be >= 1, got {self.default_k}")
        if self.cache_ttl_s < 0:
            raise ValueError(f"cache_ttl_s must be >= 0, got {self.cache_ttl_s}")
        if self.cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.breaker_failure_threshold < 1:
            raise ValueError(
                "breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_reset_s <= 0:
            raise ValueError(
                f"breaker_reset_s must be > 0, got {self.breaker_reset_s}"
            )
        if self.breaker_backoff_factor < 1.0:
            raise ValueError(
                "breaker_backoff_factor must be >= 1.0, got "
                f"{self.breaker_backoff_factor}"
            )
        if (
            self.degrade_queue_depth is not None
            and self.degrade_queue_depth < 1
        ):
            raise ValueError(
                "degrade_queue_depth must be >= 1 (or None for auto), got "
                f"{self.degrade_queue_depth}"
            )
        if self.worker_processes < 0:
            raise ValueError(
                f"worker_processes must be >= 0, got {self.worker_processes}"
            )
        if self.worker_context not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(
                "worker_context must be None, 'fork', 'spawn' or "
                f"'forkserver', got {self.worker_context!r}"
            )
        if self.worker_grace_s <= 0:
            raise ValueError(
                f"worker_grace_s must be > 0, got {self.worker_grace_s}"
            )
        if self.shutdown_grace_s <= 0:
            raise ValueError(
                f"shutdown_grace_s must be > 0, got {self.shutdown_grace_s}"
            )

    @property
    def effective_degrade_depth(self) -> int:
        """The queue depth at which degradation kicks in."""
        if self.degrade_queue_depth is not None:
            return self.degrade_queue_depth
        return max(1, self.queue_limit // 2)
