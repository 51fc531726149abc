"""TTL result cache with single-flight deduplication.

The service caches finished response payloads by
``(dataset, engine, mode, query, k, backend)``.  Two properties matter under
concurrency:

* **TTL + LRU** — an entry is served only while fresh
  (``ttl_s`` seconds) and the cache holds at most ``size`` entries,
  evicting the least recently used
  (:class:`~repro.relational.lru.StampedLRU`).
* **Single-flight** — when several identical requests arrive while the
  answer is being computed, exactly one (the *leader*) computes; the
  rest (*followers*) block on the leader's flight and share its result,
  so a thundering herd of the same query costs one engine run.  A
  follower whose deadline expires while waiting gives up with
  :class:`~repro.errors.DeadlineExceededError` without disturbing the
  leader.

* **Stamps** — every entry and every flight carries the stamp of the
  data it was computed from (the versions of the tables it read), read
  by the caller before it looks up.  A lookup at another stamp treats
  the entry as absent and starts its own flight rather than joining an
  older one, so a value computed before a write is never served after
  it.

Every lookup reports one of three outcomes — ``"hit"``, ``"miss"``
(leader) or ``"coalesced"`` (follower) — which the service turns into
the ``result_cache_hits`` / ``result_cache_misses`` /
``singleflight_coalesced`` counters; the three add up to the number of
admitted requests that reached the cache, which is what makes the
``/metrics`` reconciliation in ``docs/SERVING.md`` possible.

The clock is injectable (monotonic by default) so tests can expire
entries deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.errors import DeadlineExceededError
from repro.relational.lru import StampedLRU

__all__ = ["ResultCache"]


class _Flight:
    """One in-progress computation other requests may wait on."""

    __slots__ = ("stamp", "done", "value", "error", "followers")

    def __init__(self, stamp: Hashable) -> None:
        self.stamp = stamp
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.followers = 0


class ResultCache:
    """Bounded TTL cache with single-flight deduplication."""

    def __init__(
        self,
        size: int = 256,
        ttl_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl_s < 0:
            raise ValueError(f"ttl_s must be >= 0, got {ttl_s}")
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        # key -> (expires_at, value), each at its stamp
        self._entries = StampedLRU(size)
        self._flights: Dict[Hashable, _Flight] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        stamp: Hashable = None,
        timeout: Optional[float] = None,
        observe: Optional[Callable[[str], None]] = None,
    ) -> Tuple[Any, str]:
        """The cached value for *key* at *stamp*, computing on miss.

        Returns ``(value, outcome)`` with outcome ``"hit"``, ``"miss"``
        or ``"coalesced"``.  *stamp* is the version of the data *compute*
        reads, taken before this call: an entry or flight of another
        stamp is never served, and the value computed here is stored
        under it.  *timeout* bounds how long a follower waits for the
        leader (seconds; None waits indefinitely) — on expiry it raises
        :class:`DeadlineExceededError`.  A leader's exception propagates
        to the leader and every follower of that flight, and is never
        cached.

        *observe*, when given, is called with the outcome as soon as the
        request's role is decided — **before** the compute or the wait,
        so the outcome is reported even when they fail.  That ordering
        is what makes the service's ``admitted = hits + misses +
        coalesced`` reconciliation exact.
        """
        with self._lock:
            cached = self._fresh_entry(key, stamp)
            if cached is not None:
                outcome = "hit"
            else:
                flight = self._flights.get(key)
                if flight is None or flight.stamp != stamp:
                    # a flight of another stamp keeps its followers but
                    # is no longer offered to new requests
                    flight = self._flights[key] = _Flight(stamp)
                    outcome = "miss"
                else:
                    flight.followers += 1
                    outcome = "coalesced"
        if observe is not None:
            observe(outcome)
        if outcome == "hit":
            return cached[1], "hit"
        if outcome == "coalesced":
            return self._wait(key, flight, timeout), "coalesced"
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                self._land(key, flight)
            flight.error = exc
            flight.done.set()
            raise
        with self._lock:
            # only the key's current flight stores: a newer one owns it
            if self._land(key, flight) and self.ttl_s > 0:
                self._entries.put(key, (self._clock() + self.ttl_s, value), stamp)
        flight.value = value
        flight.done.set()
        return value, "miss"

    def _wait(self, key: Hashable, flight: _Flight, timeout: Optional[float]) -> Any:
        if not flight.done.wait(timeout):
            raise DeadlineExceededError(
                f"timed out waiting for in-flight computation of {key!r}"
            )
        if flight.error is not None:
            raise flight.error
        return flight.value

    # ------------------------------------------------------------------
    # Bookkeeping (callers hold the lock)
    # ------------------------------------------------------------------
    def _land(self, key: Hashable, flight: _Flight) -> bool:
        """Stop offering the leader's own *flight* to new requests;
        False when a later leader owns the key by now."""
        if self._flights.get(key) is not flight:
            return False
        del self._flights[key]
        return True

    def _fresh_entry(
        self, key: Hashable, stamp: Hashable
    ) -> Optional[Tuple[float, Any]]:
        """*key*'s entry if it is at *stamp* and unexpired; an expired
        one is dropped, so it is replaced rather than kept beside its
        successor."""
        entry = self._entries.get(key, stamp)
        if entry is not None and self._clock() >= entry[0]:
            self._entries.discard(key)
            return None
        return entry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)
