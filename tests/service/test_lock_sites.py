"""Stress tests for the two riskiest lock sites of the service.

The project lint (LR011, :mod:`repro.analysis.codebase`) proves the
*discipline* — every ``CircuitBreaker`` state write holds ``_lock``,
every ``ResultCache`` map write holds ``_lock``, as their
``# guarded-by:`` declarations say — but discipline alone does not prove
the *protocols* built on top of it.  These tests hammer the two
protocols whose failure modes are silent:

* the breaker's half-open probe admission: ``would_reject`` (the
  non-mutating admission fast path) racing ``allow`` / ``record_*``
  (the worker-side mutators) must admit **exactly one** probe per
  half-open window, whatever the interleaving;
* the result cache's single-flight contract: however many threads miss
  the same key at once, **exactly one** runs the loader; everyone gets
  the same value.

Run them under ``REPRO_LOCK_SANITIZER=1`` and they double as the
runtime sanitizer's workload for the service locks.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServiceUnavailableError
from repro.service import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, ResultCache


class TestBreakerHalfOpenRace:
    """would_reject vs allow vs record_* around the OPEN -> HALF_OPEN edge."""

    def _tripped(self, reset_s=0.02):
        breaker = CircuitBreaker(failure_threshold=1, reset_s=reset_s)
        assert breaker.record_failure() == [(CLOSED, OPEN)]
        return breaker

    def test_exactly_one_probe_admitted(self):
        breaker = self._tripped()
        time.sleep(0.05)  # reset window elapsed: next allow() is a probe
        n = 16
        barrier = threading.Barrier(n)
        admitted = []
        rejected = []

        def contender(idx):
            barrier.wait(timeout=10.0)
            try:
                breaker.allow()
            except ServiceUnavailableError:
                rejected.append(idx)
            else:
                admitted.append(idx)

        threads = [
            threading.Thread(
                target=contender, args=(i,), name=f"probe-{i}", daemon=True
            )
            for i in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(admitted) == 1
        assert len(rejected) == n - 1
        assert breaker.state == HALF_OPEN
        # the lone probe succeeds: breaker closes, backoff resets
        assert breaker.record_success() == [(HALF_OPEN, CLOSED)]
        assert breaker.snapshot()["reset_s"] == breaker.base_reset_s

    def test_would_reject_racing_the_probe_transition(self):
        """The admission fast path must never steal or duplicate a probe."""
        rounds = 30
        for round_no in range(rounds):
            breaker = self._tripped(reset_s=0.005)
            time.sleep(0.01)
            n = 8
            barrier = threading.Barrier(n + 1)
            outcomes = []
            stop = threading.Event()

            def spin_would_reject():
                barrier.wait(timeout=10.0)
                while not stop.is_set():
                    # never raises, never mutates: open-and-due, half-open
                    # and closed all return False
                    assert breaker.would_reject() in (False, True)

            def contender():
                barrier.wait(timeout=10.0)
                try:
                    breaker.allow()
                except ServiceUnavailableError:
                    outcomes.append("rejected")
                else:
                    outcomes.append("admitted")

            spinner = threading.Thread(
                target=spin_would_reject, name="would-reject", daemon=True
            )
            threads = [
                threading.Thread(
                    target=contender, name=f"allow-{i}", daemon=True
                )
                for i in range(n)
            ]
            spinner.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            stop.set()
            spinner.join(10.0)
            assert outcomes.count("admitted") == 1, (
                f"round {round_no}: {outcomes}"
            )
            # alternate probe verdicts; bookkeeping must stay balanced
            if round_no % 2 == 0:
                assert breaker.record_success() == [(HALF_OPEN, CLOSED)]
                assert breaker.state == CLOSED
            else:
                assert breaker.record_failure() == [(HALF_OPEN, OPEN)]
                assert breaker.state == OPEN
            assert breaker.snapshot()["state"] in (CLOSED, OPEN)

    def test_failed_probe_backs_off_exactly_once(self):
        breaker = self._tripped(reset_s=0.01)
        time.sleep(0.03)
        breaker.allow()
        # concurrent latecomers during the probe are rejected, and their
        # rejections must not touch the backoff bookkeeping
        for _ in range(4):
            with pytest.raises(ServiceUnavailableError):
                breaker.allow()
        breaker.record_failure()
        assert breaker.snapshot()["reset_s"] == pytest.approx(
            0.01 * breaker.backoff_factor
        )


class TestSingleFlightStress:
    """ResultCache: exactly one loader per key, however many racers."""

    def test_one_loader_per_key_under_contention(self):
        cache = ResultCache(size=64, ttl_s=60.0)
        keys = [f"key-{i}" for i in range(8)]
        loads = {key: 0 for key in keys}
        loads_lock = threading.Lock()

        def loader_for(key):
            def compute():
                with loads_lock:
                    loads[key] += 1
                time.sleep(0.01)  # widen the window followers race into
                return f"value-{key}"

            return compute

        n = 32
        barrier = threading.Barrier(n)
        results = [None] * n
        errors = []

        def racer(idx):
            key = keys[idx % len(keys)]
            try:
                barrier.wait(timeout=10.0)
                value, outcome = cache.get_or_compute(
                    key, loader_for(key), timeout=10.0
                )
                results[idx] = (key, value, outcome)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [
            threading.Thread(
                target=racer, args=(i,), name=f"racer-{i}", daemon=True
            )
            for i in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert errors == []
        assert all(loads[key] == 1 for key in keys), loads
        for idx, (key, value, outcome) in enumerate(results):
            assert value == f"value-{key}"
            assert outcome in ("miss", "coalesced", "hit")
        # per key: exactly one miss (the leader), the rest coalesced/hit
        for key in keys:
            outcomes = [r[2] for r in results if r[0] == key]
            assert outcomes.count("miss") == 1, (key, outcomes)

    def test_repeated_rounds_stay_single_flight(self):
        cache = ResultCache(size=16, ttl_s=60.0)
        loads = []

        def compute():
            loads.append(threading.current_thread().name)
            time.sleep(0.005)
            return 42

        for round_no in range(10):
            n = 12
            barrier = threading.Barrier(n)

            def racer():
                barrier.wait(timeout=10.0)
                # a new stamp each round forces a fresh flight
                value, _ = cache.get_or_compute(
                    "k", compute, stamp=round_no, timeout=10.0
                )
                assert value == 42

            threads = [
                threading.Thread(
                    target=racer, name=f"r{round_no}-{i}", daemon=True
                )
                for i in range(n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            assert len(loads) == round_no + 1, (
                f"round {round_no} ran {len(loads) - round_no} loaders"
            )

    def test_leader_failure_releases_followers_not_poisons_cache(self):
        cache = ResultCache(size=16, ttl_s=60.0)
        gate = threading.Event()
        boom = RuntimeError("loader exploded")

        def failing():
            gate.wait(5.0)
            raise boom

        follower_errors = []
        started = threading.Barrier(2)

        def leader():
            started.wait(timeout=10.0)
            try:
                cache.get_or_compute("k", failing, timeout=10.0)
            except RuntimeError as exc:
                follower_errors.append(("leader", exc))

        def follower():
            started.wait(timeout=10.0)
            time.sleep(0.02)  # let the leader win the flight
            try:
                cache.get_or_compute("k", failing, timeout=10.0)
            except RuntimeError as exc:
                follower_errors.append(("follower", exc))

        threads = [
            threading.Thread(target=leader, name="leader", daemon=True),
            threading.Thread(target=follower, name="follower", daemon=True),
        ]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(10.0)
        roles = sorted(role for role, _ in follower_errors)
        assert roles in (["follower", "leader"], ["leader"])
        # the failure was not cached: the next compute runs fresh
        value, outcome = cache.get_or_compute("k", lambda: 7, timeout=5.0)
        assert (value, outcome) == (7, "miss")
