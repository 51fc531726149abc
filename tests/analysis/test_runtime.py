"""The runtime lock-order sanitizer (C002/C007 at runtime)."""

from __future__ import annotations

import threading

from repro.analysis.runtime import (
    LockSanitizer,
    SanitizedLock,
    sanitizer_from_env,
)

THIS_FILE = "tests/analysis/test_runtime.py"


class TestFactoryPatch:
    def test_watched_frame_gets_sanitized_lock(self):
        sanitizer = LockSanitizer(watch=(THIS_FILE,))
        with sanitizer:
            lock = threading.Lock()
        assert isinstance(lock, SanitizedLock)
        assert lock.origin.path == THIS_FILE
        assert sanitizer._observations.created[lock.origin] == 1

    def test_unwatched_frame_gets_real_lock(self):
        sanitizer = LockSanitizer(watch=("no/such/path/",))
        with sanitizer:
            lock = threading.Lock()
        assert not isinstance(lock, SanitizedLock)

    def test_uninstall_restores_factories(self):
        real = threading.Lock
        sanitizer = LockSanitizer(watch=(THIS_FILE,))
        sanitizer.install()
        sanitizer.uninstall()
        assert threading.Lock is real
        assert not isinstance(threading.Lock(), SanitizedLock)

    def test_install_is_idempotent(self):
        sanitizer = LockSanitizer(watch=(THIS_FILE,))
        real = threading.Lock
        sanitizer.install()
        sanitizer.install()
        sanitizer.uninstall()
        assert threading.Lock is real


class TestLockProtocol:
    def test_context_manager_and_locked(self):
        sanitizer = LockSanitizer(watch=(THIS_FILE,))
        with sanitizer:
            lock = threading.Lock()
        with lock:
            assert lock.locked()
        assert not lock.locked()
        assert lock.origin in sanitizer._observations.acquired

    def test_rlock_reentrancy_records_outermost_only(self):
        sanitizer = LockSanitizer(watch=(THIS_FILE,))
        with sanitizer:
            lock = threading.RLock()
        assert isinstance(lock, SanitizedLock)
        with lock:
            with lock:
                pass
            # inner release must not pop the outer hold
            assert lock in sanitizer._state.held
        assert lock not in sanitizer._state.held

    def test_failed_acquire_not_recorded(self):
        sanitizer = LockSanitizer(watch=(THIS_FILE,))
        with sanitizer:
            lock = threading.Lock()
        lock.acquire()
        try:
            done = threading.Event()

            def contender():
                assert lock.acquire(False) is False
                done.set()

            thread = threading.Thread(
                target=contender, name="contender", daemon=True
            )
            thread.start()
            assert done.wait(5.0)
            thread.join(5.0)
        finally:
            lock.release()
        assert sanitizer._observations.created[lock.origin] == 1


class TestInversions:
    def test_seeded_inversion_detected(self):
        """The self-test the sanitizer must pass: A->B then B->A."""
        sanitizer = LockSanitizer(watch=(THIS_FILE,))
        with sanitizer:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        inversions = sanitizer.inversions()
        assert len(inversions) == 1
        assert {inversions[0][0], inversions[0][1]} == {
            lock_a.origin,
            lock_b.origin,
        }
        report = sanitizer.report()
        assert [d.code for d in report] == ["C002"]
        assert "inversion" in report[0].message

    def test_consistent_order_is_clean(self):
        sanitizer = LockSanitizer(watch=(THIS_FILE,))
        with sanitizer:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        assert sanitizer.inversions() == []
        assert sanitizer.report() == []
        edges = sanitizer.order_edges()
        assert edges[(lock_a.origin, lock_b.origin)] == 3

    def test_cross_thread_inversion_detected(self):
        sanitizer = LockSanitizer(watch=(THIS_FILE,))
        with sanitizer:
            lock_a = threading.Lock()
            lock_b = threading.Lock()

        def forward():
            with lock_a:
                with lock_b:
                    pass

        def backward():
            with lock_b:
                with lock_a:
                    pass

        for target in (forward, backward):
            thread = threading.Thread(
                target=target, name=target.__name__, daemon=True
            )
            thread.start()
            thread.join(5.0)
        assert len(sanitizer.inversions()) == 1


class TestLongHolds:
    def test_long_hold_reported_with_fake_clock(self):
        ticks = [0.0]

        def clock():
            return ticks[0]

        sanitizer = LockSanitizer(
            watch=(THIS_FILE,), hold_threshold_s=0.5, clock=clock
        )
        with sanitizer:
            lock = threading.Lock()
        with lock:
            ticks[0] = 2.0
        holds = sanitizer.long_holds()
        assert holds[lock.origin] == 2.0
        report = sanitizer.report()
        assert [d.code for d in report] == ["C007"]

    def test_short_hold_not_reported(self):
        sanitizer = LockSanitizer(watch=(THIS_FILE,), hold_threshold_s=10.0)
        with sanitizer:
            lock = threading.Lock()
        with lock:
            pass
        assert sanitizer.long_holds() == {}


class TestEnvGate:
    def test_disabled_when_unset(self):
        assert sanitizer_from_env(None) is None
        assert sanitizer_from_env("") is None

    def test_enabled_watches_package(self):
        sanitizer = sanitizer_from_env("1")
        assert sanitizer is not None
        assert sanitizer.watch == ("repro/",)


class TestRealTree:
    def test_search_observes_the_cross_class_order(self):
        """One executed search on the disk backend, every lock of the
        package watched: the engine's backend lock is held while the
        backend takes its own, and no pair is taken both ways."""
        from repro.datasets import university_database
        from repro.engine import KeywordSearchEngine

        with sanitizer_from_env("1") as sanitizer:
            engine = KeywordSearchEngine(university_database(), backend="disk")
            try:
                rows = engine.search("Green SUM Credit").best.rows()
            finally:
                engine.backend.close()
        assert rows
        edges = {
            (held.path, acquired.path) for held, acquired in sanitizer.order_edges()
        }
        assert ("repro/engine.py", "repro/backends/disk.py") in edges
        assert sanitizer.inversions() == []
