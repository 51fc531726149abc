"""The static lock-discipline pass (C001–C004, C006) and its lock model."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.concurrency import (
    LockId,
    analyze_concurrency,
    build_lock_model,
)


def _tree(tmp_path, source, name="mod.py", subdir=""):
    """Materialize *source* as a tiny package tree and return its root."""
    root = tmp_path / "repro"
    target = root / subdir if subdir else root
    target.mkdir(parents=True, exist_ok=True)
    (target / name).write_text(textwrap.dedent(source))
    return root


def _analyze(tmp_path, source, **kwargs):
    return analyze_concurrency(root=_tree(tmp_path, source, **kwargs))


class TestLockDiscovery:
    def test_instance_and_class_and_factory_locks(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading
            from dataclasses import dataclass, field

            class A:
                shared = threading.Lock()
                def __init__(self):
                    self._lock = threading.RLock()

            @dataclass
            class B:
                _lock: threading.Lock = field(default_factory=threading.Lock)
            """,
        )
        sites = {str(s.lock): s for s in report.model.lock_sites()}
        assert sites["A.shared"].kind == "Lock"
        assert sites["A._lock"].kind == "RLock"
        assert sites["B._lock"].via_factory
        assert not sites["A._lock"].via_factory

    def test_non_threading_condition_is_not_a_lock(self, tmp_path):
        # patterns/generator.py defines its own Condition dataclass;
        # only the threading.X spelling may count
        report = _analyze(
            tmp_path,
            """
            class Condition:
                pass

            class Holder:
                def __init__(self):
                    self._cond = Condition()
            """,
        )
        assert report.model.lock_sites() == []


class TestC001GuardDiscipline:
    def test_mixed_writes_flagged_at_unguarded_site(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0
                def bump(self):
                    with self._lock:
                        self.value += 1
                def reset(self):
                    self.value = 0
            """,
        )
        assert [f.code for f in report.findings] == ["C001"]
        assert "Counter.value" in report.findings[0].message
        assert report.findings[0].location.endswith(":12")

    def test_all_guarded_writes_infer_the_guard(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0
                def bump(self):
                    with self._lock:
                        self.value += 1
            """,
        )
        assert report.ok
        assert report.model.guards[("Counter", "value")] == (
            LockId("Counter", "_lock"),
        )

    def test_fresh_object_writes_are_exempt(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Flight:
                def __init__(self):
                    self.value = None

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                def start(self):
                    flight = Flight()
                    with self._lock:
                        flight.value = 0
                    flight.value = 1  # unpublished: single-owner
                    return flight
            """,
        )
        assert report.ok

    def test_mutator_calls_count_as_writes(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}
                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value
                def wipe(self):
                    self._entries.clear()
            """,
        )
        assert [f.code for f in report.findings] == ["C001"]

    def test_guarded_by_annotation_violation(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class State:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.mode = "idle"  # guarded-by: _lock
                def set_mode(self, mode):
                    self.mode = mode
            """,
        )
        assert [f.code for f in report.findings] == ["C001"]
        assert "declared guarded-by _lock" in report.findings[0].message

    def test_guarded_by_annotation_unknown_lock(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class State:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.mode = "idle"  # guarded-by: _missing
                def set_mode(self, mode):
                    with self._lock:
                        self.mode = mode
            """,
        )
        assert [f.code for f in report.findings] == ["C001"]
        assert "unknown lock" in report.findings[0].message

    def test_held_inheritance_through_helper_chain(self, tmp_path):
        # load -> _ensure -> _store, lock only visible at the top
        report = _analyze(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = None
                def load(self, value):
                    with self._lock:
                        self._ensure(value)
                def _ensure(self, value):
                    self._store(value)
                def _store(self, value):
                    self._data = value
                def read(self):
                    with self._lock:
                        self._data = None
            """,
        )
        assert report.ok
        assert ("Store", "_data") in report.model.guards


class TestC002LockOrder:
    def test_inverted_order_is_a_cycle(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                def forward(self):
                    with self._a:
                        with self._b:
                            pass
                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """,
        )
        assert [f.code for f in report.findings] == ["C002"]
        assert "Pair._a" in report.findings[0].message
        assert "Pair._b" in report.findings[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                def one(self):
                    with self._a:
                        with self._b:
                            pass
                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """,
        )
        assert report.ok
        edge = (LockId("Pair", "_a"), LockId("Pair", "_b"))
        assert edge in report.model.order_edges

    def test_edges_through_self_calls(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Nested:
                def __init__(self):
                    self._outer = threading.Lock()
                    self._inner = threading.Lock()
                def entry(self):
                    with self._outer:
                        self.helper()
                def helper(self):
                    with self._inner:
                        pass
            """,
        )
        edge = (LockId("Nested", "_outer"), LockId("Nested", "_inner"))
        assert edge in report.model.order_edges


class TestC003Blocking:
    def test_untimed_queue_get_under_lock(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import queue
            import threading

            class Drain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()
                def take(self):
                    with self._lock:
                        return self._queue.get()
            """,
        )
        assert [f.code for f in report.findings] == ["C003"]

    def test_timed_get_is_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import queue
            import threading

            class Drain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()
                def take(self):
                    with self._lock:
                        return self._queue.get(timeout=0.1)
            """,
        )
        assert report.ok

    def test_pipe_send_under_lock(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Courier:
                def __init__(self, conn):
                    self._lock = threading.Lock()
                    self.conn = conn
                def ship(self, msg):
                    with self._lock:
                        self.conn.send(msg)
            """,
        )
        assert [f.code for f in report.findings] == ["C003"]

    def test_str_join_is_not_blocking(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Formatter:
                def __init__(self):
                    self._lock = threading.Lock()
                def render(self, parts):
                    with self._lock:
                        return ", ".join(parts)
            """,
        )
        assert report.ok


class TestC004ManualAcquire:
    def test_acquire_without_finally(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Leaky:
                def __init__(self):
                    self._lock = threading.Lock()
                def grab(self):
                    self._lock.acquire()
                    return True
            """,
        )
        assert [f.code for f in report.findings] == ["C004"]

    def test_acquire_with_finally_is_clean_and_guards(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Careful:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0
                def bump(self):
                    acquired = self._lock.acquire(timeout=1.0)
                    try:
                        self.value += 1
                    finally:
                        if acquired:
                            self._lock.release()
                def also(self):
                    with self._lock:
                        self.value += 2
            """,
        )
        assert report.ok
        assert ("Careful", "value") in report.model.guards

    def test_lock_escape_via_return(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Exposer:
                def __init__(self):
                    self._lock = threading.Lock()
                def lock(self):
                    return self._lock
            """,
        )
        assert [f.code for f in report.findings] == ["C004"]
        assert "escapes" in report.findings[0].message


class TestC006RequestPathWaits:
    def test_untimed_wait_on_service_path(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Pending:
                def __init__(self):
                    self._done = threading.Event()
                def wait(self):
                    self._done.wait()
            """,
            subdir="service",
        )
        assert "C006" in [f.code for f in report.findings]

    def test_timed_wait_is_clean(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Pending:
                def __init__(self):
                    self._done = threading.Event()
                def wait(self, timeout):
                    self._done.wait(timeout)
            """,
            subdir="service",
        )
        assert report.ok

    def test_untimed_wait_off_service_path_not_c006(self, tmp_path):
        report = _analyze(
            tmp_path,
            """
            import threading

            class Pending:
                def __init__(self):
                    self._done = threading.Event()
                def wait(self):
                    self._done.wait()
            """,
        )
        assert "C006" not in [f.code for f in report.findings]


class TestSuppressions:
    SOURCE = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0
            def bump(self):
                with self._lock:
                    self.value += 1
            def reset(self):
                {comment}
                self.value = 0
        """

    def test_justified_suppression_is_honoured(self, tmp_path):
        report = _analyze(
            tmp_path,
            self.SOURCE.format(
                comment="# lock-ok: C001 reset only runs pre-start"
            ),
        )
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].justification == (
            "reset only runs pre-start"
        )

    def test_bare_suppression_keeps_the_finding(self, tmp_path):
        report = _analyze(
            tmp_path, self.SOURCE.format(comment="# lock-ok: C001")
        )
        assert [f.code for f in report.findings] == ["C001"]
        assert "justification" in report.findings[0].message

    def test_wrong_code_does_not_suppress(self, tmp_path):
        report = _analyze(
            tmp_path,
            self.SOURCE.format(comment="# lock-ok: C003 wrong family"),
        )
        assert [f.code for f in report.findings] == ["C001"]

    def test_multiline_comment_block_suppresses(self, tmp_path):
        report = _analyze(
            tmp_path,
            self.SOURCE.format(
                comment=(
                    "# lock-ok: C001 reset only runs before the workers\n"
                    "        # exist, so no concurrent bump is possible"
                )
            ),
        )
        assert report.ok


class TestRealTree:
    """The acceptance gate: the shipped tree itself must be clean."""

    @pytest.fixture(scope="class")
    def report(self):
        return analyze_concurrency()

    def test_tree_is_clean(self, report):
        assert report.findings == [], "\n".join(
            str(f) for f in report.findings
        )

    def test_every_suppression_is_justified(self, report):
        for suppressed in report.suppressed:
            assert suppressed.justification.strip()

    def test_known_guards_inferred(self, report):
        guards = report.model.guards
        assert guards[("ResultCache", "_entries")] == (
            LockId("ResultCache", "_lock"),
        )
        assert guards[("CircuitBreaker", "_state")] == (
            LockId("CircuitBreaker", "_lock"),
        )
        assert guards[("QueryService", "_running")] == (
            LockId("QueryService", "_lifecycle_lock"),
        )
        assert guards[("KeywordSearchEngine", "_pattern_cache")] == (
            LockId("KeywordSearchEngine", "_pattern_cache_lock"),
        )
        # index arrays are merged and appended in place under the lock
        for attr in ("_keys", "_positions"):
            assert guards[("NumericIndex", attr)] == (LockId("NumericIndex", "_lock"),)
        assert guards[("InvertedIndex", "_postings")] == (
            LockId("InvertedIndex", "_lock"),
        )

    def test_engine_factory_lock_marked(self, report):
        sites = {str(s.lock): s for s in report.model.lock_sites()}
        assert sites["Interpretation._execute_lock"].via_factory

    def test_build_lock_model_shortcut(self):
        model = build_lock_model()
        assert ("ResultCache", "_entries") in model.guards
        guarding = model.guarding_locks()
        assert LockId("ResultCache", "_lock") in guarding
