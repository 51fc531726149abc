"""The project AST lint (repro.analysis.codebase): rules fire, tree is clean."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import codebase as lint_repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, relative, source):
    """Write *source* at repro/<relative> under tmp_path and lint it."""
    root = tmp_path / "repro"
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return [
        (code, message)
        for (_, _, code, message) in lint_repro.lint_file(root, path)
    ]


class TestRules:
    def test_lr001_bare_except(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "keywords/x.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        assert [code for code, _ in findings] == ["LR001"]

    def test_lr002_tracer_outside_entry_points(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "patterns/x.py",
            """
            def f():
                tracer = Tracer()
                return tracer
            """,
        )
        assert [code for code, _ in findings] == ["LR002"]

    def test_lr002_allows_entry_points(self, tmp_path):
        assert (
            lint_source(tmp_path, "engine.py", "tracer = Tracer()\n") == []
        )
        assert (
            lint_source(
                tmp_path, "observability/tracer.py", "t = Tracer()\n"
            )
            == []
        )

    def test_lr003_row_subscript_outside_relational(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "patterns/x.py",
            """
            def f(row):
                return row["Sname"]
            """,
        )
        assert [code for code, _ in findings] == ["LR003"]

    def test_lr003_allowed_inside_relational(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "relational/x.py",
                """
                def f(row):
                    return row["Sname"]
                """,
            )
            == []
        )

    def test_lr003_ignores_positional_indexing(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "patterns/x.py",
                """
                def f(row):
                    return row[0]
                """,
            )
            == []
        )

    def test_lr004_layering_violation(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "sql/x.py",
            "from repro.patterns.pattern import QueryPattern\n",
        )
        assert [code for code, _ in findings] == ["LR004"]

    def test_lr004_lazy_imports_are_exempt(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "relational/x.py",
                """
                def f():
                    from repro.analysis.sql_analyzers import analyze_select
                    return analyze_select
                """,
            )
            == []
        )

    def test_lr005_unnamed_thread(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "engine.py",
            """
            import threading

            def f(work):
                thread = threading.Thread(target=work)
                thread.start()
            """,
        )
        assert [code for code, _ in findings] == ["LR005"]
        assert "name=" in findings[0][1] and "daemon=" in findings[0][1]

    def test_lr005_bare_thread_name_missing_daemon(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "engine.py",
            """
            from threading import Thread

            def f(work):
                return Thread(target=work, name="worker")
            """,
        )
        assert [code for code, _ in findings] == ["LR005"]
        assert "daemon=" in findings[0][1]
        assert "name=" not in findings[0][1]

    def test_lr005_fully_specified_thread_is_fine(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "engine.py",
                """
                import threading

                def f(work):
                    return threading.Thread(
                        target=work, name="worker", daemon=True
                    )
                """,
            )
            == []
        )

    def test_lr005_service_layer_exempt(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "service/x.py",
                """
                import threading

                def f(work):
                    return threading.Thread(target=work)
                """,
            )
            == []
        )

    def test_lr005_ignores_unrelated_thread_attributes(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "engine.py",
                """
                def f(pool):
                    return pool.Thread()
                """,
            )
            == []
        )

    def test_lr006_sqlite3_outside_backends(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "relational/x.py",
            "import sqlite3\n",
        )
        assert [code for code, _ in findings] == ["LR006"]
        findings = lint_source(
            tmp_path,
            "engine.py",
            "from sqlite3 import connect\n",
        )
        assert [code for code, _ in findings] == ["LR006"]

    def test_lr006_allowed_inside_backends(self, tmp_path):
        assert (
            lint_source(tmp_path, "backends/sqlite.py", "import sqlite3\n")
            == []
        )

    def test_lr006_lazy_import_still_flagged(self, tmp_path):
        # unlike LR004, going through a function does not exempt sqlite3:
        # the rule is about which layer talks to sqlite at all
        findings = lint_source(
            tmp_path,
            "service/x.py",
            """
            def f():
                import sqlite3
                return sqlite3
            """,
        )
        assert [code for code, _ in findings] == ["LR006"]

    def test_lr008_binary_open_outside_storage(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "relational/x.py",
            """
            def f(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """,
        )
        assert [code for code, _ in findings] == ["LR008"]
        findings = lint_source(
            tmp_path,
            "engine.py",
            """
            def f(path):
                return open(path, mode="r+b")
            """,
        )
        assert [code for code, _ in findings] == ["LR008"]

    def test_lr008_text_open_is_fine(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "relational/x.py",
                """
                def f(path):
                    with open(path, "r", encoding="utf-8") as handle:
                        return handle.read()
                """,
            )
            == []
        )
        # a non-literal mode cannot be judged statically; stay silent
        assert (
            lint_source(
                tmp_path,
                "relational/x.py",
                """
                def f(path, mode):
                    return open(path, mode)
                """,
            )
            == []
        )

    def test_lr008_mmap_and_positioned_io_outside_storage(self, tmp_path):
        findings = lint_source(tmp_path, "cli.py", "import mmap\n")
        assert [code for code, _ in findings] == ["LR008"]
        findings = lint_source(
            tmp_path,
            "service/x.py",
            """
            import os

            def f(fd):
                return os.pread(fd, 4096, 0)
            """,
        )
        assert [code for code, _ in findings] == ["LR008"]

    def test_lr008_allowed_inside_storage(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "storage/pager.py",
                """
                import mmap
                import os

                def f(path, fd):
                    handle = open(path, "r+b")
                    return handle, os.pwrite(fd, b"x", 0)
                """,
            )
            == []
        )

    def test_lr004_fd_discovery_exemption(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "fd/discovery.py",
                "from repro.relational.table import Table\n",
            )
            == []
        )
        # the exemption is per-file: other fd modules stay pure
        findings = lint_source(
            tmp_path,
            "fd/closure.py",
            "from repro.relational.table import Table\n",
        )
        assert [code for code, _ in findings] == ["LR004"]

    def test_lr009_random_outside_planner(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "relational/x.py",
            """
            def f():
                import random

                return random.random()
            """,
        )
        assert [code for code, _ in findings] == ["LR009"]

    def test_lr009_random_allowed_in_planner_and_datasets(self, tmp_path):
        for relative in ("planner/stats.py", "datasets/gen2.py"):
            assert lint_source(tmp_path, relative, "import random\n") == []

    def test_lr009_cost_constants_outside_planner(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "backends/x.py",
            """
            SSD_COST_PARAMS = object()
            """,
        )
        assert [code for code, _ in findings] == ["LR009"]
        findings = lint_source(
            tmp_path,
            "relational/x.py",
            "FLASH_COST_PARAMS: object = None\n",
        )
        assert [code for code, _ in findings] == ["LR009"]

    def test_lr009_cost_constants_allowed_in_planner(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "planner/cost.py",
                "SSD_COST_PARAMS = object()\n",
            )
            == []
        )

    def test_lr009_importing_params_is_fine(self, tmp_path):
        # consuming the cost model is the point; only defining forks it
        assert (
            lint_source(
                tmp_path,
                "backends/x.py",
                """
                def f():
                    from repro.planner import params_for_backend

                    return params_for_backend("disk")
                """,
            )
            == []
        )

    def test_lr004_planner_layering(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "planner/x.py",
            "from repro.engine import KeywordSearchEngine\n",
        )
        assert [code for code, _ in findings] == ["LR004"]
        findings = lint_source(
            tmp_path,
            "relational/x.py",
            "from repro.planner import Optimizer\n",
        )
        assert [code for code, _ in findings] == ["LR004"]


    def test_lr010_database_wide_version_defined(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "relational/x.py",
            """
            class ShardedDatabase:
                schema_version = 3

                @property
                def data_version(self):
                    return (0, 0)

                def versions(self, table_names):  # per table: fine
                    return ()
            """,
        )
        assert [code for code, _ in findings] == ["LR010", "LR010"]
        assert "ShardedDatabase.data_version" in findings[1][1]

    def test_lr010_storage_engine_version_defined(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "storage/x.py",
            """
            class StorageEngine:
                @property
                def version(self):
                    return (0, 0)

                def versions(self, table_names):  # per table: fine
                    return ()
            """,
        )
        assert [code for code, _ in findings] == ["LR010"]
        assert "StorageEngine.version" in findings[0][1]

    def test_lr010_database_wide_version_read(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "planner/x.py",
            """
            def stale(self, database, plan):
                return (
                    database.data_version != plan.stamp
                    or self._db.version != plan.stamp
                    or self.database.version is None
                )
            """,
        )
        assert [code for code, _ in findings] == ["LR010"] * 3

    def test_lr010_per_table_versions_are_fine(self, tmp_path):
        assert (
            lint_source(
                tmp_path,
                "planner/x.py",
                """
                def stamp(database, select, table, manifest):
                    return (
                        database.versions(select.tables()),
                        database.table("T").version,
                        table.version,
                        manifest.format_version,
                    )
                """,
            )
            == []
        )


class TestLockRules:
    """LR011-LR013: the lock discipline, checked from ``# guarded-by:``
    declarations, and bounded waits on the request path."""

    def codes(self, tmp_path, source, relative="relational/x.py"):
        return [code for code, _ in lint_source(tmp_path, relative, source)]

    def test_lr011_unguarded_write_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "relational/x.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0  # guarded-by: _lock
                def bump(self):
                    with self._lock:
                        self.value += 1
                def reset(self):
                    self.value = 0
            """,
        )
        assert [code for code, _ in findings] == ["LR011"]
        assert "Counter.value is guarded-by _lock" in findings[0][1]
        assert "reset()" in findings[0][1]

    def test_lr011_guarded_writes_are_clean(self, tmp_path):
        assert (
            self.codes(
                tmp_path,
                """
                import threading
                from dataclasses import dataclass, field

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.value = 0  # guarded-by: _lock
                    def bump(self):
                        with self._lock:
                            self.value += 1
                            self.value, other = 0, 1

                @dataclass
                class Result:
                    _rows: list = field(default=None)  # guarded-by: _lock
                    _lock: object = field(default_factory=lambda: threading.Lock())
                    def fill(self):
                        if self._rows is None:
                            with self._lock:
                                self._rows = []
                """,
            )
            == []
        )

    def test_lr011_mutator_calls_and_subscripts_are_writes(self, tmp_path):
        assert self.codes(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}  # guarded-by: _lock
                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value
                def drop(self, key):
                    del self._entries[key]
                def wipe(self):
                    self._entries.clear()
            """,
        ) == ["LR011", "LR011"]

    def test_lr011_undeclared_attributes_are_not_checked(self, tmp_path):
        assert (
            self.codes(
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
            == []
        )

    def test_lr011_helpers_inherit_their_callers_lock(self, tmp_path):
        # load -> _ensure -> _store: the lock is only visible at the top
        source = """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = None  # guarded-by: _lock
                def load(self, value):
                    with self._lock:
                        self._ensure(value)
                def _ensure(self, value):
                    self._store(value)
                def _store(self, value):
                    self._data = value
            """
        assert self.codes(tmp_path, source) == []
        # one call site without the lock and the helpers inherit nothing
        unlocked = source + """
                def reload(self, value):
                    self._ensure(value)
            """
        assert self.codes(tmp_path, unlocked) == ["LR011"]

    def test_lr011_nested_functions_hold_nothing(self, tmp_path):
        assert self.codes(
            tmp_path,
            """
            import threading

            class Deferred:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._done = False  # guarded-by: _lock
                def later(self):
                    with self._lock:
                        def finish():
                            self._done = True
                    return finish
            """,
        ) == ["LR011"]

    def test_lr011_a_bare_acquire_does_not_hold(self, tmp_path):
        assert self.codes(
            tmp_path,
            """
            import threading

            class Breaker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = "closed"  # guarded-by: _lock
                def trip(self):
                    self._lock.acquire()
                    self._state = "open"
                    self._lock.release()
            """,
        ) == ["LR011"]

    def test_lr012_blocking_under_a_declared_lock(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "relational/x.py",
            """
            import queue
            import threading
            import time

            class Drain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()
                    self._taken = 0  # guarded-by: _lock
                def take(self):
                    with self._lock:
                        self._taken += 1
                        return self._queue.get()
                def nap(self):
                    with self._lock:
                        self._settle()
                def _settle(self):
                    time.sleep(0.01)
            """,
        )
        assert [code for code, _ in findings] == ["LR012", "LR012"]
        assert "un-timed queue get() while holding Drain._lock" in findings[0][1]
        assert "time.sleep()" in findings[1][1]

    def test_lr012_bounded_calls_and_str_join_are_clean(self, tmp_path):
        assert (
            self.codes(
                tmp_path,
                """
                import queue
                import threading
                import time

                class Drain:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._queue = queue.Queue()
                        self._parts = []  # guarded-by: _lock
                    def take(self):
                        with self._lock:
                            return self._queue.get(timeout=0.1)
                    def render(self):
                        with self._lock:
                            return ", ".join(self._parts)
                    def nap(self):
                        time.sleep(0.01)
                """,
            )
            == []
        )

    def test_lr013_untimed_waits_on_the_request_path(self, tmp_path):
        source = """
            import threading

            class Pending:
                def __init__(self, queue):
                    self._done = threading.Event()
                    self._queue = queue
                def wait(self):
                    self._done.wait()
                def next(self):
                    return self._queue.get()
            """
        assert self.codes(tmp_path, source, "service/x.py") == ["LR013", "LR013"]
        # off the request path an un-timed wait is not LR013
        assert self.codes(tmp_path, source, "relational/x.py") == []

    def test_lr013_timed_waits_are_clean(self, tmp_path):
        assert (
            self.codes(
                tmp_path,
                """
                import threading

                class Pending:
                    def __init__(self, queue):
                        self._done = threading.Event()
                        self._queue = queue
                    def wait(self, timeout):
                        return self._done.wait(timeout)
                    def next(self):
                        return self._queue.get(timeout=0.1)
                """,
                "service/x.py",
            )
            == []
        )


class TestTree:
    def test_src_repro_is_clean(self):
        findings = lint_repro.lint_tree(REPO_ROOT / "src" / "repro")
        assert findings == [], "\n".join(
            f"{path}:{lineno}: {code} {message}"
            for path, lineno, code, message in findings
        )

    def test_main_exit_codes(self, tmp_path, capsys):
        assert (
            lint_repro.main(["--root", str(REPO_ROOT / "src" / "repro")])
            == 0
        )
        bad = tmp_path / "repro" / "sql"
        bad.mkdir(parents=True)
        (bad / "x.py").write_text(
            "from repro.engine import KeywordSearchEngine\n",
            encoding="utf-8",
        )
        assert lint_repro.main(["--root", str(tmp_path / "repro")]) == 1
