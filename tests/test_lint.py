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

    def test_lr007_multiprocessing_outside_pool(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "service/service.py",
            "import multiprocessing\n",
        )
        assert [code for code, _ in findings] == ["LR007"]
        findings = lint_source(
            tmp_path,
            "engine.py",
            "from multiprocessing import Pipe\n",
        )
        assert [code for code, _ in findings] == ["LR007"]

    def test_lr007_lazy_import_still_flagged(self, tmp_path):
        # like LR006: which layer owns processes is not a nesting question
        findings = lint_source(
            tmp_path,
            "service/http.py",
            """
            def f():
                import multiprocessing
                return multiprocessing
            """,
        )
        assert [code for code, _ in findings] == ["LR007"]

    def test_lr007_os_fork_outside_pool(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "cli.py",
            """
            import os

            def f():
                return os.fork()
            """,
        )
        assert [code for code, _ in findings] == ["LR007"]

    def test_lr007_allowed_inside_pool(self, tmp_path):
        assert (
            lint_source(
                tmp_path, "service/pool.py", "import multiprocessing\n"
            )
            == []
        )

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
