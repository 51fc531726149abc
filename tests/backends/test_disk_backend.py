"""The disk backend end to end: registry wiring, fidelity against the
in-memory engine, the page budget at dataset scale, lazy
rematerialization, and tempdir hygiene."""

from __future__ import annotations

import json
import os

import pytest

from repro.backends import DiskBackend, available_backends, create_backend
from repro.backends.differential import collect_statements
from repro.backends.normalize import canonical_rows
from repro.datasets import university_database
from repro.datasets.gen import generate_scaled
from repro.errors import StorageError
from repro.observability import Tracer
from repro.sql.parser import parse


class TestRegistry:
    def test_disk_backend_is_registered(self, university_db):
        assert "disk" in available_backends()
        backend = create_backend("disk", university_db)
        try:
            assert isinstance(backend, DiskBackend)
            assert backend.name == "disk"
            assert "paged-storage" in backend.capabilities
            assert "compiled-plans" in backend.capabilities
        finally:
            backend.close()


class TestFidelity:
    def test_university_workload_matches_memory(self):
        database, statements = collect_statements("university", k=4)
        memory = create_backend("memory", database)
        disk = create_backend("disk", database)
        try:
            for qid, source, select in statements:
                expected = memory.execute(select)
                got = disk.execute(select)
                assert got.columns == expected.columns, f"{qid} [{source}]"
                assert canonical_rows(got.rows) == canonical_rows(
                    expected.rows
                ), f"{qid} [{source}]"
        finally:
            memory.close()
            disk.close()

    def test_raw_sql_and_scalars(self, university_db):
        backend = create_backend("disk", university_db)
        try:
            count = backend.execute(parse("SELECT COUNT(*) FROM Student")).scalar()
            assert count == len(university_db.table("Student").rows)
            from_text = backend.execute("SELECT AVG(Credit) FROM Course")
            assert from_text.rows == [(4.0,)]
        finally:
            backend.close()


class TestPageBudget:
    def test_scaled_dataset_sweeps_within_budget(self):
        """A dataset several times the pool must run a join/group-by
        sweep without residency ever exceeding capacity."""
        database = generate_scaled("tpch", sf=1.0)
        backend = DiskBackend(pool_capacity=16, page_size=512)
        try:
            backend.load(database)
            pages = backend.storage_manifest()["totals"]["pages"]
            assert pages >= 4 * backend.pool_capacity
            statements = [
                "SELECT COUNT(*) FROM Lineitem",
                "SELECT mktsegment, COUNT(*) FROM Customer "
                "GROUP BY mktsegment",
                "SELECT Nation.nname, COUNT(*) FROM Customer, Nation "
                "WHERE Customer.nationkey = Nation.nationkey "
                "GROUP BY Nation.nname",
                "SELECT Part.type, SUM(Lineitem.quantity) "
                "FROM Part, Lineitem "
                "WHERE Part.partkey = Lineitem.partkey "
                "GROUP BY Part.type",
            ]
            memory = create_backend("memory", database)
            try:
                for sql in statements:
                    # execute() itself raises StorageError if residency
                    # ever exceeded capacity; cross-check results too.
                    got = backend.execute(sql)
                    expected = memory.execute(sql)
                    assert canonical_rows(got.rows) == canonical_rows(
                        expected.rows
                    ), sql
            finally:
                memory.close()
            counters = backend.pool_counters()
            assert counters["max_resident"] <= backend.pool_capacity
            assert counters["evictions"] > 0
            assert counters["hits"] > 0
        finally:
            backend.close()

    def test_pool_that_fits_the_data_serves_the_mix_from_resident_frames(self):
        """A pool that holds every page must not thrash: over the
        workload mix, run twice, at least half the page accesses hit."""
        database, statements = collect_statements("tpch")
        backend = DiskBackend(pool_capacity=64, page_size=2048)
        try:
            backend.load(database)
            pages = backend.storage_manifest()["totals"]["pages"]
            assert pages <= backend.pool_capacity
            for _ in range(2):
                for _qid, _source, select in statements:
                    backend.execute(select)
            counters = backend.pool_counters()
            accesses = counters["hits"] + counters["misses"]
            assert counters["hits"] / accesses >= 0.50, counters
        finally:
            backend.close()


class TestRematerialization:
    def test_append_is_applied_in_place(self):
        """Rows loaded into one table reach the open engine without a
        rebuild: same engine, same executor, only the new rows written."""
        database = university_database()
        tracer = Tracer()
        backend = DiskBackend(pool_capacity=16)
        count = parse("SELECT COUNT(*) FROM Student")
        named = parse("SELECT Sid FROM Student WHERE Sname LIKE '%zimmer%'")
        try:
            backend.load(database, tracer=tracer)
            before = backend.execute(count, tracer=tracer).scalar()
            engine, executor = backend._engine, backend._executor
            loaded = tracer.registry.counter("materialized_rows")
            database.load("Student", [(9901, "Zed Zimmer", 21)])
            assert backend.execute(count, tracer=tracer).scalar() == before + 1
            assert backend.execute(named, tracer=tracer).column("Sid") == ["9901"]
            assert backend._engine is engine and backend._executor is executor
            assert tracer.registry.counter("materializations") == 1
            assert tracer.registry.counter("materialized_rows") == loaded + 1
            manifest = backend.storage_manifest()
            assert manifest["tables"]["Student"]["rows"] == before + 1
            assert "delta" in manifest["spimi"]
        finally:
            backend.close()

    def test_data_version_bump_triggers_rebuild(self):
        """An update or delete moves the table's epoch, which has no
        in-place path: the whole directory is rebuilt."""
        database = university_database()
        tracer = Tracer()
        backend = DiskBackend(pool_capacity=16)
        count = parse("SELECT COUNT(*) FROM Student")
        try:
            backend.load(database, tracer=tracer)
            before = backend.execute(count, tracer=tracer).scalar()
            assert "epoch" not in backend.storage_manifest()["tables"]["Student"]
            key = database.table("Student").rows[0][:1]
            database.table("Student").delete(key)
            assert backend.execute(count, tracer=tracer).scalar() == before - 1
            assert tracer.registry.counter("materializations") == 2
            assert backend.storage_manifest()["tables"]["Student"]["epoch"] == 1
            assert "delta" not in backend.storage_manifest()["spimi"]
        finally:
            backend.close()

    def test_fresh_materialization_is_reused(self, tmp_path):
        database = university_database()
        directory = str(tmp_path / "disk")
        first = DiskBackend(path=directory)
        first.load(database)
        first.close()
        tracer = Tracer()
        second = DiskBackend(path=directory)
        try:
            second.load(database, tracer=tracer)
            assert tracer.registry.counter("materializations_reused") == 1
            assert tracer.registry.counter("materializations") == 0
            count = second.execute(parse("SELECT COUNT(*) FROM Student")).scalar()
            assert count == len(database.table("Student").rows)
        finally:
            second.close()
        # an explicit path is the caller's: close() must not remove it
        assert os.path.isdir(directory)

    def test_format_1_materialization_is_rebuilt(self, tmp_path):
        database = university_database()
        directory = str(tmp_path / "disk")
        first = DiskBackend(path=directory)
        first.load(database)
        first.close()
        manifest_path = os.path.join(directory, "MANIFEST.json")
        with open(manifest_path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["format"] = 1  # what the record-at-a-time heap format wrote
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        tracer = Tracer()
        second = DiskBackend(path=directory)
        try:
            second.load(database, tracer=tracer)
            assert tracer.registry.counter("materializations") == 1
            assert tracer.registry.counter("materializations_reused") == 0
            assert second.storage_manifest()["format"] == 2
            count = second.execute(parse("SELECT COUNT(*) FROM Student")).scalar()
            assert count == len(database.table("Student").rows)
        finally:
            second.close()

    def test_materialize_span_and_row_counters(self):
        database = university_database()
        tracer = Tracer()
        backend = DiskBackend()
        try:
            backend.load(database, tracer=tracer)
            total = sum(
                len(database.table(relation.name).rows)
                for relation in database.schema
            )
            assert tracer.registry.counter("materialized_rows") == total
            assert tracer.registry.counter("materialized_pages") > 0
            assert tracer.registry.timing("span.materialize") is not None
        finally:
            backend.close()


class TestLifecycle:
    def test_close_removes_owned_tempdir(self):
        backend = DiskBackend()
        backend.load(university_database())
        directory = backend.directory
        assert os.path.isdir(directory)
        backend.close()
        assert not os.path.exists(directory)
        assert backend.path is None

    def test_execute_before_load_raises(self):
        backend = DiskBackend()
        with pytest.raises(Exception):
            backend.execute(parse("SELECT 1 FROM Student"))

    def test_manifest_before_load_raises(self):
        backend = DiskBackend()
        with pytest.raises(StorageError, match="no materialization"):
            backend.storage_manifest()
