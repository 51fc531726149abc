"""Appends running beside reads, through the service, on three backends.

The reader/writer rule for what an append maintains in place
(``repro/relational/index.py``): every index owns a lock; ``catch_up``
extends the postings only while holding it and every probe reads them
while holding it.  The statistics catalog continues a table's pass under
its own lock, and the SQLite and disk backends apply a delta under the
lock that already serializes their statements.  So a reader never sees
a structure mid-growth: it sees the rows of the table as of some moment
between asking and being answered — at least every row loaded before it
asked, at most those loaded by the time it was answered — and, because
rows under one epoch only grow, every position an index hands it is
valid in ``table.rows``.

(Updates and deletes move rows under positions a running reader may
hold, so they need that table's readers quiesced; they are not part of
this test.  A *coalesced* response is answered with what its flight's
leader read, and ``ResultCache.invalidate`` detaches the flights begun
before it: so a follower's lower bound is every load whose
``clear_cache()`` had returned when it asked, not every row the table
held by then.)

The executor reads tables by column (``Table.columns``), vectors that
are extended in place under the table's lock while readers cut them to
one row count: a reader that saw vectors of two lengths would mis-pair
amounts and priorities, and both statements' answers would leave the
bounds.

Under ``REPRO_LOCK_SANITIZER=strict`` this doubles as the sanitizer's
workload for writes: the service's locks are taken on every request
while the data locks beneath them are contended.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.datasets import generate_tpch
from repro.engine import KeywordSearchEngine
from repro.service import QueryService, ServiceConfig, ServiceRequest

BACKENDS = ("memory", "sqlite", "disk")
ROUNDS = 24
ROWS_PER_LOAD = 20
READERS = 3  # more threads than the machine has cores
FLOOR = 1_000_000.0  # above every generated amount


def test_reads_beside_appends_see_whole_loads():
    database = generate_tpch()
    order = database.table("Order")
    base = len(order.rows)
    urgent = sum(1 for row in order.rows if "URGENT" in row[4])
    engine = KeywordSearchEngine(database, backend_options={"pool_capacity": 16})
    service = QueryService(
        ServiceConfig(
            max_workers=4, queue_limit=64, cache_ttl_s=0.0, default_deadline_s=60.0
        )
    )
    service.register_dataset("tpch", engine)
    done = threading.Event()
    errors = []
    answered = [0] * READERS
    cleared = [0]  # appended rows whose clear_cache() has returned

    def writer() -> None:
        try:
            for round_no in range(ROUNDS):
                start = len(order.rows) - base
                database.load(
                    "Order",
                    [
                        # a new token per row: the vocabulary grows under
                        # the readers that are walking it
                        (10_000_000 + n, 1, FLOOR + n + 1, f"{3000 + n}-01-01", "1-URGENT")
                        for n in range(start, start + ROWS_PER_LOAD)
                    ],
                )
                engine.clear_cache()
                cleared[0] = start + ROWS_PER_LOAD
                # paced by the readers, so that every load has reads
                # beside it and after it
                target = sum(answered) + READERS
                deadline = time.monotonic() + 30.0
                while (
                    sum(answered) < target
                    and not errors
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.0005)
        except Exception as exc:  # pragma: no cover - diagnostic aid
            errors.append(exc)
        finally:
            done.set()

    def appended_rows(query: str, rows) -> int:
        """How many appended rows the answer accounts for."""
        if query == "order MAX amount":
            ((highest,),) = rows
            return max(0, round(highest - FLOOR))
        return len(rows) - urgent  # one group per urgent order

    def reader(index: int) -> None:
        try:
            turn = index
            while not done.is_set() or answered[index] < len(BACKENDS) * 2:
                query = ("order MAX amount", "COUNT order URGENT")[turn % 2]
                backend = BACKENDS[(turn // 2) % len(BACKENDS)]
                turn += 1
                invalidated = cleared[0]
                before = len(order.rows) - base
                response = service.serve(
                    ServiceRequest(query=query, k=1, backend=backend), timeout=60.0
                )
                after = len(order.rows) - base
                assert response.ok, (query, backend, response.status, response.payload)
                seen = appended_rows(query, response.payload["best"]["rows"])
                if response.cache == "coalesced":
                    before = invalidated
                assert before <= seen <= after, (query, backend, before, seen, after)
                answered[index] += 1
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    def column_reader() -> None:
        """What a sequential scan of two columns does, bare: vectors of
        one length, whose appended values still pair up row for row."""
        try:
            while not done.is_set():
                before = len(order.rows) - base
                keys, amounts = order.columns([0, 2])
                assert len(keys) == len(amounts) >= base + before
                assert [k - 10_000_000 for k in keys[base:]] == [
                    round(a - FLOOR - 1) for a in amounts[base:]
                ]
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with service:
            for backend in BACKENDS:  # materialize before the race starts
                assert service.serve(
                    ServiceRequest(query="order MAX amount", k=1, backend=backend),
                    timeout=60.0,
                ).ok
            storage = engine.get_backend("disk")._engine
            connection = engine.get_backend("sqlite")._conn
            threads = [
                threading.Thread(target=writer, name="writer", daemon=True),
                threading.Thread(target=column_reader, name="columns", daemon=True),
            ] + [
                threading.Thread(
                    target=reader, args=(i,), name=f"reader-{i}", daemon=True
                )
                for i in range(READERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
            hung = [thread.name for thread in threads if thread.is_alive()]
            assert not hung, f"threads still running: {hung}"
            # nothing was rebuilt along the way: the loads reached the
            # disk directory and SQLite as deltas
            assert engine.get_backend("disk")._engine is storage
            assert engine.get_backend("sqlite")._conn is connection
    finally:
        sys.setswitchinterval(interval)
        for name in BACKENDS:
            engine.get_backend(name).close()
    assert not errors, errors
    assert len(order.rows) == base + ROUNDS * ROWS_PER_LOAD
    assert all(count >= len(BACKENDS) * 2 for count in answered), answered
    # ... and the statistics as continued passes, one full pass a table
    assert engine.executor.optimizer.catalog.builds <= len(database.tables())


def test_index_probes_beside_catch_up_never_see_postings_mid_growth():
    """The rule itself, without the service above it: probes that walk
    the vocabulary (``positions_for_contains``, ``tokens_with_prefix``)
    or copy a posting set run while loads keep adding tokens and
    positions.  A probe taken outside the index's lock dies here with
    "dictionary changed size during iteration"."""
    database = generate_tpch()
    order = database.table("Order")
    base = len(order.rows)
    assert database.text_index.tokens_with_prefix("fresh") == []
    done = threading.Event()
    errors = []
    probes = [0] * READERS

    def writer() -> None:
        try:
            for _ in range(ROUNDS * 4):
                start = len(order.rows) - base
                database.load(
                    "Order",
                    [
                        # one new token a row
                        (10_000_000 + n, 1, FLOOR + n, "1998-01-01", f"9-FRESH{n}")
                        for n in range(start, start + ROWS_PER_LOAD)
                    ],
                )
                target = sum(probes) + READERS
                deadline = time.monotonic() + 30.0
                while (
                    sum(probes) < target
                    and not errors
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.0002)
        except Exception as exc:  # pragma: no cover - diagnostic aid
            errors.append(exc)
        finally:
            done.set()

    def reader(index: int) -> None:
        try:
            while not done.is_set():
                before = len(order.rows) - base
                text, numeric = database.text_index, database.numeric_index
                fresh = text.positions_for_contains("Order", "priority", "fresh")
                tokens = text.tokens_with_prefix("fresh", limit=10**6)
                first = numeric.positions_for_value("Order", "amount", FLOOR)
                after = len(order.rows) - base
                # whole rows only, each where the table has it
                assert fresh == set(range(base, base + len(fresh)))
                assert before <= len(fresh) <= after
                assert before <= len(tokens) <= after
                assert first == ({base} if before else first) <= {base}
                probes[index] += 1
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, name="writer", daemon=True)] + [
            threading.Thread(target=reader, args=(i,), name=f"prober-{i}", daemon=True)
            for i in range(READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        assert not [thread.name for thread in threads if thread.is_alive()]
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert min(probes) > 0
    appended = set(range(base, len(order.rows)))
    assert len(appended) == ROUNDS * 4 * ROWS_PER_LOAD
    assert (
        database.text_index.positions_for_contains("Order", "priority", "fresh")
        == appended
    )
