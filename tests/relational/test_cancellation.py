"""Cooperative cancellation: token semantics and mid-query aborts.

The acceptance test for the serving layer's deadlines lives here: a
query with a short deadline against a deliberately explosive join must
abort at a checkpoint *while running* — long before the join would have
completed.
"""

from __future__ import annotations

import time

import pytest

from repro.cancellation import (
    NULL_TOKEN,
    CancellationToken,
    cancellation_scope,
    current_token,
)
from repro.errors import DeadlineExceededError
from repro.relational.algebra import Grouping, cross_join, hash_join
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.schema import DatabaseSchema
from repro.relational.types import DataType


class TestCancellationToken:
    def test_fresh_token_passes_checks(self):
        token = CancellationToken()
        token.check()
        assert not token.expired()
        assert token.remaining() is None
        assert token.deadline is None

    def test_cancel_trips_check(self):
        token = CancellationToken(reason="test shutdown")
        token.cancel()
        assert token.cancelled and token.expired()
        with pytest.raises(DeadlineExceededError, match="test shutdown"):
            token.check()

    def test_cancel_can_update_reason(self):
        token = CancellationToken()
        token.cancel(reason="drained")
        with pytest.raises(DeadlineExceededError, match="drained"):
            token.check()

    def test_deadline_expiry(self):
        token = CancellationToken.with_timeout(0.005)
        assert token.remaining() <= 0.005
        time.sleep(0.01)
        assert token.expired()
        assert token.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_generous_deadline_passes(self):
        token = CancellationToken.with_timeout(60.0)
        token.check()
        assert not token.expired()
        assert 59.0 < token.remaining() <= 60.0

    def test_null_token_is_inert(self):
        NULL_TOKEN.check()
        assert not NULL_TOKEN.expired()
        assert NULL_TOKEN.remaining() is None
        with pytest.raises(TypeError):
            NULL_TOKEN.cancel()


class TestCancellationScope:
    def test_default_is_null_token(self):
        assert current_token() is NULL_TOKEN

    def test_scope_installs_and_restores(self):
        token = CancellationToken()
        with cancellation_scope(token) as active:
            assert active is token
            assert current_token() is token
        assert current_token() is NULL_TOKEN

    def test_scopes_nest(self):
        outer, inner = CancellationToken(), CancellationToken()
        with cancellation_scope(outer):
            with cancellation_scope(inner):
                assert current_token() is inner
            assert current_token() is outer

    def test_scope_restores_on_exception(self):
        token = CancellationToken()
        with pytest.raises(RuntimeError):
            with cancellation_scope(token):
                raise RuntimeError("boom")
        assert current_token() is NULL_TOKEN


class TestOperatorCheckpoints:
    """Cancelled tokens abort the kernels: on entry, and per outer row of
    a cross join."""

    def test_cross_join_aborts(self):
        token = CancellationToken()
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(DeadlineExceededError):
                cross_join([list(range(256))], [list(range(256))], 256, 256)

    def test_cross_join_polls_every_outer_row(self):
        checks = []

        class Counting(CancellationToken):
            def check(self) -> None:
                checks.append(1)

        with cancellation_scope(Counting()):
            cross_join([list(range(37))], [], 37, 5)
        assert len(checks) == 37

    def test_hash_join_aborts(self):
        keys = list(range(2048))
        token = CancellationToken()
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(DeadlineExceededError):
                hash_join([keys], [keys])

    def test_grouping_aborts(self):
        token = CancellationToken()
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(DeadlineExceededError):
                Grouping([1, 2, 1], 3)

    def test_operators_unaffected_without_scope(self):
        left_positions, right_positions = hash_join([[1, 2]], [[2, 3]])
        assert (left_positions, right_positions) == ([1], [0])


def explosive_database(rows: int = 150) -> Database:
    """One table whose triple self-cross-join yields ``rows ** 3`` tuples."""
    schema = DatabaseSchema("explosive")
    schema.add_relation("T", [("id", DataType.INT)], ["id"])
    database = Database(schema)
    database.load("T", [(i,) for i in range(rows)])
    return database


# rows=150 -> 3.4M joined rows, built an outer row at a time for each of
# the three columns the statement reads: well over a hundred ms of join
# work, so a 50 ms deadline must fire at a checkpoint long before
# completion.  (COUNT(*) alone would read no column and multiply two
# integers.)
SLOW_SQL = "SELECT COUNT(A.id) + COUNT(B.id) + COUNT(C.id) FROM T A, T B, T C"
DEADLINE_S = 0.05


class TestMidQueryDeadline:
    """The ISSUE acceptance criterion: a 50 ms deadline aborts a slow
    join through the checkpoints, not after the join completes."""

    def _full_runtime(self, executor: Executor) -> float:
        started = time.perf_counter()
        executor.execute(SLOW_SQL)
        return time.perf_counter() - started

    def test_deadline_aborts_mid_join(self):
        database = explosive_database()
        executor = Executor(database)
        full = self._full_runtime(executor)
        if full < DEADLINE_S * 3:
            pytest.skip(f"machine too fast for a meaningful abort ({full:.3f}s)")
        token = CancellationToken.with_timeout(DEADLINE_S)
        started = time.perf_counter()
        with cancellation_scope(token):
            with pytest.raises(DeadlineExceededError):
                executor.execute(SLOW_SQL)
        elapsed = time.perf_counter() - started
        # aborted at a checkpoint: well under the uncancelled runtime
        assert elapsed < full * 0.8, (
            f"abort took {elapsed:.3f}s vs full run {full:.3f}s"
        )

    def test_cancelled_token_aborts_immediately(self):
        database = explosive_database(rows=30)
        executor = Executor(database)
        token = CancellationToken()
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(DeadlineExceededError):
                executor.execute(SLOW_SQL)

    def test_execution_unaffected_outside_scope(self):
        database = explosive_database(rows=20)
        executor = Executor(database)
        assert executor.execute(SLOW_SQL).scalar() == 3 * 20**3
