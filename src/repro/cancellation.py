"""Cooperative cancellation and per-request deadlines.

The serving layer (:mod:`repro.service`) must be able to abort a slow
query *while it runs* — a cross join that exploded, a pathological
pattern — instead of letting it hog a worker thread until completion.
Python threads cannot be killed, so cancellation is cooperative: the
executor polls a :class:`CancellationToken` at checkpoints (every
operator boundary — its operators are whole-column passes — plus once
per outer row of a cross join, whose output multiplies) and
raises :class:`~repro.errors.DeadlineExceededError` the moment the token
is cancelled or its deadline passes.

The token travels *ambiently* rather than through every signature: a
caller wraps work in :func:`cancellation_scope` and instrumented code
asks :func:`current_token` for the active token of its thread.  Outside
any scope that is :data:`NULL_TOKEN`, whose checks are no-ops, so the
library API (``engine.search(...)`` etc.) is completely unaffected when
no deadline is in play.

Deadlines use the monotonic clock (:func:`time.perf_counter`), never
wall time — the same discipline as the tracer.

This module is deliberately at the bottom of the layering: it imports
nothing but the stdlib and :mod:`repro.errors`, so every layer
(relational executor, engine, service) may use it.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, Optional

from contextlib import contextmanager

from repro.errors import DeadlineExceededError

__all__ = [
    "CancellationToken",
    "NULL_TOKEN",
    "cancellation_scope",
    "current_token",
]

class CancellationToken:
    """One request's cancellation state: an explicit flag plus an
    optional monotonic-clock deadline.

    ``check()`` raises :class:`DeadlineExceededError` once either trips;
    it is safe to call from any thread, and cheap enough for operator
    boundaries (one flag read, one clock read).
    """

    __slots__ = ("_deadline", "_cancelled", "reason")

    def __init__(
        self, deadline: Optional[float] = None, reason: str = "cancelled"
    ) -> None:
        self._deadline = deadline
        self._cancelled = False
        self.reason = reason

    @classmethod
    def with_timeout(cls, seconds: float, reason: str = "deadline") -> "CancellationToken":
        """A token that expires *seconds* from now."""
        return cls(deadline=time.perf_counter() + seconds, reason=reason)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def cancel(self, reason: Optional[str] = None) -> None:
        """Trip the token explicitly (idempotent, thread-safe: a single
        boolean store under the GIL)."""
        if reason is not None:
            self.reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def deadline(self) -> Optional[float]:
        """The monotonic-clock deadline, or None for cancel-only tokens."""
        return self._deadline

    def expired(self) -> bool:
        """True once the token is cancelled or past its deadline."""
        if self._cancelled:
            return True
        return self._deadline is not None and time.perf_counter() >= self._deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (clamped at 0.0), or None."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.perf_counter())

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` if the token has tripped."""
        if self._cancelled:
            raise DeadlineExceededError(f"query cancelled ({self.reason})")
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            raise DeadlineExceededError(
                f"query exceeded its deadline ({self.reason})"
            )


class _NullToken:
    """The always-live token: every check is a no-op.

    A distinct class (rather than a ``CancellationToken`` with no
    deadline) so the hot-path ``check()`` costs a single empty method
    call, mirroring :class:`repro.observability.NullTracer`.
    """

    __slots__ = ()

    reason = "null"
    cancelled = False
    deadline = None

    def cancel(self, reason: Optional[str] = None) -> None:  # pragma: no cover
        raise TypeError("NULL_TOKEN cannot be cancelled; create a CancellationToken")

    def expired(self) -> bool:
        return False

    def remaining(self) -> Optional[float]:
        return None

    def check(self) -> None:
        return None


NULL_TOKEN = _NullToken()

_SCOPE = threading.local()


def current_token():
    """The active token of the calling thread (:data:`NULL_TOKEN` when no
    :func:`cancellation_scope` is open)."""
    return getattr(_SCOPE, "token", NULL_TOKEN)


@contextmanager
def cancellation_scope(token: CancellationToken) -> Iterator[CancellationToken]:
    """Make *token* the calling thread's active token for the block.

    Scopes nest: the previous token is restored on exit, so a service
    worker can tighten a deadline around a sub-step without losing the
    request-level one.
    """
    previous = getattr(_SCOPE, "token", NULL_TOKEN)
    _SCOPE.token = token
    try:
        yield token
    finally:
        _SCOPE.token = previous
