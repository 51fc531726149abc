"""Wire protocol between the service front end and pool worker processes.

Messages are plain dicts exchanged over :class:`multiprocessing.Connection`
pipes (one request, one reply — the parent serializes per worker).  This
module owns the message vocabulary and, critically, the **error contract**:
an exception raised inside a worker must surface in the parent as the same
*class* of failure it would have been in-process, so the request lifecycle
(breaker accounting, HTTP status, retry-ability) is byte-identical whether
the engine ran on a thread or in another process.

Request frames::

    {"op": <op>, ...fields}

Reply frames::

    {"status": "ok", "result": {...}}          # success
    {"status": "error", "kind": k, "message": m}  # classified failure

The kinds map onto the exception taxonomy the service's ``_serve_pending``
dispatches on:

==============  =============================================  ============
kind            raised in the parent as                        HTTP outcome
==============  =============================================  ============
``deadline``    :class:`~repro.errors.DeadlineExceededError`   504 timeout
``invalid``     :class:`~repro.errors.KeywordQueryError`       400 invalid
``analysis``    :class:`~repro.errors.StaticAnalysisError`     400 invalid
``internal``    :class:`RemoteWorkerError`                     500 error
==============  =============================================  ============

``internal`` messages arrive pre-formatted (``"TypeName: detail"``) so the
parent's generic error path renders the *original* exception type, not the
envelope — :func:`format_error` is the one place that decides.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.errors import (
    DeadlineExceededError,
    KeywordQueryError,
    ReproError,
    ServiceError,
    StaticAnalysisError,
)

__all__ = [
    "OP_CLEAR",
    "OP_COMPUTE",
    "OP_METRICS",
    "OP_PING",
    "OP_SHUTDOWN",
    "RemoteWorkerError",
    "WorkerCrashError",
    "classify_exception",
    "error_reply",
    "format_error",
    "ok_reply",
    "raise_remote",
    "request",
]

# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
OP_PING = "ping"  # liveness / readiness barrier
OP_COMPUTE = "compute"  # one result-cache miss -> full response payload
OP_CLEAR = "clear"  # drop engine caches (epoch bump)
OP_METRICS = "metrics"  # worker-side counters + engine metric snapshots
OP_SHUTDOWN = "shutdown"  # clean exit of the worker loop

#: Ops that are pure reads and therefore safe to retry once on a fresh
#: worker after a crash (exactly-once responses, at-most-twice compute).
IDEMPOTENT_OPS = frozenset({OP_PING, OP_COMPUTE, OP_METRICS, OP_CLEAR})

KIND_DEADLINE = "deadline"
KIND_INVALID = "invalid"
KIND_ANALYSIS = "analysis"
KIND_INTERNAL = "internal"


class RemoteWorkerError(ReproError):
    """An unclassified exception escaped an engine inside a worker.

    ``str()`` is the worker-side formatted message (``"TypeName: detail"``)
    — render it with :func:`format_error`, never with the usual
    ``f"{type(exc).__name__}: {exc}"`` (that would double-wrap)."""


class WorkerCrashError(ServiceError):
    """A worker process died mid-request and the retry budget is spent."""


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def request(op: str, **fields: Any) -> Dict[str, Any]:
    frame = {"op": op}
    frame.update(fields)
    return frame


def ok_reply(result: Dict[str, Any]) -> Dict[str, Any]:
    return {"status": "ok", "result": result}


def error_reply(exc: BaseException) -> Dict[str, Any]:
    kind, message = classify_exception(exc)
    return {"status": "error", "kind": kind, "message": message}


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------
def classify_exception(exc: BaseException) -> Tuple[str, str]:
    """(kind, message) for the wire; the inverse of :func:`raise_remote`."""
    if isinstance(exc, DeadlineExceededError):
        return KIND_DEADLINE, str(exc)
    if isinstance(exc, StaticAnalysisError):
        return KIND_ANALYSIS, str(exc)
    if isinstance(exc, KeywordQueryError):
        return KIND_INVALID, str(exc)
    return KIND_INTERNAL, f"{type(exc).__name__}: {exc}"


def raise_remote(kind: str, message: str) -> None:
    """Re-raise a worker failure as its in-process equivalent."""
    if kind == KIND_DEADLINE:
        raise DeadlineExceededError(message)
    if kind == KIND_ANALYSIS:
        raise StaticAnalysisError(message)
    if kind == KIND_INVALID:
        raise KeywordQueryError(message)
    raise RemoteWorkerError(message)


def format_error(exc: BaseException) -> str:
    """The user-facing message for an unclassified serving failure.

    Remote failures arrive pre-formatted by the worker; everything else
    gets the conventional ``TypeName: detail`` rendering."""
    if isinstance(exc, RemoteWorkerError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"
