"""Runtime lock-order sanitizer: the C-codes that need a running program.

A :class:`LockSanitizer` monkeypatches the ``threading.Lock`` /
``threading.RLock`` factories so that locks created from watched source
files come back wrapped in a :class:`SanitizedLock` that records, per
thread:

* the set of sanitized locks currently held,
* every pairwise acquisition-order edge (lock A held while B acquired),
* how long each outermost hold lasted.

From those observations it reports:

* **C002** — an *inversion*: two locks acquired in both orders anywhere
  in the run.  This is the lockdep insight: a deadlock needs the
  conflicting schedule only once, but the *order violation* is visible
  on every run that merely exercises both code paths.  It sees every
  call path, across classes and modules, that the run takes.
* **C007** — an anomalously long hold (over ``hold_threshold_s``).

What needs no run — a write to a ``# guarded-by:`` attribute outside
``with`` its lock, blocking under a lock, an un-timed wait on the
request path — is checked by the LR rules of
:mod:`repro.analysis.codebase`.

Typical use — the test-suite fixture (see ``tests/conftest.py``)::

    with LockSanitizer(watch=("repro/",)) as sanitizer:
        run_workload()
    assert sanitizer.inversions() == []

The sanitizer is test instrumentation: it is never installed in
production paths, and uninstalling restores the original factories.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = [
    "LockOrigin",
    "LockSanitizer",
    "SanitizedLock",
]

#: outermost holds longer than this (seconds) are reported as C007
_DEFAULT_HOLD_THRESHOLD_S = 1.0


@dataclass(frozen=True)
class LockOrigin:
    """Where a sanitized lock was created (normalized source site)."""

    path: str
    lineno: int

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}"


def _normalize_path(filename: str) -> str:
    """A creation-frame filename as a package-relative POSIX path
    (``repro/service/cache.py``), the form ``watch`` matches against."""
    posix = PurePosixPath(filename).as_posix()
    for marker in ("/src/", "/tests/", "/docs/"):
        if marker in posix:
            prefix = "" if marker == "/src/" else marker.strip("/") + "/"
            return prefix + posix.split(marker, 1)[1]
    return posix


class _ThreadState(threading.local):
    """Per-thread sanitizer state (held stack and re-entrancy depths)."""

    def __init__(self) -> None:
        self.held: List["SanitizedLock"] = []
        self.depths: Dict[int, int] = {}
        self.starts: Dict[int, float] = {}


class SanitizedLock:
    """A lock wrapper that reports acquisition events to its sanitizer.

    Supports the full lock protocol (``acquire``/``release``, context
    manager, ``locked``); anything else is delegated to the wrapped
    lock.  Re-entrant acquisitions of an ``RLock`` are counted but only
    the outermost acquire/release is recorded — nested ones cannot
    introduce ordering.
    """

    def __init__(
        self,
        inner: Any,
        origin: LockOrigin,
        sanitizer: "LockSanitizer",
    ) -> None:
        self._inner = inner
        self.origin = origin
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._on_acquire(self)
        return acquired

    def release(self) -> None:
        self._sanitizer._on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        locked_fn = getattr(self._inner, "locked", None)
        if locked_fn is None:  # RLock on some versions has no locked()
            return False
        return bool(locked_fn())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.release()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"SanitizedLock({self.origin}, {self._inner!r})"


@dataclass
class _Observations:
    """Everything a run records, guarded by the sanitizer's meta lock."""

    created: Dict[LockOrigin, int] = field(default_factory=dict)
    acquired: Set[LockOrigin] = field(default_factory=set)
    #: (held origin, acquired origin) -> observation count
    edges: Dict[Tuple[LockOrigin, LockOrigin], int] = field(
        default_factory=dict
    )
    #: origin -> longest outermost hold in seconds
    longest_hold: Dict[LockOrigin, float] = field(default_factory=dict)


class LockSanitizer:
    """Instrumented-lock mode: record acquisition order during a run.

    ``watch`` is a sequence of path substrings; a lock is wrapped iff
    the (normalized) filename of the frame that called
    ``threading.Lock()`` / ``threading.RLock()`` contains one of them.
    Everything else — stdlib internals, unwatched modules — gets a real
    lock, so the sanitizer's blast radius is exactly the watched code.
    """

    def __init__(
        self,
        watch: Sequence[str] = ("repro/",),
        hold_threshold_s: float = _DEFAULT_HOLD_THRESHOLD_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.watch = tuple(watch)
        self.hold_threshold_s = hold_threshold_s
        self.clock = clock
        self._real_lock = threading.Lock
        self._real_rlock = threading.RLock
        # meta state is guarded by a *real* lock so the sanitizer never
        # observes (or deadlocks on) itself
        self._meta_lock = self._real_lock()
        self._state = _ThreadState()
        self._observations = _Observations()
        self._installed = False

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "LockSanitizer":
        """Patch the ``threading`` lock factories (idempotent)."""
        if self._installed:
            return self
        self._real_lock = threading.Lock
        self._real_rlock = threading.RLock
        threading.Lock = self._make_factory(self._real_lock)  # type: ignore[assignment]
        threading.RLock = self._make_factory(self._real_rlock)  # type: ignore[assignment]
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        threading.Lock = self._real_lock  # type: ignore[assignment]
        threading.RLock = self._real_rlock  # type: ignore[assignment]
        self._installed = False

    def __enter__(self) -> "LockSanitizer":
        return self.install()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.uninstall()

    def _make_factory(self, real: Callable[[], Any]) -> Callable[[], Any]:
        def factory() -> Any:
            lock = real()
            frame = sys._getframe(1)
            path = _normalize_path(frame.f_code.co_filename)
            if not any(tag in path for tag in self.watch):
                return lock
            return self.wrap(lock, LockOrigin(path, frame.f_lineno))

        return factory

    def wrap(self, lock: Any, origin: LockOrigin) -> SanitizedLock:
        """Wrap *lock* explicitly (tests, or locks made before install)."""
        with self._meta_lock:
            self._observations.created[origin] = (
                self._observations.created.get(origin, 0) + 1
            )
        return SanitizedLock(lock, origin, self)

    # -- event recording (called from SanitizedLock) -------------------
    def _on_acquire(self, lock: SanitizedLock) -> None:
        state = self._state
        key = id(lock)
        depth = state.depths.get(key, 0)
        state.depths[key] = depth + 1
        if depth > 0:  # re-entrant RLock acquire: no new ordering
            return
        with self._meta_lock:
            self._observations.acquired.add(lock.origin)
            for held in state.held:
                if held.origin != lock.origin:
                    edge = (held.origin, lock.origin)
                    self._observations.edges[edge] = (
                        self._observations.edges.get(edge, 0) + 1
                    )
        state.held.append(lock)
        state.starts[key] = self.clock()

    def _on_release(self, lock: SanitizedLock) -> None:
        state = self._state
        key = id(lock)
        depth = state.depths.get(key, 0)
        if depth == 0:
            # released by a thread that never acquired it (hand-off
            # protocols); nothing was recorded for this thread
            return
        state.depths[key] = depth - 1
        if depth > 1:
            return
        start = state.starts.pop(key, None)
        if lock in state.held:
            state.held.remove(lock)
        if start is None:
            return
        duration = self.clock() - start
        with self._meta_lock:
            longest = self._observations.longest_hold.get(lock.origin, 0.0)
            if duration > longest:
                self._observations.longest_hold[lock.origin] = duration

    # -- reporting -----------------------------------------------------
    def order_edges(self) -> Dict[Tuple[LockOrigin, LockOrigin], int]:
        with self._meta_lock:
            return dict(self._observations.edges)

    def inversions(self) -> List[Tuple[LockOrigin, LockOrigin]]:
        """Lock pairs observed in both acquisition orders (sorted)."""
        edges = self.order_edges()
        seen: Set[Tuple[LockOrigin, LockOrigin]] = set()
        inverted: List[Tuple[LockOrigin, LockOrigin]] = []
        for first, second in edges:
            pair = tuple(sorted((first, second), key=str))
            if pair in seen:
                continue
            if (second, first) in edges:
                seen.add(pair)  # type: ignore[arg-type]
                inverted.append((pair[0], pair[1]))
        return sorted(inverted, key=lambda pair: (str(pair[0]), str(pair[1])))

    def long_holds(self) -> Dict[LockOrigin, float]:
        with self._meta_lock:
            return {
                origin: duration
                for origin, duration in self._observations.longest_hold.items()
                if duration > self.hold_threshold_s
            }

    def report(self) -> List[Diagnostic]:
        """C002 inversions and C007 long holds as diagnostics."""
        edges = self.order_edges()
        diagnostics = [
            Diagnostic(
                code="C002",
                severity=Severity.ERROR,
                message=(
                    f"lock-order inversion observed at runtime: "
                    f"{first} -> {second} ({edges.get((first, second), 0)}x) "
                    f"and {second} -> {first} "
                    f"({edges.get((second, first), 0)}x)"
                ),
                location=f"{first} <-> {second}",
                hint="impose a global acquisition order",
            )
            for first, second in self.inversions()
        ]
        diagnostics.extend(
            Diagnostic(
                code="C007",
                severity=Severity.WARNING,
                message=(
                    f"lock held for {duration:.3f}s "
                    f"(threshold {self.hold_threshold_s:.3f}s)"
                ),
                location=str(origin),
                hint="shrink the critical section",
            )
            for origin, duration in sorted(
                self.long_holds().items(), key=lambda item: str(item[0])
            )
        )
        return diagnostics


def sanitizer_from_env(
    env_value: Optional[str],
) -> Optional[LockSanitizer]:
    """The sanitizer the ``REPRO_LOCK_SANITIZER`` env variable asks for:
    none when it is unset or empty, else one watching every lock the
    package creates."""
    if not env_value:
        return None
    return LockSanitizer(watch=("repro/",))
