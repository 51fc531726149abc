"""Structured tracing and metrics for the query pipeline.

Zero-dependency instrumentation for every stage of the engine (term
matching, pattern generation, disambiguation, ranking, translation,
rewriting, execution).  Three pieces:

* :class:`Tracer` — builds a tree of :class:`Span` timings via
  ``with tracer.span("generate"):`` context managers and accumulates
  named counters (``tracer.count("patterns_generated", 3)``) on the
  innermost open span.  Timings use the monotonic clock
  (:func:`time.perf_counter`), never wall time.
* :class:`Trace` — the finished span tree attached to a
  :class:`~repro.engine.SearchResult`; renders as an ASCII tree
  (:meth:`Trace.render`), exports to/from JSON, and answers aggregate
  questions (:meth:`Trace.counter`, :meth:`Trace.stage_times`).
* :class:`MetricsRegistry` — a thread-safe in-memory sink every span
  duration and counter also flows into, for cross-query aggregation
  (cache hit rates, total rows scanned, per-stage time totals) with
  JSON export.

Instrumented code takes a ``tracer`` argument defaulting to
:data:`NULL_TRACER`, whose ``span()`` / ``count()`` are no-ops sharing a
single reusable context manager — the disabled-mode cost is one
attribute lookup and an empty method call per instrumentation point
(checked to stay under 2% of pipeline time by
``benchmarks/check_overhead.py``).

Span and counter names are catalogued in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed section of the pipeline: name, attributes, counters,
    child spans and a monotonic-clock duration (seconds)."""

    __slots__ = ("name", "attributes", "counters", "children", "duration", "_start")

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = attributes or {}
        self.counters: Dict[str, int] = {}
        self.children: List["Span"] = []
        self.duration: Optional[float] = None
        self._start = time.perf_counter()

    def finish(self) -> None:
        if self.duration is None:
            self.duration = time.perf_counter() - self._start

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def duration_ms(self) -> float:
        return (self.duration or 0.0) * 1000.0

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named *name* in this subtree (depth first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        return [span for span in self.walk() if span.name == name]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 6),
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        span = cls(payload["name"], dict(payload.get("attributes", {})))
        span.duration = payload.get("duration_ms", 0.0) / 1000.0
        span.counters = {
            str(k): int(v) for k, v in payload.get("counters", {}).items()
        }
        span.children = [
            cls.from_dict(child) for child in payload.get("children", [])
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f} ms, "
            f"{len(self.children)} children)"
        )


class Trace:
    """A finished span tree for one pipeline run."""

    def __init__(self, root: Span) -> None:
        self.root = root

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    def find(self, name: str) -> Optional[Span]:
        return self.root.find(name)

    def find_all(self, name: str) -> List[Span]:
        return self.root.find_all(name)

    def counter(self, name: str) -> int:
        """Value of a counter summed over the whole tree."""
        return sum(span.counters.get(name, 0) for span in self.root.walk())

    def counters(self) -> Dict[str, int]:
        """All counters summed over the whole tree."""
        totals: Dict[str, int] = {}
        for span in self.root.walk():
            for name, value in span.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def stage_times(self) -> Dict[str, float]:
        """Seconds per pipeline stage: direct children of the root, with
        same-named spans (several ``execute`` calls) summed."""
        times: Dict[str, float] = {}
        for child in self.root.children:
            times[child.name] = times.get(child.name, 0.0) + (child.duration or 0.0)
        return times

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return self.root.to_dict()

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Trace":
        return cls(Span.from_dict(payload))

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII tree with per-span timings and counters, the body of
        ``repro --explain``."""
        lines: List[str] = []
        self._render_span(self.root, "", "", lines, is_root=True)
        return "\n".join(lines)

    @staticmethod
    def _format_span(span: Span) -> str:
        text = f"{span.name}  {span.duration_ms:.3f} ms"
        extras = [f"{k}={v!r}" for k, v in span.attributes.items()]
        extras.extend(f"{k}={v}" for k, v in span.counters.items())
        if extras:
            text += "  [" + " ".join(extras) + "]"
        return text

    def _render_span(
        self,
        span: Span,
        prefix: str,
        child_prefix: str,
        lines: List[str],
        is_root: bool = False,
    ) -> None:
        lines.append(prefix + self._format_span(span))
        for index, child in enumerate(span.children):
            last = index == len(span.children) - 1
            connector = "`-- " if last else "|-- "
            extension = "    " if last else "|   "
            self._render_span(
                child,
                child_prefix + connector,
                child_prefix + extension,
                lines,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({self.root.name!r}, {self.duration_ms:.3f} ms)"


class MetricsRegistry:
    """Thread-safe in-memory counters and timing aggregates.

    Every span finish feeds ``span.<name>`` timings; every
    ``Tracer.count`` feeds the counter of the same name.  The registry
    outlives individual traces, so it answers cross-query questions
    ("how many rows were scanned this session", "average generate time").
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}  # guarded-by: _lock
        self._timings: Dict[str, Dict[str, float]] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def increment(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self._timings.get(name)
            if entry is None:
                self._timings[name] = {
                    "count": 1,
                    "total_s": seconds,
                    "min_s": seconds,
                    "max_s": seconds,
                }
            else:
                entry["count"] += 1
                entry["total_s"] += seconds
                entry["min_s"] = min(entry["min_s"], seconds)
                entry["max_s"] = max(entry["max_s"], seconds)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def timing(self, name: str) -> Optional[Dict[str, float]]:
        with self._lock:
            entry = self._timings.get(name)
            return dict(entry) if entry is not None else None

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timings": {name: dict(entry) for name, entry in self._timings.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timings.clear()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        registry = cls()
        payload = json.loads(text)
        registry._counters = {
            str(k): int(v) for k, v in payload.get("counters", {}).items()
        }
        registry._timings = {
            str(k): dict(v) for k, v in payload.get("timings", {}).items()
        }
        return registry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snap = self.snapshot()
        return (
            f"MetricsRegistry({len(snap['counters'])} counters, "
            f"{len(snap['timings'])} timings)"
        )


class _SpanHandle:
    """Context manager opening one span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Builds one span tree; shared by every stage of one pipeline run.

    A tracer is single-threaded by design (one per ``search()`` call);
    the :class:`MetricsRegistry` it reports into is the thread-safe,
    shareable part.  A span opened while no span is on the stack after
    the root finished (lazy ``Interpretation.execute``) attaches under
    the root, so execution shows up in the same tree.
    """

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._root: Optional[Span] = None
        self._stack: List[Span] = []

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        span = Span(name, attributes or None)
        if self._stack:
            self._stack[-1].children.append(span)
        elif self._root is None:
            self._root = span
        else:
            # late span after the root closed: attach under the root
            self._root.children.append(span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _close(self, span: Span) -> None:
        span.finish()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self.registry.observe(f"span.{span.name}", span.duration or 0.0)

    def count(self, name: str, value: int = 1) -> None:
        if self._stack:
            self._stack[-1].count(name, value)
        elif self._root is not None:
            self._root.count(name, value)
        self.registry.increment(name, value)

    @property
    def trace(self) -> Optional[Trace]:
        """The trace built so far (None until the first span opens)."""
        if self._root is None:
            return None
        return Trace(self._root)


class _NullHandle:
    """Reusable no-op context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    The default for all instrumented code paths; its cost per
    instrumentation point is one method call returning a shared
    singleton, which keeps disabled-mode overhead below the 2% budget
    (``benchmarks/check_overhead.py``).
    """

    enabled = False
    trace = None

    def span(self, name: str, **attributes: Any) -> _NullHandle:
        return _NULL_HANDLE

    def count(self, name: str, value: int = 1) -> None:
        return None


NULL_TRACER = NullTracer()
