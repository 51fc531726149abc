"""Unit tests for the tracer, trace tree and metrics registry."""

from __future__ import annotations

import json
import threading

from repro.observability import (
    NULL_TRACER,
    MetricsRegistry,
    Span,
    Trace,
    Tracer,
    format_stage_table,
)


# ----------------------------------------------------------------------
# Span nesting
# ----------------------------------------------------------------------
def test_span_nesting_builds_a_tree():
    tracer = Tracer()
    with tracer.span("search", query="q"):
        with tracer.span("match"):
            pass
        with tracer.span("generate"):
            with tracer.span("inner"):
                pass
    trace = tracer.trace
    assert trace.root.name == "search"
    assert [child.name for child in trace.root.children] == ["match", "generate"]
    generate = trace.find("generate")
    assert [child.name for child in generate.children] == ["inner"]
    assert trace.root.attributes == {"query": "q"}


def test_find_all_returns_every_span_of_a_name_depth_first():
    tracer = Tracer()
    with tracer.span("search"):
        with tracer.span("execute", step=1):
            with tracer.span("execute", step=2):
                pass
        with tracer.span("match"):
            with tracer.span("execute", step=3):
                pass
    trace = tracer.trace
    assert [span.attributes["step"] for span in trace.find_all("execute")] == [1, 2, 3]
    assert trace.find_all("execute")[0] is trace.find("execute")
    # a span's own subtree only, itself included
    first = trace.find("execute")
    assert [span.attributes["step"] for span in first.find_all("execute")] == [1, 2]
    assert trace.find_all("missing") == [] and trace.find("missing") is None


def test_every_span_gets_a_monotonic_duration():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    for span in tracer.trace.root.walk():
        assert span.duration is not None
        assert span.duration >= 0.0
    outer = tracer.trace.root
    assert outer.duration >= outer.children[0].duration


def test_late_span_attaches_under_the_finished_root():
    tracer = Tracer()
    with tracer.span("search"):
        pass
    # lazy execution after search() returned: same tree
    with tracer.span("execute"):
        tracer.count("rows_output", 3)
    names = [child.name for child in tracer.trace.root.children]
    assert names == ["execute"]
    assert tracer.trace.counter("rows_output") == 3


def test_counters_attach_to_the_innermost_open_span():
    tracer = Tracer()
    with tracer.span("search"):
        tracer.count("outer_counter")
        with tracer.span("generate"):
            tracer.count("patterns_generated", 2)
            tracer.count("patterns_generated", 1)
    trace = tracer.trace
    assert trace.root.counters == {"outer_counter": 1}
    assert trace.find("generate").counters == {"patterns_generated": 3}
    # tree-level aggregation
    assert trace.counter("patterns_generated") == 3
    assert trace.counters() == {"outer_counter": 1, "patterns_generated": 3}


def test_stage_times_sums_same_named_children():
    root = Span("search")
    first, second = Span("execute"), Span("execute")
    first.duration, second.duration = 0.25, 0.5
    match = Span("match")
    match.duration = 0.1
    root.children = [match, first, second]
    root.finish()
    times = Trace(root).stage_times()
    assert times["execute"] == 0.75
    assert times["match"] == 0.1


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def test_trace_json_round_trip():
    tracer = Tracer()
    with tracer.span("search", query="COUNT Lecturer GROUPBY Course"):
        with tracer.span("generate"):
            tracer.count("patterns_generated", 4)
        with tracer.span("execute"):
            tracer.count("rows_scanned", 100)
    trace = tracer.trace
    restored = Trace.from_json(trace.to_json())
    assert restored.to_dict() == trace.to_dict()
    assert restored.root.name == "search"
    assert restored.find("generate").counters == {"patterns_generated": 4}
    assert restored.counter("rows_scanned") == 100
    # durations survive (serialized as milliseconds)
    assert restored.root.duration is not None
    assert abs(restored.root.duration - trace.root.duration) < 1e-6


def test_trace_json_is_plain_sorted_json():
    tracer = Tracer()
    with tracer.span("search"):
        pass
    payload = json.loads(tracer.trace.to_json(indent=2))
    assert payload["name"] == "search"
    assert "duration_ms" in payload


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def test_render_shows_timings_and_counters():
    tracer = Tracer()
    with tracer.span("search", query="q"):
        with tracer.span("match"):
            tracer.count("terms_matched", 2)
        with tracer.span("translate"):
            pass
    text = tracer.trace.render()
    lines = text.splitlines()
    assert lines[0].startswith("search")
    assert "ms" in lines[0]
    assert any("match" in line and "terms_matched=2" in line for line in lines)
    assert any(line.startswith("`-- translate") for line in lines)


# ----------------------------------------------------------------------
# Null tracer
# ----------------------------------------------------------------------
def test_null_tracer_is_a_complete_no_op():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.trace is None
    with NULL_TRACER.span("anything", attr=1) as span:
        assert span is None
        NULL_TRACER.count("whatever", 10)
    assert NULL_TRACER.trace is None


def test_null_tracer_reuses_one_handle():
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
def test_registry_counters_and_timings():
    registry = MetricsRegistry()
    registry.increment("rows_scanned", 10)
    registry.increment("rows_scanned", 5)
    registry.observe("span.match", 0.25)
    registry.observe("span.match", 0.75)
    assert registry.counter("rows_scanned") == 15
    assert registry.counter("unknown") == 0
    timing = registry.timing("span.match")
    assert timing["count"] == 2
    assert timing["total_s"] == 1.0
    assert timing["min_s"] == 0.25
    assert timing["max_s"] == 0.75
    assert registry.timing("unknown") is None


def test_registry_json_round_trip():
    registry = MetricsRegistry()
    registry.increment("patterns_generated", 7)
    registry.observe("span.generate", 0.5)
    restored = MetricsRegistry.from_json(registry.to_json())
    assert restored.snapshot() == registry.snapshot()


def test_registry_reset():
    registry = MetricsRegistry()
    registry.increment("x")
    registry.observe("y", 1.0)
    registry.reset()
    assert registry.snapshot() == {"counters": {}, "timings": {}}


def test_registry_is_thread_safe():
    registry = MetricsRegistry()

    def bump():
        for _ in range(1000):
            registry.increment("hits")
            registry.observe("t", 0.001)

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.counter("hits") == 8000
    assert registry.timing("t")["count"] == 8000


def test_tracer_reports_into_its_registry():
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry)
    with tracer.span("search"):
        with tracer.span("match"):
            tracer.count("terms_matched", 3)
    assert registry.counter("terms_matched") == 3
    assert registry.timing("span.match")["count"] == 1
    assert registry.timing("span.search")["count"] == 1


# ----------------------------------------------------------------------
# Stage table formatting
# ----------------------------------------------------------------------
def test_format_stage_table():
    tracer = Tracer()
    with tracer.span("search"):
        with tracer.span("match"):
            tracer.count("terms_matched", 2)
        with tracer.span("generate"):
            tracer.count("patterns_generated", 3)
    table = format_stage_table("Breakdown", [tracer.trace])
    assert "Breakdown" in table
    assert "match" in table and "generate" in table
    assert "patterns_generated=3" in table
    # stage order follows the pipeline, not the alphabet
    assert table.index("match") < table.index("generate")
