"""The traced run: where a request's time goes, layer by layer.

End-to-end numbers come from ``run.measure`` with tracing off.  This
module is the separate traced run.  It wraps the *public* calls into
each layer from here, outside ``src/`` (spans inside the program are a
later change), replays requests one at a time through the real HTTP
front end, and records for every request one span tree::

    request > service.http > service.serve > engine.payload
        > keywords.parse | engine.compile > keywords.match |
          patterns.generate | patterns.disambiguate | patterns.rank |
          patterns.translate > unnormalized.rewrite | patterns.describe
        > sql.render | backends.execute > relational.cold_plan* |
          storage.added* | relational.execute*
      service.http > service.encode

Spans marked ``*`` are *derived*: differences of two timed executions of
the same statement (the request's execute minus a warm one; disk minus
memory).  A span's self time is its duration minus its children's.

Four passes, all on one continuing stream so no request repeats:

1. *load* - the workload's normal client count, untraced: the service
   and engine counters (cache shares, coalescing, shedding);
2. *baseline* - one client, untraced, whole rounds;
3. *replay* - the next rounds, one client, wrappers installed: spans.
   Replay wall over baseline wall is the tracing overhead;
4. *pipeline* - up to 50 of the replayed texts through
   ``engine.search(trace=True)`` with the wrappers still on: stage costs
   whether or not a cache would have skipped them, and a cross-check of
   the outside spans against the program's own stage spans.

Then a *kit* of direct calls times what no request path shows on every
workload: each backend over the workload's primary database, the paged
storage structures, statistics, index rebuild, data generation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import random
import statistics
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backends.base import create_backend
from repro.datasets import denormalize_tpch, generate_scaled
from repro.engine import KeywordSearchEngine, describe_pattern
from repro.keywords.matcher import TermMatcher
from repro.observability import Tracer
from repro.patterns.disambiguator import disambiguate_all
from repro.patterns.ranker import rank_patterns
from repro.relational.index import tokenize_text
from repro.service.service import canonical_json, semantic_search_payload
from repro.sql.render import render
from repro.storage.engine import StorageEngine
from repro.storage.materialize import materialize
from repro.unnormalized.rewriter import rewrite
from repro.unnormalized.view import NormalizedView

import loadgen
import workloads

Metric = loadgen.Metric

#: texts sent through ``engine.search(trace=True)`` in the pipeline pass
PIPELINE_TEXTS = 50
#: stage names of the program's own trace -> the outside spans they cover
STAGE_SPANS = {
    "parse": ("keywords.parse",),
    "match": ("keywords.match",),
    "generate": ("patterns.generate",),
    "disambiguate": ("patterns.disambiguate",),
    "rank": ("patterns.rank",),
    "translate": ("patterns.translate", "patterns.describe"),
}
#: the cross-check tolerates this much disagreement per stage, or this
#: many milliseconds per text where a stage is only microseconds long
CROSSCHECK_TOLERANCE = 0.15
CROSSCHECK_FLOOR_MS = 0.05


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Recorder:
    """Spans kept in memory: name, start, end, parent, request id.

    Requests are replayed one at a time, so although a request crosses
    threads (client, HTTP handler, service worker) its spans open and
    close strictly nested and one stack serves them all.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.request: Optional[int] = None
        self._open: List[int] = []
        self._lock = threading.Lock()
        #: filled by the execute wrapper: (backend, select, span) of every
        #: statement a replayed request executed
        self.executions: List[Tuple[Any, Any, Dict[str, Any]]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        with self._lock:
            record = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "request": self.request,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(record)
            self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            with self._lock:
                self._open.remove(record["id"])

    def derived(self, name: str, parent: Dict[str, Any], start: float, ms: float) -> float:
        """A span computed from two timed calls, not observed; returns
        its end so derived siblings can be laid end to end."""
        end = start + max(0.0, ms) / 1000.0
        self.spans.append({
            "id": len(self.spans), "parent": parent["id"],
            "request": parent["request"], "name": name,
            "start": start, "end": end, "derived": True,
        })
        return end


def duration_ms(span: Dict[str, Any]) -> float:
    return (span["end"] - span["start"]) * 1000.0


class Instrumentation:
    """Wrappers around the public calls into each layer, installed from
    outside the program and removed again on exit."""

    def __init__(self, recorder: Recorder, stack: workloads.Stack, engines) -> None:
        self.recorder = recorder
        self.stack = stack
        self.engines = list(engines)
        self._undo: List[Callable[[], None]] = []
        #: per call of a wrapped function: name -> [(span, result)]
        self.calls: Dict[str, List[Tuple[Dict[str, Any], Any]]] = {}

    def _wrapper(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        running = threading.local()

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if getattr(running, "on", False):  # recursion: one span per call
                return fn(*args, **kwargs)
            running.on = True
            try:
                with self.recorder.span(name) as span:
                    result = fn(*args, **kwargs)
                self.calls.setdefault(name, []).append((span, result))
                if after is not None:
                    after(span, args, result)
                return result
            finally:
                running.on = False

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _attribute(self, owner: Any, attribute: str, name: str, after=None) -> None:
        original = getattr(owner, attribute)  # AttributeError: the API moved
        in_dict = attribute in vars(owner)
        setattr(owner, attribute, self._wrapper(name, original, after))
        if in_dict:
            self._undo.append(lambda: setattr(owner, attribute, original))
        else:
            self._undo.append(lambda: delattr(owner, attribute))

    def _function(self, original: Callable, name: str) -> None:
        """Replace *original* wherever a ``repro`` module bound it by name."""
        wrapper = self._wrapper(name, original)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    self._undo.append(
                        lambda m=module, a=attribute: setattr(m, a, original)
                    )
                    bound += 1
        if not bound:
            raise RuntimeError(f"no module binds {original!r}: cannot trace {name}")

    def __enter__(self) -> "Instrumentation":
        self._attribute(self.stack.service, "serve", "service.serve")
        self._function(semantic_search_payload, "engine.payload")
        self._function(canonical_json, "service.encode")
        self._function(disambiguate_all, "patterns.disambiguate")
        self._function(rank_patterns, "patterns.rank")
        self._function(describe_pattern, "patterns.describe")
        self._function(rewrite, "unnormalized.rewrite")
        self._function(render, "sql.render")
        self._attribute(TermMatcher, "match_query", "keywords.match")
        for engine in self.engines:
            self._attribute(engine, "parse", "keywords.parse")
            self._attribute(engine, "compile", "engine.compile")
            self._attribute(engine, "translate_parts", "patterns.translate")
            self._attribute(engine.generator, "generate", "patterns.generate")
        for engine in self.stack.engines.values():
            # memory always exists; the derived spans execute on it
            for backend_name in {"memory", *self.stack.backends}:
                backend = engine.get_backend(backend_name)

                def remember(span, args, result, backend=backend):
                    span["backend"] = backend.name
                    self.recorder.executions.append((backend, args[0], span))

                self._attribute(backend, "execute", "backends.execute", remember)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._undo:
            self._undo.pop()()


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _take(stream: Iterator[workloads.Op], count: int) -> List[workloads.Op]:
    return list(itertools.islice(stream, count))


def _timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return (time.perf_counter() - start) * 1000.0, result


def _single_client(stack: workloads.Stack, ops: Sequence[workloads.Op],
                   recorder: Optional[Recorder] = None) -> List[loadgen.Sample]:
    """Run *ops* one at a time on one connection; with a recorder, under
    the client-side spans ``request > service.http``."""
    samples = []
    connection = stack.connect()
    try:
        for index, op in enumerate(ops):
            if recorder is None or op.kind == "write":
                samples.append(stack.execute(connection, op))
                continue
            recorder.request = index
            with recorder.span("request") as request:
                request["dataset"], request["backend"] = op.dataset, op.backend
                request["cls"], request["phase"] = op.cls, op.phase
                with recorder.span("service.http"):
                    samples.append(stack.execute(connection, op))
            recorder.request = None
    finally:
        connection.close()
    return samples


def _derive_execute_children(
    stack: workloads.Stack, recorder: Recorder, ops: Sequence[workloads.Op]
) -> None:
    """Split every observed ``backends.execute`` span of the replay by
    executing its statement again, warm, on the same backend and on
    memory.

    The re-executions are requests too - the same GET with a ``k`` no
    request has used, so it passes the result cache but finds the text's
    patterns and the statement's plan cached - because an execute inside a request is
    not comparable with a direct call: on this kind of machine it runs
    about a third slower than the same call made back to back from here.
    They come after the whole replay, so they neither stretch a request's
    wall nor change the rhythm of the connection.  Differences are
    clamped at zero per request, which leaves a small positive floor
    under ``relational.cold_plan`` where no plan is ever cold.
    """
    connection = stack.connect()
    unused_k = itertools.count(max(op.k for op in ops) + 1)

    def again(op: workloads.Op) -> float:
        before = len(recorder.executions)
        sample = stack.execute(connection, dataclasses.replace(op, k=next(unused_k)))
        (_, _, span), = recorder.executions[before:]
        assert sample.status == 200
        return duration_ms(span)

    try:
        for backend, _, span in list(recorder.executions):
            if backend.name == "sqlite":
                continue  # another engine entirely: its time stays the backend's own
            op = ops[span["request"]]
            warm_ms = memory_ms = again(op)
            if backend.name != "memory":
                memory_ms = again(dataclasses.replace(op, backend="memory"))
            observed = duration_ms(span)
            cold_ms = min(observed, max(0.0, observed - warm_ms))
            added_ms = min(observed - cold_ms, max(0.0, warm_ms - memory_ms))
            nested = sum(duration_ms(s) for s in recorder.spans
                         if s["parent"] == span["id"])
            cursor = recorder.derived(
                "relational.cold_plan", span, span["start"], cold_ms)
            if backend.name != "memory":
                cursor = recorder.derived("storage.added", span, cursor, added_ms)
            # the rest of the observed span is the executor's own work
            recorder.derived("relational.execute", span, cursor,
                             observed - nested - cold_ms - added_ms)
    finally:
        connection.close()


def _pipeline_pass(
    instrumentation: Instrumentation,
    engines: Dict[str, KeywordSearchEngine],
    ops: Sequence[workloads.Op],
) -> List[Dict[str, Any]]:
    """Up to ``PIPELINE_TEXTS`` distinct texts of *ops* through a traced
    ``engine.search``: per text, the outside spans by name, the program's
    own stage times, and the counts taken where the outside spans close.
    """
    texts = list(dict.fromkeys(
        (op.dataset, op.query, op.k) for op in ops if op.kind == "get"
    ))[:PIPELINE_TEXTS]
    rows = []
    for dataset, query, k in texts:
        instrumentation.calls.clear()
        result = engines[dataset].search(query, k=k, trace=True)
        calls = instrumentation.calls
        (_, matched), = calls["keywords.match"]
        (_, generated), = calls["patterns.generate"]
        rows.append({
            "outside": {
                name: [duration_ms(span) for span, _ in record]
                for name, record in calls.items()
            },
            "inside": {
                stage: seconds * 1000.0
                for stage, seconds in result.trace.stage_times().items()
            },
            "tags": sum(len(found) for found in matched.values()),
            "generated": len(generated),
            "kept": len(result.interpretations),
        })
    instrumentation.calls.clear()
    return rows


def _stage_metrics(rows: Sequence[Dict[str, Any]]) -> Tuple[Dict[str, Metric], Dict[str, Any]]:
    def per_query(name: str) -> List[float]:
        # search() parses once more inside patterns(); the program's own
        # parse span covers the first call only
        return [
            row["outside"][name][0] if name == "keywords.parse"
            else sum(row["outside"][name])
            for row in rows if row["outside"].get(name)
        ]

    def per(name: str) -> Metric:
        return loadgen.median_of(per_query(name))

    generated = sum(row["generated"] for row in rows)
    metrics = {
        "keywords.parse_ms": per("keywords.parse"),
        "keywords.match_ms": per("keywords.match"),
        "keywords.tags_per_query": (
            sum(row["tags"] for row in rows) / len(rows), "count", len(rows)),
        "patterns.generate_ms": per("patterns.generate"),
        "patterns.disambiguate_ms": per("patterns.disambiguate"),
        "patterns.rank_ms": per("patterns.rank"),
        "patterns.translate_ms": per("patterns.translate"),
        "patterns.generated_per_query": (generated / len(rows), "count", len(rows)),
        "patterns.kept_share": (
            sum(row["kept"] for row in rows) / generated, "ratio", len(rows)),
    }
    crosscheck = {}
    for stage, names in STAGE_SPANS.items():
        outside = sum(sum(per_query(name)) for name in names)
        inside = sum(row["inside"].get(stage, 0.0) for row in rows)
        crosscheck[stage] = {
            "outside_ms": outside,
            "inside_ms": inside,
            "agree": abs(outside - inside) <= max(
                CROSSCHECK_TOLERANCE * max(outside, inside),
                CROSSCHECK_FLOOR_MS * len(rows)),
        }
    return metrics, crosscheck


# ----------------------------------------------------------------------
# The kit: direct calls on the workload's primary database
# ----------------------------------------------------------------------
def _counted(backend: Any, select: Any) -> Dict[str, int]:
    tracer = Tracer()
    with tracer.span("kit"):
        backend.execute(select, tracer=tracer)
    return tracer.trace.counters()


def _kit(
    workload: workloads.Workload,
    stack: workloads.Stack,
    statements: Sequence[Tuple[Any, str]],
    rng: random.Random,
) -> Dict[str, Metric]:
    """*statements*: (select, class) of the primary dataset's replayed
    requests, each distinct statement once."""
    name = stack.primary
    database = stack.databases[name]
    engine = stack.engines[name]
    metrics: Dict[str, Metric] = {}

    def put(metric: str, values: Sequence[float]) -> None:
        metrics[metric] = loadgen.median_of(values)

    # -- relational + planner: memory, warm then cold -------------------
    memory = engine.get_backend("memory")
    for select, _ in statements:
        memory.execute(select)
    warm = [_timed(lambda s=select: memory.execute(s))[0] for select, _ in statements]
    put("relational.execute_ms", warm)
    for cls in ("scan", "probe"):
        put(f"relational.{cls}_execute_ms",
            [ms for ms, (_, c) in zip(warm, statements) if c == cls])
    counts = [_counted(memory, select) for select, _ in statements]
    scanned = sum(c.get("rows_scanned", 0) for c in counts)
    output = sum(c.get("rows_output", 0) for c in counts)
    metrics["relational.rows_scanned_per_row_output"] = (
        scanned / max(1, output), "ratio", len(counts))
    metrics["relational.index_scan_share"] = (
        sum(1 for c in counts if c.get("index_scans", 0)) / len(counts),
        "ratio", len(counts))
    engine.clear_cache()
    tracer = Tracer()
    with tracer.span("kit"):
        stats_ms, _ = _timed(lambda: engine.analyze_stats(tracer=tracer))
    metrics["planner.stats_build_ms"] = (stats_ms, "ms", 1)
    metrics["planner.stats_rows_profiled"] = (
        tracer.trace.counter("planner_stats_rows_profiled"), "count", 1)
    cold = [_timed(lambda s=select: memory.execute(s))[0] for select, _ in statements]
    put("relational.cold_plan_ms", [max(0.0, c - w) for c, w in zip(cold, warm)])

    # -- backends + storage: the same statements on sqlite and disk -----
    sqlite_ms, sqlite = _timed(lambda: create_backend("sqlite", database))
    metrics["backends.sqlite_load_ms"] = (sqlite_ms, "ms", 1)
    directory = tempfile.mkdtemp(prefix="e2e-kit-disk-")
    materialize_ms, manifest = _timed(lambda: materialize(database, directory))
    metrics["storage.materialize_ms"] = (materialize_ms, "ms", 1)
    metrics["storage.bytes_on_disk"] = (sum(manifest["files"].values()), "bytes", 1)
    pool = workload.disk_pool
    disk = create_backend("disk", database, path=directory, pool_capacity=pool)
    try:
        for select, _ in statements:
            sqlite.execute(select)
            disk.execute(select)
        put("backends.sqlite_execute_ms",
            [_timed(lambda s=select: sqlite.execute(s))[0] for select, _ in statements])
        before = disk.pool_counters()
        on_disk = [_timed(lambda s=select: disk.execute(s))[0] for select, _ in statements]
        after = disk.pool_counters()
        put("backends.disk_execute_ms", on_disk)
        put("storage.added_ms", [max(0.0, d - w) for d, w in zip(on_disk, warm)])
        metrics["backends.disk_over_memory"] = (
            statistics.median(on_disk) / statistics.median(warm), "ratio", len(warm))
        delta = {key: after[key] - before[key] for key in ("hits", "misses", "evictions", "pins")}
        n = len(statements)
        metrics["storage.pool_hit_share"] = (
            delta["hits"] / max(1, delta["hits"] + delta["misses"]), "ratio", n)
        metrics["storage.pages_read_per_request"] = (delta["misses"] / n, "count", n)
        metrics["storage.evictions_per_request"] = (delta["evictions"] / n, "count", n)
        metrics["storage.pins_per_row_output"] = (
            delta["pins"] / max(1, output), "ratio", n)
        metrics.update(_storage_probes(database, directory, pool, rng))
    finally:
        sqlite.close()
        disk.close()

    # -- what set-up and writes pay -------------------------------------
    generate_ms, generated = _timed(lambda: generate_scaled("tpch", workload.primary_sf))
    metrics["datasets.generate_ms"] = (generate_ms, "ms", 1)
    metrics["datasets.rows"] = (sum(generated.row_counts().values()), "count", 1)
    unnormalized = denormalize_tpch(generated)
    view_ms, _ = _timed(lambda: NormalizedView.build(
        unnormalized.database, unnormalized.fds, unnormalized.name_hints))
    metrics["unnormalized.view_build_ms"] = (view_ms, "ms", 1)
    database.load("Order", workloads.write_op(rng, database, cycle=1_000).rows)
    index_ms, _ = _timed(lambda: database.text_index)
    metrics["relational.index_build_ms"] = (index_ms, "ms", 1)
    engine.clear_cache()
    return metrics


def _storage_probes(database, directory: str, pool: int, rng: random.Random) -> Dict[str, Metric]:
    """Micro-probes of the paged structures behind their public handles."""
    metrics: Dict[str, Metric] = {}
    lookups = 200
    storage = StorageEngine(directory, database.schema, pool_capacity=pool)
    try:
        heap = storage.heap("Lineitem")
        scan_ms, rows = _timed(lambda: sum(1 for _ in heap.scan()))
        metrics["storage.heap_scan_ms_per_page"] = (
            scan_ms / heap.page_count, "ms", heap.page_count)
        positions = [rng.randrange(rows) for _ in range(lookups)]
        metrics["storage.heap_point_ms"] = loadgen.median_of(
            [_timed(lambda p=p: heap.row(p))[0] for p in positions])
        orders = database.table("Order").rows
        amounts = [float(rng.choice(orders)[2]) for _ in range(lookups)]
        tree = storage.bptree("Order", "amount")
        before = storage.counters()["pins"]
        tree_ms = [_timed(lambda a=a: tree.search_eq(a))[0] for a in amounts]
        metrics["storage.bptree_lookup_ms"] = loadgen.median_of(tree_ms)
        metrics["storage.bptree_pages_per_lookup"] = (
            (storage.counters()["pins"] - before) / lookups, "count", lookups)
        names = [rng.choice(database.table("Part").rows)[1] for _ in range(lookups)]
        hashed = storage.hash_file("Part", "pname")
        metrics["storage.hash_lookup_ms"] = loadgen.median_of(
            [_timed(lambda v=v: hashed.positions(v))[0] for v in names])
        metrics["storage.spimi_lookup_ms"] = loadgen.median_of([
            _timed(lambda v=v: storage.spimi.candidate_positions(
                tokenize_text(v)[0], "Part", "pname"))[0]
            for v in names
        ])
    finally:
        storage.close()
    return metrics


# ----------------------------------------------------------------------
# The report: shares of service.serve wall, top costs
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Total self time (ms) per span name below ``service.serve``."""
    children: Dict[Optional[int], float] = {}
    for span in spans:
        children[span["parent"]] = children.get(span["parent"], 0.0) + duration_ms(span)
    by_id = {span["id"]: span for span in spans}

    def under_serve(span: Dict[str, Any]) -> bool:
        while span is not None:
            if span["name"] == "service.serve":
                return True
            span = by_id.get(span["parent"])
        return False

    totals: Dict[str, float] = {}
    for span in spans:
        if under_serve(span):
            own = duration_ms(span) - children.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def report(spans: Sequence[Dict[str, Any]]) -> Tuple[List[str], Dict[str, float], List[Dict[str, Any]]]:
    serve_ms = sum(duration_ms(s) for s in spans if s["name"] == "service.serve")
    totals = self_times(spans)
    requests = sum(1 for s in spans if s["name"] == "request")
    shares = {name: ms / serve_ms for name, ms in totals.items()}
    by_layer: Dict[str, float] = {}
    for name, share in shares.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + share
    ranked = sorted(totals.items(), key=lambda item: -item[1])
    top = [
        {"span": name, "self_ms_per_request": ms / requests, "share_of_serve": shares[name]}
        for name, ms in ranked[:5]
    ]
    lines = [f"share of service.serve wall by layer ({requests} replayed requests, "
             f"{serve_ms / requests:.3f} ms serve wall each):"]
    lines += [f"  {layer:<14} {share:7.1%}" for layer, share in
              sorted(by_layer.items(), key=lambda item: -item[1])]
    lines.append("top 5 costs (self time per request, share of service.serve wall):")
    lines += [f"  {i}. {c['span']:<24} {c['self_ms_per_request']:9.3f} ms  {c['share_of_serve']:6.1%}"
              for i, c in enumerate(top, start=1)]
    return lines, shares, top


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_run(workload: workloads.Workload, seed: int, seconds: float) -> Dict[str, Any]:
    rng = random.Random(f"{seed}:kit")
    stack = workload.build()
    try:
        base_ops = workload.base_ops(seed, stack)
        stream = workload.stream(seed, stack)
        before = stack.service.metrics_snapshot()
        # 1. load: counters under the workload's own client count
        # (whole rounds, so the next pass starts on a round boundary)
        load, _ = loadgen.run_closed_loop(
            stack.connect, stream, workload.clients, seconds / 4, stack.execute,
            workload.round_len)
        after = stack.service.metrics_snapshot()
        # 2. baseline: whole rounds, one client, untraced
        round_ms, baseline = _timed(
            lambda: _single_client(stack, _take(stream, workload.round_len)))
        rounds = max(1, int(seconds * 1000.0 / 5 / round_ms))
        baseline += _single_client(stack, _take(stream, workload.round_len * (rounds - 1)))
        # 3. replay: as many rounds again, wrappers installed
        replay_ops = _take(stream, workload.round_len * rounds)
        recorder = Recorder()
        traced_engines = dict(stack.engines)
        if all(engine.is_normalized for engine in stack.engines.values()):
            # so the rewrite stage is timed on every workload: the same
            # texts over the denormalized form of the primary database
            traced_engines["kit-unnorm"] = workloads.unnormalized_engine(
                denormalize_tpch(stack.databases[stack.primary]))
        with Instrumentation(recorder, stack, traced_engines.values()) as instrumentation:
            replayed = _single_client(stack, replay_ops, recorder)
            serve_calls = list(instrumentation.calls["service.serve"])
            _derive_execute_children(stack, recorder, replay_ops)
            # 4. pipeline: stage costs and the cross-check
            rows = _pipeline_pass(instrumentation, stack.engines, replay_ops)
            if "kit-unnorm" in traced_engines:
                rewrite_rows = _pipeline_pass(
                    instrumentation, traced_engines,
                    [workloads.Op(dataset="kit-unnorm", query=op.query, k=op.k)
                     for op in replay_ops
                     if op.kind == "get" and op.dataset == stack.primary])
            else:
                rewrite_rows = rows
        oracle = {} if workload.writes else workloads.compute_oracle(
            stack,
            [s.op for s in load[:: workloads.ORACLE_SAMPLE_EVERY]]
            if workload.cold else base_ops)
        # the kit works on the primary dataset's distinct statements
        # the replay's spans; the later passes ran outside any request
        spans = [s for s in recorder.spans if s["request"] is not None]
        statements: Dict[str, Tuple[Any, str]] = {}
        for _, select, span in recorder.executions:
            if span["request"] is not None:
                op = replay_ops[span["request"]]
                if op.dataset == stack.primary:
                    statements.setdefault(render(select), (select, op.cls))
        kit = _kit(workload, stack, list(statements.values()), rng)
        fresh_connection_ms = []
        for _ in range(20):
            connection = stack.connect()
            try:
                start, end, _, _ = loadgen.get(connection, "/healthz")
            finally:
                connection.close()
            fresh_connection_ms.append((end - start) * 1000.0)
    finally:
        stack.close()

    verify = (workloads.verify_cycles if workload.writes
              else lambda samples: workloads.verify_reads(samples, oracle))
    verdicts = verify(load) + verify(baseline) + verify(replayed)

    def gets(samples: Sequence[loadgen.Sample]) -> List[loadgen.Sample]:
        return [s for s in samples if s.op.kind == "get"]

    def span_ms(name: str) -> List[float]:
        return [duration_ms(s) for s in spans if s["name"] == name]

    def per_request(name: str) -> Dict[int, float]:
        return {s["request"]: duration_ms(s) for s in spans if s["name"] == name}

    def delta(section: str, key: str) -> int:
        def total(snapshot: Dict[str, Any]) -> int:
            if section == "service":
                return snapshot["service"]["counters"].get(key, 0)
            return sum(e["counters"].get(key, 0) for e in snapshot["engines"].values())
        return total(after) - total(before)

    med = loadgen.median_of
    http, serve, payload = (
        per_request(n) for n in ("service.http", "service.serve", "engine.payload"))
    admitted = max(1, delta("service", "requests_admitted"))
    lookups = max(1, delta("engines", "pattern_cache_hits")
                  + delta("engines", "pattern_cache_misses"))
    baseline_ms = sum(s.latency_ms for s in gets(baseline))
    replay_ms = sum(s.latency_ms for s in gets(replayed))
    stage_metrics, crosscheck = _stage_metrics(rows)
    metrics: Dict[str, Metric] = {
        "service.http_overhead_ms": med([http[r] - serve[r] for r in http]),
        "service.serve_self_ms": med([serve[r] - payload.get(r, 0.0) for r in serve]),
        "service.queue_wait_ms": med([r.queue_wait_ms for _, r in serve_calls]),
        "service.encode_ms": med(span_ms("service.encode")),
        "service.result_cache_hit_share": (
            delta("service", "result_cache_hits") / admitted, "ratio", admitted),
        "service.coalesced_share": (
            delta("service", "singleflight_coalesced") / admitted, "ratio", admitted),
        "service.shed_count": (delta("service", "requests_shed"), "count", len(load)),
        "service.timeout_count": (
            delta("service", "requests_timed_out"), "count", len(load)),
        "engine.compile_ms": med(span_ms("engine.compile")),
        "engine.pattern_cache_hit_share": (
            delta("engines", "pattern_cache_hits") / lookups, "ratio", lookups),
        "unnormalized.rewrite_ms": med([
            sum(row["outside"]["unnormalized.rewrite"]) for row in rewrite_rows
            if row["outside"].get("unnormalized.rewrite")]),
        "sql.render_ms": med(span_ms("sql.render")),
        "observability.trace_overhead_share": (
            (replay_ms - baseline_ms) / baseline_ms, "ratio", len(gets(replayed))),
        "loadgen.client_overhead_ms": med(fresh_connection_ms),
        "loadgen.samples": (len(gets(load)), "count", len(gets(load))),
    }
    metrics.update(stage_metrics)
    metrics.update(kit)
    lines, shares, top = report(spans)
    lines += [
        f"cross-check {stage:<13} outside {row['outside_ms']:9.3f} ms  "
        f"inside {row['inside_ms']:9.3f} ms  "
        + ("agree" if row["agree"] else "DISAGREE")
        for stage, row in crosscheck.items()
    ]
    return {
        "attempted": len(verdicts),
        "failed": sum(1 for ok in verdicts if not ok),
        "metrics": metrics,
        "workload_sha256": workloads.stream_sha256(base_ops),
        "report": lines,
        "spans": spans,
        "shares": shares,
        "top_costs": top,
        "crosscheck": crosscheck,
    }
