"""The four workloads: data, serving stack, request streams and checks.

Every workload is a set-up (``build``: generate the data, build engines,
start a :class:`QueryService` behind the real HTTP front end, warm up)
plus a deterministic stream of operations derived from the seed.  The
program under test only ever sees the generated operations, never the
seed.  Why each workload exists is recorded in ``BENCHMARK.json`` and in
the README's workload table.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import os
import random
import statistics
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

from repro.backends.base import create_backend
from repro.backends.normalize import canonical_rows
from repro.datasets import denormalize_acmdl, denormalize_tpch, generate_scaled
from repro.engine import KeywordSearchEngine
from repro.experiments.queries import TPCH_QUERIES
from repro.relational.database import Database
from repro.relational.io import save_database
from repro.service.config import ServiceConfig
from repro.service.http import make_server
from repro.service.service import QueryService
from repro.storage.engine import DEFAULT_POOL_CAPACITY
from repro.storage.materialize import materialize

import loadgen

WORKLOADS = ("tpch_memory", "tpch_disk", "interpret_cold", "serve_churn")

#: value-free statements (whole-table aggregates and joins) against
#: value-term statements (index-started, selective)
SCAN_QIDS = ("T1", "T2", "T6", "T7")
BACKENDS = ("memory", "sqlite", "disk")
#: rows one write adds to ``Order``
WRITE_ROWS = 50
#: distinct texts per dataset in ``interpret_cold``: more than the pattern
#: cache (128), the plan cache (256) and the optimizer memo (256) hold,
#: so cycling over them never hits any of the three
COLD_TEXTS_PER_DATASET = 264
#: share of ``interpret_cold`` responses checked against the SQLite oracle
ORACLE_SAMPLE_EVERY = 8


@dataclass(frozen=True)
class Scale:
    """Data sizes of a run.  ``FULL`` is the comparable configuration;
    ``SMOKE`` only proves the benchmark itself still works."""

    tpch_sf: float
    #: disk buffer pool of ``tpch_disk`` in frames: a tenth of the data
    #: pages (492 at SF 10), the "larger than the cache" case
    disk_pool: int


FULL = Scale(tpch_sf=10, disk_pool=49)
SMOKE = Scale(tpch_sf=1, disk_pool=8)


@dataclass(frozen=True)
class Op:
    """One operation of a stream: an HTTP GET or a write to ``Order``."""

    kind: str = "get"  # get | write
    dataset: str = "tpch"
    backend: str = "memory"
    query: str = ""
    k: int = 3
    cls: str = ""  # scan | probe ("" for writes)
    phase: str = "miss"  # miss | hit | probe | write
    cycle: int = 0
    rows: Tuple[Tuple[Any, ...], ...] = ()

    @property
    def path(self) -> str:
        return "/search?" + urlencode(
            {"q": self.query, "dataset": self.dataset,
             "backend": self.backend, "k": self.k}
        )


def stream_sha256(ops: Sequence[Op]) -> str:
    """Digest of a request list: equal seeds must give equal digests."""
    text = json.dumps([asdict(op) for op in ops], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The serving stack of one set-up
# ----------------------------------------------------------------------
@dataclass
class Stack:
    """Everything one set-up built; ``close`` releases all of it."""

    databases: Dict[str, Database]
    engines: Dict[str, KeywordSearchEngine]
    service: QueryService
    server: Any
    #: backends the warm-up made each engine create
    backends: Tuple[str, ...] = ("memory",)

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def primary(self) -> str:
        return next(iter(self.databases))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def close(self) -> None:
        self.server.stop(grace_s=5.0)
        self.service.stop()
        for engine in self.engines.values():
            for name in self.backends:
                engine.get_backend(name).close()

    # -- the write side ------------------------------------------------
    def write(self, op: Op) -> float:
        """Load the op's rows into ``Order`` and drop the engine caches;
        returns the mean of ``Order.amount`` a reader must now see."""
        database = self.databases[op.dataset]
        database.load("Order", op.rows)
        self.engines[op.dataset].clear_cache()
        return statistics.fmean(row[2] for row in database.table("Order").rows)

    def execute(self, connection: http.client.HTTPConnection, op: Op) -> loadgen.Sample:
        if op.kind == "write":
            start = time.perf_counter()
            mean = self.write(op)
            body = json.dumps({"mean": mean}).encode("utf-8")
            return loadgen.Sample(op, start, time.perf_counter(), 200, body)
        start, end, status, body = loadgen.get(connection, op.path)
        return loadgen.Sample(op, start, end, status, body)


def _serve(
    engines: Dict[str, KeywordSearchEngine],
    databases: Dict[str, Database],
    cache_ttl_s: float,
    backends: Tuple[str, ...] = ("memory",),
) -> Stack:
    service = QueryService(
        ServiceConfig(
            max_workers=2,
            queue_limit=16,
            default_deadline_s=30.0,
            cache_ttl_s=cache_ttl_s,
            worker_processes=0,
        )
    )
    for name, engine in engines.items():
        service.register_dataset(name, engine)
    service.start()
    server = make_server(service)
    server.serve_background()
    return Stack(databases, engines, service, server, backends)


def unnormalized_engine(dataset: Any) -> KeywordSearchEngine:
    """An engine over an :class:`UnnormalizedDataset` (Table 7 form)."""
    return KeywordSearchEngine(
        dataset.database, fds=dataset.fds, name_hints=dataset.name_hints
    )


def _warm_up(stack: Stack, ops: Sequence[Op]) -> None:
    """One pass over *ops* so lazy set-up (text index, statistics,
    backend materialization, plan compilation) is done before timing."""
    connection = stack.connect()
    try:
        for op in ops:
            _, _, status, body = loadgen.get(connection, op.path)
            if status != 200:
                raise RuntimeError(
                    f"warm-up of {op.query!r} on {op.backend} answered "
                    f"{status}: {body[:200]!r}"
                )
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
def _tpch_round(backend: str, k: int = 3, phase: str = "miss", cycle: int = 0) -> List[Op]:
    return [
        Op(
            dataset="tpch",
            backend=backend,
            query=spec.text,
            k=k,
            cls="scan" if spec.qid in SCAN_QIDS else "probe",
            phase=phase,
            cycle=cycle,
        )
        for spec in TPCH_QUERIES
    ]


def write_op(rng: random.Random, database: Database, cycle: int) -> Op:
    customers = len(database.table("Customer"))
    base = 10_000_000 + cycle * WRITE_ROWS
    rows = tuple(
        (
            base + i,
            rng.randint(1, customers),
            round(rng.uniform(8000.0, 300000.0), 2),
            f"199{rng.randint(2, 8)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            rng.choice(("1-URGENT", "2-HIGH", "3-MEDIUM", "5-LOW")),
        )
        for i in range(WRITE_ROWS)
    )
    return Op(kind="write", phase="write", cycle=cycle, rows=rows)


def _probe_ops(backends: Sequence[str], cycle: int) -> List[Op]:
    t1 = TPCH_QUERIES[0]
    return [
        Op(backend=backend, query=t1.text, cls="scan", phase="probe", cycle=cycle)
        for backend in backends
    ]


def write_cycle(
    rng: random.Random, database: Database, backends: Sequence[str], cycle: int
) -> List[Op]:
    """A write followed by the T1 probes that must see it."""
    return [write_op(rng, database, cycle)] + _probe_ops(backends, cycle)


def _column(database: Database, table: str, column: str) -> List[str]:
    relation = database.schema.find_relation(table)
    index = relation.column_names.index(column)
    return sorted({row[index] for row in database.table(table).rows})


_AGGREGATES = ("SUM", "AVG", "MAX", "MIN")
#: metadata terms both the normalized and the unnormalized schema of a
#: family resolve: (relations, numeric attributes, GROUPBY targets)
_TPCH_TERMS = (
    ("order", "customer", "supplier", "part", "nation", "region", "lineitem"),
    ("amount", "acctbal", "retailprice", "size", "quantity"),
    ("nation", "region", "customer", "supplier", "part", "mktsegment",
     "priority", "type", "order"),
)
_ACMDL_TERMS = (
    ("paper", "author", "editor", "proceeding", "publisher"),
    ("pages",),
    ("proceeding", "publisher", "author", "editor", "paper", "acronym",
     "date", "title", "lname", "fname"),
)


def _value_free_texts(terms) -> List[str]:
    relations, numerics, groups = terms
    texts = [
        f"COUNT {r} GROUPBY {g}" for r in relations for g in groups if r != g
    ]
    texts += [
        f"{a} {n} GROUPBY {g}" for a in _AGGREGATES for n in numerics for g in groups
    ]
    texts += [f"{r} {a} {n}" for a in _AGGREGATES for n in numerics for r in relations]
    return texts


def _drawn(rng: random.Random, template: str, pool: List[str], arity: int = 1) -> Iterator[str]:
    """*template* filled with distinct seeded draws of *arity* different
    values, no text twice."""
    values = list(itertools.permutations(pool, arity))
    rng.shuffle(values)
    return (template.format(*value) for value in values)


def _cold_texts(rng: random.Random, family: str, database: Database) -> List[Tuple[str, str]]:
    """``COLD_TEXTS_PER_DATASET`` distinct (text, class) pairs: the
    paper's templates with their value terms re-drawn from the data,
    one value-free text in every four."""
    if family == "tpch":
        pname = _column(database, "Part", "pname")
        cname = _column(database, "Customer", "cname")
        free = _value_free_texts(_TPCH_TERMS)
        probes = [
            _drawn(rng, 'COUNT order "{0}"', pname),  # T3
            _drawn(rng, 'supplier MAX acctbal "{0}"', pname),  # T4
            _drawn(rng, 'COUNT supplier "{0}"', pname),  # T5
            _drawn(rng, 'COUNT supplier "{0}" "{1}"', pname, 2),  # T8
            _drawn(rng, 'COUNT order "{0}"', cname),
            _drawn(rng, 'SUM amount "{0}"', cname),
        ]
    else:
        acronym = _column(database, "Proceeding", "acronym")
        ptitle = _column(database, "Paper", "ptitle")
        lname = _column(database, "Author", "lname")
        fname = _column(database, "Author", "fname")
        editor = _column(database, "Editor", "lname")
        free = _value_free_texts(_ACMDL_TERMS)
        probes = [
            _drawn(rng, 'COUNT paper GROUPBY proceeding "{0}"', acronym),  # A2
            _drawn(rng, "COUNT proceeding editor {0}", editor),  # A3
            _drawn(rng, "paper MAX date {0}", lname),  # A4
            _drawn(rng, 'COUNT author "{0}"', ptitle),  # A5
            _drawn(rng, "COUNT paper author {0} {1}", fname, 2),  # A7
            _drawn(rng, 'COUNT editor "{0}" "{1}"', acronym, 2),  # A8
        ]
    rng.shuffle(free)
    scans = iter(free)
    sources = [("probe", p) for p in probes]
    sources[3:3] = [("scan", scans)]
    sources.append(("scan", scans))
    texts: List[Tuple[str, str]] = []
    seen = set()
    for cls, source in itertools.cycle(sources):
        text = next(source, None)
        if text is None or text in seen:
            continue  # a small value pool ran dry: the others fill in
        seen.add(text)
        texts.append((text, cls))
        if len(texts) == COLD_TEXTS_PER_DATASET:
            return texts
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Base: a name, a client count and the hooks ``run.py`` drives."""

    name = ""
    clients = 2
    #: the primary dataset's backends a write must become visible on
    probe_backends: Tuple[str, ...] = ("memory",)
    #: every request meets cold pattern and plan caches
    cold = False
    #: the stream itself writes (and probes) every cycle
    writes = False
    #: operations after which the stream's mix of requests repeats
    round_len = len(TPCH_QUERIES)
    #: scale factor of the primary (first) dataset
    primary_sf: float = 1
    #: buffer-pool frames of the disk backend over the primary dataset
    disk_pool = DEFAULT_POOL_CAPACITY

    def __init__(self, scale: Scale) -> None:
        self.scale = scale

    def build(self) -> Stack:
        """One cold set-up, up to the end of the warm-up pass."""
        raise NotImplementedError

    def base_ops(self, seed: int, stack: Stack) -> List[Op]:
        """The finite request list the stream repeats (what is hashed)."""
        raise NotImplementedError

    def stream(self, seed: int, stack: Stack) -> Iterator[Op]:
        return itertools.cycle(self.base_ops(seed, stack))

    def write_cycles(self, seed: int, stack: Stack, count: int) -> List[List[Op]]:
        """*count* write cycles to run around the measured phase (none
        when the stream has writes of its own)."""
        if self.writes:
            return []
        rng = random.Random(f"{seed}:writes")
        database = stack.databases[stack.primary]
        return [
            write_cycle(rng, database, self.probe_backends, cycle)
            for cycle in range(count)
        ]


class TpchWorkload(Workload):
    """T1-T8 round-robin over TPC-H at the full scale factor, result
    cache off, pattern and plan caches warm."""

    backend = "memory"

    def __init__(self, scale: Scale) -> None:
        super().__init__(scale)
        self.primary_sf = scale.tpch_sf

    def _engine(self, database: Database) -> KeywordSearchEngine:
        return KeywordSearchEngine(database)

    def build(self) -> Stack:
        database = generate_scaled("tpch", self.scale.tpch_sf)
        databases = {"tpch": database}
        stack = _serve(
            {"tpch": self._engine(database)}, databases, 0.0, (self.backend,)
        )
        _warm_up(stack, _tpch_round(self.backend))
        return stack

    def base_ops(self, seed: int, stack: Stack) -> List[Op]:
        ops = _tpch_round(self.backend)
        shift = random.Random(seed).randrange(len(ops))
        return ops[shift:] + ops[:shift]


class TpchMemory(TpchWorkload):
    name = "tpch_memory"


class TpchDisk(TpchWorkload):
    name = "tpch_disk"
    backend = "disk"
    probe_backends = ("disk",)

    def __init__(self, scale: Scale) -> None:
        super().__init__(scale)
        self.disk_pool = scale.disk_pool

    def _engine(self, database: Database) -> KeywordSearchEngine:
        # the engine forwards every option to every backend it creates
        # (README, Findings 2), so this engine can only serve disk
        return KeywordSearchEngine(
            database, backend_options={"pool_capacity": self.disk_pool}
        )


class InterpretCold(Workload):
    """Distinct texts over the four paper datasets at SF 1: the whole
    keyword-to-SQL pipeline runs cold on every request while execution
    is a millisecond or two."""

    name = "interpret_cold"
    cold = True
    k = 10
    #: four datasets times the eight text sources of ``_cold_texts``
    round_len = 32

    def build(self) -> Stack:
        tpch = generate_scaled("tpch", 1)
        acmdl = generate_scaled("acmdl", 1)
        tpch_unnorm = denormalize_tpch(tpch)
        acmdl_unnorm = denormalize_acmdl(acmdl)
        databases = {
            "tpch": tpch,
            "acmdl": acmdl,
            "tpch-unnorm": tpch_unnorm.database,
            "acmdl-unnorm": acmdl_unnorm.database,
        }
        engines = {
            "tpch": KeywordSearchEngine(tpch),
            "acmdl": KeywordSearchEngine(acmdl),
            "tpch-unnorm": unnormalized_engine(tpch_unnorm),
            "acmdl-unnorm": unnormalized_engine(acmdl_unnorm),
        }
        stack = _serve(engines, databases, cache_ttl_s=0.0)
        # warm with texts the stream never sends: lazy indexes and
        # statistics get built, the stream's texts stay unseen
        _warm_up(
            stack,
            [
                Op(dataset=name, query=query, k=self.k)
                for name in databases
                for query in (
                    ("order AVG amount", "MAX COUNT order GROUPBY nation")
                    if name.startswith("tpch")
                    else ("proceeding AVG pages", "COUNT paper GROUPBY proceeding SIGMOD")
                )
            ],
        )
        return stack

    def base_ops(self, seed: int, stack: Stack) -> List[Op]:
        rng = random.Random(seed)
        per_dataset = {}
        for name in stack.databases:
            family = "tpch" if name.startswith("tpch") else "acmdl"
            per_dataset[name] = _cold_texts(rng, family, stack.databases[family])
        return [
            Op(dataset=name, query=per_dataset[name][index][0], k=self.k,
               cls=per_dataset[name][index][1])
            for index in range(COLD_TEXTS_PER_DATASET)
            for name in stack.databases
        ]


class ServeChurn(Workload):
    """Writes beside reads on TPC-H SF 1 over all three backends with the
    result cache on: per cycle one write, three probes that must see it,
    a miss round and two hit rounds."""

    name = "serve_churn"
    clients = 1
    writes = True
    probe_backends = BACKENDS
    #: one cycle: 1 write + 3 probes + 21 misses + 48 hits
    round_len = 73
    #: cycles hashed into ``workload_sha256``
    HASHED_CYCLES = 8

    def build(self) -> Stack:
        database = generate_scaled("tpch", 1)
        stack = _serve(
            {"tpch": KeywordSearchEngine(database)}, {"tpch": database},
            300.0, BACKENDS,
        )
        _warm_up(stack, [op for b in BACKENDS for op in _tpch_round(b)])
        return stack

    def _cycle(self, rng: random.Random, database: Database, cycle: int) -> List[Op]:
        ops = write_cycle(rng, database, BACKENDS, cycle)
        # T1 was just probed on every backend, so the miss round is T2-T8
        misses = [
            op for b in BACKENDS for op in _tpch_round(b, cycle=cycle)[1:]
        ]
        hits = [
            op
            for _ in range(2)
            for b in BACKENDS
            for op in _tpch_round(b, phase="hit", cycle=cycle)
        ]
        return ops + misses + hits

    def _cycles(self, seed: int, stack: Stack) -> Iterator[List[Op]]:
        rng = random.Random(seed)
        database = stack.databases["tpch"]
        return (self._cycle(rng, database, cycle) for cycle in itertools.count())

    def stream(self, seed: int, stack: Stack) -> Iterator[Op]:
        return itertools.chain.from_iterable(self._cycles(seed, stack))

    def base_ops(self, seed: int, stack: Stack) -> List[Op]:
        cycles = itertools.islice(self._cycles(seed, stack), self.HASHED_CYCLES)
        return [op for cycle in cycles for op in cycle]


def make_workload(name: str, scale: Scale) -> Workload:
    for cls in (TpchMemory, TpchDisk, InterpretCold, ServeChurn):
        if cls.name == name:
            return cls(scale)
    raise ValueError(f"unknown workload {name!r} (want one of {WORKLOADS})")


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def rows_equal(left: Sequence[Sequence[Any]], right: Sequence[Sequence[Any]]) -> bool:
    """Canonical row multisets equal, floats to a relative 1e-9.

    ``canonical_rows`` rounds floats to 12 significant digits; two sums
    taken in different orders can fall on either side of a rounding
    boundary (README, Findings 4), so floats are compared by tolerance.
    """
    lc, rc = canonical_rows(left), canonical_rows(right)
    if len(lc) != len(rc):
        return False
    for lrow, rrow in zip(lc, rc):
        if len(lrow) != len(rrow):
            return False
        for a, b in zip(lrow, rrow):
            if type(a) is not type(b):
                return False
            if isinstance(a, float):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif a != b:
                return False
    return True


def compute_oracle(stack: Stack, ops: Sequence[Op]) -> Dict[Tuple[str, str, int], List[Tuple]]:
    """For each distinct request, the rows of the same interpretation on
    a SQLite backend of the benchmark's own."""
    oracle: Dict[Tuple[str, str, int], List[Tuple]] = {}
    sqlite: Dict[str, Any] = {}
    try:
        for op in ops:
            key = (op.dataset, op.query, op.k)
            if key in oracle:
                continue
            if op.dataset not in sqlite:
                sqlite[op.dataset] = create_backend(
                    "sqlite", stack.databases[op.dataset]
                )
            best = stack.engines[op.dataset].search(op.query, k=op.k).best
            oracle[key] = sqlite[op.dataset].execute(best.select).rows
    finally:
        for backend in sqlite.values():
            backend.close()
    return oracle


def _parse(sample: loadgen.Sample) -> Optional[Dict[str, Any]]:
    """The response payload when it is a well-formed 200, else None."""
    if sample.status != 200:
        return None
    try:
        payload = json.loads(sample.body)
        interpretations = payload["interpretations"]
        rows = payload["best"]["rows"]
    except (ValueError, KeyError, TypeError):
        return None
    if not isinstance(rows, list) or not 1 <= len(interpretations) <= sample.op.k:
        return None
    return payload


def verify_reads(
    samples: Sequence[loadgen.Sample],
    oracle: Dict[Tuple[str, str, int], List[Tuple]],
) -> List[bool]:
    """Per sample: well-formed 200 and, where the oracle has the request,
    equal rows."""
    verdicts = []
    for sample in samples:
        payload = _parse(sample)
        expected = oracle.get((sample.op.dataset, sample.op.query, sample.op.k))
        verdicts.append(
            payload is not None
            and (expected is None or rows_equal(payload["best"]["rows"], expected))
        )
    return verdicts


def verify_cycles(samples: Sequence[loadgen.Sample]) -> List[bool]:
    """Per sample of a stream with writes: a probe answers the mean the
    preceding write produced (an acknowledged write is readable), the
    backends agree on every miss, and a hit is byte-identical to the
    miss it repeats."""
    verdicts = []
    mean: Optional[float] = None
    first_rows: Dict[Tuple[int, str], Any] = {}
    first_body: Dict[Tuple[int, str, str], bytes] = {}
    for sample in samples:
        op = sample.op
        if op.kind == "write":
            mean = json.loads(sample.body)["mean"]
            verdicts.append(True)
            continue
        payload = _parse(sample)
        if payload is None:
            verdicts.append(False)
            continue
        rows = payload["best"]["rows"]
        ok = True
        if op.phase == "probe":
            ok = (
                mean is not None
                and len(rows) == 1
                and len(rows[0]) == 1
                and isinstance(rows[0][0], float)
                and math.isclose(rows[0][0], mean, rel_tol=1e-9)
            )
        if op.phase == "hit":
            ok = first_body.get((op.cycle, op.query, op.backend)) == sample.body
        else:
            first_body[(op.cycle, op.query, op.backend)] = sample.body
            agreed = first_rows.setdefault((op.cycle, op.query), rows)
            ok = ok and rows_equal(rows, agreed)
        verdicts.append(ok)
    return verdicts


def write_visible_ms(samples: Sequence[loadgen.Sample], verdicts: Sequence[bool]) -> List[float]:
    """Per write: start of the load to the end of the last probe of its
    cycle, for cycles whose probes all verified."""
    spans: List[float] = []
    start: Optional[float] = None
    good = True
    for index, (sample, verdict) in enumerate(zip(samples, verdicts)):
        phase = sample.op.phase
        if phase == "write":
            start, good = sample.start, True
        elif phase == "probe" and start is not None:
            good = good and verdict
            following = samples[index + 1].op.phase if index + 1 < len(samples) else ""
            if following != "probe":
                if good:
                    spans.append((sample.end - start) * 1000.0)
                start = None
    return spans


def disk_bytes_per_user_byte(stack: Stack) -> float:
    """Bytes of the primary database materialized for the disk backend
    over its bytes as ``save_database`` writes it."""
    database = stack.databases[stack.primary]
    with tempfile.TemporaryDirectory(prefix="e2e-footprint-") as root:
        manifest = materialize(database, os.path.join(root, "disk"))
        stored = sum(manifest["files"].values()) + os.path.getsize(
            os.path.join(root, "disk", "MANIFEST.json")
        )
        saved = save_database(database, os.path.join(root, "csv"))
        user = sum(entry.stat().st_size for entry in saved.iterdir())
    return stored / user
