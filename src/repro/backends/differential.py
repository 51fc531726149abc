"""``repro diff`` — the differential correctness harness.

Every SQL statement the pipeline generates for the evaluation workload is
executed on **independent backends** — the in-memory engine
(:class:`~repro.backends.memory.MemoryBackend`, compiled physical plans)
and a real RDBMS (:class:`~repro.backends.sqlite.SqliteBackend`, rendered
SQL) — and the results are asserted equivalent as canonical row multisets
(the coercion rules live in :mod:`repro.backends.normalize`).  With
``--backend disk`` the sweep becomes three-way: the paged storage engine
(:class:`~repro.backends.disk.DiskBackend`, compiled plans over heap
files and on-disk indexes) joins as a third leg, each leg diffed against
the in-memory reference.

The sweep covers the same workload as ``repro check`` (Tables 3 and 4 on
tpch / acmdl, normalized and §4.1-denormalized — the unnormalized datasets
exercise the fragment-join rewriter end to end) plus the university and
enrolment example queries, each through:

* the semantic engine — the top-k interpretations per query, and
* the SQAK baseline — each compiled statement (queries the baseline
  cannot express are skipped, as in the paper).

Any disagreement is a bug in the executor, the renderer, the dialect
layer, or the materialization — the harness does not care which, it just
refuses to pass.  The exit code is the number of mismatching statements
(capped at 1), so the command doubles as a CI gate.

Counters: ``diff_queries`` (statements compared) and ``diff_mismatches``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.backends.base import Backend, create_backend
from repro.backends.memory import MemoryBackend
from repro.backends.normalize import canonical_rows, rows_match
from repro.errors import ReproError, UnsupportedQueryError
from repro.observability import NULL_TRACER
from repro.sql.ast import Select
from repro.sql.render import render

DIFF_DATASETS = (
    "university",
    "enrolment",
    "tpch",
    "tpch-unnorm",
    "acmdl",
    "acmdl-unnorm",
)

#: Example queries for the university/enrolment schemas (the paper's
#: running examples; the tpch/acmdl workloads come from
#: :mod:`repro.experiments.queries`).
UNIVERSITY_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("U1", "Green SUM Credit"),
    ("U2", "COUNT Student GROUPBY Course"),
    ("U3", "MAX COUNT Student"),
    ("U4", "AVG Credit"),
    ("U5", "Green George COUNT Code"),
    ("U6", "24 COUNT Code"),
    ("U7", "Java SUM Price"),
    ("U8", "Grade COUNT Student"),
)

ENROLMENT_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("E1", "Green SUM Credit"),
    ("E2", "24 COUNT Code"),
    ("E3", "Green George Code"),
)


@dataclass
class Mismatch:
    """One statement the two backends disagree on."""

    dataset: str
    qid: str
    source: str  # "semantic" or "sqak"
    sql: str
    detail: str
    backend: str = "sqlite"  # the leg that disagreed with memory

    def render(self) -> str:
        return (
            f"{self.dataset} {self.qid} [{self.source}] {self.backend} "
            f"MISMATCH: {self.detail}\n  {self.sql}"
        )


@dataclass
class DiffReport:
    """Outcome of a differential sweep."""

    statements: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    per_dataset: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _describe_rows(rows: List[Tuple[Any, ...]], limit: int = 3) -> str:
    shown = ", ".join(repr(r) for r in rows[:limit])
    suffix = ", ..." if len(rows) > limit else ""
    return f"{len(rows)} rows [{shown}{suffix}]"


def diff_statement(
    memory: MemoryBackend,
    sqlite: Backend,
    select: Select,
    tracer: Any = NULL_TRACER,
) -> Optional[str]:
    """Run *select* on both backends; ``None`` on agreement, else a
    human-readable description of the disagreement.

    The second backend is any :class:`~repro.backends.base.Backend` —
    the parameter keeps its historical name for compatibility."""
    label = getattr(sqlite, "name", "sqlite")
    tracer.count("diff_queries")
    try:
        memory_rows = canonical_rows(memory.execute(select, tracer=tracer).rows)
        sqlite_rows = canonical_rows(sqlite.execute(select, tracer=tracer).rows)
    except ReproError as exc:
        tracer.count("diff_mismatches")
        return f"backend error: {exc}"
    if rows_match(memory_rows, sqlite_rows):
        return None
    tracer.count("diff_mismatches")
    return (
        f"memory={_describe_rows(memory_rows)} vs "
        f"{label}={_describe_rows(sqlite_rows)}"
    )


def workload_texts(dataset: str) -> List[Tuple[str, str]]:
    """``(qid, query text)`` of the dataset's paper workload."""
    if dataset == "university":
        return list(UNIVERSITY_QUERIES)
    if dataset == "enrolment":
        return list(ENROLMENT_QUERIES)
    from repro.experiments.queries import ACMDL_QUERIES, TPCH_QUERIES

    specs = TPCH_QUERIES if dataset.startswith("tpch") else ACMDL_QUERIES
    return [(spec.qid, spec.text) for spec in specs]


def _sqak_na(dataset: str) -> Dict[str, bool]:
    if dataset in ("university", "enrolment"):
        return {}
    from repro.experiments.queries import ACMDL_QUERIES, TPCH_QUERIES

    specs = TPCH_QUERIES if dataset.startswith("tpch") else ACMDL_QUERIES
    return {spec.qid: spec.sqak_na for spec in specs}


def collect_statements(
    dataset: str, k: int = 10, skip_sqak: bool = False
) -> Tuple[Any, List[Tuple[str, str, Select]]]:
    """Compile the dataset's workload; returns the database plus
    deduplicated ``(qid, source, select)`` statements."""
    # lazy: repro.backends must stay importable without the engine layer
    from repro.baselines import SqakEngine
    from repro.cli import load_dataset
    from repro.engine import KeywordSearchEngine

    database, fds, hints, extra_joins = load_dataset(dataset)
    engine = KeywordSearchEngine(database, fds=fds or None, name_hints=hints or None)
    statements: List[Tuple[str, str, Select]] = []
    seen: set = set()
    for qid, text in workload_texts(dataset):
        for interpretation in engine.compile(text, k=k):
            key = render(interpretation.select)
            if key not in seen:
                seen.add(key)
                statements.append((qid, "semantic", interpretation.select))
    if not skip_sqak and dataset not in ("university", "enrolment"):
        sqak = SqakEngine(database, extra_joins=extra_joins)
        sqak_na = _sqak_na(dataset)
        for qid, text in workload_texts(dataset):
            if sqak_na.get(qid):
                continue
            try:
                statement = sqak.compile(text)
            except UnsupportedQueryError:
                continue
            key = render(statement.select)
            if key not in seen:
                seen.add(key)
                statements.append((qid, "sqak", statement.select))
    return database, statements


def diff_dataset(
    dataset: str,
    k: int = 10,
    skip_sqak: bool = False,
    tracer: Any = NULL_TRACER,
    report: Optional[DiffReport] = None,
    backends: Tuple[str, ...] = ("sqlite",),
) -> DiffReport:
    """Differential sweep over one dataset's workload.

    Each backend named in *backends* is diffed against the in-memory
    reference on every statement (``("sqlite", "disk")`` makes the sweep
    three-way); the sweep is the cross-backend gate that cost-based join
    reordering never changes results."""
    report = report if report is not None else DiffReport()
    database, statements = collect_statements(dataset, k=k, skip_sqak=skip_sqak)
    memory = MemoryBackend()
    memory.load(database)
    legs = [create_backend(name, database, tracer=tracer) for name in backends]
    try:
        for qid, source, select in statements:
            report.statements += 1
            report.per_dataset[dataset] = report.per_dataset.get(dataset, 0) + 1
            for leg in legs:
                detail = diff_statement(memory, leg, select, tracer=tracer)
                if detail is not None:
                    report.mismatches.append(
                        Mismatch(
                            dataset, qid, source, render(select), detail,
                            backend=leg.name,
                        )
                    )
    finally:
        for leg in legs:
            leg.close()
    return report


def build_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro diff",
        description=(
            "execute every workload statement on both the in-memory engine "
            "and SQLite, asserting identical results; exit non-zero on any "
            "disagreement"
        ),
    )
    parser.add_argument(
        "--dataset",
        action="append",
        choices=DIFF_DATASETS,
        dest="datasets",
        help="dataset to diff (repeatable; default: all)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="interpretations to execute per query (default: 10)",
    )
    parser.add_argument(
        "--skip-sqak",
        action="store_true",
        help="only diff the semantic engine",
    )
    parser.add_argument(
        "--backend",
        choices=("sqlite", "disk"),
        default="sqlite",
        help=(
            "extra leg to diff against the in-memory reference: sqlite "
            "(default, two-way) or disk (three-way — sqlite AND the "
            "paged storage engine)"
        ),
    )
    return parser


def run_diff(argv: Optional[List[str]] = None, out: Any = None) -> int:
    import sys

    from repro.observability import Tracer

    out = out or sys.stdout
    args = build_diff_parser().parse_args(argv)
    datasets = args.datasets or list(DIFF_DATASETS)
    backends = ("sqlite", "disk") if args.backend == "disk" else ("sqlite",)
    tracer = Tracer()
    report = DiffReport()
    for dataset in datasets:
        before = len(report.mismatches)
        diff_dataset(
            dataset, k=args.top, skip_sqak=args.skip_sqak,
            tracer=tracer, report=report, backends=backends,
        )
        bad = len(report.mismatches) - before
        status = "ok" if bad == 0 else f"{bad} MISMATCHES"
        print(
            f"{dataset}: {report.per_dataset.get(dataset, 0)} statements, {status}",
            file=out,
        )
    for mismatch in report.mismatches:
        print(mismatch.render(), file=out)
    print(
        f"diff: {report.statements} statements compared on "
        f"memory vs {', '.join(backends)}, "
        f"{len(report.mismatches)} mismatches",
        file=out,
    )
    return 1 if report.mismatches else 0
