"""Command-line interface: keyword search from the shell.

Examples::

    python -m repro --dataset university "Green SUM Credit"
    python -m repro --dataset tpch --top 3 "COUNT part GROUPBY supplier"
    python -m repro --dataset tpch-unnorm 'COUNT supplier "Indian black chocolate"'
    python -m repro --dataset acmdl --sqak "COUNT proceeding editor Smith"
    python -m repro --db-dir ./mydb --explain "COUNT thing GROUPBY other"
    python -m repro --dataset university --sql "SELECT Sname FROM Student"
    python -m repro --dataset tpch --strict "COUNT part GROUPBY supplier"
    python -m repro --dataset tpch --backend sqlite "COUNT part GROUPBY supplier"
    python -m repro check --dataset tpch-unnorm
    python -m repro diff --dataset acmdl-unnorm
    python -m repro diff --backend disk --dataset university
    python -m repro stats --dataset tpch --table Customer
    python -m repro gen --dataset tpch --sf 4 --out ./tpch-sf4
    python -m repro serve --port 8080 --datasets university,tpch
    python -m repro --reproduce

``--dataset`` picks one of the built-in databases; ``--db-dir`` loads a
database saved with :func:`repro.relational.io.save_database` (optionally
with declared FDs in an ``fds.json``: ``{"Relation": ["A -> B", ...]}``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.baselines import SqakEngine
from repro.datasets import (
    denormalize_acmdl,
    denormalize_tpch,
    enrolment_database,
    generate_acmdl,
    generate_tpch,
    university_database,
)
from repro.engine import KeywordSearchEngine
from repro.errors import ReproError, UnsupportedQueryError
from repro.observability import NULL_TRACER, Tracer
from repro.relational.database import Database
from repro.relational.io import load_database

_ENROLMENT_FDS = {"Enrolment": ["Sid -> Sname, Age", "Code -> Title, Credit"]}

DATASETS = (
    "university",
    "enrolment",
    "tpch",
    "tpch-unnorm",
    "acmdl",
    "acmdl-unnorm",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Semantic keyword search with aggregates and GROUPBY "
            "(EDBT 2016 reproduction)"
        ),
    )
    parser.add_argument("query", nargs="?", help="keyword query (quote phrases)")
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset",
        choices=DATASETS,
        default="university",
        help="built-in dataset to query (default: university)",
    )
    source.add_argument(
        "--db-dir",
        type=Path,
        help="directory with schema.json + CSVs (see repro.relational.io)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=1,
        metavar="K",
        help="number of interpretations to show (default: 1)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help=(
            "show interpretations, SQL and the traced pipeline span tree "
            "(per-stage timings and counters) without executing"
        ),
    )
    parser.add_argument(
        "--sqak",
        action="store_true",
        help="use the SQAK baseline instead of the semantic engine",
    )
    parser.add_argument(
        "--backend",
        choices=("memory", "sqlite", "disk"),
        default="memory",
        help=(
            "execution backend for answers: the in-memory engine "
            "(default), a real SQLite database, or the paged on-disk "
            "storage engine materialized from the dataset (see "
            "docs/BACKENDS.md and docs/STORAGE.md)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "statically analyze every interpretation and refuse to answer "
            "when any error-severity diagnostic is found"
        ),
    )
    parser.add_argument(
        "--sql",
        action="store_true",
        help="treat the argument as raw SQL and execute it directly",
    )
    parser.add_argument(
        "--schema",
        action="store_true",
        help="print the database summary and ORM schema graph, then exit",
    )
    parser.add_argument(
        "--reproduce",
        action="store_true",
        help="regenerate every table/figure of the paper and exit",
    )
    return parser


def _load_source(args: argparse.Namespace) -> Tuple[Database, dict, dict, tuple]:
    """Return (database, fds, name_hints, sqak_extra_joins)."""
    if args.db_dir is not None:
        database = load_database(args.db_dir)
        fds_path = Path(args.db_dir) / "fds.json"
        fds = {}
        if fds_path.exists():
            with open(fds_path, encoding="utf-8") as handle:
                fds = json.load(handle)
        return database, fds, {}, ()
    return load_dataset(args.dataset)


def load_dataset(name: str) -> Tuple[Database, dict, dict, tuple]:
    """Build one built-in dataset: (database, fds, name_hints, sqak_joins)."""
    if name == "university":
        return university_database(), {}, {}, ()
    if name == "enrolment":
        return enrolment_database(), _ENROLMENT_FDS, {}, ()
    if name == "tpch":
        return generate_tpch(), {}, {}, ()
    if name == "acmdl":
        return generate_acmdl(), {}, {}, ()
    if name == "tpch-unnorm":
        dataset = denormalize_tpch(generate_tpch())
    else:
        dataset = denormalize_acmdl(generate_acmdl())
    return (
        dataset.database,
        dict(dataset.fds),
        dict(dataset.name_hints),
        tuple(dataset.sqak_extra_joins),
    )


def _run_semantic(
    engine: KeywordSearchEngine,
    query: str,
    top: int,
    explain: bool,
    out,
    strict: bool = False,
    backend: Optional[str] = None,
) -> int:
    result = engine.search(
        query, k=top, trace=explain, strict=strict, backend=backend
    )
    if explain and not strict:
        # strict search already ran the analyzers (and attached per-
        # interpretation diagnostics); otherwise run them for the report
        engine._analyze_compiled(query, result.interpretations)
    for interpretation in result.interpretations:
        print(f"-- interpretation #{interpretation.rank}: "
              f"{interpretation.description}", file=out)
        if explain:
            print(interpretation.pattern.render_tree(), file=out)
        print(interpretation.sql, file=out)
        if explain:
            # compile (but do not execute) the physical plan, inside the
            # search trace so plan counters show up in the span tree
            tracer = interpretation._tracer or NULL_TRACER
            with tracer.span("plan"):
                plan = engine.executor.plan_for(interpretation.select, tracer)
            print("-- physical plan", file=out)
            print(plan.explain(), file=out)
            print("-- diagnostics", file=out)
            if interpretation.diagnostics:
                for diagnostic in interpretation.diagnostics:
                    print(str(diagnostic), file=out)
            else:
                print("no diagnostics", file=out)
        else:
            print(interpretation.execute().format_table(), file=out)
        print(file=out)
    if explain and result.trace is not None:
        print("-- trace", file=out)
        print(result.trace.render(), file=out)
    return 0


def _run_sqak(sqak: SqakEngine, query: str, explain: bool, out) -> int:
    tracer = Tracer() if explain else NULL_TRACER
    try:
        with tracer.span("search", query=query):
            statement = sqak.compile(query, tracer=tracer)
    except UnsupportedQueryError as exc:
        print(f"SQAK: N.A. ({exc})", file=out)
        return 1
    print(statement.sql, file=out)
    if explain:
        with tracer.span("plan"):
            plan = sqak.executor.plan_for(statement.select, tracer)
        print("-- physical plan", file=out)
        print(plan.explain(), file=out)
    else:
        print(sqak.executor.execute(statement.select).format_table(), file=out)
    if explain and tracer.trace is not None:
        print(file=out)
        print("-- trace", file=out)
        print(tracer.trace.render(), file=out)
    return 0


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description=(
            "print planner statistics — row count, sampled NDV, null "
            "fractions, min/max — for a dataset's tables: the profiles "
            "the cost-based optimizer plans with (see docs/PLANNER.md)"
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset",
        choices=DATASETS,
        default="university",
        help="built-in dataset to profile (default: university)",
    )
    source.add_argument(
        "--db-dir",
        type=Path,
        help="directory with schema.json + CSVs (see repro.relational.io)",
    )
    parser.add_argument(
        "--table",
        action="append",
        dest="tables",
        metavar="NAME",
        help="table to profile (repeatable; default: every table)",
    )
    return parser


def run_stats(argv: Optional[List[str]] = None, out=None) -> int:
    """``python -m repro stats`` — print table profiles for a dataset."""
    out = out or sys.stdout
    args = build_stats_parser().parse_args(argv)
    from repro.planner import StatisticsCatalog

    try:
        database, _fds, _hints, _joins = _load_source(args)
        catalog = StatisticsCatalog(database)
        tracer = Tracer()
        names = args.tables or [relation.name for relation in database.schema]
        for name in names:
            print(catalog.profile(name, tracer).format(), file=out)
            print(file=out)
        versions = ", ".join(
            f"{name} {database.table(name).version}" for name in names
        )
        print(f"profiled {len(names)} tables (versions: {versions})", file=out)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 2


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        from repro.analysis.check import run_check

        return run_check(list(argv[1:]), out)
    if argv and argv[0] == "diff":
        from repro.backends.differential import run_diff

        return run_diff(list(argv[1:]), out)
    if argv and argv[0] == "serve":
        from repro.service.cli import run_serve

        return run_serve(list(argv[1:]), out)
    if argv and argv[0] == "gen":
        from repro.datasets.gen import run_gen

        return run_gen(list(argv[1:]), out)
    if argv and argv[0] == "stats":
        return run_stats(list(argv[1:]), out)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.reproduce:
        from repro.experiments.report import full_report

        full_report(out)
        return 0

    try:
        database, fds, name_hints, extra_joins = _load_source(args)
        if args.schema:
            print(database.summary(), file=out)
            engine = KeywordSearchEngine(
                database, fds=fds or None, name_hints=name_hints or None
            )
            print(file=out)
            print(engine.graph.describe(), file=out)
            return 0
        if not args.query:
            parser.error("a query is required (or use --schema/--reproduce)")
        if args.sql:
            if args.backend != "memory":
                from repro.backends import create_backend

                backend = create_backend(args.backend, database)
                try:
                    print(backend.execute(args.query).format_table(), file=out)
                finally:
                    backend.close()
                return 0
            from repro.relational.executor import execute_sql

            print(execute_sql(database, args.query).format_table(), file=out)
            return 0
        if args.sqak:
            if args.backend != "memory":
                parser.error("--sqak only executes on the memory backend")
            sqak = SqakEngine(database, extra_joins=extra_joins)
            return _run_sqak(sqak, args.query, args.explain, out)
        engine = KeywordSearchEngine(
            database, fds=fds or None, name_hints=name_hints or None
        )
        return _run_semantic(
            engine,
            args.query,
            args.top,
            args.explain,
            out,
            strict=args.strict,
            backend=args.backend,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
