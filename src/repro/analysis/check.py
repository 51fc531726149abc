"""``repro check`` — run every static analyzer over the evaluation workload.

For each selected dataset the checker compiles the paper's evaluation
queries (Tables 3 and 4) with **both** engines and analyzes every artifact
the pipeline produces:

* semantic engine — pattern, translation, SQL/type, rewrite and plan
  diagnostics via :meth:`KeywordSearchEngine.analyze`;
* SQAK baseline — SQL/type and plan diagnostics on each compiled statement
  (queries the baseline cannot express are skipped, as in the paper).

The exit code is the number of artifacts with findings (capped at 1 for
shell use): a clean pipeline exits 0, so the command doubles as a CI gate.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.plan_analyzers import analyze_plan
from repro.analysis.sql_analyzers import analyze_select
from repro.errors import UnsupportedQueryError
from repro.observability import NULL_TRACER

CHECK_DATASETS = ("tpch", "tpch-unnorm", "acmdl", "acmdl-unnorm")


def _workload(dataset: str):
    # lazy: repro.analysis must stay importable without the upper layers
    from repro.experiments.queries import ACMDL_QUERIES, TPCH_QUERIES

    return TPCH_QUERIES if dataset.startswith("tpch") else ACMDL_QUERIES


def build_check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "statically analyze every artifact the pipeline produces for "
            "the evaluation workload; exit non-zero on findings"
        ),
    )
    parser.add_argument(
        "--dataset",
        action="append",
        choices=CHECK_DATASETS,
        dest="datasets",
        help="dataset to check (repeatable; default: all)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="interpretations to analyze per query (default: 10)",
    )
    parser.add_argument(
        "--skip-sqak",
        action="store_true",
        help="only check the semantic engine",
    )
    return parser


def run_check(argv: Optional[List[str]] = None, out=None) -> int:
    import sys

    from repro.baselines import SqakEngine
    from repro.cli import load_dataset
    from repro.engine import KeywordSearchEngine

    out = out or sys.stdout
    args = build_check_parser().parse_args(argv)
    datasets = args.datasets or list(CHECK_DATASETS)

    findings = 0
    artifacts = 0
    for dataset in datasets:
        database, fds, hints, extra_joins = load_dataset(dataset)
        queries = _workload(dataset)
        engine = KeywordSearchEngine(
            database, fds=fds or None, name_hints=hints or None
        )
        dataset_report = AnalysisReport()
        for spec in queries:
            report = engine.analyze(spec.text, k=args.top)
            artifacts += 1
            if report.has_findings:
                findings += 1
                print(f"{dataset} {spec.qid} [semantic] {spec.text!r}:", file=out)
                print(report.render(indent="  "), file=out)
            dataset_report.extend(report.diagnostics)
        if not args.skip_sqak:
            sqak = SqakEngine(database, extra_joins=extra_joins)
            for spec in queries:
                if spec.sqak_na:
                    continue
                try:
                    statement = sqak.compile(spec.text)
                except UnsupportedQueryError:
                    continue
                report = AnalysisReport()
                report.extend(analyze_select(statement.select, database.schema))
                plan = sqak.executor.plan_for(statement.select, NULL_TRACER)
                report.extend(analyze_plan(plan))
                artifacts += 1
                if report.has_findings:
                    findings += 1
                    print(f"{dataset} {spec.qid} [sqak] {spec.text!r}:", file=out)
                    print(report.render(indent="  "), file=out)
                dataset_report.extend(report.diagnostics)
        worst = dataset_report.worst()
        status = "clean" if worst is None or worst < Severity.WARNING else str(worst)
        print(f"{dataset}: {status}", file=out)
    print(
        f"check: {artifacts} artifacts analyzed, "
        f"{findings} with findings",
        file=out,
    )
    return 1 if findings else 0
