#!/usr/bin/env python
"""Byte-identity sweep of the shape-keyed compile caches.

Every query text is served twice, by two engines over the same data:

* *warm* — the engine has compiled the text once, then forgets the
  text's own entry and its statement-level plans, so the second compile
  binds the text's values into its shape entry: patterns instantiated,
  SQL templates bound, plans bound from the shape level;
* *fresh* — the engine's caches are dropped (``clear_cache()``) first.

The two response payloads — ranks, descriptions, SQL of the top-k
interpretations and the best one's rows — must be byte-identical, and
the warm compile must really have been a shape hit.  Texts: the paper
workload ``repro diff`` compiles (six datasets) and the 1,056 texts of
the e2e benchmark's ``interpret_cold`` workload.  Exit code 0 when all
agree.  Used by the CI ``check`` job and runnable locally::

    PYTHONPATH=src python tools/shape_sweep.py
    PYTHONPATH=src python tools/shape_sweep.py --sample 8   # per dataset
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.backends.differential import DIFF_DATASETS, workload_texts  # noqa: E402
from repro.cli import load_dataset  # noqa: E402
from repro.engine import KeywordSearchEngine  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.relational.database import Database  # noqa: E402
from repro.service.service import canonical_json, semantic_search_payload  # noqa: E402

#: the e2e benchmark's own text generator (``interpret_cold``)
E2E = ROOT / "benchmarks" / "e2e"
K = 10


class Pair:
    """A warm and a fresh engine over one dataset."""

    def __init__(self, name: str, database: Database, fds=None, hints=None) -> None:
        self.name = name
        self.warm = KeywordSearchEngine(database, fds=fds or None, name_hints=hints or None)
        self.fresh = KeywordSearchEngine(database, fds=fds or None, name_hints=hints or None)

    def _payload(self, engine: KeywordSearchEngine, text: str) -> bytes:
        try:
            return canonical_json(semantic_search_payload(engine, self.name, text, K))
        except ReproError as exc:
            return f"{type(exc).__name__}: {exc}".encode("utf-8")

    def check(self, text: str) -> Optional[str]:
        """None when the shape-bound compile of *text* equals a fresh one."""
        self.fresh.clear_cache()
        expected = self._payload(self.fresh, text)
        self._payload(self.warm, text)  # warms the text's shape entry
        warm = self.warm
        warm._pattern_cache.discard(text)
        warm.executor._plan_cache.clear()
        hits = warm.metrics.counter("shape_cache_hits")
        got = self._payload(warm, text)
        if got != expected:
            return f"{self.name} {text!r}: shape-bound payload differs from a fresh compile"
        if expected.startswith(b"{") and warm.metrics.counter("shape_cache_hits") != hits + 1:
            return f"{self.name} {text!r}: the second compile was not a shape hit"
        return None


def paper_pairs(datasets: Iterable[str] = DIFF_DATASETS) -> List[Tuple[Pair, List[str]]]:
    """The datasets ``repro diff`` covers, with their workload texts."""
    pairs = []
    for name in datasets:
        database, fds, hints, _ = load_dataset(name)
        texts = [text for _, text in workload_texts(name)]
        pairs.append((Pair(name, database, fds, hints), texts))
    return pairs


def cold_pairs(databases: Dict[str, object], seed: int) -> List[Tuple[Pair, List[str]]]:
    """The ``interpret_cold`` texts of *seed* over its four datasets
    (``tpch`` and ``acmdl`` databases plus their unnormalized forms)."""
    sys.path.insert(0, str(E2E))
    import workloads  # the benchmark's own stream builder

    stack = SimpleNamespace(databases={
        name: getattr(dataset, "database", dataset) for name, dataset in databases.items()
    })
    texts: Dict[str, List[str]] = {name: [] for name in databases}
    for op in workloads.InterpretCold(workloads.SMOKE).base_ops(seed, stack):
        texts[op.dataset].append(op.query)
    pairs = []
    for name, dataset in databases.items():
        database = getattr(dataset, "database", dataset)
        pair = Pair(name, database, getattr(dataset, "fds", None),
                    getattr(dataset, "name_hints", None))
        pairs.append((pair, texts[name]))
    return pairs


def cold_databases() -> Dict[str, object]:
    from repro.datasets import denormalize_acmdl, denormalize_tpch, generate_scaled

    tpch = generate_scaled("tpch", 1)
    acmdl = generate_scaled("acmdl", 1)
    return {
        "tpch": tpch,
        "acmdl": acmdl,
        "tpch-unnorm": denormalize_tpch(tpch),
        "acmdl-unnorm": denormalize_acmdl(acmdl),
    }


def sweep(pairs: Iterable[Tuple[Pair, List[str]]], sample: Optional[int] = None,
          seed: int = 0) -> Tuple[int, List[str]]:
    """``(texts checked, failures)``; *sample* texts per dataset, drawn
    with *seed*, or all of them."""
    rng = random.Random(seed)
    checked = 0
    failures: List[str] = []
    for pair, texts in pairs:
        if sample is not None and sample < len(texts):
            texts = rng.sample(texts, sample)
        for text in texts:
            checked += 1
            failure = pair.check(text)
            if failure is not None:
                failures.append(failure)
    return checked, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", type=int, default=None,
                        help="texts per dataset (default: all)")
    parser.add_argument("--seed", type=int, default=2016,
                        help="interpret_cold stream seed, and the sample's")
    args = parser.parse_args(argv)
    pairs = paper_pairs() + cold_pairs(cold_databases(), args.seed)
    checked, failures = sweep(pairs, args.sample, args.seed)
    for failure in failures:
        print(failure)
    print(f"shape sweep: {checked - len(failures)}/{checked} texts identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
