#!/usr/bin/env python3
"""Bring your own data: build, persist, profile and query a custom database.

A downstream user's workflow on a fresh domain (a tiny movie-rental shop):

1. declare a schema and load rows,
2. save it to a CSV directory and reload it (``repro.relational.io``),
3. profile it (``engine.analyze_stats()``, the planner's statistics),
4. let the engine suggest starter queries (``repro.keywords.suggest``),
5. run keyword aggregate queries against it.

Usage::

    python examples/bring_your_own_data.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import KeywordSearchEngine
from repro.keywords import NormalizedCatalog, complete_term, suggest_queries
from repro.relational import (
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    load_database,
    save_database,
)

INT = DataType.INT
TEXT = DataType.TEXT
FLOAT = DataType.FLOAT
DATE = DataType.DATE


def build_rental_shop() -> Database:
    schema = DatabaseSchema("rentals")
    schema.add_relation(
        "Movie",
        [("mid", INT), ("title", TEXT), ("genre", TEXT), ("fee", FLOAT)],
        ["mid"],
    )
    schema.add_relation(
        "Member",
        [("memid", INT), ("mname", TEXT), ("city", TEXT)],
        ["memid"],
    )
    schema.add_relation(
        "Rental",
        [("mid", INT), ("memid", INT), ("day", DATE)],
        ["mid", "memid", "day"],
        [
            ForeignKey(("mid",), "Movie", ("mid",)),
            ForeignKey(("memid",), "Member", ("memid",)),
        ],
    )
    db = Database(schema)
    db.load(
        "Movie",
        [
            (1, "The Long Join", "drama", 3.5),
            (2, "Hash Wars", "action", 4.0),
            (3, "Hash Wars", "documentary", 2.5),  # a remake: same title!
            (4, "Group By Night", "noir", 3.0),
        ],
    )
    db.load(
        "Member",
        [
            (1, "Ada", "Basel"),
            (2, "Grace", "Basel"),
            (3, "Edgar", "Zurich"),
        ],
    )
    db.load(
        "Rental",
        [
            (1, 1, "2024-01-05"),
            (2, 1, "2024-01-06"),
            (2, 2, "2024-01-06"),
            (3, 2, "2024-01-08"),
            (3, 3, "2024-01-09"),
            (4, 3, "2024-01-10"),
            (1, 3, "2024-01-11"),
        ],
    )
    db.check_foreign_keys()
    return db


def main() -> None:
    db = build_rental_shop()

    # ------------------------------------------------------------------
    # persist + reload
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "rentals"
        save_database(db, target)
        files = sorted(p.name for p in target.iterdir())
        print(f"saved to {target.name}/: {', '.join(files)}")
        db = load_database(target)

    # ------------------------------------------------------------------
    # profile
    # ------------------------------------------------------------------
    engine = KeywordSearchEngine(db)
    print()
    for profile in engine.analyze_stats().values():
        print(profile.format())

    # ------------------------------------------------------------------
    # suggestions
    # ------------------------------------------------------------------
    catalog = NormalizedCatalog(db)
    print("\nstarter queries the schema suggests:")
    for text in suggest_queries(catalog):
        print(f"  {text}")
    print("\ncompletions of 'ha':")
    for suggestion in complete_term(catalog, "ha"):
        print(f"  {suggestion}")

    # ------------------------------------------------------------------
    # keyword aggregate queries
    # ------------------------------------------------------------------
    queries = [
        "COUNT Member GROUPBY Movie",
        "AVG fee GROUPBY genre",
        'COUNT Member "Hash Wars"',  # two distinct movies share the title
    ]
    for text in queries:
        print()
        print("=" * 60)
        print(f"query: {text!r}")
        result = engine.search(text, k=2)
        for interpretation in result.interpretations:
            print(f"-- #{interpretation.rank}: {interpretation.description}")
            print(interpretation.execute().format_table())


if __name__ == "__main__":
    main()
