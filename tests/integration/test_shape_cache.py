"""The shape-keyed compile caches: a shape hit reuses structure, never data.

``tools/shape_sweep.py`` is the byte-identity sweep (CI runs every text);
here it runs a seeded sample of each dataset's texts.
"""

import gc
import importlib.util
import tracemalloc
import types
from pathlib import Path

import pytest

from repro.datasets import university_database
from repro.engine import Interpretation, KeywordSearchEngine
from repro.errors import ReproError
from repro.keywords.matcher import TermMatcher
from repro.keywords.query import KeywordQuery
from repro.patterns.shape import shape_of
from repro.relational.database import Database
from repro.relational.result import QueryResult
from repro.relational.table import Table
from repro.service.service import canonical_json, semantic_search_payload

SWEEP = Path(__file__).resolve().parents[2] / "tools" / "shape_sweep.py"


@pytest.fixture(scope="module")
def shape_sweep():
    spec = importlib.util.spec_from_file_location("shape_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shape_key(engine, text):
    query = KeywordQuery(text)
    return shape_of(query, TermMatcher(engine.catalog).match_query(query))[0]


def payload(engine, text):
    return canonical_json(semantic_search_payload(engine, "university", text, 10))


class TestByteIdentity:
    def test_paper_workload_sample(self, shape_sweep):
        pairs = shape_sweep.paper_pairs(("university", "enrolment", "tpch-unnorm"))
        checked, failures = shape_sweep.sweep(pairs, sample=12, seed=7)
        assert checked > 12 and failures == []

    def test_interpret_cold_sample(
        self, shape_sweep, tpch_db, acmdl_db, tpch_unnorm, acmdl_unnorm
    ):
        databases = {
            "tpch": tpch_db,
            "acmdl": acmdl_db,
            "tpch-unnorm": tpch_unnorm,
            "acmdl-unnorm": acmdl_unnorm,
        }
        pairs = shape_sweep.cold_pairs(databases, seed=2016)
        assert sum(len(texts) for _, texts in pairs) == 1056
        checked, failures = shape_sweep.sweep(pairs, sample=6, seed=2016)
        assert checked == 24 and failures == []


class TestShapeKey:
    def test_values_of_one_slot_share_a_shape(self, university_engine):
        assert shape_key(university_engine, "Database SUM Credit") == shape_key(
            university_engine, "Multimedia SUM Credit"
        )

    def test_equal_values_are_part_of_the_key(self, university_engine):
        # both titles hit Course.Title alone: only their equality differs
        same = shape_key(university_engine, "COUNT Student Database Database")
        other = shape_key(university_engine, "COUNT Student Database Multimedia")
        assert same != other
        assert other == shape_key(university_engine, "COUNT Student Multimedia Database")

    def test_a_write_that_moves_a_value_changes_its_key(self):
        db = university_database()
        engine = KeywordSearchEngine(db)
        before = shape_key(engine, "COUNT Course Steven")
        engine.search("COUNT Course Steven")
        # a student named Steven joins the lecturer of that name
        db.insert("Student", ("s4", "Steven", 30))
        engine.clear_cache()
        after = shape_key(engine, "COUNT Course Steven")
        assert after != before
        fresh = KeywordSearchEngine(db)
        assert payload(engine, "COUNT Course Steven") == payload(
            fresh, "COUNT Course Steven"
        )


class TestStaleness:
    def test_second_object_with_a_value_is_disambiguated_on_a_shape_hit(self):
        db = university_database()
        engine = KeywordSearchEngine(db)
        assert engine.search("Database SUM Credit").find(distinguishes=True) is None
        db.insert("Course", ("c4", "Database", 2.0))
        engine.clear_cache()
        engine.search("Multimedia SUM Credit")  # the shape entry, warm again
        hits = engine.metrics.counter("shape_cache_hits")
        result = engine.search("Database SUM Credit")
        assert engine.metrics.counter("shape_cache_hits") == hits + 1
        assert result.find(distinguishes=True) is not None
        assert payload(engine, "Database SUM Credit") == payload(
            KeywordSearchEngine(db), "Database SUM Credit"
        )

    def test_shape_hit_counts_as_a_pattern_cache_hit(self):
        engine = KeywordSearchEngine(university_database())
        engine.search("Database SUM Credit")
        engine.search("Multimedia SUM Credit")
        assert engine.metrics.counter("pattern_cache_misses") == 1
        assert engine.metrics.counter("pattern_cache_hits") == 1
        assert engine.metrics.counter("shape_cache_hits") == 1

    def test_no_cache_level_holds_an_interpretation(self):
        engine = KeywordSearchEngine(university_database())
        for text in ("Database SUM Credit", "Multimedia SUM Credit",
                     "Green SUM Credit", "COUNT Student GROUPBY Course"):
            for interpretation in engine.search(text):
                interpretation.execute()
        executor = engine.executor
        levels = [engine._pattern_cache, engine._shape_cache, executor._plan_cache,
                  executor._shape_plans, executor.optimizer._memo]
        assert all(len(level) for level in levels)
        found = _reachable_types(levels, stop=(Database, Table))
        assert Interpretation not in found and QueryResult not in found


class TestSharedNodes:
    """Cached patterns share nodes: a text entry's with its shape entry's,
    a disambiguation variant's with its base.  Only a fork writes, and
    only the nodes it copied."""

    #: disambiguated texts, then texts of their shapes with other values
    #: (shape hits, one of them disambiguated on the hit)
    FIRST = ("Database SUM Credit", "COUNT Student Multimedia", "Green COUNT Course")
    LATER = ("Multimedia SUM Credit", "COUNT Student Database")

    def test_cached_patterns_are_never_written(self):
        db = university_database()
        db.insert("Course", ("c4", "Database", 2.0))  # two courses titled Database
        engine = KeywordSearchEngine(db)
        for text in self.FIRST:
            engine.search(text)
        assert any(p.distinguishes for p in engine.patterns("Database SUM Credit"))
        before = _describes(engine)
        hits = engine.metrics.counter("shape_cache_hits")
        for text in self.LATER:
            engine.search(text)
        assert engine.metrics.counter("shape_cache_hits") == hits + len(self.LATER)
        after = _describes(engine)
        assert {key: after[key] for key in before} == before
        # the sharing is real: a shape hit's patterns hold its shape's nodes
        entry = dict(engine._pattern_cache.items())["Multimedia SUM Credit"]
        shaped = {id(node) for pattern in entry.shape.patterns for node in pattern.nodes}
        assert any(id(node) in shaped for pattern in entry.ranked for node in pattern.nodes)
        # disambiguation adds variants and leaves the patterns it forks
        # from as they were generated
        plain = KeywordSearchEngine(db, disambiguate=False)
        for text in self.FIRST + self.LATER:
            kept = {pattern.describe() for pattern in engine.patterns(text)}
            assert {pattern.describe() for pattern in plain.patterns(text)} <= kept


def _describes(engine):
    """Every cached pattern's rendering, by level and key."""
    found = {
        ("text", text): [pattern.describe() for pattern in entry.ranked]
        for text, entry in engine._pattern_cache.items()
    }
    found.update(
        (("shape", key), [pattern.describe() for pattern in entry.patterns])
        for key, entry in engine._shape_cache.items()
    )
    return found


class TestFootprint:
    """tracemalloc bytes the compile caches keep, per text entry and per
    cached plan, after a fixed sample of ``interpret_cold`` texts (seed
    2016) through a normalized and an unnormalized ACMDL engine at SF 1.

    Before patterns shared nodes and plans dropped their run's key sets,
    index memos as sets and per-plan copies, the same sample measured
    30,190 bytes per text entry and 10,778 per plan (the statement and
    shape levels over the statement level's plans); now ≈ 10,700 and
    ≈ 6,200."""

    TEXTS = 48
    BYTES_PER_TEXT_ENTRY = 14_000
    BYTES_PER_PLAN = 8_000

    def test_bytes_per_text_entry_and_per_plan(self, shape_sweep, acmdl_db, acmdl_unnorm):
        pairs = shape_sweep.cold_pairs({"acmdl": acmdl_db, "acmdl-unnorm": acmdl_unnorm}, seed=2016)
        engines = [pair.warm for pair, _ in pairs]
        tracemalloc.start()
        try:
            for pair, texts in pairs:
                for text in texts[: self.TEXTS]:
                    try:
                        semantic_search_payload(pair.warm, pair.name, text, 10)
                    except ReproError:
                        pass
            entries = sum(len(engine._pattern_cache) for engine in engines)
            plans = sum(len(engine.executor._plan_cache) for engine in engines)
            per_entry = _freed(engines, lambda engine: engine._pattern_cache.clear()) / entries
            per_plan = _freed(engines, lambda engine: (
                engine.executor._plan_cache.clear(), engine.executor._shape_plans.clear()
            )) / plans
        finally:
            tracemalloc.stop()
        assert entries == 2 * self.TEXTS and plans >= 2 * self.TEXTS
        assert 0 < per_entry <= self.BYTES_PER_TEXT_ENTRY, per_entry
        assert 0 < per_plan <= self.BYTES_PER_PLAN, per_plan


def _freed(engines, clear):
    """tracemalloc bytes released by *clear* on every engine."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    for engine in engines:
        clear(engine)
    gc.collect()
    return before - tracemalloc.get_traced_memory()[0]


def _reachable_types(roots, stop):
    """Types of every object reachable from *roots*, not descending into
    *stop* instances, code or modules."""
    opaque = (types.FunctionType, types.ModuleType, types.MethodType, type)
    seen, found, frontier = set(), set(), list(roots)
    while frontier:
        obj = frontier.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.add(type(obj))
        if isinstance(obj, stop + opaque):
            continue
        frontier.extend(gc.get_referents(obj))
    return found
