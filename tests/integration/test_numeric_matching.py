"""Numeric value matching: terms that parse as numbers match numeric
columns exactly (equality, not substring)."""

import pytest

from repro.engine import KeywordSearchEngine
from repro.errors import NoMatchError
from repro.relational.database import Database
from repro.relational.types import DataType

INT, TEXT = DataType.INT, DataType.TEXT
#: the first integer whose successor has no float of its own
BIG = 2**53


class TestNumericIndex:
    def test_match_number(self, university_db):
        assert ("Student", "Age", 24) in university_db.hits("24")

    def test_int_float_unification(self, university_db):
        # Credit is FLOAT; '5' must match 5.0
        assert ("Course", "Credit", 5) in university_db.hits("5")

    def test_non_number_returns_nothing(self, university_db):
        assert all(value is None for _, _, value in university_db.hits("Green"))

    def test_no_substring_semantics(self, university_db):
        # '2' is a substring of every age but equals none
        assert not any(column == "Age" for _, column, _ in university_db.hits("2"))


class TestEndToEnd:
    def test_numeric_term_produces_equality_condition(self, university_engine):
        chosen = university_engine.search("24 COUNT Code").best
        assert "Age = 24" in chosen.sql_compact
        # the 24-year-old student (s2, Green) took exactly one course
        assert chosen.execute().scalar() == 1

    def test_numeric_term_with_aggregate(self, university_engine):
        # average age of students enrolled in the 5-credit course (Java)
        chosen = university_engine.search("5 AVG Age").best
        assert "Credit = 5" in chosen.sql_compact
        assert chosen.execute().scalar() == pytest.approx((22 + 24 + 21) / 3)

    def test_numeric_disambiguation(self, university_engine):
        # two students share age? ages are 22, 24, 21 — all unique, so no
        # disambiguated variant appears for the age condition
        result = university_engine.search("24 COUNT Code")
        assert all(not i.distinguishes for i in result.interpretations)

    def test_numeric_term_without_match_fails_cleanly(self, university_engine):
        with pytest.raises(NoMatchError):
            university_engine.search("999 COUNT Code")

    def test_numeric_matching_on_unnormalized(self, enrolment_engine):
        chosen = enrolment_engine.search("24 COUNT Code").best
        assert "Age = 24" in chosen.sql_compact
        assert chosen.execute().scalar() == 1

    def test_numeric_sql_round_trips(self, university_engine):
        from repro.sql.parser import parse
        from repro.sql.render import render

        for interpretation in university_engine.compile("24 COUNT Code"):
            sql = interpretation.sql_compact
            assert render(parse(sql)) == sql


@pytest.fixture(scope="module", params=["normalized", "unnormalized"])
def items_engine(request):
    """Items whose code is BIG + 1, stored as a table of their own or
    denormalized into the sales that name them."""
    if request.param == "normalized":
        db = Database.from_definitions(
            "items", [("Item", [("id", INT), ("code", INT), ("name", TEXT)], ["id"], [])]
        )
        db.load("Item", [(1, BIG + 1, "Green"), (2, 7, "Greenwood"), (3, 8, "Grey")])
        return KeywordSearchEngine(db)
    db = Database.from_definitions(
        "sales",
        [("Sale", [("sid", INT), ("id", INT), ("code", INT), ("name", TEXT)], ["sid"], [])],
    )
    db.load(
        "Sale",
        [(10, 1, BIG + 1, "Green"), (11, 1, BIG + 1, "Green"), (12, 2, 7, "Greenwood"),
         (13, 3, 8, "Grey")],
    )
    return KeywordSearchEngine(
        db, fds={"Sale": ["id -> code, name"]}, name_hints={frozenset({"id"}): "Item"}
    )


class TestExactNumbers:
    """A number term is parsed and checked exactly, not by its float key:
    BIG and BIG + 1 share one."""

    def test_integer_beyond_float_precision_matches_its_row(self, items_engine):
        chosen = items_engine.search(f"COUNT item {BIG + 1}").best
        assert f"code = {BIG + 1}" in chosen.sql_compact
        assert chosen.execute().scalar() == 1

    def test_integer_sharing_a_float_key_matches_nothing(self, items_engine):
        with pytest.raises(NoMatchError):
            items_engine.search(f"COUNT item {BIG}")

    def test_tag_counts_the_equal_cells(self, items_engine):
        hits = items_engine.catalog.value_matches(str(BIG + 1))
        assert [(hit.attribute, hit.distinct_objects, hit.value) for hit in hits] == [
            ("code", 1, BIG + 1)
        ]
        assert items_engine.catalog.value_matches(str(BIG)) == []


class TestTextCounts:
    def test_tag_counts_the_rows_the_sql_selects(self, items_engine):
        # LIKE '%green%' keeps Green and Greenwood: two items, however
        # many rows store them
        hits = items_engine.catalog.value_matches("green")
        assert [(hit.attribute, hit.distinct_objects) for hit in hits] == [("name", 2)]
        result = items_engine.search("COUNT item green")
        plain = [i for i in result.interpretations if not i.distinguishes]
        assert plain[0].execute().scalar() == 2
        # and two objects are told apart by a disambiguated variant
        assert any(i.distinguishes for i in result.interpretations)
