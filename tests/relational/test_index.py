"""Unit tests for hash and inverted indexes."""

import pytest

from repro.relational.index import HashIndex, InvertedIndex, tokenize_text
from repro.relational.schema import Column, RelationSchema
from repro.relational.table import Table
from repro.relational.types import DataType

INT = DataType.INT
TEXT = DataType.TEXT


def make_parts() -> Table:
    schema = RelationSchema(
        "Part", [Column("partkey", INT), Column("pname", TEXT)], ["partkey"]
    )
    table = Table(schema)
    table.extend(
        [
            (1, "royal olive"),
            (2, "royal olive"),
            (3, "olive branch"),
            (4, "Indian black chocolate"),
            (5, None),
        ]
    )
    return table


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize_text("Royal Olive") == ["royal", "olive"]

    def test_strips_punctuation(self):
        assert tokenize_text("a-b, c.d!") == ["a", "b", "c", "d"]

    def test_keeps_digits(self):
        assert tokenize_text("Supplier#0042") == ["supplier", "0042"]

    def test_empty(self):
        assert tokenize_text("  ") == []


class TestHashIndex:
    def test_lookup(self):
        table = make_parts()
        index = HashIndex(table, ["pname"])
        assert len(index.positions(("royal olive",))) == 2
        assert index.positions(("missing",)) == set()

    def test_composite_key(self):
        table = make_parts()
        index = HashIndex(table, ["partkey", "pname"])
        assert len(index.positions((1, "royal olive"))) == 1

    def test_null_values_indexed_separately(self):
        table = make_parts()
        index = HashIndex(table, ["pname"])
        assert len(index.positions((None,))) == 1


class TestInvertedIndex:
    @pytest.fixture
    def index(self) -> InvertedIndex:
        idx = InvertedIndex()
        idx.add_table(make_parts())
        return idx

    def test_single_token(self, index):
        matches = index.match_phrase("olive")
        assert len(matches) == 1
        match = matches[0]
        assert match.relation == "Part"
        assert match.attribute == "pname"
        assert match.row_positions == {0, 1, 2}

    def test_phrase_requires_adjacency_by_substring(self, index):
        matches = index.match_phrase("royal olive")
        assert matches[0].row_positions == {0, 1}

    def test_phrase_not_matching_scattered_tokens(self, index):
        # 'olive royal' tokens both exist but never as a substring
        assert index.match_phrase("olive royal") == []

    def test_case_insensitive(self, index):
        matches = index.match_phrase("INDIAN BLACK")
        assert matches[0].row_positions == {3}

    def test_unknown_token(self, index):
        assert index.match_phrase("zzz") == []

    def test_empty_phrase(self, index):
        assert index.match_phrase("") == []

    def test_matching_values(self, index):
        values = index.matching_values("Part", "pname", "royal")
        assert values == {"royal olive"}

    def test_int_columns_not_indexed(self):
        idx = InvertedIndex()
        idx.add_table(make_parts())
        # '1' appears only as an INT partkey, never as text
        assert idx.match_phrase("1") == []
