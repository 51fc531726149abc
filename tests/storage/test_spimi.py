"""SPIMI inverted index: block spills + k-way merge must equal the
single-pass in-memory build."""

import os

from repro.datasets import university_database
from repro.relational.index import InvertedIndex, tokenize_text
from repro.storage import SpimiBuilder, SpimiIndex


def feed(builder, database):
    """Index every text column of *database* exactly like the in-memory
    InvertedIndex (one add per distinct token per value)."""
    from repro.relational.types import DataType

    for relation in database.schema:
        text_columns = [
            (i, col.name)
            for i, col in enumerate(relation.columns)
            if col.dtype in (DataType.TEXT, DataType.DATE)
        ]
        for pos, row in enumerate(database.table(relation.name).rows):
            for col_idx, col_name in text_columns:
                value = row[col_idx]
                if value is None:
                    continue
                for token in set(tokenize_text(str(value))):
                    builder.add(token, relation.name, col_name, pos)


def build_spimi(tmp_path, database, block_budget):
    block_dir = tmp_path / f"blocks-{block_budget}"
    block_dir.mkdir()
    builder = SpimiBuilder(str(block_dir), block_budget)
    feed(builder, database)
    postings_path = str(tmp_path / f"postings-{block_budget}.bin")
    dict_path = str(tmp_path / f"postings-{block_budget}.json")
    stats = builder.finalize(postings_path, dict_path)
    return SpimiIndex(postings_path, dict_path), stats, block_dir


def memory_index(database):
    index = InvertedIndex()
    index.add_tables(
        database.table(relation.name) for relation in database.schema
    )
    return index


class TestSpimiEqualsInMemory:
    def test_tiny_blocks_match_single_pass(self, tmp_path):
        database = university_database()
        reference = memory_index(database)
        spilled, spilled_stats, block_dir = build_spimi(tmp_path, database, 25)
        unspilled, unspilled_stats, _ = build_spimi(tmp_path, database, 10**9)
        try:
            assert spilled_stats["blocks"] > 1
            assert unspilled_stats["blocks"] == 1
            assert spilled_stats["tokens"] == unspilled_stats["tokens"]
            assert spilled_stats["postings"] == unspilled_stats["postings"]
            vocab = sorted(spilled.vocabulary())
            assert vocab == sorted(unspilled.vocabulary())
            assert vocab == sorted(reference._postings)
            for token in vocab:
                spilled_postings = {
                    slot: set(positions)
                    for slot, positions in spilled.postings(token).items()
                }
                assert spilled_postings == {
                    slot: set(positions)
                    for slot, positions in unspilled.postings(token).items()
                }
                assert spilled_postings == {
                    slot: set(positions)
                    for slot, positions in reference._postings[token].items()
                }
        finally:
            spilled.close()
            unspilled.close()
        # blocks are cleaned up after the merge
        assert list(block_dir.glob("*")) == []

    def test_candidates_cover_verified_matches(self, tmp_path):
        database = university_database()
        reference = memory_index(database)
        index, _, _ = build_spimi(tmp_path, database, 25)
        try:
            for relation, attribute, phrase in [
                ("Student", "Sname", "green"),
                ("Course", "Title", "java"),
                ("Textbook", "Tname", "program"),
            ]:
                verified = reference.positions_for_contains(
                    relation, attribute, phrase
                )
                first = tokenize_text(phrase)[0]
                candidates = index.candidate_positions(first, relation, attribute)
                assert verified is not None and verified
                assert candidates >= verified
        finally:
            index.close()

    def test_unknown_token_is_empty(self, tmp_path):
        database = university_database()
        index, _, _ = build_spimi(tmp_path, database, 25)
        try:
            assert index.postings("zzzznope") == {}
            assert index.candidate_positions("zzzznope", "Student", "Sname") == set()
        finally:
            index.close()

    def test_postings_file_sizes_recorded(self, tmp_path):
        database = university_database()
        index, stats, _ = build_spimi(tmp_path, database, 25)
        try:
            assert stats["tokens"] == len(index)
            assert os.path.getsize(index.postings_path) > 0
        finally:
            index.close()


class TestDeltaSegment:
    def test_appended_entries_are_consulted_beside_the_base(self, tmp_path):
        database = university_database()
        index, _, _ = build_spimi(tmp_path, database, 10**9)
        students = len(database.table("Student").rows)
        slot = ("Student", "Sname")
        base_green = index.postings("green")[slot]
        paths = (str(tmp_path / "delta.bin"), str(tmp_path / "delta.json"))
        try:
            assert index.delta is None
            tokens = len(index)
            index.append(
                [("green", *slot, students), ("zimmer", *slot, students)], *paths
            )
            # an old token gains positions after its base ones; a new
            # token exists only in the delta
            assert index.postings("green")[slot] == base_green + [students]
            assert index.postings("zimmer") == {slot: [students]}
            assert len(index) == tokens + 1 and "zimmer" in set(index.vocabulary())
            assert index.candidate_positions("zimm", *slot) == {students}
            assert index.candidate_positions("green", *slot) == {*base_green, students}
            # a second append rewrites the segment as old + new, tiny
            # blocks or not
            index.append([("zimmer", *slot, students + 1)], *paths, block_budget=1)
            assert index.postings("zimmer") == {slot: [students, students + 1]}
            assert index.postings("green")[slot] == base_green + [students]
            assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        finally:
            index.close()

