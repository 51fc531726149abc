"""Unit tests for row storage."""

import pytest

from repro.errors import DuplicateKeyError, IntegrityError, SchemaError
from repro.relational.schema import Column, RelationSchema
from repro.relational.table import Table
from repro.relational.types import DataType

INT = DataType.INT
TEXT = DataType.TEXT


@pytest.fixture
def student_table() -> Table:
    schema = RelationSchema(
        "Student",
        [Column("Sid", TEXT), Column("Sname", TEXT), Column("Age", INT)],
        ["Sid"],
    )
    return Table(schema)


class TestInsert:
    def test_insert_and_len(self, student_table):
        student_table.insert(("s1", "George", 22))
        assert len(student_table) == 1

    def test_insert_coerces_types(self, student_table):
        row = student_table.insert(("s1", "George", "22"))
        assert row[2] == 22

    def test_wrong_arity_rejected(self, student_table):
        with pytest.raises(SchemaError):
            student_table.insert(("s1", "George"))

    def test_duplicate_key_rejected(self, student_table):
        student_table.insert(("s1", "George", 22))
        with pytest.raises(DuplicateKeyError):
            student_table.insert(("s1", "Other", 30))

    def test_null_key_rejected(self, student_table):
        with pytest.raises(DuplicateKeyError):
            student_table.insert((None, "George", 22))

    def test_unenforced_key_allows_duplicates(self):
        schema = RelationSchema("R", [Column("a", INT)], ["a"])
        table = Table(schema, enforce_key=False)
        table.insert((1,))
        table.insert((1,))
        assert len(table) == 2

    def test_insert_dict(self, student_table):
        row = student_table.insert_dict({"Sid": "s1", "Sname": "Green"})
        assert row == ("s1", "Green", None)

    def test_insert_dict_unknown_column(self, student_table):
        with pytest.raises(SchemaError):
            student_table.insert_dict({"Sid": "s1", "Nope": 1})

    def test_extend(self, student_table):
        student_table.extend([("s1", "a", 1), ("s2", "b", 2)])
        assert len(student_table) == 2


class TestUpdateDelete:
    @pytest.fixture
    def three(self, student_table):
        student_table.extend(
            [("s1", "George", 22), ("s2", "Green", 24), ("s3", "Gray", 26)]
        )
        return student_table

    def test_insert_grows_rows_under_one_epoch(self, student_table):
        assert student_table.version == (0, 0)
        student_table.insert(("s1", "George", 22))
        assert student_table.version == (0, 1)

    def test_update_keeps_position_and_bumps_epoch(self, three):
        row = three.update(("s2",), {"Age": "25"})
        assert row == ("s2", "Green", 25)  # coerced like an insert
        assert three.rows[1] == row
        assert three.get_by_key(("s2",)) == row
        assert three.version == (1, 3)

    def test_update_may_move_the_key(self, three):
        three.update(("s2",), {"Sid": "s9"})
        assert three.get_by_key(("s2",)) is None
        assert three.get_by_key(("s9",)) == ("s9", "Green", 24)
        three.insert(("s2", "Again", 30))  # the old key is free again

    def test_update_cannot_take_a_used_or_null_key(self, three):
        with pytest.raises(DuplicateKeyError):
            three.update(("s2",), {"Sid": "s1"})
        with pytest.raises(DuplicateKeyError):
            three.update(("s2",), {"Sid": None})
        assert three.version == (0, 3)  # nothing changed
        assert three.get_by_key(("s2",)) == ("s2", "Green", 24)

    def test_update_unknown_column_or_key(self, three):
        with pytest.raises(SchemaError):
            three.update(("s2",), {"Nope": 1})
        with pytest.raises(IntegrityError):
            three.update(("s7",), {"Age": 1})

    def test_delete_moves_later_rows_up(self, three):
        assert three.delete(("s1",)) == ("s1", "George", 22)
        assert three.rows == [("s2", "Green", 24), ("s3", "Gray", 26)]
        assert three.get_by_key(("s1",)) is None
        assert three.get_by_key(("s3",)) == ("s3", "Gray", 26)
        assert three.version == (1, 2)
        three.insert(("s1", "Back", 20))
        assert three.get_by_key(("s1",)) == ("s1", "Back", 20)

    def test_delete_unknown_key(self, three):
        with pytest.raises(IntegrityError):
            three.delete(("s7",))
        assert three.version == (0, 3)


class TestAccess:
    def test_get_by_key(self, student_table):
        student_table.insert(("s1", "George", 22))
        assert student_table.get_by_key(("s1",))[1] == "George"
        assert student_table.get_by_key(("sX",)) is None

    def test_column_values(self, student_table):
        student_table.extend([("s1", "a", 1), ("s2", "b", None)])
        assert student_table.column_values("Age") == [1, None]

    def test_distinct_key_count(self, student_table):
        student_table.extend(
            [("s1", "Green", 1), ("s2", "Green", 2), ("s3", "Blue", 3)]
        )
        assert student_table.distinct_key_count(["Sname"]) == 2
        assert student_table.distinct_key_count(["Sid", "Sname"]) == 3

    def test_iteration_order_is_insertion_order(self, student_table):
        student_table.extend([("s2", "b", 2), ("s1", "a", 1)])
        assert [row[0] for row in student_table] == ["s2", "s1"]
