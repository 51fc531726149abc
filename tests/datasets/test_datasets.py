"""Tests that the synthetic datasets plant exactly the shapes the paper's
evaluation depends on."""

import pytest

from repro.datasets import (
    AcmdlConfig,
    TpchConfig,
    generate_acmdl,
    generate_tpch,
)


def column(table, name):
    """The values of column *name* of *table*, in row order."""
    (values,) = table.columns([table.schema.column_index(name)])
    return values


class TestUniversity:
    def test_row_counts_match_figure1(self, university_db):
        assert university_db.row_counts() == {
            "Student": 3,
            "Course": 3,
            "Enrol": 6,
            "Textbook": 4,
            "Faculty": 1,
            "Department": 1,
            "Lecturer": 2,
            "Teach": 6,
        }

    def test_two_students_named_green(self, university_db):
        names = column(university_db.table("Student"), "Sname")
        assert names.count("Green") == 2

    def test_foreign_keys_hold(self, university_db):
        university_db.check_foreign_keys()

    def test_enrolment_is_join_of_figure1(self, enrolment_db, university_db):
        # Figure 8 = Student x Enrol x Course
        assert len(enrolment_db.table("Enrolment")) == len(
            university_db.table("Enrol")
        )


class TestTpchShapes:
    def test_determinism(self):
        first = generate_tpch(TpchConfig(seed=42, orders=50, parts=40))
        second = generate_tpch(TpchConfig(seed=42, orders=50, parts=40))
        assert first.table("Lineitem").rows == second.table("Lineitem").rows

    def test_planted_part_names(self, tpch_db):
        names = column(tpch_db.table("Part"), "pname")
        assert names.count("royal olive") == 8
        assert names.count("yellow tomato") == 13
        assert names.count("Indian black chocolate") == 1
        assert names.count("pink rose") == 2
        assert names.count("white rose") == 2

    def test_chocolate_supplier_shape(self, tpch_db):
        # exactly 4 distinct suppliers across many line items (T5)
        parts = tpch_db.table("Part")
        chocolate = next(
            row[0] for row in parts.rows if row[1] == "Indian black chocolate"
        )
        items = [
            row for row in tpch_db.table("Lineitem").rows if row[0] == chocolate
        ]
        assert len({row[1] for row in items}) == 4
        assert len(items) == 22

    def test_every_order_has_line_items(self, tpch_db):
        covered = {row[2] for row in tpch_db.table("Lineitem").rows}
        assert covered == set(column(tpch_db.table("Order"), "orderkey"))

    def test_every_planted_part_ordered(self, tpch_db):
        parts = tpch_db.table("Part")
        planted = {
            row[0]
            for row in parts.rows
            if row[1] in ("royal olive", "yellow tomato")
        }
        ordered = {row[0] for row in tpch_db.table("Lineitem").rows}
        assert planted <= ordered

    def test_foreign_keys_hold(self, tpch_db):
        tpch_db.check_foreign_keys()


class TestAcmdlShapes:
    def test_determinism(self):
        first = generate_acmdl(AcmdlConfig(seed=7, papers=60))
        second = generate_acmdl(AcmdlConfig(seed=7, papers=60))
        assert first.table("Write").rows == second.table("Write").rows

    def test_planted_names(self, acmdl_db):
        editors = column(acmdl_db.table("Editor"), "lname")
        assert editors.count("Smith") == 7
        authors = column(acmdl_db.table("Author"), "lname")
        assert authors.count("Gill") == 6

    def test_ieee_publishers(self, acmdl_db):
        names = column(acmdl_db.table("Publisher"), "name")
        assert sum("IEEE" in name for name in names) == 4

    def test_tuning_titles_shape(self, acmdl_db):
        # six papers, four distinct title strings (A5)
        titles = [
            row[3]
            for row in acmdl_db.table("Paper").rows
            if "database tuning" in row[3]
        ]
        assert len(titles) == 6
        assert len(set(titles)) == 4

    def test_tuning_author_counts_match_paper(self, acmdl_db):
        # the paper's exact A5 answer multiset: 2,2,2,6,2,2
        tuning_ids = [
            row[0]
            for row in acmdl_db.table("Paper").rows
            if "database tuning" in row[3]
        ]
        write = acmdl_db.table("Write").rows
        counts = sorted(
            sum(1 for pid, _ in write if pid == paper) for paper in tuning_ids
        )
        assert counts == [2, 2, 2, 2, 2, 6]

    def test_sigir_cikm_shared_editors(self, acmdl_db):
        procs = {row[0]: row[1] for row in acmdl_db.table("Proceeding").rows}
        edits = acmdl_db.table("Edit").rows
        sigir_editors = {
            e for e, p in edits if procs[p].startswith("SIGIR")
        }
        cikm_editors = {e for e, p in edits if procs[p].startswith("CIKM")}
        assert len(sigir_editors & cikm_editors) == 2

    def test_every_proceeding_edited_and_every_paper_written(self, acmdl_db):
        edited = {p for _, p in acmdl_db.table("Edit").rows}
        assert edited == set(
            column(acmdl_db.table("Proceeding"), "procid")
        )
        written = {p for p, _ in acmdl_db.table("Write").rows}
        assert written == set(column(acmdl_db.table("Paper"), "paperid"))

    def test_foreign_keys_hold(self, acmdl_db):
        acmdl_db.check_foreign_keys()


class TestDenormalization:
    def test_ordering_row_per_lineitem(self, tpch_unnorm, tpch_db):
        assert len(tpch_unnorm.database.table("Ordering")) == len(
            tpch_db.table("Lineitem")
        )

    def test_ordering_contains_part_and_order_attributes(self, tpch_unnorm, tpch_db):
        ordering = tpch_unnorm.database.table("Ordering")
        schema = ordering.schema
        row = ordering.rows[0]
        partkey = row[schema.column_index("partkey")]
        pname = row[schema.column_index("pname")]
        part = tpch_db.table("Part")
        (position,) = part.key_index.positions((partkey,))
        assert part.rows[position][1] == pname

    def test_customer_gains_regionkey(self, tpch_unnorm, tpch_db):
        customer = tpch_unnorm.database.table("Customer")
        schema = customer.schema
        nations = {
            row[0]: row[2] for row in tpch_db.table("Nation").rows
        }
        for row in customer.rows:
            assert row[schema.column_index("regionkey")] == nations[
                row[schema.column_index("nationkey")]
            ]

    def test_paperauthor_row_per_write(self, acmdl_unnorm, acmdl_db):
        assert len(acmdl_unnorm.database.table("PaperAuthor")) == len(
            acmdl_db.table("Write")
        )

    def test_ptitle_renamed_title(self, acmdl_unnorm):
        schema = acmdl_unnorm.database.table("PaperAuthor").schema
        assert schema.has_column("title")
        assert not schema.has_column("ptitle")

    def test_declared_fds_hold_on_data(self, tpch_unnorm, acmdl_unnorm):
        from repro.fd import FunctionalDependency, holds

        for dataset in (tpch_unnorm, acmdl_unnorm):
            for relation, fd_texts in dataset.fds.items():
                table = dataset.database.table(relation)
                for text in fd_texts:
                    fd = FunctionalDependency.parse(text)
                    assert holds(table, fd), f"{relation}: {text}"
