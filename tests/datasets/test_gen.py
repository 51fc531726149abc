"""``repro gen``: a scaled dataset written as schema.json + CSVs reads
back, table by table, as the generator made it."""

import io

import pytest

from repro.cli import main
from repro.datasets import generate_scaled
from repro.relational.io import load_database


def typed(rows):
    return [tuple((type(value), value) for value in row) for row in rows]


def test_gen_writes_csvs_that_load_back_equal(tmp_path):
    out = io.StringIO()
    directory = tmp_path / "tpch"
    assert main(["gen", "--dataset", "tpch", "--sf", "1", "--out", str(directory)], out) == 0
    generated = generate_scaled("tpch", 1)
    # numbers come off the CSVs as text: the load converts them by column
    loaded = load_database(directory)
    assert loaded.schema.relation_names == generated.schema.relation_names
    total = 0
    for relation in generated.schema:
        rows = generated.table(relation.name).rows
        assert typed(loaded.table(relation.name).rows) == typed(rows), relation.name
        total += len(rows)
        assert f"{relation.name}: {len(rows)} rows" in out.getvalue()
    assert out.getvalue().splitlines()[-1] == f"gen: tpch sf=1 -> {directory} ({total} rows)"


def test_gen_defaults_and_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    assert main(["gen", "--dataset", "acmdl", "--sf", "1.5", "--seed", "7"], out) == 0
    loaded = load_database(tmp_path / "acmdl-sf1.5")
    generated = generate_scaled("acmdl", 1.5, seed=7)
    for relation in generated.schema:
        assert typed(loaded.table(relation.name).rows) == typed(
            generated.table(relation.name).rows
        )


def test_gen_rejects_a_scale_below_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--sf", "0.5"])
    assert exc.value.code == 2
    assert "--sf must be >= 1" in capsys.readouterr().err
