"""CLI surface of the family zoo: --family knobs, pareto verb, export."""

import json

import pytest

from repro.cli import main
from repro.families.base import family_names
from repro.generator import DESIGN_KINDS


@pytest.fixture(autouse=True)
def _results_tmpdir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("family", family_names())
def test_verify_family_flag(capsys, family):
    assert main(["verify", "--width", "8", "--family", family,
                 "--window", "2", "--vectors", "300",
                 "--impls", "functional,kernel,engine:bigint",
                 "--no-save"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert f"family={family}" in out


def test_pareto_command(capsys, _results_tmpdir):
    assert main(["pareto", "--widths", "4,8"]) == 0
    out = capsys.readouterr().out
    assert "pareto" in out.lower()
    assert (_results_tmpdir / "pareto_families.json").exists()
    assert (_results_tmpdir / "pareto_families.md").exists()
    payload = json.loads(
        (_results_tmpdir / "pareto_families.json").read_text())
    assert {p["family"] for p in payload["points"]} == set(family_names())


def test_pareto_no_save(capsys, _results_tmpdir):
    assert main(["pareto", "--widths", "4", "--families", "cesa",
                 "--no-save"]) == 0
    assert not (_results_tmpdir / "pareto_families.json").exists()


@pytest.mark.parametrize("kind", ["cesa", "cesa_r", "blockspec",
                                  "blockspec_r", "aca_r"])
def test_export_family_kinds(tmp_path, kind):
    assert main(["export", kind, "--width", "8",
                 "--out", str(tmp_path / "rtl")]) == 0
    written = list((tmp_path / "rtl").iterdir())
    suffixes = {p.suffix for p in written}
    assert {".vhd", ".v", ".json"} <= suffixes


def test_export_help_lists_sorted_kinds(capsys):
    with pytest.raises(SystemExit) as err:
        main(["export", "--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for kind in ("cesa", "cesa_r", "blockspec", "blockspec_r"):
        assert kind in out
    # listing is the deterministically sorted DESIGN_KINDS table
    assert ", ".join(sorted(DESIGN_KINDS)) in out.replace("\n", " ")


def test_verify_help_lists_families(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for name in family_names():
        assert name in out
