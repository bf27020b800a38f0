"""The CSV cell comparison of scripts/compare_outputs.py."""

import importlib.util
import math
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def test_relative_change_of_cells():
    assert compare._relative_change("1.5", "1.5") == 0.0
    assert compare._relative_change("exact", "exact") == 0.0
    assert compare._relative_change("2.0", "2.0000000000000004") == pytest.approx(2.2e-16, rel=0.01)
    assert compare._relative_change("0.0", "1e-300") == math.inf
    assert compare._relative_change("exact", "4.0") == math.inf


def test_largest_change_names_file_and_column():
    old = {"study.csv": {"h": ["0.5", "0.25"], "err": ["1e-3", "2e-4"], "eoc_err": ["", "2.3"]}}
    new = {"study.csv": {"h": ["0.5", "0.25"], "err": ["1e-3", "2.2e-4"], "eoc_err": ["", "2.2"]}}
    change, where = compare._largest_csv_change(old, new)
    assert where == "study.csv:err" and change == pytest.approx(0.1)
    assert compare._largest_csv_change(old, old) == (0.0, "")
    assert compare._largest_csv_change(old, {}) == (math.inf, "study.csv")
    assert compare._largest_csv_change({}, {}) == (0.0, "")


def test_row_changes_give_each_level_its_largest_change():
    old = {"study.csv": {"h": ["0.5", "0.25", "0.125"], "err": ["1e-3", "2e-4", "5e-5"],
                         "eoc_err": ["", "2.3", "2.0"]}}
    new = {"study.csv": {"h": ["0.5", "0.25", "0.125"], "err": ["1e-3", "2.2e-4", "5e-5"],
                         "eoc_err": ["", "2.2", "2.1"]}}
    rows = compare._row_changes(old, new)["study.csv"]
    assert rows[0] == (0.0, "")
    assert rows[1][1] == "err" and rows[1][0] == pytest.approx(0.1)
    assert rows[2][1] == "eoc_err" and rows[2][0] == pytest.approx(0.05)
    assert compare._row_changes(old, {}) == {"study.csv": [(math.inf, "")]}
