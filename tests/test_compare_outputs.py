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
