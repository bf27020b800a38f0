"""scripts/compare_outputs.py loaded as a module: the tests of its comparisons
read it whole, and the tests that decode VTK output use its one legacy-VTK
decoder, ``read_legacy_vtk``."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)
read_legacy_vtk = compare.read_legacy_vtk
