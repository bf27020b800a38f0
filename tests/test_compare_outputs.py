"""The CSV cell and VTK value comparisons of scripts/compare_outputs.py."""

import math

import numpy as np
import pytest

from biotcgp.mesh import structured_mesh, write_vtk_edges, write_vtk_mesh
from compare_script import compare


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


def _ascii_vtk(mesh, scalars, vectors):
    """The two snapshot files as the ASCII writers formatted them, row by row
    with %.17g: the files that compare_outputs must read from older trees."""
    def g(x):
        return format(x, ".17g")

    nv, nc, ne = mesh.num_vertices, mesh.num_cells, mesh.num_edges
    grid = (["# vtk DataFile Version 3.0", "biotcgp mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
            + [f"{g(x)} {g(y)} 0" for x, y in mesh.vertices.tolist()]
            + [f"CELLS {nc} {4 * nc}"] + [f"3 {a} {b} {c}" for a, b, c in mesh.cells.tolist()]
            + [f"CELL_TYPES {nc}"] + ["5"] * nc + [f"CELL_DATA {nc}"])
    for name, values in scalars.items():
        grid += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"] + [g(v) for v in values]
    points = (["# vtk DataFile Version 3.0", "biotcgp edge samples", "ASCII",
               "DATASET POLYDATA", f"POINTS {ne} double"]
              + [f"{g(x)} {g(y)} 0" for x, y in mesh.edge_midpoints.tolist()]
              + [f"VERTICES {ne} {2 * ne}"] + [f"1 {i}" for i in range(ne)] + [f"POINT_DATA {ne}"])
    for name, values in vectors.items():
        points += [f"VECTORS {name} double"] + [f"{g(x)} {g(y)} 0" for x, y in values.tolist()]
    return "\n".join(grid) + "\n", "\n".join(points) + "\n"


def test_ascii_and_binary_vtk_decode_equal_and_a_flipped_bit_does_not(tmp_path):
    mesh = structured_mesh(2, 2)
    awkward = np.array([-0.0, 5e-324, 1e300, 0.1, -1.0 / 3.0, 7.0])
    scalars = {"pressure": np.resize(awkward, mesh.num_cells)}
    vectors = {"u": np.resize(awkward[::-1], (mesh.num_edges, 2))}
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    grid_text, points_text = _ascii_vtk(mesh, scalars, vectors)
    (old / "snapshot_0000.vtk").write_text(grid_text)
    (old / "snapshot_0000_edges.vtk").write_text(points_text)
    write_vtk_mesh(mesh, str(new / "snapshot_0000.vtk"), scalars)
    write_vtk_edges(mesh, str(new / "snapshot_0000_edges.vtk"), vectors)

    for name in ("snapshot_0000.vtk", "snapshot_0000_edges.vtk"):
        ascii_arrays = compare.read_legacy_vtk(str(old / name))
        binary_arrays = compare.read_legacy_vtk(str(new / name))
        assert ascii_arrays.keys() == binary_arrays.keys()
        for key, values in ascii_arrays.items():
            assert values.dtype == binary_arrays[key].dtype
            assert values.tobytes() == binary_arrays[key].tobytes()
    assert np.signbit(compare.read_legacy_vtk(str(new / "snapshot_0000.vtk"))["pressure"][0])
    hashes = compare._vtk_hashes(str(old))
    assert hashes == compare._vtk_hashes(str(new)) and len(hashes) == 2

    # -0.0 -> 0.0 is one flipped bit: the sign of the first pressure value
    path = new / "snapshot_0000.vtk"
    data = bytearray(path.read_bytes())
    first = data.index(b"LOOKUP_TABLE default\n") + len(b"LOOKUP_TABLE default\n")
    assert data[first] == 0x80
    data[first] ^= 0x80
    path.write_bytes(bytes(data))
    flipped = compare._vtk_hashes(str(new))
    assert flipped["snapshot_0000.vtk"] != hashes["snapshot_0000.vtk"]
    assert flipped["snapshot_0000_edges.vtk"] == hashes["snapshot_0000_edges.vtk"]


@pytest.mark.parametrize("cut", ["drop_byte", "extra_byte", "trailing_line"])
def test_read_legacy_vtk_rejects_a_block_whose_length_does_not_match(tmp_path, cut):
    mesh = structured_mesh(1, 1)
    path = tmp_path / "m.vtk"
    write_vtk_mesh(mesh, str(path), {"p": np.array([1.0, 2.0])})
    data = path.read_bytes()
    broken = {"drop_byte": data[:-2] + b"\n",
              "extra_byte": data[:-1] + b"\0\n",
              "trailing_line": data + b"CELL_DATA 2\nSCALARS q double 1\nLOOKUP_TABLE default\n"}
    path.write_bytes(broken[cut])
    with pytest.raises(ValueError):
        compare.read_legacy_vtk(str(path))
