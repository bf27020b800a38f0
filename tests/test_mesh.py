import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biotcgp.mesh import refine_uniform, structured_mesh, write_vtk_edges, write_vtk_mesh
from biotcgp.spaces import build_space


def test_unit_square_single_quad_counts(mesh1):
    assert mesh1.num_cells == 2
    assert mesh1.num_edges == 5
    assert mesh1.num_vertices == 4
    assert int(mesh1.boundary_edge.sum()) == 4
    assert int((~mesh1.boundary_edge).sum()) == 1


def test_2x2_counts_and_area(mesh2):
    assert mesh2.num_cells == 8
    assert abs(mesh2.domain_area - 1.0) <= 1e-14


def test_euler_4x4():
    mesh = structured_mesh(4, 4)
    assert (mesh.num_vertices, mesh.num_edges, mesh.num_cells) == (25, 56, 32)
    assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 1


@settings(max_examples=15, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6))
def test_structured_invariants(nx, ny):
    mesh = structured_mesh(nx, ny, ((0.0, 0.0), (2.0, 1.5)))
    mesh.validate()
    assert mesh.num_cells == 2 * nx * ny
    assert abs(mesh.domain_area - 3.0) <= 1e-12 * 3.0


def test_degenerate_rectangle_rejected():
    with pytest.raises(ValueError):
        structured_mesh(2, 2, ((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        structured_mesh(0, 2)


def test_refinement_counts_and_sizes():
    coarse = structured_mesh(2, 3)
    fine = refine_uniform(coarse)
    fine.validate()
    assert fine.num_cells == 4 * coarse.num_cells
    assert int(fine.boundary_edge.sum()) == 2 * int(coarse.boundary_edge.sum())
    assert abs(fine.h_cell.max() - 0.5 * coarse.h_cell.max()) <= 1e-14
    assert abs(fine.domain_area - coarse.domain_area) <= 1e-13


def _min_angle(mesh):
    """Smallest interior angle over all cells (radians)."""
    p = mesh.vertices[mesh.cells]
    worst = np.inf
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosang = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        worst = min(worst, float(np.arccos(np.clip(cosang, -1.0, 1.0)).min()))
    return worst


def test_refinement_preserves_min_angle():
    mesh = structured_mesh(2, 2)
    refined = refine_uniform(refine_uniform(mesh))
    assert abs(_min_angle(refined) - _min_angle(mesh)) <= 1e-12


def test_edge_trace_normal_orientation(mesh2):
    normals = build_space(mesh2, "BDM", 1).edge_traces.normals
    for e, normal in enumerate(normals):
        assert abs(np.linalg.norm(normal) - 1.0) <= 1e-14
        edge_vec = mesh2.vertices[mesh2.edges[e, 1]] - mesh2.vertices[mesh2.edges[e, 0]]
        assert abs(np.dot(normal, edge_vec)) <= 1e-13
        # outward from the first (lower-index) cell
        first, second = mesh2.edge_cells[e]
        centroid = mesh2.vertices[mesh2.cells[first]].mean(axis=0)
        assert np.dot(normal, mesh2.edge_midpoints[e] - centroid) > 0.0
        if second >= 0:
            other = mesh2.vertices[mesh2.cells[second]].mean(axis=0)
            assert np.dot(-normal, mesh2.edge_midpoints[e] - other) > 0.0


def test_boundary_normal_points_outward(mesh1):
    normals = build_space(mesh1, "BDM", 1).edge_traces.normals
    right = np.flatnonzero(np.abs(mesh1.edge_midpoints[:, 0] - 1.0) < 1e-14)
    assert right.size == 1
    assert np.allclose(normals[right[0]], [1.0, 0.0], atol=1e-14)


def test_vtk_exports(tmp_path, mesh2):
    mesh_path = os.path.join(tmp_path, "mesh.vtk")
    write_vtk_mesh(mesh2, mesh_path, {"p": np.arange(mesh2.num_cells, dtype=float)})
    text = open(mesh_path).read()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"CELLS {mesh2.num_cells}" in text
    assert "SCALARS p double 1" in text

    edge_path = os.path.join(tmp_path, "edges.vtk")
    write_vtk_edges(mesh2, edge_path, {"w": np.ones((mesh2.num_edges, 2))})
    text = open(edge_path).read()
    assert "DATASET POLYDATA" in text
    assert "VECTORS w double" in text


# -0.0, the smallest subnormal, a huge value, an inexact decimal, a repeating
# fraction and an integer-valued float
AWKWARD = np.array([-0.0, 5e-324, 1e300, 0.1, -1.0 / 3.0, 7.0])


def test_vtk_bytes_match_per_row_formatting(tmp_path, mesh2):
    def g(x):
        return format(x, ".17g")

    nv, nc, ne = mesh2.num_vertices, mesh2.num_cells, mesh2.num_edges
    scalars = {"p": np.resize(AWKWARD, nc), "q": -np.resize(AWKWARD[::-1], nc)}
    vectors = {"u": np.resize(AWKWARD, (ne, 2)), "w": np.resize(AWKWARD[::-1], (ne, 2))}
    grid = (["# vtk DataFile Version 3.0", "biotcgp mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
            + [f"{g(x)} {g(y)} 0" for x, y in mesh2.vertices.tolist()]
            + [f"CELLS {nc} {4 * nc}"] + [f"3 {a} {b} {c}" for a, b, c in mesh2.cells.tolist()]
            + [f"CELL_TYPES {nc}"] + ["5"] * nc)
    cell_data = [f"CELL_DATA {nc}"]
    for name, values in scalars.items():
        cell_data += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        cell_data += [g(v) for v in values.tolist()]
    points = (["# vtk DataFile Version 3.0", "biotcgp edge samples", "ASCII",
               "DATASET POLYDATA", f"POINTS {ne} double"]
              + [f"{g(x)} {g(y)} 0" for x, y in mesh2.edge_midpoints.tolist()]
              + [f"VERTICES {ne} {2 * ne}"] + [f"1 {i}" for i in range(ne)])
    point_data = [f"POINT_DATA {ne}"]
    for name, values in vectors.items():
        point_data += [f"VECTORS {name} double"]
        point_data += [f"{g(x)} {g(y)} 0" for x, y in values.tolist()]
    awkward_text = "-0\n4.9406564584124654e-324\n1.0000000000000001e+300\n0.10000000000000001\n"
    assert awkward_text in "\n".join(cell_data)

    cases = [(write_vtk_mesh, None, grid), (write_vtk_mesh, scalars, grid + cell_data),
             (write_vtk_edges, None, points), (write_vtk_edges, vectors, points + point_data)]
    for i, (write, data, want) in enumerate(cases):
        path = os.path.join(tmp_path, f"{i}.vtk")
        write(mesh2, path, data)
        with open(path, encoding="utf-8", newline="") as handle:
            assert handle.read() == "\n".join(want) + "\n"
