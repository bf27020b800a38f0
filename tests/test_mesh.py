import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biotcgp.mesh import refine_uniform, structured_mesh, write_vtk_edges, write_vtk_mesh
from biotcgp.spaces import build_space
from compare_script import read_legacy_vtk


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


def test_cell_maps_once_per_mesh(perturbed_mesh):
    """The affine cell maps are computed once per mesh, read-only, and every
    space on the mesh reads the same arrays; their values are the vertex
    differences, det B is twice the cell area and B^-1 numpy's inverse."""
    mesh = perturbed_mesh
    verts = mesh.vertices[mesh.cells]
    b = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
    assert np.array_equal(mesh.cell_matrix, b)
    assert np.array_equal(mesh.cell_origin, verts[:, 0])
    assert np.array_equal(mesh.cell_det, 2.0 * mesh.areas)
    assert np.array_equal(mesh.cell_inverse, np.linalg.inv(b))
    spaces = [build_space(mesh, "BDM", 2), build_space(mesh, "DGP", 1)]
    for name in ("cell_matrix", "cell_origin", "cell_det", "cell_inverse"):
        array = getattr(mesh, name)
        assert not array.flags.writeable, name
        assert all(getattr(space.mesh, name) is array for space in spaces), name


def test_vtk_exports(tmp_path, mesh2):
    mesh_path = os.path.join(tmp_path, "mesh.vtk")
    write_vtk_mesh(mesh2, mesh_path, {"p": np.arange(mesh2.num_cells, dtype=float)})
    data = open(mesh_path, "rb").read()
    assert data.startswith(b"# vtk DataFile Version 3.0\nbiotcgp mesh\nBINARY\n")
    assert b"\nDATASET UNSTRUCTURED_GRID\n" in data
    assert f"\nCELLS {mesh2.num_cells} ".encode() in data
    assert b"\nSCALARS p double 1\nLOOKUP_TABLE default\n" in data

    edge_path = os.path.join(tmp_path, "edges.vtk")
    write_vtk_edges(mesh2, edge_path, {"w": np.ones((mesh2.num_edges, 2))})
    data = open(edge_path, "rb").read()
    assert b"\nDATASET POLYDATA\n" in data
    assert b"\nVECTORS w double\n" in data


# -0.0, the smallest subnormal, a huge value, an inexact decimal, a repeating
# fraction and an integer-valued float
AWKWARD = np.array([-0.0, 5e-324, 1e300, 0.1, -1.0 / 3.0, 7.0])


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def test_vtk_binary_round_trip_keeps_every_bit(tmp_path, mesh2):
    # the expected files are built row by row with struct, independently of
    # the writers' numpy encoding: big-endian float64 and int32
    def f8(*xs):
        return struct.pack(f">{len(xs)}d", *xs)

    def i4(*xs):
        return struct.pack(f">{len(xs)}i", *xs)

    nv, nc, ne = mesh2.num_vertices, mesh2.num_cells, mesh2.num_edges
    scalars = {"p": np.resize(AWKWARD, nc), "q": -np.resize(AWKWARD[::-1], nc)}
    vectors = {"u": np.resize(AWKWARD, (ne, 2)), "w": np.resize(AWKWARD[::-1], (ne, 2))}
    grid = (b"# vtk DataFile Version 3.0\nbiotcgp mesh\nBINARY\nDATASET UNSTRUCTURED_GRID\n"
            + f"POINTS {nv} double\n".encode()
            + b"".join(f8(x, y, 0.0) for x, y in mesh2.vertices.tolist()) + b"\n"
            + f"CELLS {nc} {4 * nc}\n".encode()
            + b"".join(i4(3, a, b, c) for a, b, c in mesh2.cells.tolist()) + b"\n"
            + f"CELL_TYPES {nc}\n".encode() + i4(*[5] * nc) + b"\n")
    cell_data = f"CELL_DATA {nc}\n".encode()
    for name, values in scalars.items():
        cell_data += f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode()
        cell_data += f8(*values.tolist()) + b"\n"
    points = (b"# vtk DataFile Version 3.0\nbiotcgp edge samples\nBINARY\nDATASET POLYDATA\n"
              + f"POINTS {ne} double\n".encode()
              + b"".join(f8(x, y, 0.0) for x, y in mesh2.edge_midpoints.tolist()) + b"\n"
              + f"VERTICES {ne} {2 * ne}\n".encode()
              + b"".join(i4(1, i) for i in range(ne)) + b"\n")
    point_data = f"POINT_DATA {ne}\n".encode()
    for name, values in vectors.items():
        point_data += f"VECTORS {name} double\n".encode()
        point_data += b"".join(f8(x, y, 0.0) for x, y in values.tolist()) + b"\n"
    assert f8(*AWKWARD[:2]) == bytes.fromhex("8000000000000000 0000000000000001")

    cases = [(write_vtk_mesh, None, grid), (write_vtk_mesh, scalars, grid + cell_data),
             (write_vtk_edges, None, points), (write_vtk_edges, vectors, points + point_data)]
    for i, (write, data, want) in enumerate(cases):
        path = os.path.join(tmp_path, f"{i}.vtk")
        write(mesh2, path, data)
        with open(path, "rb") as handle:
            assert handle.read() == want

    # decoded back, every value keeps its bits: the sign of -0.0 and the subnormal
    grid_arrays = read_legacy_vtk(os.path.join(tmp_path, "1.vtk"))
    assert np.array_equal(_bits(grid_arrays["POINTS"][:, :2]), _bits(mesh2.vertices))
    assert np.array_equal(grid_arrays["CELLS"].reshape(nc, 4), np.c_[np.full(nc, 3), mesh2.cells])
    assert np.array_equal(grid_arrays["CELL_TYPES"], np.full(nc, 5))
    for name, values in scalars.items():
        assert np.array_equal(_bits(grid_arrays[name]), _bits(values))
    point_arrays = read_legacy_vtk(os.path.join(tmp_path, "3.vtk"))
    assert np.array_equal(_bits(point_arrays["POINTS"][:, :2]), _bits(mesh2.edge_midpoints))
    assert np.array_equal(point_arrays["VERTICES"].reshape(ne, 2),
                          np.c_[np.ones(ne), np.arange(ne)])
    for name, values in vectors.items():
        assert np.array_equal(_bits(point_arrays[name][:, :2]), _bits(values))
        assert np.array_equal(_bits(point_arrays[name][:, 2]), _bits(np.zeros(ne)))
