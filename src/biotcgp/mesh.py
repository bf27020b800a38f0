"""2D simplicial meshes of axis-aligned rectangles.

Connectivity is fully deterministic: cells are numbered row-major with the
lower-left/upper-right diagonal split, edges are sorted lexicographically by
their (min, max) vertex pair, and every edge carries the global orientation
induced by vertex-index order.  That fixed ordering is what makes DOF layouts
and golden outputs bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ioutil import atomic_write_text

__all__ = ["Mesh", "structured_mesh", "refine_uniform", "write_vtk_mesh",
           "write_vtk_edges"]


@dataclass(frozen=True)
class Mesh:
    """Triangulation with cell/edge connectivity and metric data.

    vertices : (nv, 2) coordinates
    cells    : (nc, 3) vertex indices, counterclockwise
    edges    : (ne, 2) vertex pairs with index[0] < index[1] (global orientation)
    cell_edges : (nc, 3) edge index of local edges (v0,v1), (v1,v2), (v2,v0)
    edge_cells : (ne, 2) adjacent cells ascending, -1 marks missing neighbour
    """

    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    edge_cells: np.ndarray
    boundary_edge: np.ndarray
    areas: np.ndarray = field(repr=False)
    h_cell: np.ndarray = field(repr=False)
    h_edge: np.ndarray = field(repr=False)
    edge_midpoints: np.ndarray = field(repr=False)
    edge_normals: np.ndarray = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def domain_area(self) -> float:
        return float(self.areas.sum())

    @cached_property
    def _vtk_grid(self) -> bytes:
        """Legacy VTK header and geometry of the cells, encoded once per mesh."""
        nc = self.num_cells
        return (b"# vtk DataFile Version 3.0\nbiotcgp mesh\nBINARY\nDATASET UNSTRUCTURED_GRID\n"
                + _block(f"POINTS {self.num_vertices} double", _xyz(self.vertices))
                + _block(f"CELLS {nc} {4 * nc}", np.c_[np.full(nc, 3), self.cells])
                + _block(f"CELL_TYPES {nc}", np.full(nc, 5)))

    @cached_property
    def _vtk_edge_points(self) -> bytes:
        """Legacy VTK header and edge-midpoint vertices, encoded once per mesh."""
        ne = self.num_edges
        return (b"# vtk DataFile Version 3.0\nbiotcgp edge samples\nBINARY\nDATASET POLYDATA\n"
                + _block(f"POINTS {ne} double", _xyz(self.edge_midpoints))
                + _block(f"VERTICES {ne} {2 * ne}", np.c_[np.ones(ne, int), np.arange(ne)]))

    def validate(self) -> None:
        """Check the structural invariants; raises AssertionError on violation."""
        counts = (self.edge_cells >= 0).sum(axis=1)
        assert np.all(counts[self.boundary_edge] == 1), "boundary edge without unique cell"
        assert np.all(counts[~self.boundary_edge] == 2), "interior edge without two cells"
        assert np.all(self.areas > 0.0), "cell with non-positive signed area"
        v, e, f = self.num_vertices, self.num_edges, self.num_cells
        assert v - e + f == 1, f"Euler characteristic violated: {v}-{e}+{f} != 1"
        width = self.vertices[:, 0].max() - self.vertices[:, 0].min()
        height = self.vertices[:, 1].max() - self.vertices[:, 1].min()
        assert abs(self.domain_area - width * height) <= 1e-12 * width * height


def _connect(vertices: np.ndarray, cells: np.ndarray) -> Mesh:
    vertices = np.ascontiguousarray(vertices, dtype=float)
    cells = np.ascontiguousarray(cells, dtype=np.int64)

    local = cells[:, [[0, 1], [1, 2], [2, 0]]]          # (nc, 3, 2)
    keys = np.sort(local.reshape(-1, 2), axis=1)
    edges, inverse = np.unique(keys, axis=0, return_inverse=True)
    cell_edges = inverse.reshape(-1, 3)

    ne = edges.shape[0]
    edge_cells = -np.ones((ne, 2), dtype=np.int64)
    order = np.argsort(cell_edges.reshape(-1), kind="stable")
    flat_cells = np.repeat(np.arange(cells.shape[0]), 3)[order]
    flat_edges = cell_edges.reshape(-1)[order]
    starts = np.searchsorted(flat_edges, np.arange(ne))
    ends = np.searchsorted(flat_edges, np.arange(ne) + 1)
    for e in range(ne):
        adj = np.sort(flat_cells[starts[e]:ends[e]])
        if adj.size not in (1, 2):
            raise ValueError(f"edge {e} adjacent to {adj.size} cells")
        edge_cells[e, :adj.size] = adj
    boundary = edge_cells[:, 1] < 0

    p = vertices[cells]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if np.any(areas <= 0):
        raise ValueError("cells must be positively oriented")
    side = np.linalg.norm(p[:, [1, 2, 0]] - p, axis=2)
    h_cell = side.max(axis=1)

    evec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    h_edge = np.linalg.norm(evec, axis=1)
    tangents = evec / h_edge[:, None]
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    midpoints = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])

    for a in (vertices, cells, edges, cell_edges, edge_cells, boundary, areas,
              h_cell, h_edge, midpoints, normals):
        a.setflags(write=False)
    return Mesh(vertices, cells, edges, cell_edges, edge_cells, boundary,
                areas, h_cell, h_edge, midpoints, normals)


def structured_mesh(nx: int, ny: int,
                    rectangle: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 0.0), (1.0, 1.0))) -> Mesh:
    """Split an nx-by-ny grid of quads along the lower-left/upper-right diagonal."""
    if nx < 1 or ny < 1:
        raise ValueError("structured_mesh requires nx, ny >= 1")
    (x0, y0), (x1, y1) = rectangle
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate rectangle")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    cells = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = b + (nx + 1)
            d = a + (nx + 1)
            cells.append((a, b, c))
            cells.append((a, c, d))
    mesh = _connect(vertices, np.asarray(cells, dtype=np.int64))
    mesh.validate()
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children via edge midpoints."""
    nv = mesh.num_vertices
    vertices = np.vstack([mesh.vertices, mesh.edge_midpoints])
    m = nv + mesh.cell_edges                              # midpoint vertex per local edge
    c = mesh.cells
    children = np.concatenate([
        np.stack([c[:, 0], m[:, 0], m[:, 2]], axis=1),
        np.stack([m[:, 0], c[:, 1], m[:, 1]], axis=1),
        np.stack([m[:, 2], m[:, 1], c[:, 2]], axis=1),
        np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1),
    ])
    fine = _connect(vertices, children)
    fine.validate()
    return fine


def _block(header: str, array: np.ndarray) -> bytes:
    """``header`` line(s), then ``array``'s big-endian bytes (int32 for integers,
    float64 otherwise, both lossless here) and a closing newline."""
    dtype = ">i4" if array.dtype.kind in "iu" else ">f8"
    return f"{header}\n".encode() + np.ascontiguousarray(array, dtype).tobytes() + b"\n"


def _xyz(points: np.ndarray) -> np.ndarray:
    """(n, 2) points or vectors as the (n, 3) float64 rows that VTK stores."""
    out = np.zeros((len(points), 3))
    out[:, :2] = points
    return out


def write_vtk_mesh(mesh: Mesh, path: str,
                   cell_data: dict[str, np.ndarray] | None = None) -> None:
    """Legacy binary UNSTRUCTURED_GRID export with optional per-cell scalars."""
    parts = [mesh._vtk_grid]
    if cell_data:
        parts.append(f"CELL_DATA {mesh.num_cells}\n".encode())
        for name, values in cell_data.items():
            parts.append(_block(f"SCALARS {name} double 1\nLOOKUP_TABLE default",
                                np.asarray(values, dtype=float)))
    atomic_write_text(path, b"".join(parts))


def write_vtk_edges(mesh: Mesh, path: str,
                    vectors: dict[str, np.ndarray] | None = None) -> None:
    """Legacy binary POLYDATA export of edge midpoints with vector samples."""
    parts = [mesh._vtk_edge_points]
    if vectors:
        parts.append(f"POINT_DATA {mesh.num_edges}\n".encode())
        for name, values in vectors.items():
            parts.append(_block(f"VECTORS {name} double", _xyz(values)))
    atomic_write_text(path, b"".join(parts))
