"""Global H(div)-conforming BDM and discontinuous modal P spaces.

Global BDM degrees of freedom are normal point values at Gauss points of the
globally oriented edges (shared verbatim by both adjacent cells, which is what
makes the normal trace continuous) plus, for BDM_2, the classical interior
moments.  Each cell stores the transformation from Piola-mapped reference
monomials to the basis dual to those global functionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import elements as el
from .mesh import Mesh
from .time_basis import gauss_legendre_rule

__all__ = ["FunctionSpace", "build_space", "interpolate_vector_field",
           "project_scalar_field", "remove_mean", "remove_constant_load"]

DENSE_EDGE_POINTS = 10   # moment quadrature for interpolating analytic data


@dataclass
class VolumeTabulation:
    points: np.ndarray          # (nc, nq, 2) physical quadrature points
    weights: np.ndarray         # (nc, nq) physical weights
    values: np.ndarray          # (nc, nq, nd, [2])
    divs: np.ndarray | None     # (nc, nq, nd) vector spaces only
    grads: np.ndarray | None    # (nc, nq, nd, 2, 2)


@dataclass
class EdgeTraces:
    """Basis traces at edge quadrature points, both sides for interior edges.

    Normals point out of the first (lowest-index) adjacent cell; the quadrature
    parameter runs along the globally oriented edge so both sides see the same
    physical points.
    """

    s_nodes: np.ndarray         # (nq,) parameter nodes on [0, 1]
    s_weights: np.ndarray       # (nq,) weights summing to 1
    points: np.ndarray          # (ne, nq, 2)
    normals: np.ndarray         # (ne, 2) out of first cell
    values0: np.ndarray         # (ne, nq, nd, 2)
    strains0: np.ndarray        # (ne, nq, nd, 2, 2) symmetrized gradients
    interior: np.ndarray        # indices of interior edges
    values1: np.ndarray         # (n_int, nq, nd, 2) second-cell traces
    strains1: np.ndarray


class FunctionSpace:
    """Finite element space over a mesh with a global cell-to-DOF map.

    Parameters
    ----------
    mesh : Mesh
    family : "BDM" (vector, H(div)) or "DGP" (scalar, discontinuous)
    degree : polynomial degree (BDM: 1 or 2; DGP: 0 or 1)
    bc : None or "zero_normal" (pins all boundary-edge normal DOFs)
    quad_degree : exactness degree of the volume/edge quadrature
    """

    def __init__(self, mesh: Mesh, family: str, degree: int, bc: str | None,
                 quad_degree: int):
        if bc not in (None, "zero_normal"):
            raise ValueError(f"unknown bc {bc!r}")
        if bc == "zero_normal" and family != "BDM":
            raise ValueError("normal-trace constraints only apply to BDM spaces")
        self.mesh = mesh
        self.element = el.reference_element(family, degree)
        self.family = family
        self.degree = degree
        self.bc = bc
        self.quad_degree = quad_degree

        cells = mesh.cells
        verts = mesh.vertices[cells]                       # (nc, 3, 2)
        b = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
        det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
        if np.any(det <= 0):
            raise el.GeometryError("negatively oriented cell")
        self.cell_matrix = b
        self.cell_origin = verts[:, 0]
        self.cell_det = det
        self.cell_inverse = np.linalg.inv(b)

        if family == "BDM":
            self._init_bdm()
        else:
            self._init_dgp()

        if bc == "zero_normal":
            constrained = np.zeros(self.ndofs, dtype=bool)
            npe = self.element.n_edge_dofs
            for e in np.flatnonzero(mesh.boundary_edge):
                constrained[e * npe:(e + 1) * npe] = True
            self.constrained = constrained
        else:
            self.constrained = np.zeros(self.ndofs, dtype=bool)
        self.free = np.flatnonzero(~self.constrained)

    # -- construction ------------------------------------------------------

    def _init_dgp(self) -> None:
        nloc = self.element.dim
        nc = self.mesh.num_cells
        self.ndofs = nc * nloc
        self.cell_dofs = np.arange(self.ndofs, dtype=np.int64).reshape(nc, nloc)
        self.dof_transform = None

    def _init_bdm(self) -> None:
        mesh = self.mesh
        elem = self.element
        npe = elem.n_edge_dofs
        ni = elem.n_interior_dofs
        nloc = elem.dim
        nc = mesh.num_cells
        self.ndofs = mesh.num_edges * npe + nc * ni

        cell_dofs = np.empty((nc, nloc), dtype=np.int64)
        for le in range(3):
            eids = mesh.cell_edges[:, le]
            for j in range(npe):
                cell_dofs[:, le * npe + j] = eids * npe + j
        interior_offset = mesh.num_edges * npe
        for m in range(ni):
            cell_dofs[:, 3 * npe + m] = interior_offset + np.arange(nc) * ni + m
        self.cell_dofs = cell_dofs

        # rows of T: global functionals applied to Piola-mapped monomials; the
        # normal part of B m / det is m . (B^T n) / det
        exps = elem.exponents
        spt = elem.edge_points
        b_t = np.swapaxes(self.cell_matrix, 1, 2)
        t = np.empty((nc, nloc, nloc))
        for le in range(3):
            eids = mesh.cell_edges[:, le]
            a = mesh.vertices[mesh.edges[eids, 0]]
            bv = mesh.vertices[mesh.edges[eids, 1]]
            normals = mesh.edge_normals[eids]              # global orientation
            pts = a[:, None, :] + spt[None, :, None] * (bv - a)[:, None, :]
            ref = (pts - self.cell_origin[:, None, :]) @ np.swapaxes(self.cell_inverse, 1, 2)
            monos = el.eval_vector_monomials(exps, ref)    # (2nm, nc, npe, 2)
            bn = (b_t @ normals[:, :, None]) / self.cell_det[:, None, None]   # (nc, 2, 1)
            t[:, le * npe:(le + 1) * npe, :] = np.moveaxis((monos @ bn)[..., 0], 0, -1)
        if ni:
            qp, qw = el.triangle_rule(max(self.quad_degree, 2 * self.degree + 2))
            monos = np.moveaxis(el.eval_vector_monomials(exps, qp), 0, -1)   # (nq, 2, 2nm)
            phys = (self.cell_matrix[:, None] @ monos) / self.cell_det[:, None, None, None]
            t[:, 3 * npe:, :] = self._interior_tests(qp, qw) @ phys.reshape(nc, -1, nloc)
        # dual coefficients: basis_i = sum_m dof_transform[c, m, i] piola(mono_m)
        self.dof_transform = np.linalg.inv(t)

    def _interior_tests(self, ref_points: np.ndarray, ref_weights: np.ndarray) -> np.ndarray:
        """Weighted test fields of the BDM_2 interior moments at the points of a
        reference rule, (nc, 3, nq x 2): e_x, e_y and the curl of the cubic
        bubble, each moment normalized by the cell area det / 2 for uniform
        conditioning."""
        nc, nq = self.mesh.num_cells, len(ref_weights)
        unit = np.broadcast_to(np.eye(2)[None, :, None, :], (nc, 2, nq, 2))
        curl = self._bubble_curl_physical(ref_points)[:, None]          # (nc, 1, nq, 2)
        tests = np.concatenate([unit, curl], axis=1) * (2.0 * ref_weights)[:, None]
        return tests.reshape(nc, 3, -1)

    def _bubble_curl_physical(self, ref_points: np.ndarray) -> np.ndarray:
        """curl of the physical cubic bubble at reference points; (nc, nq, 2)."""
        lam = np.stack([1.0 - ref_points[:, 0] - ref_points[:, 1],
                        ref_points[:, 0], ref_points[:, 1]])          # (3, nq)
        grad_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])   # (3, 2)
        grad_lam = grad_ref @ self.cell_inverse                        # (nc, 3, 2)
        grad_b = (grad_lam[:, 0, None, :] * (lam[1] * lam[2])[None, :, None]
                  + grad_lam[:, 1, None, :] * (lam[0] * lam[2])[None, :, None]
                  + grad_lam[:, 2, None, :] * (lam[0] * lam[1])[None, :, None])
        return np.stack([grad_b[..., 1], -grad_b[..., 0]], axis=-1)

    # -- tabulation ----------------------------------------------------------

    def _physical_points(self, ref_points: np.ndarray) -> np.ndarray:
        """Images of shared reference points on every cell; (nc, nq, 2)."""
        return ref_points @ np.swapaxes(self.cell_matrix, 1, 2) + self.cell_origin[:, None, :]

    def _piola(self, cells: np.ndarray, ref_points: np.ndarray, order: int) -> list:
        """Piola-mapped BDM basis data of ``cells`` at reference points, which
        are (nq, 2), shared by every cell, or (n, nq, 2), one set per cell.

        Returns [values (n, nq, nd, 2), gradients (..., 2, 2), second
        derivatives (..., 2, 2, 2)] up to derivative ``order``: the monomial
        tables are contracted with ``dof_transform`` first, then B/det acts on
        the component axis and B^-1 on each derivative axis.  In memory the
        basis index is innermost, which the coefficient contractions favour.
        """
        n = len(cells)
        coeffs = self.dof_transform[cells]                                # (n, m, nd)
        bmat = self.cell_matrix[cells] / self.cell_det[cells][:, None, None]
        binv_t = np.swapaxes(self.cell_inverse[cells], 1, 2)
        out = []
        for d in range(order + 1):
            ref = el.eval_vector_monomials(self.element.exponents, ref_points, d)
            ref = np.moveaxis(ref, (0, ref.ndim - d - 2), (-1, -2))  # ([n,] 2, ..., nq, m)
            t = ref.reshape(ref.shape[:-d - 3] + (-1, ref.shape[-1])) @ coeffs
            t = t.reshape((n,) + ref.shape[-d - 3:-1] + (-1,))  # (n, 2, *[2]*d, nq, nd)
            # map the leading axis, then rotate it behind the other vector axes
            for mat in [bmat] + [binv_t] * d:
                t = np.moveaxis((mat @ t.reshape(n, 2, -1)).reshape(t.shape), 1, d + 1)
            out.append(np.moveaxis(t, (-2, -1), (1, 2)))
        return out

    @cached_property
    def volume(self) -> VolumeTabulation:
        qp, qw = el.triangle_rule(self.quad_degree)
        points = self._physical_points(qp)
        weights = self.cell_det[:, None] * qw[None, :]
        if self.family == "DGP":
            vals = self.element.tabulate(qp)               # same on every cell
            values = np.broadcast_to(vals, (self.mesh.num_cells,) + vals.shape)
            return VolumeTabulation(points, weights, values, None, None)
        values, grads = self._piola(np.arange(self.mesh.num_cells), qp, 1)
        return VolumeTabulation(points, weights, values, np.trace(grads, axis1=-2, axis2=-1),
                                grads)

    @cached_property
    def edge_traces(self) -> EdgeTraces:
        if self.family != "BDM":
            raise ValueError("edge traces tabulated for vector spaces only")
        mesh = self.mesh
        rule = gauss_legendre_rule((self.quad_degree + 3) // 2)
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        pts = a[:, None, :] + rule.nodes[None, :, None] * (b - a)[:, None, :]
        first = mesh.edge_cells[:, 0]
        centroids = mesh.vertices[mesh.cells[first]].mean(axis=1)
        sign = np.sign(np.einsum("ea,ea->e", mesh.edge_normals,
                                 mesh.edge_midpoints - centroids))
        normals = mesh.edge_normals * sign[:, None]
        vals0, grads0 = self.tabulate_at(first, pts, grads=True)
        interior = np.flatnonzero(~mesh.boundary_edge)
        vals1, grads1 = self.tabulate_at(mesh.edge_cells[interior, 1], pts[interior],
                                         grads=True)
        return EdgeTraces(rule.nodes, rule.weights, pts, normals,
                          vals0, 0.5 * (grads0 + np.swapaxes(grads0, -1, -2)),
                          interior,
                          vals1, 0.5 * (grads1 + np.swapaxes(grads1, -1, -2)))

    @cached_property
    def volume_seconds(self) -> np.ndarray:
        """Second derivatives, constant on a cell under the affine Piola map:
        one row per cell, at the reference centroid; (nc, 1, nd, 2, 2, 2)."""
        if self.family != "BDM":
            raise ValueError("second-derivative tabulation only for BDM spaces")
        return self._piola(np.arange(self.mesh.num_cells), np.full((1, 2), 1.0 / 3.0), 2)[2]

    @cached_property
    def mass_diagonal(self) -> np.ndarray:
        """The diagonal L2 mass matrix of a DGP space, read-only: the modal basis
        of a cell is orthogonal with squared norms the cell area, and its mode
        0 is the constant 1 (``elements._orthonormal_modal``)."""
        if self.family != "DGP":
            raise ValueError("a diagonal mass matrix only for DGP spaces")
        diagonal = np.repeat(self.mesh.areas, self.element.dim)
        diagonal.flags.writeable = False
        return diagonal

    def tabulate_at(self, cells: np.ndarray, points: np.ndarray,
                    grads: bool = False):
        """Basis values (and gradients) at arbitrary physical points.

        cells: (n,) cell index per point row group; points: (n, nq, 2).
        Returns values (n, nq, nd, [2]) and optionally gradients.
        """
        cells = np.asarray(cells)
        ref = ((points - self.cell_origin[cells][:, None, :])
               @ np.swapaxes(self.cell_inverse[cells], 1, 2))
        if self.family == "DGP":
            vals = self.element.tabulate(ref)
            return (vals, None) if grads else vals
        tabs = self._piola(cells, ref, int(grads))
        return tuple(tabs) if grads else tabs[0]

    # -- field evaluation ------------------------------------------------------

    def values_on_quadrature(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values at the volume quadrature points; (nc, nq, [2])."""
        local = np.asarray(coeffs)[self.cell_dofs]
        if self.family == "DGP":
            return np.einsum("cqi,ci->cq", self.volume.values, local)
        return np.einsum("cqia,ci->cqa", self.volume.values, local)

    def divs_on_quadrature(self, coeffs: np.ndarray) -> np.ndarray:
        local = np.asarray(coeffs)[self.cell_dofs]
        return np.einsum("cqi,ci->cq", self.volume.divs, local)

    def lift(self, free_values: np.ndarray) -> np.ndarray:
        """Embed free-DOF values into a full vector (constrained entries zero)."""
        full = np.zeros(free_values.shape[:-1] + (self.ndofs,))
        full[..., self.free] = free_values
        return full


def build_space(mesh: Mesh, family: str, degree: int, bc: str | None = None,
                quad_degree: int | None = None) -> FunctionSpace:
    """Construct a global space; quadrature defaults to the exactness degree
    2(l+2) of the discretization pair (l = scalar degree)."""
    if quad_degree is None:
        ell = degree - 1 if family == "BDM" else degree
        quad_degree = 2 * (ell + 2)
    return FunctionSpace(mesh, family, degree, bc, quad_degree)


# -- canonical interpolation / projection of analytic data ---------------------

def interpolate_vector_field(space: FunctionSpace, fn) -> np.ndarray:
    """Canonical BDM interpolant: edge moments against P_degree per edge plus
    the interior moments, evaluated with dense quadrature for analytic data.

    ``fn`` maps an (n, 2) array of points to (n, 2) values.
    """
    if space.family != "BDM":
        raise ValueError("vector interpolation requires a BDM space")
    mesh = space.mesh
    r = space.degree
    npe = space.element.n_edge_dofs
    coeffs = np.zeros(space.ndofs)

    rule = gauss_legendre_rule(DENSE_EDGE_POINTS)
    s_dense, w_dense = rule.nodes, rule.weights
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    pts = a[:, None, :] + s_dense[None, :, None] * (b - a)[:, None, :]
    vals = np.asarray(fn(pts.reshape(-1, 2))).reshape(mesh.num_edges, -1, 2)
    vn = np.einsum("eqa,ea->eq", vals, mesh.edge_normals)
    # L2(edge) projection of v.n onto P_r in the edge parameter, then nodal values
    powers = s_dense[None, :] ** np.arange(r + 1)[:, None]          # (r+1, nq)
    moments = vn @ (w_dense * powers).T
    gram = 1.0 / (np.arange(r + 1)[:, None] + np.arange(r + 1)[None, :] + 1.0)
    trace_coeff = np.linalg.solve(gram, moments.T).T                 # (ne, r+1)
    nodal = trace_coeff @ (space.element.edge_points[None, :] ** np.arange(r + 1)[:, None])
    coeffs[:mesh.num_edges * npe] = nodal.reshape(-1)

    ni = space.element.n_interior_dofs
    if ni:
        qp, qw = el.triangle_rule(min(space.quad_degree + 4, 12))
        points = space._physical_points(qp)
        v = np.asarray(fn(points.reshape(-1, 2))).reshape(mesh.num_cells, -1, 1)
        coeffs[mesh.num_edges * npe:] = (space._interior_tests(qp, qw) @ v).reshape(-1)
    return coeffs


def project_scalar_field(space: FunctionSpace, fn) -> np.ndarray:
    """Cell-local L2 projection onto the modal basis: the physical moments
    divided by the diagonal mass (``mass_diagonal``)."""
    if space.family != "DGP":
        raise ValueError("scalar projection requires a DGP space")
    qp, qw = el.triangle_rule(min(space.quad_degree + 4, 12))
    points = space._physical_points(qp)
    f = np.asarray(fn(points.reshape(-1, 2))).reshape(points.shape[:2])
    moments = space.cell_det[:, None] * ((f * qw) @ space.element.tabulate(qp))
    return moments.reshape(-1) / space.mass_diagonal


def remove_mean(space: FunctionSpace, coeffs: np.ndarray) -> np.ndarray:
    """Shift the constant mode so the field integrates to zero over the domain,
    row by row along the last axis; only mode 0, the constant 1, integrates to
    nonzero on a cell, so this needs no quadrature."""
    out = np.array(coeffs, dtype=float, copy=True)
    areas, constant = space.mass_diagonal[::space.element.dim], out[..., ::space.element.dim]
    constant -= (constant @ areas / areas.sum())[..., None]
    return out


def remove_constant_load(space: FunctionSpace, load: np.ndarray) -> np.ndarray:
    """The dual of ``remove_mean``: ``load`` less the multiple of the load of
    the constant 1 (the cell areas on mode 0) that makes its action on the
    constant 1 zero, row by row along the last axis."""
    out = np.array(load, dtype=float, copy=True)
    areas, constant = space.mass_diagonal[::space.element.dim], out[..., ::space.element.dim]
    constant -= np.multiply.outer(constant.sum(axis=-1) / areas.sum(), areas)
    return out
