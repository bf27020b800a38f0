"""Spatial operators: interior-penalty elasticity, divergence couplings,
weighted mass matrices, and load vectors.

All matrices are assembled over the full DOF sets in CSR form with sorted,
duplicate-free columns; boundary constraints are applied by the callers via
free-DOF restriction.  Facet sums run over every edge, boundary edges using
the one-sided average/jump so tangential Dirichlet data is enforced weakly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .spaces import FunctionSpace

__all__ = ["PhysicalParams", "FieldSource", "assemble_mass",
           "assemble_div_coupling", "assemble_elasticity", "assemble_elasticity_rhs",
           "assemble_load"]


def _spd_2x2(k: np.ndarray) -> bool:
    return (np.isfinite(k).all()
            and abs(k[0, 1] - k[1, 0]) <= 1e-14 * max(1.0, abs(k).max())
            and np.linalg.eigvalsh(0.5 * (k + k.T)).min() > 0.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Model coefficients; defaults give a well-posed unit-scale configuration."""

    rho_s: float = 2.0
    rho_f: float = 1.0
    phi0: float = 0.5
    rho_w: float = 2.0
    alpha: float = 1.0
    s0: float = 1.0
    lam: float = 1.0
    mu: float = 1.0
    kappa: np.ndarray = dc_field(default_factory=lambda: np.eye(2))
    eta: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "kappa", np.asarray(self.kappa, dtype=float))
        if not (0.0 < self.rho_s < np.inf and 0.0 <= self.rho_f < np.inf):
            raise ValueError("densities must be positive and finite (rho_f = 0 is "
                             "the two-field limit and is allowed)")
        if not 0.0 < self.phi0 < 1.0:
            raise ValueError("phi0 must lie in (0, 1)")
        if not (self.rho_f / self.phi0 <= self.rho_w < np.inf and self.rho_w > 0):
            raise ValueError("rho_w must be finite and satisfy rho_w >= rho_f / phi0 "
                             "and rho_w > 0")
        if not self.phi0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [phi0, 1]")
        if not all(0.0 < v < np.inf for v in (self.s0, self.lam, self.mu)):
            raise ValueError("s0, lambda, mu must be positive and finite")
        if self.kappa.shape != (2, 2) or not _spd_2x2(self.kappa):
            raise ValueError("permeability must be a symmetric positive definite 2x2 tensor")
        if not 0.0 < self.eta < np.inf:
            raise ValueError("penalty parameter eta must be positive and finite")
        if self.rho_bar * self.rho_w - self.rho_f ** 2 <= 0:
            raise ValueError("density block is not positive definite")

    @property
    def rho_bar(self) -> float:
        return (1.0 - self.phi0) * self.rho_s + self.phi0 * self.rho_f

    @property
    def kappa_inv(self) -> np.ndarray:
        return np.linalg.inv(self.kappa)


# --- sources -----------------------------------------------------------------

def _profile_values(space: FunctionSpace, profile) -> np.ndarray:
    if not isinstance(profile, np.ndarray):
        return np.asarray(profile(space.volume.points))
    if profile.shape != (space.ndofs,):
        raise ValueError("coefficient profile does not belong to the target space")
    return space.values_on_quadrature(profile)


class FieldSource:
    """Source given as a sum of (time factor, profile) terms.

    A profile is a function of points (..., 2), or the coefficient vector of a
    field in the target space (exact for the slab systems, which integrate
    against that space).  Each profile's load vector against the target space
    is integrated once; each time only rescales and sums them.
    """

    def __init__(self, terms):
        self.terms = list(terms)
        self._space = None
        self._loads: list[np.ndarray] = []

    def term_loads(self, space: FunctionSpace) -> list[np.ndarray]:
        if space is not self._space:
            self._loads = [_integrate(space, _profile_values(space, profile))
                           for _, profile in self.terms]
            self._space = space
        return self._loads


# --- matrix assembly -----------------------------------------------------------

def _scatter(space_rows: FunctionSpace, space_cols: FunctionSpace,
             element_matrices: np.ndarray) -> sp.csr_matrix:
    nd_r = element_matrices.shape[1]
    nd_c = element_matrices.shape[2]
    rows = np.repeat(space_rows.cell_dofs, nd_c, axis=1).ravel()
    cols = np.tile(space_cols.cell_dofs, (1, nd_r)).ravel()
    mat = sp.coo_matrix((element_matrices.ravel(), (rows, cols)),
                        shape=(space_rows.ndofs, space_cols.ndofs)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def assemble_mass(space: FunctionSpace, weight) -> sp.csr_matrix:
    """Weighted L2 mass matrix; weight is a positive scalar or an SPD tensor."""
    tab = space.volume
    if np.isscalar(weight):
        if weight <= 0:
            raise ValueError("mass weight must be positive")
        if space.family == "DGP":
            local = weight * np.einsum("cq,cqi,cqj->cij", tab.weights, tab.values, tab.values)
        else:
            local = weight * np.einsum("cq,cqia,cqja->cij", tab.weights, tab.values, tab.values)
    else:
        w = np.asarray(weight, dtype=float)
        if w.shape != (2, 2) or not _spd_2x2(w):
            raise ValueError("tensor mass weight must be symmetric positive definite")
        if space.family != "BDM":
            raise ValueError("tensor weights require a vector space")
        local = np.einsum("cq,cqia,ab,cqjb->cij", tab.weights, tab.values, w, tab.values)
    return _scatter(space, space, local)


def assemble_div_coupling(space_from: FunctionSpace, space_p: FunctionSpace,
                          coefficient: float) -> sp.csr_matrix:
    """B[i, j] = coefficient * (p_j, div v_i)."""
    tv, tp = space_from.volume, space_p.volume
    local = coefficient * np.einsum("cq,cqi,cqj->cij", tv.weights, tv.divs, tp.values)
    return _scatter(space_from, space_p, local)


def _tang(values: np.ndarray, normals: np.ndarray) -> np.ndarray:
    vn = np.einsum("eqia,ea->eqi", values, normals)
    return values - vn[..., None] * normals[:, None, None, :]


def assemble_elasticity(space: FunctionSpace, mu: float, lam: float,
                        eta: float) -> sp.csr_matrix:
    """Interior-penalty form: cell strain energy, symmetric consistency terms
    on the tangential jumps, the h_e^{-1} penalty, and the divergence term."""
    if eta <= 0:
        raise ValueError("penalty parameter eta must be positive")
    tab = space.volume
    eps = 0.5 * (tab.grads + np.swapaxes(tab.grads, -1, -2))
    local = (2.0 * mu * np.einsum("cq,cqiab,cqjab->cij", tab.weights, eps, eps)
             + lam * np.einsum("cq,cqi,cqj->cij", tab.weights, tab.divs, tab.divs))
    mat = _scatter(space, space, local)

    mesh = space.mesh
    tr = space.edge_traces
    interior = tr.interior
    boundary = np.flatnonzero(mesh.boundary_edge)
    nd = space.element.dim

    def edge_matrix(edge_ids, avg_eps_n, jump_tang, union_dofs):
        h = mesh.h_edge[edge_ids]
        wq = h[:, None] * tr.s_weights[None, :]
        cons = np.einsum("eq,eqia,eqja->eij", wq, avg_eps_n, jump_tang)
        pen = np.einsum("e,eq,eqia,eqja->eij", 1.0 / h, wq, jump_tang, jump_tang)
        local_e = -2.0 * mu * (cons + np.swapaxes(cons, 1, 2)) + 2.0 * mu * eta * pen
        nu = union_dofs.shape[1]
        rows = np.repeat(union_dofs, nu, axis=1).ravel()
        cols = np.tile(union_dofs, (1, nu)).ravel()
        return sp.coo_matrix((local_e.ravel(), (rows, cols)),
                             shape=(space.ndofs, space.ndofs)).tocsr()

    if interior.size:
        c0 = mesh.edge_cells[interior, 0]
        c1 = mesh.edge_cells[interior, 1]
        n = tr.normals[interior]
        nd_union = 2 * nd
        avg = np.zeros(tr.values0[interior].shape[:2] + (nd_union, 2))
        jump = np.zeros_like(avg)
        avg[:, :, :nd, :] = 0.5 * np.einsum("eqiab,eb->eqia", tr.strains0[interior], n)
        avg[:, :, nd:, :] = 0.5 * np.einsum("eqiab,eb->eqia", tr.strains1, n)
        jump[:, :, :nd, :] = _tang(tr.values0[interior], n)
        jump[:, :, nd:, :] = -_tang(tr.values1, n)
        union = np.concatenate([space.cell_dofs[c0], space.cell_dofs[c1]], axis=1)
        mat = mat + edge_matrix(interior, avg, jump, union)

    if boundary.size:
        c0 = mesh.edge_cells[boundary, 0]
        n = tr.normals[boundary]
        avg = np.einsum("eqiab,eb->eqia", tr.strains0[boundary], n)
        jump = _tang(tr.values0[boundary], n)
        mat = mat + edge_matrix(boundary, avg, jump, space.cell_dofs[c0])

    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def assemble_elasticity_rhs(space: FunctionSpace, value_fn, grad_fn, mu: float,
                            lam: float, eta: float) -> np.ndarray:
    """Action of the interior-penalty form on a smooth field given by closures.

    value_fn/grad_fn map (n, 2) points to values (n, 2) / gradients (n, 2, 2);
    interior tangential jumps of the smooth field vanish, boundary edges keep
    the one-sided terms so non-homogeneous tangential traces are respected.
    """
    tab = space.volume
    eps = 0.5 * (tab.grads + np.swapaxes(tab.grads, -1, -2))
    g = np.asarray(grad_fn(tab.points.reshape(-1, 2))).reshape(tab.points.shape[:2] + (2, 2))
    eps_y = 0.5 * (g + np.swapaxes(g, -1, -2))
    div_y = np.trace(g, axis1=-2, axis2=-1)
    local = (2.0 * mu * np.einsum("cq,cqab,cqiab->ci", tab.weights, eps_y, eps)
             + lam * np.einsum("cq,cq,cqi->ci", tab.weights, div_y, tab.divs))
    rhs = np.zeros(space.ndofs)
    np.add.at(rhs, space.cell_dofs, local)

    mesh = space.mesh
    tr = space.edge_traces

    def exact_on(edge_ids):
        pts = tr.points[edge_ids]
        y = np.asarray(value_fn(pts.reshape(-1, 2))).reshape(pts.shape)
        gy = np.asarray(grad_fn(pts.reshape(-1, 2))).reshape(pts.shape[:2] + (2, 2))
        return y, 0.5 * (gy + np.swapaxes(gy, -1, -2))

    interior = tr.interior
    boundary = np.flatnonzero(mesh.boundary_edge)

    if interior.size:
        n = tr.normals[interior]
        _, eps_ex = exact_on(interior)
        avg_y = np.einsum("eqab,eb->eqa", eps_ex, n)       # single-valued for smooth y
        wq = mesh.h_edge[interior][:, None] * tr.s_weights[None, :]
        for cells, vals, sign in ((mesh.edge_cells[interior, 0], tr.values0[interior], 1.0),
                                  (mesh.edge_cells[interior, 1], tr.values1, -1.0)):
            jump_i = sign * _tang(vals, n)
            contrib = -2.0 * mu * np.einsum("eq,eqa,eqia->ei", wq, avg_y, jump_i)
            np.add.at(rhs, space.cell_dofs[cells], contrib)

    if boundary.size:
        c0 = mesh.edge_cells[boundary, 0]
        n = tr.normals[boundary]
        y, eps_ex = exact_on(boundary)
        avg_y = np.einsum("eqab,eb->eqa", eps_ex, n)
        yn = np.einsum("eqa,ea->eq", y, n)
        tang_y = y - yn[..., None] * n[:, None, :]
        avg_i = np.einsum("eqiab,eb->eqia", tr.strains0[boundary], n)
        jump_i = _tang(tr.values0[boundary], n)
        h = mesh.h_edge[boundary]
        wq = h[:, None] * tr.s_weights[None, :]
        contrib = (-2.0 * mu * np.einsum("eq,eqa,eqia->ei", wq, avg_y, jump_i)
                   - 2.0 * mu * np.einsum("eq,eqia,eqa->ei", wq, avg_i, tang_y)
                   + 2.0 * mu * eta * np.einsum("e,eq,eqa,eqia->ei", 1.0 / h, wq,
                                                tang_y, jump_i))
        np.add.at(rhs, space.cell_dofs[c0], contrib)
    return rhs


def _integrate(space: FunctionSpace, values: np.ndarray) -> np.ndarray:
    """Load vector of a field given by its values at the volume quadrature points."""
    tab = space.volume
    if space.family == "DGP":
        local = np.einsum("cq,cq,cqi->ci", tab.weights, values, tab.values)
    else:
        local = np.einsum("cq,cqa,cqia->ci", tab.weights, values, tab.values)
    rhs = np.zeros(space.ndofs)
    np.add.at(rhs, space.cell_dofs, local)
    return rhs


def assemble_load(space: FunctionSpace, source: FieldSource,
                  t: float | np.ndarray) -> np.ndarray:
    """Right-hand side vector of a source at time t: the sum of each term's
    cached load vector times its time factor.  At a 1-D array of times, one
    row per time, (len(t), ndofs)."""
    rhs = np.zeros(np.shape(t) + (space.ndofs,))
    for (factor, _), load in zip(source.terms, source.term_loads(space)):
        rhs += np.multiply.outer(factor(t), load)
    return rhs
