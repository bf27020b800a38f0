"""Spatial operators: interior-penalty elasticity, divergence couplings,
weighted mass matrices, and load vectors.

All matrices are assembled over the full DOF sets in CSR form with sorted,
duplicate-free columns; boundary constraints are applied by the callers via
free-DOF restriction.  Facet sums run over every edge, boundary edges using
the one-sided average/jump so tangential Dirichlet data is enforced weakly.
Every cell and edge integral is one batched matmul over the flattened
(component, point) axis of the tabulated data (``_gram``, ``_moments``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .spaces import FunctionSpace

__all__ = ["PhysicalParams", "FieldSource", "assemble_mass", "assemble_gram",
           "assemble_rows", "assemble_broken_h1", "assemble_div_coupling", "assemble_elasticity",
           "assemble_elasticity_rhs", "assemble_load"]


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


# --- contractions and matrix assembly ------------------------------------------

def _flat(table: np.ndarray) -> np.ndarray:
    """(n, nq, nd, *comp) -> (n, comp x nq, nd): the components and points
    flattened into one contraction axis, the basis index last.  The tables of
    ``FunctionSpace._piola`` keep the basis index innermost in memory and the
    point index next, so for their values this is a view, not a copy."""
    t = table.transpose(0, *range(3, table.ndim), 1, 2)
    return t.reshape(len(t), -1, t.shape[-1])


def _gram(weights: np.ndarray, left: np.ndarray,
          right: np.ndarray | None = None) -> np.ndarray:
    """Sum_q w[c,q] left[c,q,i,...] . right[c,q,j,...] per cell or edge, (n, i, j).

    ``left`` and ``right`` are (n, nq, nd, *comp) tables, ``right`` defaults to
    ``left``; the sum over points and components is one batched matmul over
    the ``_flat`` axis.
    """
    weighted = left * weights.reshape(weights.shape + (1,) * (left.ndim - 2))
    return np.swapaxes(_flat(weighted), 1, 2) @ _flat(left if right is None else right)


def _moments(weights: np.ndarray, field: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Sum_q w[c,q] field[c,q,...] . basis[c,q,i,...] per cell or edge, (n, i):
    ``_gram`` of a field (n, nq, *comp) taken as a one-function table."""
    return _gram(weights, field[:, :, None], basis)[:, 0]


def _scatter(shape: tuple[int, int], *blocks) -> sp.csr_matrix:
    """Sum of local matrices as one CSR matrix; each block is a triple (row
    dofs (n, r), column dofs (n, c), local matrices (n, r, c))."""
    rows = np.concatenate([np.broadcast_to(r[:, :, None], a.shape).ravel()
                           for r, _, a in blocks])
    cols = np.concatenate([np.broadcast_to(c[:, None, :], a.shape).ravel()
                           for _, c, a in blocks])
    vals = np.concatenate([a.ravel() for *_, a in blocks])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _scatter_vector(ndofs: int, *blocks) -> np.ndarray:
    """Sum of local vectors; each block is (dofs (n, r), local vectors (n, r))."""
    out = np.zeros(ndofs)
    for dofs, local in blocks:
        np.add.at(out, dofs, local)
    return out


def assemble_mass(space: FunctionSpace, weight) -> sp.csr_matrix:
    """Weighted L2 mass matrix; weight is a positive scalar or an SPD tensor."""
    tab = space.volume
    if np.isscalar(weight):
        if weight <= 0:
            raise ValueError("mass weight must be positive")
        return assemble_gram(space, weight * tab.weights, tab.values)
    w = np.asarray(weight, dtype=float)
    if w.shape != (2, 2) or not _spd_2x2(w):
        raise ValueError("tensor mass weight must be symmetric positive definite")
    if space.family != "BDM":
        raise ValueError("tensor weights require a vector space")
    return assemble_gram(space, tab.weights, tab.values, tab.values @ w.T)


def assemble_gram(space: FunctionSpace, weights: np.ndarray, left: np.ndarray,
                  right: np.ndarray | None = None) -> sp.csr_matrix:
    """Sum over the cells of the local ``_gram(weights, left, right)`` of
    volume tables of ``space`` (values, gradients, divergences, second
    derivatives)."""
    return _scatter((space.ndofs, space.ndofs),
                    (space.cell_dofs, space.cell_dofs, _gram(weights, left, right)))


def assemble_rows(space: FunctionSpace, weights: np.ndarray, table: np.ndarray) -> sp.csr_matrix:
    """Volume table of ``space`` as a matrix B scaled by sqrt(weights), so
    ||B c||^2, the weighted integral of the tabulated field squared, is a sum
    of squares, with a row per cell, component and point."""
    rows = _flat(table * np.sqrt(weights).reshape(weights.shape + (1,) * (table.ndim - 2)))
    index = np.arange(rows.shape[0] * rows.shape[1]).reshape(rows.shape[:2])
    return _scatter((index.size, space.ndofs), (index, space.cell_dofs, rows))


def assemble_broken_h1(space: FunctionSpace) -> sp.csr_matrix:
    """Gram matrix of the broken H1 seminorm plus the h_e^{-1}-weighted
    tangential jumps over every edge: an interior edge over the union of its
    two cells' DOFs, a boundary edge one-sided.  The h_e of ds and the
    h_e^{-1} weight cancel, so each edge is weighted by the reference rule."""
    tab, tr, mesh = space.volume, space.edge_traces, space.mesh
    tangents = (tr.normals @ np.array([[0.0, 1.0], [-1.0, 0.0]]))[:, None, :, None]
    tang0 = tr.values0 @ tangents                               # (edges, nq, nd, 1)
    interior, boundary = tr.interior, np.flatnonzero(mesh.boundary_edge)
    union = space.cell_dofs[mesh.edge_cells[interior]].reshape(interior.size, -1)
    jump = np.concatenate([tang0[interior], -(tr.values1 @ tangents[interior])], axis=2)
    one_sided = space.cell_dofs[mesh.edge_cells[boundary, 0]]
    edge_weights = tr.s_weights[None, :]                        # the same on every edge
    return _scatter((space.ndofs, space.ndofs),
                    (space.cell_dofs, space.cell_dofs, _gram(tab.weights, tab.grads)),
                    (union, union, _gram(edge_weights, jump)),
                    (one_sided, one_sided, _gram(edge_weights, tang0[boundary])))


def assemble_div_coupling(space_from: FunctionSpace, space_p: FunctionSpace,
                          coefficient: float) -> sp.csr_matrix:
    """B[i, j] = coefficient * (p_j, div v_i)."""
    tv, tp = space_from.volume, space_p.volume
    local = coefficient * _gram(tv.weights, tv.divs, tp.values)
    return _scatter((space_from.ndofs, space_p.ndofs),
                    (space_from.cell_dofs, space_p.cell_dofs, local))


def _tang(values: np.ndarray, normals: np.ndarray) -> np.ndarray:
    vn = np.einsum("eqia,ea->eqi", values, normals)
    return values - vn[..., None] * normals[:, None, None, :]


def _normal_part(strains: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """eps n at edge points: strains (e, nq, [nd,] 2, 2), normals (e, 2)."""
    n = normals.reshape(normals.shape[:1] + (1,) * (strains.ndim - 3) + (2, 1))
    return (strains @ n)[..., 0]


def assemble_elasticity(space: FunctionSpace, mu: float, lam: float,
                        eta: float) -> sp.csr_matrix:
    """Interior-penalty form: cell strain energy, symmetric consistency terms
    on the tangential jumps, the h_e^{-1} penalty, and the divergence term."""
    if eta <= 0:
        raise ValueError("penalty parameter eta must be positive")
    tab = space.volume
    eps = 0.5 * (tab.grads + np.swapaxes(tab.grads, -1, -2))
    blocks = [(space.cell_dofs, space.cell_dofs,
               2.0 * mu * _gram(tab.weights, eps) + lam * _gram(tab.weights, tab.divs))]

    mesh = space.mesh
    tr = space.edge_traces

    def edge_block(edge_ids, avg_eps_n, jump_tang, union_dofs):
        h = mesh.h_edge[edge_ids]
        wq = h[:, None] * tr.s_weights[None, :]
        cons = _gram(wq, avg_eps_n, jump_tang)
        pen = _gram(wq / h[:, None], jump_tang)
        return (union_dofs, union_dofs,
                -2.0 * mu * (cons + np.swapaxes(cons, 1, 2)) + 2.0 * mu * eta * pen)

    interior = tr.interior
    if interior.size:
        n = tr.normals[interior]
        avg = 0.5 * np.concatenate([_normal_part(tr.strains0[interior], n),
                                    _normal_part(tr.strains1, n)], axis=2)
        jump = np.concatenate([_tang(tr.values0[interior], n), -_tang(tr.values1, n)],
                              axis=2)
        cells = mesh.edge_cells[interior]
        union = np.concatenate([space.cell_dofs[cells[:, 0]], space.cell_dofs[cells[:, 1]]],
                               axis=1)
        blocks.append(edge_block(interior, avg, jump, union))

    boundary = np.flatnonzero(mesh.boundary_edge)
    if boundary.size:
        n = tr.normals[boundary]
        blocks.append(edge_block(boundary, _normal_part(tr.strains0[boundary], n),
                                 _tang(tr.values0[boundary], n),
                                 space.cell_dofs[mesh.edge_cells[boundary, 0]]))
    return _scatter((space.ndofs, space.ndofs), *blocks)


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
    blocks = [(space.cell_dofs, 2.0 * mu * _moments(tab.weights, eps_y, eps)
               + lam * _moments(tab.weights, div_y, tab.divs))]

    mesh = space.mesh
    tr = space.edge_traces

    def exact_on(edge_ids):
        pts = tr.points[edge_ids]
        y = np.asarray(value_fn(pts.reshape(-1, 2))).reshape(pts.shape)
        gy = np.asarray(grad_fn(pts.reshape(-1, 2))).reshape(pts.shape[:2] + (2, 2))
        return y, 0.5 * (gy + np.swapaxes(gy, -1, -2))

    interior = tr.interior
    if interior.size:
        n = tr.normals[interior]
        _, eps_ex = exact_on(interior)
        avg_y = _normal_part(eps_ex, n)                    # single-valued for smooth y
        wq = mesh.h_edge[interior][:, None] * tr.s_weights[None, :]
        for cells, vals, sign in ((mesh.edge_cells[interior, 0], tr.values0[interior], -1.0),
                                  (mesh.edge_cells[interior, 1], tr.values1, 1.0)):
            blocks.append((space.cell_dofs[cells],
                           sign * 2.0 * mu * _moments(wq, avg_y, _tang(vals, n))))

    boundary = np.flatnonzero(mesh.boundary_edge)
    if boundary.size:
        n = tr.normals[boundary]
        y, eps_ex = exact_on(boundary)
        yn = np.einsum("eqa,ea->eq", y, n)
        tang_y = y - yn[..., None] * n[:, None, :]
        h = mesh.h_edge[boundary]
        wq = h[:, None] * tr.s_weights[None, :]
        jump_i = _tang(tr.values0[boundary], n)
        avg_i = _normal_part(tr.strains0[boundary], n)
        flux = -2.0 * mu * (_normal_part(eps_ex, n) - eta / h[:, None, None] * tang_y)
        blocks.append((space.cell_dofs[mesh.edge_cells[boundary, 0]],
                       _moments(wq, flux, jump_i) - 2.0 * mu * _moments(wq, tang_y, avg_i)))
    return _scatter_vector(space.ndofs, *blocks)


def _integrate(space: FunctionSpace, values: np.ndarray) -> np.ndarray:
    """Load vector of a field given by its values at the volume quadrature points."""
    tab = space.volume
    return _scatter_vector(space.ndofs,
                           (space.cell_dofs, _moments(tab.weights, values, tab.values)))


def assemble_load(space: FunctionSpace, source: FieldSource, t: float | np.ndarray,
                  out: np.ndarray | None = None, dofs=slice(None)) -> np.ndarray:
    """Right-hand side vector of a source at time t: the sum of each term's
    cached load vector times its time factor.  At a 1-D array of times, one
    row per time, (len(t), ndofs).  Given ``out``, the load's ``dofs``
    columns are added into it term by term, with no full-DOF temporary."""
    if out is None:
        out = np.zeros(np.shape(t) + (space.ndofs,))
    for (factor, _), load in zip(source.terms, source.term_loads(space)):
        out += np.multiply.outer(factor(t), load[dofs])
    return out
