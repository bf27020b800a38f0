"""cGP(k) time marching for the three-field dynamic poroelastic system.

Per slab the trial functions are degree-k polynomials pinned to the incoming
state at the left end (nodal G0 basis: left end + k Gauss nodes); tests are
degree k-1 (Gauss-node Lagrange basis).  Eliminating the known left-end block
leaves k coupled spatial systems.  Because the temporal product integrals are
evaluated exactly by the k-point Gauss rule, the scheme is equivalent to
collocation at the Gauss points, which is what yields pointwise mass
conservation there.

The same equivalence gives the coupled matrix the Kronecker form
(W ⊗ I)(D ⊗ T + tau I ⊗ S), with W the Gauss weights, so diagonalizing the
k×k matrix D splits it into ceil(k/2) independent spatial systems
lam T + tau S (Butcher 1976), one per real eigenvalue or conjugate pair.
Those are factorized once per slab length and reused while marching; the
solve refines against the coupled matrix, which absorbs the conditioning of
the eigenvector transform.  That matrix is never assembled:
the refinement and the residual contract apply it through its Kronecker
factors on the (k, block) view of the stage unknowns (``SlabMatrix``).  T
and S are held once, stacked as [T; S], so one sparse product per node
gives both: a slab costs one stage solve and 2k+1 sparse products, k in
each of its two matvecs and one of T in its right-hand side.

The trial space is continuous and piecewise polynomial, so a finished slab's
degree-k polynomial, extrapolated to the next slab's Gauss nodes, predicts
that slab's stage values to O(tau^(k+1)) (the starting values of implicit
Runge-Kutta methods, Hairer & Wanner, Solving ODEs II, IV.8).  Every slab
after the first starts its solve from that prediction and takes one
refinement step from it in place of the elimination of its right-hand side:
one stage solve per slab, not two.  The start is dropped where the rounding
of a stage LU, eps over its smallest pivot-to-column ratio
(``GaussStages.pivot_ratio``), exceeds the residual contract: one step with
so inexact an inverse leaves the v, w and p rows of a stiff slab far off
although the lambda-dominated global residual passes.

The pressure space is L2_0, and with s0 > 0 the slab system is nonsingular
on the whole modal pressure space, whose constant mode the scheme leaves
alone: div of a zero-normal BDM field integrates to zero, so only the
storage term s0 (p, 1)' and the source's load of the constant 1 act on the
mean.  The source's load is removed from every right-hand side, and the
mean the solve leaves by rounding (up to 2e-2 of the pressure at
s0 = 1e-16) is removed from every solution (``SlabOperators.solve``).

The source enters each slab through its Gauss-Lobatto interpolant in time,
and its loads do not depend on the solution.  So the march evaluates them for
a chunk of up to ``_CHUNK`` slabs at once, at all those slabs' Gauss-Lobatto
times, and ``SlabOperators.rhs`` only combines one slab's rows with its
left-end state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from . import assembly as asm
from .linalg import (RESIDUAL_TOL, BorderedFactor, LinearSystem, lu_factor, lu_solve,
                     pivot_ratios, serial_blas)
from .mesh import Mesh, write_vtk_edges, write_vtk_mesh
from .spaces import build_space, interpolate_vector_field, project_scalar_field, remove_mean
from .time_basis import gauss_rule, gauss_lobatto_rule, lagrange_basis

__all__ = ["TimeGrid", "SlabState", "SourceSet", "Discretization", "SlabOperators",
           "Trajectory", "project_initial_data", "march", "export_snapshots"]

FIELDS = ("u", "v", "w", "p")


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant slabs covering [0, T]."""

    total_time: float
    num_slabs: int

    def __post_init__(self):
        if not 0.0 < self.total_time < np.inf:
            raise ValueError("final time must be positive and finite")
        if self.num_slabs < 1:
            raise ValueError("need at least one slab")

    @property
    def tau(self) -> float:
        return self.total_time / self.num_slabs

    @cached_property
    def endpoints(self) -> np.ndarray:
        """Slab end times, computed once per grid and read-only (shared)."""
        ends = np.linspace(0.0, self.total_time, self.num_slabs + 1)
        ends.flags.writeable = False
        return ends


@dataclass
class SlabState:
    """Full-DOF coefficient vectors of the four fields at one time point."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    p: np.ndarray

    @classmethod
    def zeros(cls, disc: "Discretization") -> "SlabState":
        n, m = disc.bdm.ndofs, disc.dgp.ndofs
        return cls(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(m))


@dataclass
class SourceSet:
    """Momentum source f, Darcy source g, and the mass-balance source used
    only by manufactured-solution runs (the physical model has zero).  A
    source left out is the empty sum, which loads nothing."""

    f: asm.FieldSource = field(default_factory=partial(asm.FieldSource, ()))
    g: asm.FieldSource = field(default_factory=partial(asm.FieldSource, ()))
    mass: asm.FieldSource = field(default_factory=partial(asm.FieldSource, ()))


class Discretization:
    """Meshed spaces and assembled spatial operators for one parameter set.

    ``vector_degree`` defaults to ell+1 (the conservative pairing); passing a
    different value deliberately breaks div-compatibility, which the
    mass-conservation negative control exploits.
    """

    def __init__(self, mesh: Mesh, ell: int, params: asm.PhysicalParams,
                 vector_degree: int | None = None):
        self.mesh = mesh
        self.ell = ell
        self.params = params
        degree = ell + 1 if vector_degree is None else vector_degree
        quad_degree = 2 * (max(degree - 1, ell) + 2)
        self.bdm = build_space(mesh, "BDM", degree, bc="zero_normal",
                               quad_degree=quad_degree)
        self.dgp = build_space(mesh, "DGP", ell, bc=None, quad_degree=quad_degree)

    @cached_property
    def mass_bdm(self) -> sp.csr_matrix:
        return asm.assemble_mass(self.bdm, 1.0)

    @cached_property
    def elasticity(self) -> sp.csr_matrix:
        p = self.params
        return asm.assemble_elasticity(self.bdm, p.mu, p.lam, p.eta)

    @cached_property
    def mass_kinv(self) -> sp.csr_matrix:
        return asm.assemble_mass(self.bdm, self.params.kappa_inv)

    @cached_property
    def div_w(self) -> sp.csr_matrix:
        """(p_j, div w_i) with unit coefficient."""
        return asm.assemble_div_coupling(self.bdm, self.dgp, 1.0)

    @cached_property
    def div_u_alpha(self) -> sp.csr_matrix:
        return asm.assemble_div_coupling(self.bdm, self.dgp, self.params.alpha)

    @cached_property
    def mass_p(self) -> sp.csr_matrix:
        return asm.assemble_mass(self.dgp, 1.0)

    # Gram matrices of the displacement error norms, for errors that are
    # coefficient vectors (``verification.field_error_norms`` with no exact
    # field); the slab systems use none of them.
    @cached_property
    def gram_broken_h1(self) -> sp.csr_matrix:
        """Broken H1 seminorm plus the h_e^{-1}-weighted tangential jumps."""
        return asm.assemble_broken_h1(self.bdm)

    @cached_property
    def gram_div(self) -> sp.csr_matrix:
        """L2 norm of the divergence, computed in the BDM space itself; the
        pressure-space ``div_coefficients`` are exact only for a
        div-compatible pairing."""
        tab = self.bdm.volume
        return asm.assemble_gram(self.bdm, tab.weights, tab.divs)

    @cached_property
    def gram_h2(self) -> sp.csr_matrix:
        """h_K^2-weighted broken H2 seminorm; BDM degree >= 2 only (BDM_1 has
        no second derivatives)."""
        weights = self.mesh.h_cell[:, None] ** 2 * self.bdm.volume.weights
        return asm.assemble_gram(self.bdm, weights, self.bdm.volume_seconds)

    @cached_property
    def p_volume(self) -> np.ndarray:
        """Load vector of the constant 1 against the pressure basis."""
        return asm.assemble_load(self.dgp, asm.FieldSource(
            [(lambda t: 1.0, lambda x: np.ones(x.shape[:-1]))]), 0.0)

    @cached_property
    def p_constant(self) -> np.ndarray:
        """Coefficients of the constant 1 in the modal pressure basis, whose
        first mode in each cell is the constant 1."""
        constant = np.zeros(self.dgp.ndofs)
        constant[0::self.dgp.element.dim] = 1.0
        return constant

    @cached_property
    def mass_p_diag(self) -> np.ndarray:
        diag = self.mass_p.diagonal()
        off = self.mass_p - sp.diags(diag)
        if abs(off).max() > 1e-12 * diag.max():
            raise AssertionError("modal pressure mass matrix is not diagonal")
        return diag

    @cached_property
    def slab_blocks(self) -> sp.csr_matrix:
        """[T; S], (2 block, block): the time-derivative block T over the
        stationary block S of the slab system T y' + S y = F on the free DOFs,
        unknowns and rows of each ordered (u, v, w, p).  It depends on neither
        the slab length nor the order, so every slab operator of this
        discretization shares it, and one product gives T x and S x."""
        p = self.params
        free = self.bdm.free
        af, mf, mkf = (m[np.ix_(free, free)]
                       for m in (self.elasticity, self.mass_bdm, self.mass_kinv))
        b1f, baf = self.div_w[free, :], self.div_u_alpha[free, :]
        t_block = sp.bmat([
            [None, p.rho_bar * mf, p.rho_f * mf, None],
            [mf, None, None, None],
            [None, p.rho_f * mf, p.rho_w * mf, None],
            [baf.T, None, None, p.s0 * self.mass_p]], format="csr")
        s_block = sp.bmat([
            [af, None, None, -baf],
            [None, -mf, None, None],
            [None, None, mkf, -b1f],
            [None, None, b1f.T, None]], format="csr")
        # one bmat of all eight block rows would hold the COO copies of both
        # blocks at once, a larger transient than this copy of the two
        return sp.vstack([t_block, s_block], format="csr")

    @cached_property
    def time_derivative_block(self) -> sp.csr_matrix:
        """T, the top rows of ``slab_blocks``, sharing its memory."""
        return _row_block(self.slab_blocks, 0)

    @cached_property
    def stationary_block(self) -> sp.csr_matrix:
        """S, the bottom rows of ``slab_blocks``, sharing its memory."""
        return _row_block(self.slab_blocks, 1)

    def div_coefficients(self, coeffs: np.ndarray, matrix: sp.csr_matrix | None = None) -> np.ndarray:
        """Coefficients of div(field) in the pressure space (exact when the
        pairing is div-compatible)."""
        mat = self.div_w if matrix is None else matrix
        return (mat.T @ coeffs) / self.mass_p_diag

    def pressure_load(self, source: asm.FieldSource, t: float | np.ndarray) -> np.ndarray:
        """Mass-balance load with its constant-mode component removed; at a
        1-D array of times, one row per time.

        The pressure test space is the zero-mean subspace, so the load of the
        constant 1 never acts; removing it here keeps quadrature-level mean
        defects of analytic sources out of the pressure mean.
        """
        return _remove_mode(asm.assemble_load(self.dgp, source, t), self.p_constant,
                            self.p_volume)


def _remove_mode(values: np.ndarray, measure: np.ndarray, mode: np.ndarray) -> np.ndarray:
    """``values`` less the multiple of ``mode`` that zeroes their pairing with
    ``measure``, row by row along the last axis.  With the pressure
    ``p_constant`` and ``p_volume``, measuring by the constant strips a load
    of its action on the constant 1, and measuring by ``p_volume`` strips a
    pressure of its mean."""
    scale = (values * measure).sum(axis=-1) / (mode * measure).sum()
    return values - np.multiply.outer(scale, mode)


def _row_block(blocks: sp.csr_matrix, index: int) -> sp.csr_matrix:
    """Square block ``index`` of the rows of a stacked CSR matrix, holding
    views of its data and indices (scipy's constructor and row slicing would
    copy them)."""
    n = blocks.shape[1]
    lo, hi = blocks.indptr[index * n], blocks.indptr[(index + 1) * n]
    block = sp.csr_matrix((n, n), dtype=blocks.dtype)
    block.data, block.indices = blocks.data[lo:hi], blocks.indices[lo:hi]
    block.indptr = blocks.indptr[index * n:(index + 1) * n + 1] - lo
    return block


class SlabMatrix:
    """The coupled slab matrix dt_weights ⊗ T + tau mass_weights ⊗ S, applied
    on the (k, block) view of the stage unknowns and never assembled.

    One product of the stacked block [T; S] per node gives T x_j and S x_j
    together, so a product costs k sparse products.  It holds only the
    Kronecker factors, not the slab operators that own it.
    """

    def __init__(self, dt_weights: np.ndarray, mass_weights: np.ndarray,
                 blocks: sp.csr_matrix, tau: float):
        self.dt_weights, self.mass_weights, self.blocks, self.tau = (
            dt_weights, mass_weights, blocks, tau)
        k, n = dt_weights.shape[0], blocks.shape[1]
        self.shape = (k * n, k * n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        nodes = x.reshape(len(self.dt_weights), -1)
        # T x_j, then S x_j, per node j; allocated per call, as a buffer held
        # for the march would add to its peak memory
        products = np.empty((2,) + nodes.shape)
        for j, xj in enumerate(nodes):
            products[:, j] = (self.blocks @ xj).reshape(2, -1)
        tx, sx = products
        return (self.dt_weights @ tx + self.tau * (self.mass_weights @ sx)).ravel()


class GaussStages:
    """Inverse of the coupled stage matrix A ⊗ T + tau B ⊗ S.

    For cGP(k), B = W is diagonal (the Gauss weights) and A = W D.  With
    D = B^-1 A = V diag(lam) V^-1 and x = (V ⊗ I) y, the system splits into
    (lam_j T + tau S) y_j = ((B V)^-1 ⊗ I) b.  D is real, so only the
    eigenvalues with Im lam >= 0 are factorized: a real one gives a real LU,
    and the stage of a conjugate partner is the conjugate of the solved one,
    so the pair enters x as twice the real part.  Built from a ``SlabMatrix``
    and holds no reference to it or to the slab operators that own its
    factor.  ``pivot_ratio`` is the smallest ``pivot_ratios`` entry of the
    stage matrices: eps over it estimates the relative rounding of a stage
    solve, and below sqrt(eps) ``lu_factor`` has raised a tiny pivot.
    """

    def __init__(self, matrix: SlabMatrix):
        dt_weights, mass_weights, tau = matrix.dt_weights, matrix.mass_weights, matrix.tau
        t_block, s_block = (_row_block(matrix.blocks, index) for index in (0, 1))
        # eig returns real arrays when every eigenvalue is real (k = 1), and
        # then the stage solve builds no complex array
        lam, vecs = np.linalg.eig(np.linalg.solve(mass_weights, dt_weights))
        keep = np.flatnonzero(lam.imag >= 0.0)
        self.real = lam.imag[keep] == 0.0
        self.to_stage = np.linalg.inv(mass_weights @ vecs)[keep]
        self.from_stage = vecs[:, keep] * np.where(self.real, 1.0, 2.0)
        stages = [sp.csc_matrix((lam[j].real if real else lam[j]) * t_block + tau * s_block)
                  for j, real in zip(keep, self.real)]
        self.pivot_ratio = min(pivot_ratios(stage).min() for stage in stages)
        self.lus = [lu_factor(stage) for stage in stages]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        stages = self.to_stage @ rhs.reshape(self.from_stage.shape[0], -1)
        solved = np.empty(stages.shape, dtype=stages.dtype)
        for y, lu, c, real in zip(solved, self.lus, stages, self.real):
            y[:] = lu.solve(c.real if real else c)
        return (self.from_stage @ solved).real.ravel()


# Slabs whose source loads are evaluated together.  The loads of a whole march
# in one stack raised the temporal study's peak RSS by 2.5 MB; per chunk, the
# per-call overhead of the load evaluation is paid once per ``_CHUNK`` slabs.
_CHUNK = 8


def chunks(total: int, size: int) -> list[slice]:
    """Consecutive slices of range(total), each at most ``size`` long."""
    return [slice(a, min(a + size, total)) for a in range(0, total, size)]


class SlabOperators:
    """Per-slab block system for fixed k and slab length tau."""

    def __init__(self, disc: Discretization, k: int, tau: float):
        if k < 1:
            raise ValueError("cGP order k must be >= 1")
        self.disc = disc
        self.k = k
        self.tau = float(tau)
        self.free = disc.bdm.free
        self.n_bdm = self.free.size
        self.n_p = disc.dgp.ndofs
        self.block_size = 3 * self.n_bdm + self.n_p

        g = gauss_rule(k)
        basis_g0 = lagrange_basis("G0", k)
        basis_gl = lagrange_basis("GL", k)
        # exact temporal weights (integrands of degree <= 2k-1)
        self.theta_dt = g.weights[:, None] * basis_g0.deriv_all(g.nodes)    # (k, k+1)
        self.theta_mass = g.weights[:, None] * basis_g0.eval_all(g.nodes)   # (k, k+1)
        self.theta_src = g.weights[:, None] * basis_gl.eval_all(g.nodes)    # (k, k+1)
        self.gl_nodes = gauss_lobatto_rule(k).nodes

        # neither the matrix nor its stage solver holds self, so no cycle
        # keeps the operators and their LUs alive
        self.inner_matrix = SlabMatrix(self.theta_dt[:, 1:], self.theta_mass[:, 1:],
                                       disc.slab_blocks, self.tau)
        self._factor = None

    def restrict_state(self, state: SlabState) -> np.ndarray:
        return np.concatenate([state.u[self.free], state.v[self.free],
                               state.w[self.free], state.p])

    def _load_stack(self, sources: SourceSet, times: np.ndarray) -> np.ndarray:
        """Free-DOF source blocks at each of the times, (len(times), block);
        the f and g loads are accumulated in their columns."""
        disc, n = self.disc, self.n_bdm
        out = np.zeros((len(times), self.block_size))
        asm.assemble_load(disc.bdm, sources.f, times, out[:, :n], self.free)
        asm.assemble_load(disc.bdm, sources.g, times, out[:, 2 * n:3 * n], self.free)
        out[:, 3 * n:] = disc.pressure_load(sources.mass, times)
        return out

    def rhs(self, x0: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """Right-hand side of the slab that starts from the free-DOF block
        ``x0``, given its source blocks at its Gauss-Lobatto times
        (``_load_stack`` rows, (k+1, block)): the k node loads, k * block."""
        nodes = (self.tau * self.theta_src) @ loads
        # the left-end value enters through the time derivative only: the G0
        # node-0 basis vanishes at every Gauss node, so theta_mass[:, 0] == 0
        nodes -= np.outer(self.theta_dt[:, 0], self.disc.time_derivative_block @ x0)
        return nodes.ravel()

    def solve(self, rhs: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
        """Stage values of one slab, k * block, each stage pressure of zero
        mean.  The action of ``rhs`` on each stage's constant pressure is
        removed before the solve and each stage pressure's mean after it
        (module doc).  ``start``, a prediction of the stage values, is used
        only where the stage LUs are exact to the residual contract: one
        refinement step from it then replaces the elimination of ``rhs``."""
        disc, p = self.disc, slice(3 * self.n_bdm, None)
        nodes = rhs.reshape(self.k, -1).copy()
        nodes[:, p] = _remove_mode(nodes[:, p], disc.p_constant, disc.p_volume)
        system = LinearSystem(self.inner_matrix, nodes.ravel())
        if self._factor is None:
            self._factor = BorderedFactor(system, GaussStages)
        if self._factor.inner.pivot_ratio * RESIDUAL_TOL < np.finfo(float).eps:
            start = None    # eps / pivot_ratio, the LU's rounding, misses the contract
        x = lu_solve(system, self._factor, start)
        stages = x.reshape(self.k, -1)
        stages[:, p] = _remove_mode(stages[:, p], disc.p_volume, disc.p_constant)
        return x


@dataclass
class Trajectory:
    """Globally continuous piecewise-polynomial solution in the G0 nodal basis.

    ``coeffs[field]`` has shape (N, k+1, ndofs); slab endpoints are shared
    storage: row [n, 0] of slab n+1 is the evaluated right end of slab n.
    """

    grid: TimeGrid
    k: int
    disc: Discretization
    coeffs: dict[str, np.ndarray]

    @cached_property
    def end_weights(self) -> np.ndarray:
        """G0 basis at the right end of a slab, (k+1,)."""
        return lagrange_basis("G0", self.k).eval_all(1.0)

    def endpoint(self, field_name: str, n: int) -> np.ndarray:
        """Field coefficients at t_n (n = 0..N).

        Interior endpoints return the stored node-0 row of the following slab,
        which is exactly the value the march evaluated at the right end of
        slab n (shared storage), so both adjacent slabs agree bitwise.
        """
        c = self.coeffs[field_name]
        if n == 0:
            return c[0, 0]
        if n < self.grid.num_slabs:
            return c[n, 0]
        return np.einsum("i,id->d", self.end_weights, c[n - 1])

    def state_at_endpoint(self, n: int) -> SlabState:
        return SlabState(*(self.endpoint(f, n) for f in FIELDS))


def project_initial_data(disc: Discretization, u0, v0, w0, p0) -> SlabState:
    """Interpolate the vector data, project the pressure, remove its mean.

    Boundary-normal DOFs are pinned to exact zeros afterwards (the data must
    be compatible with the strong zero-normal-trace constraint).
    """
    state = SlabState(
        interpolate_vector_field(disc.bdm, u0),
        interpolate_vector_field(disc.bdm, v0),
        interpolate_vector_field(disc.bdm, w0),
        remove_mean(disc.dgp, project_scalar_field(disc.dgp, p0)),
    )
    for vec in (state.u, state.v, state.w):
        vec[disc.bdm.constrained] = 0.0
    return state


def march(disc: Discretization, k: int, grid: TimeGrid, initial: SlabState,
          sources: SourceSet) -> Trajectory:
    """Slab-by-slab solve over the whole grid; continuity is exact by
    construction (each slab starts from the evaluated end of the previous).

    The march carries the free-DOF block of the left-end state, so the
    initial state's boundary-normal DOFs are stored as zero.  Every slab
    after the first starts its solve from the previous slab's polynomial
    extrapolated to its Gauss nodes (module doc).  The source loads, which
    do not depend on the solution, are evaluated for ``_CHUNK`` slabs at a
    time."""
    ops = SlabOperators(disc, k, grid.tau)
    bs, nb, npp, nf = ops.block_size, disc.bdm.ndofs, disc.dgp.ndofs, ops.n_bdm
    coeffs = {f: np.zeros((grid.num_slabs, k + 1, nb if f != "p" else npp))
              for f in FIELDS}
    traj = Trajectory(grid, k, disc, coeffs)
    # (a field's rows per slab, flattened; the positions of its DOFs in them;
    # its columns of the block): the u, v and w rows fill the free DOFs, and
    # the constrained ones stay zero
    free = (nb * np.arange(k + 1)[:, None] + ops.free).ravel()
    layout = [(coeffs[f].reshape(grid.num_slabs, -1), free, slice(i * nf, (i + 1) * nf))
              for i, f in enumerate(FIELDS[:3])]
    layout.append((coeffs["p"].reshape(grid.num_slabs, -1), slice(None), slice(3 * nf, bs)))
    # G0 basis of one slab at the next slab's Gauss nodes, (k, k+1)
    ahead = lagrange_basis("G0", k).eval_all(1.0 + gauss_rule(k).nodes)
    known = np.empty((k + 1, bs))    # the slab's left-end block, then its stage values
    known[0], start = ops.restrict_state(initial), None
    # the stage factorizations and solves run on one BLAS thread (linalg module doc)
    with serial_blas():
        for chunk in chunks(grid.num_slabs, _CHUNK):
            times = grid.endpoints[chunk, None] + grid.tau * ops.gl_nodes
            loads = ops._load_stack(sources, times.ravel()).reshape(times.shape + (bs,))
            for n, slab_loads in zip(range(chunk.start, chunk.stop), loads):
                known[1:] = ops.solve(ops.rhs(known[0], slab_loads), start).reshape(k, bs)
                start = (ahead @ known).ravel()
                for values, dofs, cols in layout:
                    values[n, dofs] = known[:, cols].ravel()
                known[0] = np.einsum("i,id->d", traj.end_weights, known)
    return traj


def export_snapshots(traj: Trajectory, out_dir: str) -> list[str]:
    """Write slab-endpoint snapshots: cell pressures plus the BDM fields at the
    edge midpoints, each evaluated in the edge's first adjacent cell."""
    import os

    disc = traj.disc
    mesh = disc.mesh
    nloc = disc.dgp.element.dim
    cells = mesh.edge_cells[:, 0]
    table = disc.bdm.tabulate_at(cells, mesh.edge_midpoints[:, None, :])[:, 0]
    dofs = disc.bdm.cell_dofs[cells]
    paths = []
    for n in range(traj.grid.num_slabs + 1):
        state = traj.state_at_endpoint(n)
        p_cells = state.p[0::nloc]   # constant modal component per cell
        mesh_path = os.path.join(out_dir, f"snapshot_{n:04d}.vtk")
        write_vtk_mesh(mesh, mesh_path, {"pressure": p_cells})
        vec_path = os.path.join(out_dir, f"snapshot_{n:04d}_edges.vtk")
        vectors = {f: np.einsum("eia,ei->ea", table, getattr(state, f)[dofs])
                   for f in ("u", "v", "w")}
        write_vtk_edges(mesh, vec_path, vectors)
        paths.extend([mesh_path, vec_path])
    return paths
