"""Sparse direct solve and small dense spectral utilities.

Factorization is delegated to SuperLU under one policy for every LU: a
minimum-degree ordering of A^T + A applied symmetrically to rows and columns,
with static diagonal pivots (threshold 0, so an off-diagonal pivot is taken
only where the diagonal entry is exactly zero).  The finite element matrices
factored here are structurally symmetric with a nonzero diagonal, so the
ordering keeps its fill; threshold pivoting would break the symmetric
ordering and multiply the fill.  Static pivoting is the scheme of Li &
Demmel (SC'98, "Making sparse Gaussian elimination scalable by static
pivoting"), and so is its guard: a diagonal entry that is tiny against its
column, as the pressure entry lam*s0*M_p is for small storage coefficients
s0, would be eliminated ahead of its neighbours and blow the factors up, so
it is raised to sqrt(eps) of the update those neighbours would bring before
factoring.  The factor is then that of a matrix within sqrt(eps) of the
true one, and the refinement below recovers full accuracy in a second step.

The inner factorization is pluggable: the slab solver passes one that
solves the coupled stage system through decoupled per-stage LUs.  Every
solve takes at least one step of iterative refinement against the system's
matrix itself, x += F(b - Ax), which gives componentwise backward stability
for Gaussian elimination in working precision (Skeel 1980) and absorbs the
rounding of an ill-conditioned inner transform.  It takes further steps, up
to MAX_REFINEMENT_STEPS, while the residual it refined from exceeded the
residual contract, and stops as soon as a step fails to shrink the residual.
A caller that can predict the solution passes it as a start: the solve then
takes exactly one refinement step from it and skips the elimination of b.
That is sound only with an exact factor, so a caller drops its start where
its pivots are too small against their columns (``pivot_ratios``); and if
the step misses the residual contract, ``lu_solve`` solves again without
it.  Every solve enforces that contract, so callers can rely on the
solution quality.

``serial_blas`` runs a block with every loaded OpenBLAS pool on one thread:
the stage systems are too small for a second BLAS thread to pay, and its
idle worker keeps spinning on a core the solver needs.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import Protocol

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolverError", "LinearSystem", "pivot_ratios", "lu_factor", "BorderedFactor",
           "lu_solve", "dense_min_eig_sym", "serial_blas"]

RESIDUAL_TOL = 1e-10
ZERO_RHS_TOL = 1e-12
MAX_REFINEMENT_STEPS = 10
SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class Operator(Protocol):
    """A square matrix applied through ``@`` without being stored."""

    shape: tuple[int, int]

    def __matmul__(self, x: np.ndarray) -> np.ndarray: ...


class SolverError(RuntimeError):
    """Factorization or residual failure; carries the offending row if known."""

    def __init__(self, message: str, row: int = -1):
        super().__init__(message)
        self.row = row


@dataclass
class LinearSystem:
    """Square system A x = rhs.

    ``matrix`` A is sparse or any operator with ``@`` and ``.shape``, as the
    slab solver's ``SlabMatrix``, which is never assembled.
    """

    matrix: sp.spmatrix | Operator
    rhs: np.ndarray

    def check(self) -> None:
        a = self.matrix
        if a.shape[0] != a.shape[1]:
            raise SolverError(f"matrix is not square: {a.shape}")
        if len(self.rhs) != a.shape[0]:
            raise SolverError(f"rhs length {len(self.rhs)} does not match {a.shape}")

    def residual(self, solution: np.ndarray) -> float:
        """Relative residual ||A x - b|| / ||b|| (absolute for b = 0)."""
        b = self.rhs
        r = self.matrix @ solution
        num = np.linalg.norm(np.subtract(r, b, out=r))
        den = np.linalg.norm(b)
        return num / den if den > 0.0 else num


def _structural_zero_row(a: sp.spmatrix) -> int:
    counts = np.diff(sp.csr_matrix(a).indptr)
    empty = np.flatnonzero(counts == 0)
    return int(empty[0]) if empty.size else -1


def pivot_ratios(matrix: sp.spmatrix) -> np.ndarray:
    """|a_jj| over the largest |a_ij| of column j, 0 for an empty column."""
    csc = sp.csc_matrix(matrix)
    size = np.abs(csc.diagonal())
    colmax = np.zeros_like(size)
    filled = np.diff(csc.indptr) > 0
    colmax[filled] = np.maximum.reduceat(np.abs(csc.data), csc.indptr[:-1][filled])
    return np.divide(size, colmax, out=np.zeros_like(size), where=colmax > 0.0)


def _floor_tiny_pivots(csc: sp.csc_matrix) -> sp.csc_matrix:
    """Raise each tiny pivot, a nonzero diagonal entry below SQRT_EPS times
    its column's largest entry, to SQRT_EPS times the update its neighbours
    would bring, sum_j |a_ij a_ji / a_jj|, keeping its phase (Li & Demmel's
    tiny-pivot replacement with a local scale)."""
    ratio = pivot_ratios(csc)
    tiny = (ratio > 0.0) & (ratio < SQRT_EPS)
    if not tiny.any():
        return csc
    d = csc.diagonal()
    size = np.abs(d)
    # only non-tiny neighbours count, so a tiny entry's own term drops out
    inv = np.divide(1.0, size, out=np.zeros_like(size), where=(size > 0.0) & ~tiny)
    floor = SQRT_EPS * (abs(csc.multiply(csc.T)) @ inv)
    d[tiny] *= np.maximum(floor[tiny], size[tiny]) / size[tiny]
    raised = csc.copy()
    raised.setdiag(d)
    return raised


def lu_factor(matrix: sp.spmatrix) -> spla.SuperLU:
    """Factorize once for reuse across many right-hand sides.

    SuperLU symmetric mode: MMD ordering of A^T + A and static diagonal
    pivots, with tiny diagonal entries raised first (Li & Demmel 1998).  No
    partial pivoting guards the growth of the factors; the raised pivots,
    the refinement of ``BorderedFactor.solve`` and the residual contract of
    ``lu_solve`` do.
    """
    csc = _floor_tiny_pivots(sp.csc_matrix(matrix))
    try:
        return spla.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:  # singular pivot
        raise SolverError(f"sparse LU failed: {exc}", row=_structural_zero_row(csc)) from exc


class BorderedFactor:
    """Factor of a system's matrix plus the refinement of its solves (the
    name and methods are kept for the spans of ``perfbench/spans.py``).

    ``factorize(matrix)`` builds the inner solver (anything with ``solve``
    returning a real vector); it defaults to ``lu_factor``, which needs a
    sparse matrix.  The matrix, sparse or an operator with ``@`` and
    ``.shape``, is kept for the refinement steps of ``solve``, which takes
    any right-hand side of the system's length.
    """

    def __init__(self, system: LinearSystem, factorize=None):
        system.check()
        self.matrix = system.matrix
        self.inner = (lu_factor if factorize is None else factorize)(self.matrix)

    def solve(self, rhs: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
        """Solve refined against the system's matrix.

        Without ``start``: eliminate, then refine, one step always and another
        while the residual a step started from exceeded the residual contract
        (a raised tiny pivot leaves an inexact factor); stops with SolverError
        as soon as a step fails to shrink the residual.  With ``start``, a
        prediction of the solution: exactly one step from it,
        start + F(b - A start), and no elimination of b itself.  Only an
        exact factor makes one step from a prediction enough; ``lu_solve``
        checks the result and falls back to the solve without a start."""
        rhs = np.asarray(rhs, dtype=float)
        if start is not None:
            r = self.matrix @ start
            x = self.inner.solve(np.subtract(rhs, r, out=r))
            x += start
            return x
        bound = RESIDUAL_TOL * np.linalg.norm(rhs)
        x = self.inner.solve(rhs)
        previous = np.inf
        for step in range(MAX_REFINEMENT_STEPS):
            r = self.matrix @ x
            norm = np.linalg.norm(np.subtract(rhs, r, out=r))
            if not norm < previous:
                raise SolverError(f"iterative refinement diverged at step {step}: residual "
                                  f"{norm:.3e} after {previous:.3e}")
            x += self.inner.solve(r)
            if norm <= bound:
                break
            previous = norm
        return x


def lu_solve(system: LinearSystem, factor: BorderedFactor | None = None,
             start: np.ndarray | None = None) -> np.ndarray:
    """Solve with ``factor`` (factored here if None) under the residual contract:
    relative residual <= RESIDUAL_TOL, or ||x|| <= ZERO_RHS_TOL if b = 0.

    Slab solves pass their cached factor, so they meet the same contract,
    and a ``start`` predicted from the previous slab.  The one refinement
    step from it is kept if it meets the contract; otherwise, and always
    when b = 0, the solve runs as without a start.
    """
    if factor is None:
        factor = BorderedFactor(system)
    b = system.rhs
    if start is not None and np.linalg.norm(b) > 0.0:
        x = factor.solve(b, start)
        if system.residual(x) <= RESIDUAL_TOL:
            return x
    x = factor.solve(b)
    if np.linalg.norm(b) == 0.0:
        if np.linalg.norm(x) > ZERO_RHS_TOL:
            raise SolverError("nonzero solution for zero right-hand side")
        return x
    residual = system.residual(x)
    if not residual <= RESIDUAL_TOL:
        raise SolverError(f"residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return x


def dense_min_eig_sym(matrix) -> float:
    """Minimum eigenvalue of the symmetric part of a dense/sparse matrix."""
    a = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())


@cache
def _openblas_pools() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process, found once from the shared objects mapped into it.  numpy and
    scipy wheels each bundle their own, under a prefixed and maybe suffixed
    name (``scipy_openblas_set_num_threads64_``)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({path for path in (line.split()[-1] for line in handle)
                            if path.startswith("/") and "openblas" in path.lower()})
    except OSError:
        return ()
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")) and hasattr(lib, name.format("set")):
                get, set_threads = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                pools.append((get, set_threads))
                break
    return tuple(pools)


@contextmanager
def serial_blas():
    """Run the block with every loaded OpenBLAS pool on one thread, then put
    back the previous counts; a no-op where no OpenBLAS is loaded."""
    pools = _openblas_pools()
    previous = [get() for get, _ in pools]
    try:
        for _, set_threads in pools:
            set_threads(1)
        yield
    finally:
        for (_, set_threads), count in zip(pools, previous):
            set_threads(count)
