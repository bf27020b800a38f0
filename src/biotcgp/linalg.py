"""Sparse direct solve and small dense spectral utilities.

Factorization is delegated to SuperLU (partial pivoting, fill-reducing
ordering).  Equality-constraint rows are not folded into the sparse matrix:
dense multiplier rows poison the ordering, so they are eliminated through a
small dense Schur complement on top of the factored inner matrix.  Every solve
enforces the residual contract, so callers can rely on the solution quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolverError", "LinearSystem", "lu_factor", "factor_system", "lu_solve",
           "dense_min_eig_sym"]

RESIDUAL_TOL = 1e-10
ZERO_RHS_TOL = 1e-12


class SolverError(RuntimeError):
    """Factorization or residual failure; carries the offending row if known."""

    def __init__(self, message: str, row: int = -1):
        super().__init__(message)
        self.row = row


@dataclass
class LinearSystem:
    """Square sparse system with optional equality-constraint rows (C, d).

    The solved vector carries the primary unknowns followed by one Lagrange
    multiplier per constraint row.
    """

    matrix: sp.spmatrix
    rhs: np.ndarray
    constraints: tuple[np.ndarray, np.ndarray] | None = None

    def check(self) -> None:
        a = self.matrix
        if a.shape[0] != a.shape[1]:
            raise SolverError(f"matrix is not square: {a.shape}")
        if np.asarray(self.rhs).shape[0] != a.shape[0]:
            raise SolverError(f"rhs length {len(self.rhs)} does not match {a.shape}")

    def full_rhs(self) -> np.ndarray:
        if self.constraints is None:
            return np.asarray(self.rhs, dtype=float)
        _, d = self.constraints
        return np.concatenate([np.asarray(self.rhs, dtype=float),
                               np.atleast_1d(np.asarray(d, dtype=float))])

    def residual(self, solution: np.ndarray) -> float:
        """Relative residual of the full (bordered) system."""
        b = self.full_rhs()
        n = self.matrix.shape[0]
        x, lam = solution[:n], solution[n:]
        top = self.matrix @ x - b[:n]
        parts = [top]
        if self.constraints is not None:
            c = np.atleast_2d(np.asarray(self.constraints[0], dtype=float))
            parts[0] = top + c.T @ lam
            parts.append(c @ x - b[n:])
        num = np.linalg.norm(np.concatenate(parts))
        den = np.linalg.norm(b)
        return num / den if den > 0.0 else num


def _structural_zero_row(a: sp.spmatrix) -> int:
    counts = np.diff(sp.csr_matrix(a).indptr)
    empty = np.flatnonzero(counts == 0)
    return int(empty[0]) if empty.size else -1


def lu_factor(matrix: sp.spmatrix) -> spla.SuperLU:
    """Factorize once for reuse across many right-hand sides."""
    csc = sp.csc_matrix(matrix)
    try:
        return spla.splu(csc)
    except RuntimeError as exc:  # singular pivot
        raise SolverError(f"sparse LU failed: {exc}", row=_structural_zero_row(csc)) from exc


class BorderedFactor:
    """LU of the inner matrix plus a dense Schur complement for the border."""

    def __init__(self, matrix: sp.spmatrix, constraints):
        self.inner = lu_factor(matrix)
        if constraints is None:
            self.c = None
            return
        c, _ = constraints
        self.c = np.atleast_2d(np.asarray(c, dtype=float))
        self.z = np.column_stack([self.inner.solve(row) for row in self.c])
        schur = -self.c @ self.z            # [[A C^T],[C 0]] elimination
        try:
            self.schur = np.linalg.inv(schur)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"constraint Schur complement singular: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.c is None:
            return self.inner.solve(np.asarray(rhs, dtype=float))
        n = self.c.shape[1]
        b, d = rhs[:n], rhs[n:]
        y = self.inner.solve(np.asarray(b, dtype=float))
        lam = self.schur @ (d - self.c @ y)
        x = y - self.z @ lam
        return np.concatenate([x, lam])


def factor_system(system: LinearSystem) -> BorderedFactor:
    system.check()
    return BorderedFactor(system.matrix, system.constraints)


def lu_solve(system: LinearSystem, factor: BorderedFactor | None = None) -> np.ndarray:
    """Solve with ``factor`` (factored here if None) under the residual contract:
    relative residual <= RESIDUAL_TOL, or ||x|| <= ZERO_RHS_TOL if b = 0.

    Slab solves pass their cached factor, so they meet the same contract.
    """
    if factor is None:
        factor = factor_system(system)
    b = system.full_rhs()
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
