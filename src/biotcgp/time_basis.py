"""Temporal quadrature rules, Lagrange bases and the weighted identity suites.

Everything lives on the reference interval [0, 1]; slabs of a time mesh are
reached through the affine map t = t0 + tau * s.  Three node families drive the
cGP(k) scheme:

* ``G``  -- the k Gauss nodes (test space, collocation points),
* ``G0`` -- {0} followed by the k Gauss nodes (trial space, carries the
  continuity value at the left slab end),
* ``GL`` -- the k+1 Gauss-Lobatto nodes (source interpolation, includes both
  slab ends).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import Legendre, leggauss

from .linalg import dense_min_eig_sym

MAX_ORDER = 6

__all__ = [
    "QuadratureRule",
    "LagrangeBasis",
    "gauss_rule",
    "gauss_legendre_rule",
    "gauss_lobatto_rule",
    "node_family",
    "lagrange_basis",
    "beta_weights",
    "composite_simpson",
    "weighted_identity_suite",
    "derivative_identity_suite",
    "coupling_matrix",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on the reference interval [0, 1], exact to degree 2k-1."""

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def _check_order(k: int) -> None:
    if not (1 <= k <= MAX_ORDER):
        raise ValueError(f"quadrature order k={k} outside supported range 1..{MAX_ORDER}")


def gauss_rule(k: int) -> QuadratureRule:
    """k-point Gauss rule on [0, 1]."""
    _check_order(k)
    return gauss_legendre_rule(k)


@lru_cache(maxsize=None)
def gauss_legendre_rule(n: int) -> QuadratureRule:
    """n-point Gauss rule on [0, 1] for any n >= 1, with no slab-order cap
    (dense rules for moments of analytic data and the triangle collapse)."""
    x, w = leggauss(n)
    return QuadratureRule("gauss", n, _frozen(0.5 * (x + 1.0)), _frozen(0.5 * w))


@lru_cache(maxsize=None)
def gauss_lobatto_rule(k: int) -> QuadratureRule:
    """(k+1)-point Gauss-Lobatto rule on [0, 1]; endpoints are nodes.

    The interior nodes are the roots of P_k' and the weights on [-1, 1] are
    2 / (k (k+1) P_k(x)^2).
    """
    _check_order(k)
    p_k = Legendre.basis(k)
    x = np.concatenate(([-1.0], p_k.deriv().roots(), [1.0]))
    w = 2.0 / (k * (k + 1) * p_k(x) ** 2)
    return QuadratureRule("gauss_lobatto", k, _frozen(0.5 * (x + 1.0)), _frozen(0.5 * w))


def node_family(kind: str, k: int) -> np.ndarray:
    """Reference nodes of one of the three slab families G, G0, GL."""
    if kind == "G":
        return gauss_rule(k).nodes
    if kind == "G0":
        return _frozen(np.concatenate(([0.0], gauss_rule(k).nodes)))
    if kind == "GL":
        return gauss_lobatto_rule(k).nodes
    raise ValueError(f"unknown node family {kind!r}")


@dataclass(frozen=True)
class LagrangeBasis:
    """Lagrange basis on a node set, evaluated by the plain product formula."""

    nodes: np.ndarray

    @property
    def degree(self) -> int:
        return self.nodes.size - 1

    def eval(self, i: int, t) -> float | np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        ti = self.nodes[i]
        for j, tj in enumerate(self.nodes):
            if j != i:
                out = out * (t - tj) / (ti - tj)
        return out if out.ndim else float(out)

    def deriv(self, i: int, t) -> float | np.ndarray:
        # d/dt of the product: sum over the factor being differentiated
        t = np.asarray(t, dtype=float)
        ti = self.nodes[i]
        out = np.zeros_like(t)
        for m, tm in enumerate(self.nodes):
            if m == i:
                continue
            term = np.ones_like(t) / (ti - tm)
            for j, tj in enumerate(self.nodes):
                if j != i and j != m:
                    term = term * (t - tj) / (ti - tj)
            out = out + term
        return out if out.ndim else float(out)

    def eval_all(self, t) -> np.ndarray:
        """Values of every basis function; shape (..., n_nodes)."""
        return np.stack([np.asarray(self.eval(i, t)) for i in range(self.nodes.size)], axis=-1)

    def deriv_all(self, t) -> np.ndarray:
        return np.stack([np.asarray(self.deriv(i, t)) for i in range(self.nodes.size)], axis=-1)


@lru_cache(maxsize=None)
def lagrange_basis(kind: str, k: int) -> LagrangeBasis:
    return LagrangeBasis(node_family(kind, k))


def beta_weights(k: int) -> np.ndarray:
    """Reciprocal-Gauss-node weights; beta[0] = 1, beta[i] = 1 / t_i for i >= 1."""
    return _frozen(np.concatenate(([1.0], 1.0 / gauss_rule(k).nodes)))


def composite_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                      panels: int = 4096) -> float:
    """Dense composite-Simpson oracle, independent of the Gauss machinery."""
    x = np.linspace(a, b, 2 * panels + 1)
    y = np.asarray(f(x), dtype=float)
    w = np.ones(x.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * np.dot(w, y))


def _poly_from_coeffs(basis: LagrangeBasis, coeffs: np.ndarray, tau: float = 1.0):
    """Value and derivative, on [0, tau], of the polynomial with these nodal
    coefficients in the reference basis."""
    def value(t):
        return basis.eval_all(t / tau) @ coeffs

    def deriv(t):
        return (basis.deriv_all(t / tau) @ coeffs) / tau

    return value, deriv


def weighted_identity_suite(k: int, trials: int = 100, seed: int = 0) -> dict[str, float]:
    """Randomized check of the weighted node-transfer identities and bounds.

    Both sides of each identity are integrated with the composite-Simpson
    oracle on [0, 1].  Returns the worst relative mismatch of the two exact
    identities and the measured constants of the two restriction bounds
    together with their a-priori values from the Gram spectra.
    """
    if k > 4:
        raise ValueError("identity suite supports k <= 4")
    rng = np.random.default_rng(seed)
    b_g0 = lagrange_basis("G0", k)
    b_g = lagrange_basis("G", k)
    beta = beta_weights(k)
    rule = gauss_rule(k)

    # Gram matrix of the G0 basis: the norm-equivalence constants
    gram = np.empty((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(k + 1):
            gram[i, j] = composite_simpson(lambda t: np.asarray(b_g0.eval(i, t)) *
                                           np.asarray(b_g0.eval(j, t)), 0.0, 1.0)
    lam_min = float(np.linalg.eigvalsh(0.5 * (gram + gram.T)).min())
    bound_weighted = float(np.sqrt(np.max(rule.weights * beta[1:] ** 2) / lam_min))
    bound_plain = float(np.sqrt(np.max(rule.weights) / lam_min))

    err_collapse = 0.0
    err_pairing = 0.0
    ratio_weighted = 0.0
    ratio_plain = 0.0
    for _ in range(trials):
        x = rng.standard_normal(k + 1)
        y = rng.standard_normal(k + 1)
        z = rng.standard_normal(k)  # test polynomial of degree k-1 in the G basis
        xv, _ = _poly_from_coeffs(b_g0, x)
        yv, _ = _poly_from_coeffs(b_g0, y)
        zv, _ = _poly_from_coeffs(b_g, z)
        wx_g0, _ = _poly_from_coeffs(b_g0, beta * x)
        wx_g, _ = _poly_from_coeffs(b_g, beta[1:] * x[1:])
        wy_g, _ = _poly_from_coeffs(b_g, beta[1:] * y[1:])

        lhs = composite_simpson(lambda t: wx_g0(t) * zv(t), 0.0, 1.0)
        rhs = composite_simpson(lambda t: wx_g(t) * zv(t), 0.0, 1.0)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        err_collapse = max(err_collapse, abs(lhs - rhs) / scale)

        lhs = composite_simpson(lambda t: xv(t) * wy_g(t), 0.0, 1.0)
        rhs = composite_simpson(lambda t: wx_g(t) * yv(t), 0.0, 1.0)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        err_pairing = max(err_pairing, abs(lhs - rhs) / scale)

        norm_restricted = np.sqrt(composite_simpson(lambda t: wx_g(t) ** 2, 0.0, 1.0))
        norm_plain = np.sqrt(composite_simpson(
            lambda t: (b_g.eval_all(t) @ x[1:]) ** 2, 0.0, 1.0))
        norm_x = np.sqrt(composite_simpson(lambda t: xv(t) ** 2, 0.0, 1.0))
        ratio_weighted = max(ratio_weighted, norm_restricted / max(norm_x, 1e-30))
        ratio_plain = max(ratio_plain, norm_plain / max(norm_x, 1e-30))

    return {
        "collapse_rel_err": err_collapse,
        "pairing_rel_err": err_pairing,
        "weighted_restriction_ratio": ratio_weighted,
        "weighted_restriction_bound": bound_weighted,
        "plain_restriction_ratio": ratio_plain,
        "plain_restriction_bound": bound_plain,
    }


def derivative_identity_suite(k: int, trials: int = 100, seed: int = 0,
                              tau: float = 1.0) -> dict[str, float]:
    """Randomized check of the derivative-transfer identities and norm bounds."""
    if k > 4:
        raise ValueError("identity suite supports k <= 4")
    rng = np.random.default_rng(seed)
    b_g0 = lagrange_basis("G0", k)
    b_g = lagrange_basis("G", k)
    beta = beta_weights(k)
    # x_beta is the G-basis polynomial with values beta_j * x'(t_j)
    to_beta = beta[1:, None] * b_g0.deriv_all(gauss_rule(k).nodes) / tau   # (k, k+1)

    err_pair = 0.0
    err_sym = 0.0
    ratio_energy_lo, ratio_energy_hi = np.inf, 0.0
    ratio_norm_lo, ratio_norm_hi = np.inf, 0.0
    for _ in range(trials):
        xc = rng.standard_normal(k + 1)
        yc = rng.standard_normal(k + 1)
        x, dx = _poly_from_coeffs(b_g0, xc, tau)
        _, dy = _poly_from_coeffs(b_g0, yc, tau)
        wx, _ = _poly_from_coeffs(b_g0, beta * xc, tau)
        xb, _ = _poly_from_coeffs(b_g, to_beta @ xc, tau)
        yb, _ = _poly_from_coeffs(b_g, to_beta @ yc, tau)

        # pairing of x against y_beta equals the weighted-x pairing against dy
        lhs = composite_simpson(lambda t: x(t) * yb(t), 0.0, tau)
        rhs = composite_simpson(lambda t: wx(t) * dy(t), 0.0, tau)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        err_pair = max(err_pair, abs(lhs - rhs) / scale)

        # symmetry of the derivative pairing
        lhs = composite_simpson(lambda t: dx(t) * yb(t), 0.0, tau)
        rhs = composite_simpson(lambda t: xb(t) * dy(t), 0.0, tau)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        err_sym = max(err_sym, abs(lhs - rhs) / scale)

        energy = composite_simpson(lambda t: dx(t) * xb(t), 0.0, tau)
        dnorm2 = composite_simpson(lambda t: dx(t) ** 2, 0.0, tau)
        bnorm2 = composite_simpson(lambda t: xb(t) ** 2, 0.0, tau)
        if dnorm2 > 1e-28:
            r = energy / dnorm2
            ratio_energy_lo, ratio_energy_hi = min(ratio_energy_lo, r), max(ratio_energy_hi, r)
            r = np.sqrt(bnorm2 / dnorm2)
            ratio_norm_lo, ratio_norm_hi = min(ratio_norm_lo, r), max(ratio_norm_hi, r)

    return {
        "pairing_rel_err": err_pair,
        "symmetry_rel_err": err_sym,
        "energy_ratio_lo": float(ratio_energy_lo),
        "energy_ratio_hi": float(ratio_energy_hi),
        "norm_ratio_lo": float(ratio_norm_lo),
        "norm_ratio_hi": float(ratio_norm_hi),
        "beta_min": float(beta[1:].min()),
        "beta_max": float(beta[1:].max()),
    }


def coupling_matrix(k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Trial/test derivative coupling on [0, 1] and its scaled symmetrization.

    Entry (i, j) integrates (Gauss basis i) * d/dt (G0 basis j), i, j = 1..k.
    The similarity transform by sqrt(diag(Gauss nodes)) has positive definite
    symmetric part, which is what makes the slab systems uniformly solvable.
    """
    if k > 4:
        raise ValueError("coupling matrix supported for k <= 4")
    b_g = lagrange_basis("G", k)
    b_g0 = lagrange_basis("G0", k)
    m = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            m[i, j] = composite_simpson(
                lambda t: np.asarray(b_g.eval(i, t)) * np.asarray(b_g0.deriv(j + 1, t)),
                0.0, 1.0)
    d = np.sqrt(gauss_rule(k).nodes)
    m_tilde = (m / d[:, None]) * d[None, :]
    min_eig = dense_min_eig_sym(0.5 * (m_tilde + m_tilde.T))
    return m, m_tilde, min_eig
