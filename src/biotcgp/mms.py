"""Manufactured solutions: the analytic trigonometric default plus
discretely-representable cases used to isolate the temporal error.

Every field, derivative and source of the trigonometric case is a sum of
scalar time factors times fixed spatial profiles, and is represented as such:
(time factor, profile) terms.  The source profiles are expanded by hand, apart
from the field profiles, so the PDE-residual check in the tests cross-validates
the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from . import assembly as asm
from .linalg import BorderedFactor, LinearSystem, lu_solve
from .slab import FIELDS, Discretization, SlabState, SourceSet, project_initial_data
from .spaces import interpolate_vector_field, project_scalar_field, remove_mean

__all__ = ["TimeFactors", "trig_factors", "poly_factors", "U", "W", "P", "grad_U",
           "div_U", "second_U", "div_W", "grad_P", "TrigCase", "DiscreteCase",
           "default_mms", "discrete_case"]

PI = np.pi


@dataclass(frozen=True)
class TimeFactors:
    """Scalar time profiles of the three fields (a drives u, b drives w,
    c drives p) with the derivatives the sources need."""

    a: Callable[[float], float]
    da: Callable[[float], float]
    dda: Callable[[float], float]
    b: Callable[[float], float]
    db: Callable[[float], float]
    c: Callable[[float], float]
    dc: Callable[[float], float]


def trig_factors(omega: float) -> TimeFactors:
    w = float(omega)
    return TimeFactors(
        a=lambda t: np.sin(w * t + 0.3),
        da=lambda t: w * np.cos(w * t + 0.3),
        dda=lambda t: -w * w * np.sin(w * t + 0.3),
        b=lambda t: np.cos(w * t),
        db=lambda t: -w * np.sin(w * t),
        c=lambda t: 1.0 + np.sin(w * t),
        dc=lambda t: w * np.cos(w * t),
    )


def poly_factors(k: int) -> TimeFactors:
    """Degree-k polynomial profiles (reproduced exactly by the cGP(k) scheme)."""
    a = Polynomial([0.4, 0.9, -0.5, 0.25, -0.1][:k + 1])
    b = Polynomial([0.7, -0.6, 0.3, -0.15, 0.05][:k + 1])
    c = Polynomial([0.2, 0.8, -0.35, 0.12, -0.04][:k + 1])
    return TimeFactors(a, a.deriv(), a.deriv(2), b, b.deriv(), c, c.deriv())


def _sc(x):
    sx, cx = np.sin(PI * x[..., 0]), np.cos(PI * x[..., 0])
    sy, cy = np.sin(PI * x[..., 1]), np.cos(PI * x[..., 1])
    return sx, cx, sy, cy


# -- spatial profiles of the trigonometric solution; x is (..., 2) ---------------

def U(x):
    """Displacement profile (sin pi x sin pi y, sin pi x sin pi y)."""
    sx, _, sy, _ = _sc(x)
    s = sx * sy
    return np.stack([s, s], axis=-1)


def W(x):
    """Flux profile (sin pi x cos pi y, cos pi x sin pi y)."""
    sx, cx, sy, cy = _sc(x)
    return np.stack([sx * cy, cx * sy], axis=-1)


def P(x):
    """Pressure profile cos pi x cos pi y."""
    _, cx, _, cy = _sc(x)
    return cx * cy


def grad_U(x):
    sx, cx, sy, cy = _sc(x)
    row = PI * np.stack([cx * sy, sx * cy], axis=-1)
    return np.stack([row, row], axis=-2)


def div_U(x):
    sx, cx, sy, cy = _sc(x)
    return PI * (cx * sy + sx * cy)


def second_U(x):
    """Second derivatives, (..., component, d_a, d_b)."""
    sx, cx, sy, cy = _sc(x)
    s = sx * sy
    h = PI * PI * np.stack([np.stack([-s, cx * cy], axis=-1),
                            np.stack([cx * cy, -s], axis=-1)], axis=-2)
    return np.stack([h, h], axis=-3)


def div_W(x):
    _, cx, _, cy = _sc(x)
    return 2.0 * PI * cx * cy


def grad_P(x):
    sx, cx, sy, cy = _sc(x)
    return -PI * np.stack([sx * cy, cx * sy], axis=-1)


class TrigCase:
    """Default manufactured solution on the unit square.

    u = a(t) U, w = b(t) W, p = c(t) P with the profiles above, so u vanishes
    on the whole boundary, w has zero normal trace, and p has zero mean for
    every t.  ``exact`` holds every field the error norms measure as one
    (time factor, profile) pair.
    """

    def __init__(self, params: asm.PhysicalParams, omega: float = 4.0):
        if not 0.0 < omega < np.inf:
            raise ValueError("frequency must be positive and finite")
        self.params = params
        self.omega = float(omega)
        tf = self.tf = trig_factors(omega)
        self.exact = {"u": (tf.a, U), "v": (tf.da, U), "w": (tf.b, W), "p": (tf.c, P),
                      "grad_u": (tf.a, grad_U), "div_u": (tf.a, div_U),
                      "second_u": (tf.a, second_U)}

    def exact_terms(self, times: np.ndarray) -> dict:
        """Every exact field at the sample times: (factors (S,), profile)."""
        return {name: (factor(times), profile)
                for name, (factor, profile) in self.exact.items()}

    def at(self, name: str, t: float) -> Callable[[np.ndarray], np.ndarray]:
        """Exact field ``name`` at time t as a function of points."""
        factor, profile = self.exact[name]
        scale = factor(t)
        return lambda x: scale * profile(x)

    def sources(self) -> SourceSet:
        """f, g and the mass source as (time factor, profile) terms.

        The profiles are expanded by hand, independently of the field and
        derivative profiles, so checking the PDE residual of those against
        these cross-validates the derivation.
        """
        prm, tf = self.params, self.tf
        ki = prm.kappa_inv

        def along_u(scale):             # scale * (sx sy, sx sy)
            def profile(x):
                sx, _, sy, _ = _sc(x)
                return scale * np.stack([sx * sy, sx * sy], axis=-1)
            return profile

        def along_w(scale):             # scale * (sx cy, cx sy)
            def profile(x):
                sx, cx, sy, cy = _sc(x)
                return scale * np.stack([sx * cy, cx * sy], axis=-1)
            return profile

        def elastic(x):
            sx, cx, sy, cy = _sc(x)
            s = sx * sy
            e = -prm.mu * PI * PI * (cx * cy - 3.0 * s) - prm.lam * PI * PI * (cx * cy - s)
            return np.stack([e, e], axis=-1)

        def drag(x):
            sx, cx, sy, cy = _sc(x)
            wx, wy = sx * cy, cx * sy
            return np.stack([ki[0, 0] * wx + ki[0, 1] * wy,
                             ki[1, 0] * wx + ki[1, 1] * wy], axis=-1)

        def storage(x):
            _, cx, _, cy = _sc(x)
            return prm.s0 * cx * cy

        def compression(x):
            sx, cx, sy, cy = _sc(x)
            return prm.alpha * PI * (cx * sy + sx * cy)

        def outflow(x):
            _, cx, _, cy = _sc(x)
            return 2.0 * PI * cx * cy

        f = asm.FieldSource([(tf.dda, along_u(prm.rho_bar)), (tf.db, along_w(prm.rho_f)),
                             (tf.a, elastic), (tf.c, along_w(-prm.alpha * PI))])
        g = asm.FieldSource([(tf.dda, along_u(prm.rho_f)), (tf.db, along_w(prm.rho_w)),
                             (tf.b, drag), (tf.c, along_w(-PI))])
        mass = asm.FieldSource([(tf.dc, storage), (tf.da, compression), (tf.b, outflow)])
        return SourceSet(f=f, g=g, mass=mass)

    def initial_state(self, disc: Discretization) -> SlabState:
        return project_initial_data(disc, *(self.at(name, 0.0) for name in FIELDS))


def default_mms(params: asm.PhysicalParams, omega: float = 4.0) -> TrigCase:
    return TrigCase(params, omega)


class DiscreteCase:
    """Exact solution with spatial profiles taken in the discrete spaces.

    The sources are the discrete residuals lifted back into the FE spaces, so
    the semi-discrete (continuous-in-time) solution is exactly
    a(t) u_hat, a'(t) u_hat, b(t) w_hat, c(t) p_hat and the marching error is
    purely temporal.
    """

    def __init__(self, disc: Discretization, tf: TimeFactors):
        self.disc = disc
        self.params = disc.params
        self.tf = tf

        bdm, dgp = disc.bdm, disc.dgp
        u_hat = interpolate_vector_field(bdm, U)
        w_hat = interpolate_vector_field(bdm, W)
        for vec in (u_hat, w_hat):
            vec[bdm.constrained] = 0.0
        p_hat = remove_mean(dgp, project_scalar_field(dgp, P))
        self.u_hat, self.w_hat, self.p_hat = u_hat, w_hat, p_hat

        # Riesz representers in the free BDM space: one mass factorization,
        # four solves under the residual contract
        free = bdm.free
        mass = disc.mass_bdm[np.ix_(free, free)]
        loads = [disc.elasticity[np.ix_(free, free)] @ u_hat[free],
                 disc.div_u_alpha[free, :] @ p_hat,
                 disc.mass_kinv[np.ix_(free, free)] @ w_hat[free],
                 disc.div_w[free, :] @ p_hat]
        factor = BorderedFactor(LinearSystem(mass, loads[0]))
        self.q_elastic, self.q_pressure_u, self.q_kinv, self.q_pressure_w = (
            bdm.lift(lu_solve(LinearSystem(mass, load), factor)) for load in loads)
        self.du_hat = disc.div_coefficients(u_hat, disc.div_u_alpha)
        self.dw_hat = disc.div_coefficients(w_hat)

    def sources(self) -> SourceSet:
        tf, prm = self.tf, self.params
        f = asm.FieldSource([
            (lambda t: prm.rho_bar * tf.dda(t), self.u_hat),
            (lambda t: prm.rho_f * tf.db(t), self.w_hat),
            (tf.a, self.q_elastic),
            (lambda t: -tf.c(t), self.q_pressure_u),
        ])
        g = asm.FieldSource([
            (lambda t: prm.rho_f * tf.dda(t), self.u_hat),
            (lambda t: prm.rho_w * tf.db(t), self.w_hat),
            (tf.b, self.q_kinv),
            (lambda t: -tf.c(t), self.q_pressure_w),
        ])
        mass = asm.FieldSource([
            (lambda t: prm.s0 * tf.dc(t), self.p_hat),
            (tf.da, self.du_hat),       # already carries the alpha factor
            (tf.b, self.dw_hat),
        ])
        return SourceSet(f=f, g=g, mass=mass)

    def exact_state(self, t) -> SlabState:
        """Exact coefficients at time t; at an array of times, one row per time."""
        tf, outer = self.tf, np.multiply.outer
        return SlabState(outer(tf.a(t), self.u_hat), outer(tf.da(t), self.u_hat),
                         outer(tf.b(t), self.w_hat), outer(tf.c(t), self.p_hat))

    def initial_state(self, disc: Discretization | None = None) -> SlabState:
        return self.exact_state(0.0)


def discrete_case(disc: Discretization, omega: float = 4.0) -> DiscreteCase:
    """The discrete case of ``disc`` with the trigonometric time factors."""
    return DiscreteCase(disc, trig_factors(omega))
