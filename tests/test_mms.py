import numpy as np
import pytest

from biotcgp import mms
from biotcgp.mesh import structured_mesh
from biotcgp.slab import Discretization


def _boundary_points(n=60, seed=4):
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 1.0, n)
    zero, one = np.zeros(n), np.ones(n)
    return {
        "bottom": np.stack([s, zero], axis=-1),
        "top": np.stack([s, one], axis=-1),
        "left": np.stack([zero, s], axis=-1),
        "right": np.stack([one, s], axis=-1),
    }


def test_displacement_vanishes_on_boundary():
    for pts in _boundary_points().values():
        assert np.abs(mms.U(pts)).max() <= 1e-14


def test_flux_normal_trace_vanishes():
    sides = _boundary_points()
    assert np.abs(mms.W(sides["bottom"])[:, 1]).max() <= 1e-14
    assert np.abs(mms.W(sides["top"])[:, 1]).max() <= 1e-14
    assert np.abs(mms.W(sides["left"])[:, 0]).max() <= 1e-14
    assert np.abs(mms.W(sides["right"])[:, 0]).max() <= 1e-14


def test_pressure_zero_mean():
    # 2D composite Simpson over the square; p = c(t) P, so P suffices
    n = 81
    x = np.linspace(0.0, 1.0, n)
    w1 = np.ones(n)
    w1[1:-1:2], w1[2:-1:2] = 4.0, 2.0
    w1 /= 3.0 * (n - 1) / 1.0
    gx, gy = np.meshgrid(x, x)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    w2 = np.outer(w1, w1).ravel()
    assert abs(w2 @ mms.P(pts)) <= 1e-10


def _source_at(source, x, t):
    return sum(factor(t) * np.asarray(profile(x)) for factor, profile in source.terms)


def _source_residuals(case, n_points, seed=7):
    """Worst gap between each hand-expanded source and the PDE applied to the
    field and derivative profiles; div eps(u) and grad div u are contracted
    from the second derivatives of u."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(n_points, 2))
    t = float(rng.uniform(0.1, 0.9))
    prm, tf = case.params, case.tf
    hess = mms.second_U(x)                              # (n, comp, d_a, d_b)
    grad_div = np.einsum("nbab->na", hess)
    div_eps = 0.5 * (np.einsum("naii->na", hess) + grad_div)

    momentum = (prm.rho_bar * tf.dda(t) * mms.U(x) + prm.rho_f * tf.db(t) * mms.W(x)
                - tf.a(t) * (2.0 * prm.mu * div_eps + prm.lam * grad_div)
                + prm.alpha * tf.c(t) * mms.grad_P(x))
    darcy = (prm.rho_f * tf.dda(t) * mms.U(x) + prm.rho_w * tf.db(t) * mms.W(x)
             + tf.b(t) * mms.W(x) @ prm.kappa_inv.T + tf.c(t) * mms.grad_P(x))
    mass = (prm.s0 * tf.dc(t) * mms.P(x) + prm.alpha * tf.da(t) * mms.div_U(x)
            + tf.b(t) * mms.div_W(x))
    src = case.sources()
    return {"momentum": np.abs(momentum - _source_at(src.f, x, t)).max(),
            "darcy": np.abs(darcy - _source_at(src.g, x, t)).max(),
            "mass": np.abs(mass - _source_at(src.mass, x, t)).max()}


def test_source_derivation_self_check(params):
    report = _source_residuals(mms.default_mms(params, omega=4.0), n_points=100)
    assert max(report.values()) <= 1e-9, report


def test_self_check_with_anisotropic_permeability():
    import biotcgp.assembly as asm
    prm = asm.PhysicalParams(kappa=np.array([[2.0, 0.3], [0.3, 1.0]]), alpha=0.75,
                             s0=0.5, lam=2.0, mu=0.7)
    report = _source_residuals(mms.default_mms(prm, omega=3.0), n_points=60)
    assert max(report.values()) <= 1e-9, report


def _rel(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


def test_profiles_match_finite_differences():
    """Central differences of the field profiles and time factors against
    the derivative profiles and factors (step 1e-6, 1e-4 for second
    derivatives against round-off)."""
    rng = np.random.default_rng(7)
    x = rng.uniform(0.05, 0.95, size=(100, 2))
    h, h2 = 1e-6, 1e-4

    def grad_fd(fn):                                   # (..., comp, d_a)
        e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
        return np.stack([(fn(x + e1) - fn(x - e1)) / (2 * h),
                         (fn(x + e2) - fn(x - e2)) / (2 * h)], axis=-1)

    g_u = grad_fd(mms.U)
    assert _rel(g_u, mms.grad_U(x)) <= 1e-6
    assert _rel(g_u[:, 0, 0] + g_u[:, 1, 1], mms.div_U(x)) <= 1e-6
    assert _rel(grad_fd(mms.P), mms.grad_P(x)) <= 1e-6
    g_w = grad_fd(mms.W)
    assert _rel(g_w[:, 0, 0] + g_w[:, 1, 1], mms.div_W(x)) <= 1e-6

    e1, e2 = np.array([h2, 0.0]), np.array([0.0, h2])
    u0 = mms.U(x)
    sxx = (mms.U(x + e1) - 2 * u0 + mms.U(x - e1)) / h2 ** 2
    syy = (mms.U(x + e2) - 2 * u0 + mms.U(x - e2)) / h2 ** 2
    sxy = (mms.U(x + e1 + e2) - mms.U(x + e1 - e2) - mms.U(x - e1 + e2)
           + mms.U(x - e1 - e2)) / (4 * h2 ** 2)
    sec = mms.second_U(x)
    for fd, (i, j) in ((sxx, (0, 0)), (sxy, (0, 1)), (sxy, (1, 0)), (syy, (1, 1))):
        assert _rel(fd, sec[..., i, j]) <= 1e-6, (i, j)

    tf = mms.trig_factors(4.0)
    for t in (0.1, 0.45, 0.8):
        for fn, deriv in ((tf.a, tf.da), (tf.da, tf.dda), (tf.b, tf.db), (tf.c, tf.dc)):
            fd = (fn(t + h) - fn(t - h)) / (2 * h)
            assert abs(fd - deriv(t)) <= 1e-6 * max(1.0, abs(deriv(t)))


def test_invalid_frequency(params):
    with pytest.raises(ValueError):
        mms.default_mms(params, omega=0.0)


def test_poly_factors_derivative_consistency():
    tf = mms.poly_factors(3)
    h = 1e-6
    for t in (0.1, 0.45, 0.8):
        assert abs((tf.a(t + h) - tf.a(t - h)) / (2 * h) - tf.da(t)) <= 1e-7
        assert abs((tf.da(t + h) - tf.da(t - h)) / (2 * h) - tf.dda(t)) <= 1e-7
        assert abs((tf.b(t + h) - tf.b(t - h)) / (2 * h) - tf.db(t)) <= 1e-7
        assert abs((tf.c(t + h) - tf.c(t - h)) / (2 * h) - tf.dc(t)) <= 1e-7


def test_discrete_case_exactly_in_space(params):
    disc = Discretization(structured_mesh(3, 3), ell=0, params=params)
    case = mms.discrete_case(disc, omega=2.0)
    # profiles respect the strong constraints and the zero mean
    assert np.abs(case.u_hat[disc.bdm.constrained]).max() == 0.0
    assert np.abs(case.w_hat[disc.bdm.constrained]).max() == 0.0
    vals = disc.dgp.values_on_quadrature(case.p_hat)
    assert abs(np.einsum("cq,cq->", disc.dgp.volume.weights, vals)) <= 1e-12


def test_discrete_case_semidiscrete_residual(params):
    """The Riesz-lifted sources make the exact coefficients solve the
    semi-discrete equations identically at any time."""
    disc = Discretization(structured_mesh(2, 2), ell=0, params=params)
    case = mms.discrete_case(disc, omega=3.0)
    src = case.sources()
    prm = disc.params
    free = disc.bdm.free
    t = 0.327
    tf = case.tf
    import biotcgp.assembly as asm

    # momentum residual against every free test function
    lhs = (prm.rho_bar * tf.dda(t) * (disc.mass_bdm @ case.u_hat)
           + prm.rho_f * tf.db(t) * (disc.mass_bdm @ case.w_hat)
           + tf.a(t) * (disc.elasticity @ case.u_hat)
           - tf.c(t) * (disc.div_u_alpha @ case.p_hat))
    rhs = asm.assemble_load(disc.bdm, src.f, t)
    assert np.abs(lhs[free] - rhs[free]).max() <= 1e-11

    # Darcy residual
    lhs = (prm.rho_f * tf.dda(t) * (disc.mass_bdm @ case.u_hat)
           + prm.rho_w * tf.db(t) * (disc.mass_bdm @ case.w_hat)
           + tf.b(t) * (disc.mass_kinv @ case.w_hat)
           - tf.c(t) * (disc.div_w @ case.p_hat))
    rhs = asm.assemble_load(disc.bdm, src.g, t)
    assert np.abs(lhs[free] - rhs[free]).max() <= 1e-11

    # mass-balance residual
    lhs = (prm.s0 * tf.dc(t) * (disc.mass_p @ case.p_hat)
           + tf.da(t) * (disc.div_u_alpha.T @ case.u_hat)
           + tf.b(t) * (disc.div_w.T @ case.w_hat))
    rhs = asm.assemble_load(disc.dgp, src.mass, t)
    assert np.abs(lhs - rhs).max() <= 1e-11
