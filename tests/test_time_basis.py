import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biotcgp import time_basis as tb

SEED = 20260808


# --- quadrature rules -------------------------------------------------------

def test_gauss_k1_is_midpoint():
    rule = tb.gauss_rule(1)
    assert np.allclose(rule.nodes, [0.5], atol=0) and np.allclose(rule.weights, [1.0], atol=0)


def test_gauss_k2_closed_form():
    # frozen from the moment equations int t^m = sum w t^m, m = 0..3
    rule = tb.gauss_rule(2)
    lo = 0.5 - 1.0 / (2.0 * np.sqrt(3.0))
    hi = 0.5 + 1.0 / (2.0 * np.sqrt(3.0))
    assert np.allclose(rule.nodes, [lo, hi], atol=1e-15)
    assert np.allclose(rule.weights, [0.5, 0.5], atol=1e-15)


def test_lobatto_k1_is_trapezoidal():
    rule = tb.gauss_lobatto_rule(1)
    assert np.allclose(rule.nodes, [0.0, 1.0], atol=0)
    assert np.allclose(rule.weights, [0.5, 0.5], atol=1e-15)


def test_lobatto_k2_closed_form():
    rule = tb.gauss_lobatto_rule(2)
    assert np.allclose(rule.nodes, [0.0, 0.5, 1.0], atol=1e-15)
    assert np.allclose(rule.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)
    assert abs(rule.integrate(lambda t: t ** 3) - 0.25) <= 1e-14


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("maker", [tb.gauss_rule, tb.gauss_lobatto_rule])
def test_exactness_degree(k, maker):
    rule = maker(k)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    for m in range(2 * k):
        exact = 1.0 / (m + 1)
        assert abs(rule.integrate(lambda t: t ** m) - exact) <= 1e-13 * exact
    # degree 2k must fail: the rules are exactly of degree 2k-1
    m = 2 * k
    exact = 1.0 / (m + 1)
    assert abs(rule.integrate(lambda t: t ** m) - exact) > 1e-10 * exact


@pytest.mark.parametrize("n", range(7, 13))
def test_uncapped_gauss_rule_exactness(n):
    """The rules above the slab-order cap: the 10-point edge moments of
    ``interpolate_vector_field`` and the 7-point collapse of the degree 11
    and 12 triangle rules integrate t^m, m < 2n, to round-off."""
    rule = tb.gauss_legendre_rule(n)
    for m in range(2 * n):
        exact = 1.0 / (m + 1)
        assert abs(rule.integrate(lambda t: t ** m) - exact) <= 1e-14 * exact, m


def test_odd_monomial_value():
    for k in range(1, 7):
        got = tb.gauss_rule(k).integrate(lambda t: t ** (2 * k - 1))
        assert abs(got - 1.0 / (2 * k)) <= 1e-13 / (2 * k)


@pytest.mark.parametrize("maker", [tb.gauss_rule, tb.gauss_lobatto_rule])
@pytest.mark.parametrize("k", [0, 7, -3])
def test_order_range_errors(maker, k):
    with pytest.raises(ValueError):
        maker(k)


def test_rules_are_immutable():
    rule = tb.gauss_rule(3)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


# --- Lagrange bases ----------------------------------------------------------

@pytest.mark.parametrize("kind", ["G", "G0", "GL"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cardinality(kind, k):
    basis = tb.lagrange_basis(kind, k)
    vals = basis.eval_all(basis.nodes)
    assert np.allclose(vals, np.eye(basis.nodes.size), atol=1e-13)


@pytest.mark.parametrize("kind", ["G", "G0", "GL"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_partition_of_unity(kind, k):
    basis = tb.lagrange_basis(kind, k)
    t = np.linspace(0.0, 1.0, 20)
    assert np.abs(basis.eval_all(t).sum(axis=-1) - 1.0).max() <= 1e-13


def test_g0_k1_direct_value():
    # nodes {0, 0.5}: second basis function at t=1 is (1-0)/(0.5-0) = 2
    basis = tb.lagrange_basis("G0", 1)
    assert abs(basis.eval(1, 1.0) - 2.0) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.0, 1.0), k=st.integers(1, 4),
       kind=st.sampled_from(["G", "G0", "GL"]))
def test_derivative_sum_vanishes(t, k, kind):
    basis = tb.lagrange_basis(kind, k)
    assert abs(basis.deriv_all(t).sum()) <= 1e-12


# --- beta weights --------------------------------------------------------------

def test_beta_values():
    assert np.allclose(tb.beta_weights(1), [1.0, 2.0], atol=1e-14)
    b2 = tb.beta_weights(2)
    assert np.allclose(b2, [1.0, 4.732050807568877, 1.2679491924311228], atol=1e-12)


@pytest.mark.parametrize("k", range(1, 7))
def test_beta_invariants(k):
    beta = tb.beta_weights(k)
    assert beta[0] == 1.0
    assert np.all(beta >= 1.0)
    assert np.allclose(beta[1:], 1.0 / tb.gauss_rule(k).nodes)


# --- interpolation ---------------------------------------------------------------

def _interpolant(f, kind, k, t0, t1):
    """Nodal interpolant of ``f`` on the slab [t0, t1] in the reference basis."""
    basis = tb.lagrange_basis(kind, k)
    value, _ = tb._poly_from_coeffs(
        basis, np.array([f(t0 + (t1 - t0) * s) for s in basis.nodes]), t1 - t0)
    return lambda t: value(np.asarray(t) - t0)


@pytest.mark.parametrize("kind", ["G0", "GL"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_polynomial_reproduction(kind, k, rng):
    coeffs = rng.standard_normal(k + 1)
    poly = np.polynomial.Polynomial(coeffs)
    interp = _interpolant(poly, kind, k, 0.25, 0.75)
    t = 0.25 + 0.5 * np.linspace(0.03, 0.97, 10)
    assert np.abs(interp(t) - poly(t)).max() <= 1e-12 * max(1.0, np.abs(poly(t)).max())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gauss_family_reproduces_lower_degree(k, rng):
    # the G family carries k nodes, hence degree k-1 polynomials
    coeffs = rng.standard_normal(k)
    poly = np.polynomial.Polynomial(coeffs)
    interp = _interpolant(poly, "G", k, 0.1, 0.9)
    t = 0.1 + 0.8 * np.linspace(0.05, 0.95, 10)
    assert np.abs(interp(t) - poly(t)).max() <= 1e-12 * max(1.0, np.abs(poly(t)).max())


def test_constant_reproduced():
    interp = _interpolant(lambda t: 3.25, "GL", 2, 0.0, 0.125)
    assert np.abs(interp(np.linspace(0, 0.125, 7)) - 3.25).max() <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_error_rate(k):
    # f = t^{k+1}: the sup-norm interpolation error scales like tau^{k+1}
    f = lambda t: t ** (k + 1)
    taus = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
    sups = []
    for tau in taus:
        n_slabs = round(1.0 / tau)
        worst = 0.0
        for n in range(n_slabs):
            t0 = n * tau
            interp = _interpolant(f, "GL", k, t0, t0 + tau)
            t = t0 + tau * np.linspace(0.037, 0.963, 10)
            worst = max(worst, np.abs(interp(t) - f(t)).max())
        sups.append(worst)
    rates = [np.log2(sups[i] / sups[i + 1]) for i in range(len(sups) - 1)]
    assert all(abs(r - (k + 1)) <= 0.1 for r in rates), rates


# --- weighted transforms ----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivative_identities_randomized(k):
    suite = tb.derivative_identity_suite(k, trials=100, seed=SEED)
    assert suite["pairing_rel_err"] <= 1e-11
    assert suite["symmetry_rel_err"] <= 1e-11


@pytest.mark.parametrize("k", [1, 2, 3])
def test_energy_ratio_between_beta_bounds(k):
    suite = tb.derivative_identity_suite(k, trials=100, seed=SEED + 1)
    assert suite["energy_ratio_lo"] >= suite["beta_min"] - 1e-9
    assert suite["energy_ratio_hi"] <= suite["beta_max"] + 1e-9
    assert suite["norm_ratio_lo"] > 0.0
    assert np.isfinite(suite["norm_ratio_hi"])


@pytest.mark.parametrize("tau", [1.0, 0.25, 0.0625, 0.015625])
def test_norm_ratio_stable_across_tau(tau):
    suite = tb.derivative_identity_suite(2, trials=40, seed=SEED, tau=tau)
    # the ratio ||x_beta|| / ||d/dt x|| is tau-independent
    assert suite["norm_ratio_lo"] >= suite["beta_min"] - 1e-9
    assert suite["norm_ratio_hi"] <= suite["beta_max"] + 1e-9


def test_inverse_estimate_tau_scaling(rng):
    # ||d/dt x|| <= C tau^{-1} ||x|| with C independent of tau
    k = 2
    basis = tb.lagrange_basis("G0", k)
    consts = []
    for tau in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625):
        worst = 0.0
        for _ in range(100):
            value, deriv = tb._poly_from_coeffs(basis, rng.standard_normal(k + 1), tau)
            norm2 = tb.composite_simpson(lambda t: value(t) ** 2, 0.0, tau, panels=512)
            dnorm2 = tb.composite_simpson(lambda t: deriv(t) ** 2, 0.0, tau, panels=512)
            worst = max(worst, tau * np.sqrt(dnorm2 / norm2))
        consts.append(worst)
    assert max(consts) / min(consts) <= 1.25, consts


# --- node-transfer identities and the coupling matrix ------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_weighted_identities_randomized(k):
    suite = tb.weighted_identity_suite(k, trials=100, seed=SEED)
    assert suite["collapse_rel_err"] <= 1e-11
    assert suite["pairing_rel_err"] <= 1e-11
    assert suite["weighted_restriction_ratio"] <= suite["weighted_restriction_bound"] + 1e-9
    assert suite["plain_restriction_ratio"] <= suite["plain_restriction_bound"] + 1e-9


def test_collapse_identity_unit_weights():
    # with all beta_i = 1 and x_0 = 0, both sides reduce to the same integral
    k = 2
    basis_g0 = tb.lagrange_basis("G0", k)
    basis_g = tb.lagrange_basis("G", k)
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal(k + 1)
    x[0] = 0.0
    z = rng.standard_normal(k)
    lhs = tb.composite_simpson(
        lambda t: (basis_g0.eval_all(t) @ x) * (basis_g.eval_all(t) @ z), 0.0, 1.0)
    rhs = tb.composite_simpson(
        lambda t: (basis_g.eval_all(t) @ x[1:]) * (basis_g.eval_all(t) @ z), 0.0, 1.0)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_coupling_matrix_k1_value():
    m, m_tilde, min_eig = tb.coupling_matrix(1)
    assert abs(m[0, 0] - 2.0) <= 1e-12
    assert min_eig > 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_coupling_matrix_spd(k):
    _, _, min_eig = tb.coupling_matrix(k)
    assert min_eig > 0.0


def test_coupling_entries_slab_independent():
    # int L dL/dt dt is invariant under the affine slab map
    k = 2
    basis_g = tb.lagrange_basis("G", k)
    basis_g0 = tb.lagrange_basis("G0", k)
    m_ref, _, _ = tb.coupling_matrix(k)
    for tau, t0 in ((0.125, 0.5), (2.0, -1.0)):
        for i in range(k):
            for j in range(k):
                def integrand(t):
                    s = (t - t0) / tau
                    return np.asarray(basis_g.eval(i, s)) * np.asarray(
                        basis_g0.deriv(j + 1, s)) / tau
                got = tb.composite_simpson(integrand, t0, t0 + tau)
                assert abs(got - m_ref[i, j]) <= 1e-11 * max(1.0, abs(m_ref[i, j]))
