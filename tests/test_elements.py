import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biotcgp import elements as el
from biotcgp.mesh import _connect
from biotcgp.spaces import build_space, interpolate_vector_field


# --- quadrature on the reference triangle --------------------------------------

@pytest.mark.parametrize("degree", range(1, 13))
def test_triangle_rule_exactness(degree):
    qp, qw = el.triangle_rule(degree)
    assert abs(qw.sum() - 0.5) <= 1e-14
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = float(qw @ (qp[:, 0] ** a * qp[:, 1] ** b))
            assert abs(got - exact) <= 5e-15, (degree, a, b)


def test_triangle_rule_range():
    with pytest.raises(ValueError):
        el.triangle_rule(0)
    with pytest.raises(ValueError):
        el.triangle_rule(13)


# --- reference elements ----------------------------------------------------------

@pytest.mark.parametrize("degree,dim", [(1, 6), (2, 12)])
def test_bdm_dimension(degree, dim):
    elem = el.reference_element("BDM", degree)
    assert elem.dim == dim == (degree + 1) * (degree + 2)


@pytest.mark.parametrize("degree,dim", [(0, 1), (1, 3)])
def test_dgp_dimension(degree, dim):
    elem = el.reference_element("DGP", degree)
    assert elem.dim == dim == (degree + 1) * (degree + 2) // 2


def test_dgp_constant_mode_is_one():
    elem = el.reference_element("DGP", 0)
    pts = np.array([[0.1, 0.2], [0.4, 0.4], [0.05, 0.9]])
    assert np.allclose(elem.tabulate(pts)[:, 0], 1.0, atol=1e-14)


@pytest.mark.parametrize("degree", [0, 1])
def test_dgp_duality_identity(degree):
    # DOFs are the scaled L2 moments matching the modal basis
    elem = el.reference_element("DGP", degree)
    qp, qw = el.triangle_rule(2 * degree + 2)
    vals = elem.tabulate(qp)
    duality = 2.0 * np.einsum("q,qi,qj->ij", qw, vals, vals)
    assert np.abs(duality - np.eye(elem.dim)).max() <= 1e-12


def test_unsupported_degrees():
    with pytest.raises(ValueError):
        el.reference_element("BDM", 3)
    with pytest.raises(ValueError):
        el.reference_element("DGP", 2)
    with pytest.raises(ValueError):
        el.reference_element("RT", 1)


# --- the BDM basis of one cell (FunctionSpace.dof_transform) -------------------------

# B = [[0.9, 0.1], [0.3, 0.8]] is not symmetric, so B^-1 and B^-T differ
SKEW_CELL = [[0.2, 0.1], [1.1, 0.4], [0.3, 0.9]]


def _one_cell_space(vertices, degree=2):
    mesh = _connect(np.asarray(vertices, dtype=float), np.array([[0, 1, 2]]))
    return build_space(mesh, "BDM", degree)


@pytest.mark.parametrize("degree", [1, 2])
def test_bdm_duality_identity(degree):
    # the global DOF functionals, applied by the canonical interpolant, are
    # dual to the cell basis (local DOF i is global DOF cell_dofs[0, i])
    space = _one_cell_space(SKEW_CELL, degree)
    nd = space.element.dim
    duality = np.column_stack([
        interpolate_vector_field(space, lambda x, i=i: space.tabulate_at([0], x[None])[0, :, i])
        for i in range(nd)])
    assert np.abs(duality[space.cell_dofs[0]] - np.eye(nd)).max() <= 1e-12


def test_bdm1_divergence_constant_per_cell():
    divs = _one_cell_space(SKEW_CELL, 1).volume.divs[0]     # (nq, nd)
    assert np.abs(divs - divs[0]).max() <= 1e-12


@pytest.mark.parametrize("degree", [1, 2])
def test_bdm_div_lies_in_lower_space(degree):
    # L2-project each basis divergence onto P_{degree-1} and check zero residual
    space = _one_cell_space(SKEW_CELL, degree)
    scalar = build_space(space.mesh, "DGP", degree - 1, quad_degree=space.quad_degree)
    qw = space.volume.weights[0]
    divs = space.volume.divs[0]                     # (nq, nd)
    modal = scalar.volume.values[0]                 # (nq, np)
    # the physical modal mass matrix is diag(cell area)
    coeffs = np.einsum("q,qi,qm->mi", qw, divs, modal) / space.mesh.areas[0]
    recon = np.einsum("qm,mi->qi", modal, coeffs)
    num = np.sqrt(np.einsum("q,qi,qi->", qw, divs - recon, divs - recon))
    den = max(np.sqrt(np.einsum("q,qi,qi->", qw, divs, divs)), 1.0)
    assert num / den <= 1e-12


# --- Piola map (FunctionSpace._piola on one-cell meshes) ----------------------------


def _pushed_forward(space, field, ref_points):
    """Values, divergences and gradients, at the images of ``ref_points``, of
    the member of ``space`` whose reference field is the quadratic ``field``."""
    fit_points = el.triangle_rule(5)[0]
    monos = el.eval_vector_monomials(space.element.exponents, fit_points)   # (m, nq, 2)
    ref_coeffs = np.linalg.lstsq(monos.reshape(len(monos), -1).T,
                                 field(fit_points).reshape(-1), rcond=None)[0]
    # basis_i = sum_m dof_transform[0, m, i] piola(monomial_m)
    local = np.linalg.solve(space.dof_transform[0], ref_coeffs)
    points = ref_points @ space.mesh.cell_matrix[0].T + space.mesh.cell_origin[0]
    vals, grads = space.tabulate_at([0], points[None], grads=True)
    return (np.einsum("qia,i->qa", vals[0], local),
            np.einsum("qiaa,i->q", grads[0], local),
            np.einsum("qiab,i->qab", grads[0], local))


def test_piola_identity_map():
    space = _one_cell_space([[0, 0], [1, 0], [0, 1]])
    field = lambda xi: np.stack([xi[:, 0] ** 2, xi[:, 1]], axis=-1)
    div = lambda xi: 2.0 * xi[:, 0] + 1.0
    pts = np.array([[0.3, 0.1], [0.2, 0.5]])
    v, dv, _ = _pushed_forward(space, field, pts)
    assert np.allclose(v, field(pts), atol=1e-13)
    assert np.allclose(dv, div(pts), atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.2, 3.0))
def test_piola_uniform_scaling(s):
    space = _one_cell_space([[0, 0], [s, 0], [0, s]])
    field = lambda xi: np.stack([xi[:, 0], xi[:, 0] * xi[:, 1]], axis=-1)
    div = lambda xi: 1.0 + xi[:, 0]
    pts_ref = np.array([[0.25, 0.25], [0.1, 0.6]])
    v, dv, _ = _pushed_forward(space, field, pts_ref)
    # det J = s^2: the divergence scales by 1/s^2 relative to the pullback
    assert np.allclose(dv, div(pts_ref) / s ** 2, rtol=1e-12)
    assert np.allclose(v, field(pts_ref) @ space.mesh.cell_matrix[0].T / s ** 2, rtol=1e-12)


def test_piola_rejects_flipped_cells():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        _connect(vertices, np.array([[0, 2, 1]]))
    flipped = dataclasses.replace(_connect(vertices, np.array([[0, 1, 2]])),
                                  cells=np.array([[0, 2, 1]]))
    with pytest.raises(el.GeometryError):
        build_space(flipped, "BDM", 1)


def test_piola_gradient_chain_rule(rng):
    space = _one_cell_space(SKEW_CELL)
    # reference linear field: gradient is constant and known
    g_ref = rng.standard_normal((2, 2))
    _, _, grads = _pushed_forward(space, lambda xi: xi @ g_ref.T,
                                  np.array([[0.2, 0.3], [0.6, 0.1]]))
    b = space.mesh.cell_matrix[0]
    expected = b @ g_ref @ np.linalg.inv(b) / space.mesh.cell_det[0]
    assert np.allclose(grads, expected, atol=1e-13)
