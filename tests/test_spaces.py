import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biotcgp import spaces as sps
from biotcgp.elements import triangle_rule
from biotcgp.mesh import refine_uniform, structured_mesh


def _random_point_in_cell(mesh, cell, rng):
    lam = rng.dirichlet([1.0, 1.0, 1.0])
    return lam @ mesh.vertices[mesh.cells[cell]]


def _point_eval(space, coeffs, cell, point):
    """Value, divergence and gradient of a BDM field at one point of ``cell``:
    a single-point ``tabulate_at`` contracted with the local coefficients."""
    point = np.asarray(point, dtype=float)
    vals, grads = space.tabulate_at([cell], point[None, None, :], grads=True)
    local = np.asarray(coeffs)[space.cell_dofs[cell]]
    grad = np.einsum("iab,i->ab", grads[0, 0], local)
    return vals[0, 0].T @ local, np.trace(grad), grad


# --- DOF counting ------------------------------------------------------------

def test_bdm1_counts_two_cell(mesh1):
    space = sps.build_space(mesh1, "BDM", 1, bc="zero_normal")
    assert space.ndofs == 10                       # 2 per edge x 5 edges
    assert int(space.constrained.sum()) == 8       # 4 boundary edges x 2
    assert space.free.size == 2


def test_dgp_counts(mesh1):
    space = sps.build_space(mesh1, "DGP", 0)
    assert space.ndofs == 2
    assert int(space.constrained.sum()) == 0


def test_counts_follow_mesh_quantities():
    mesh = structured_mesh(3, 2)
    fine = refine_uniform(mesh)
    for m in (mesh, fine):
        bdm1 = sps.build_space(m, "BDM", 1)
        assert bdm1.ndofs == 2 * m.num_edges
        bdm2 = sps.build_space(m, "BDM", 2)
        assert bdm2.ndofs == 3 * m.num_edges + 3 * m.num_cells
        p0 = sps.build_space(m, "DGP", 0)
        assert p0.ndofs == m.num_cells
        p1 = sps.build_space(m, "DGP", 1)
        assert p1.ndofs == 3 * m.num_cells


# --- evaluation ----------------------------------------------------------------

def test_zero_coefficients_zero_field(mesh2, rng):
    space = sps.build_space(mesh2, "BDM", 1)
    pt = _random_point_in_cell(mesh2, 3, rng)
    assert np.allclose(_point_eval(space, np.zeros(space.ndofs), 3, pt)[0], 0.0)


def test_constant_interpolation_and_div(mesh2, rng):
    space = sps.build_space(mesh2, "BDM", 1)
    coeffs = sps.interpolate_vector_field(
        space, lambda x: np.broadcast_to([1.0, 0.0], x.shape).copy())
    for _ in range(10):
        cell = int(rng.integers(0, mesh2.num_cells))
        pt = _random_point_in_cell(mesh2, cell, rng)
        value, div, _ = _point_eval(space, coeffs, cell, pt)
        assert np.allclose(value, [1.0, 0.0], atol=1e-13)
        assert abs(div) <= 1e-12


def test_linear_interpolation_div_two(mesh2, rng):
    space = sps.build_space(mesh2, "BDM", 1)
    coeffs = sps.interpolate_vector_field(space, lambda x: x.copy())
    for _ in range(10):
        cell = int(rng.integers(0, mesh2.num_cells))
        pt = _random_point_in_cell(mesh2, cell, rng)
        value, div, grad = _point_eval(space, coeffs, cell, pt)
        assert np.allclose(value, pt, atol=1e-12)
        assert abs(div - 2.0) <= 1e-12
        assert np.allclose(grad, np.eye(2), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(-3.0, 3.0), shift=st.floats(-2.0, 2.0))
def test_evaluation_linear_in_coefficients(scale, shift):
    mesh = structured_mesh(2, 2)
    space = sps.build_space(mesh, "BDM", 1)
    rng = np.random.default_rng(11)
    c1 = rng.standard_normal(space.ndofs)
    c2 = rng.standard_normal(space.ndofs)
    pt = np.array([0.3, 0.2])                      # inside cell 0
    v = _point_eval(space, scale * c1 + shift * c2, 0, pt)[0]
    v_lin = (scale * _point_eval(space, c1, 0, pt)[0]
             + shift * _point_eval(space, c2, 0, pt)[0])
    assert np.allclose(v, v_lin, atol=1e-11)


# --- conformity invariants --------------------------------------------------------

@pytest.mark.parametrize("degree", [1, 2])
def test_normal_trace_continuity(degree, rng):
    mesh = structured_mesh(3, 3)
    space = sps.build_space(mesh, "BDM", degree)
    coeffs = rng.standard_normal(space.ndofs)
    tr = space.edge_traces
    interior = tr.interior
    pick = interior[rng.integers(0, interior.size, 6)]
    for e in pick:
        idx = int(np.flatnonzero(interior == e)[0])
        c0, c1 = mesh.edge_cells[e]
        t0 = np.einsum("qia,i->qa", tr.values0[e], coeffs[space.cell_dofs[c0]])
        t1 = np.einsum("qia,i->qa", tr.values1[idx], coeffs[space.cell_dofs[c1]])
        n = tr.normals[e]
        assert np.abs((t0 - t1) @ n).max() <= 1e-11 * max(1.0, np.abs(t0).max())


@pytest.mark.parametrize("q", [11, 12])
def test_edge_traces_at_the_highest_quadrature_degrees(q):
    # build_space accepts every degree triangle_rule has; the edge rule of
    # (q + 3) // 2 = 7 points is past the slab-order cap of gauss_rule
    space = sps.build_space(structured_mesh(2, 2), "BDM", 1, quad_degree=q)
    tr = space.edge_traces
    assert tr.points.shape[1] == tr.s_nodes.size == (q + 3) // 2
    assert abs(tr.s_weights @ tr.s_nodes ** q - 1.0 / (q + 1)) <= 1e-14


def test_shared_edge_trace_from_both_cells(mesh1, rng):
    # single interior edge of the 2-cell mesh, 5 sample points
    space = sps.build_space(mesh1, "BDM", 1)
    coeffs = rng.standard_normal(space.ndofs)
    e = int(np.flatnonzero(~mesh1.boundary_edge)[0])
    a, b = mesh1.vertices[mesh1.edges[e]]
    n = mesh1.edge_normals[e]
    c0, c1 = mesh1.edge_cells[e]
    for s in np.linspace(0.05, 0.95, 5):
        pt = a + s * (b - a)
        v0 = _point_eval(space, coeffs, int(c0), pt)[0] @ n
        v1 = _point_eval(space, coeffs, int(c1), pt)[0] @ n
        assert abs(v0 - v1) <= 1e-12 * max(1.0, abs(v0))


@pytest.mark.parametrize("degree", [1, 2])
def test_tabulated_derivatives_match_central_differences(degree, perturbed_mesh):
    # central differences are exact for the polynomial degrees involved, so
    # only rounding (~eps / step) separates them from the tabulated data
    mesh = perturbed_mesh
    space = sps.build_space(mesh, "BDM", degree)
    cells = np.arange(mesh.num_cells)
    pts = space.volume.points
    step = 1e-4
    fd_grads = np.empty(space.volume.grads.shape)
    fd_seconds = np.empty(space.volume.grads.shape + (2,))
    for d in range(2):
        shift = step * np.eye(2)[d]
        vp, gp = space.tabulate_at(cells, pts + shift, grads=True)
        vm, gm = space.tabulate_at(cells, pts - shift, grads=True)
        fd_grads[..., d] = (vp - vm) / (2.0 * step)
        fd_seconds[..., d] = (gp - gm) / (2.0 * step)
    fd_divs = np.trace(fd_grads, axis1=-2, axis2=-1)
    # the one second-derivative row of a cell holds at every point of it
    seconds = np.broadcast_to(space.volume_seconds, fd_seconds.shape)
    for tabulated, fd in ((space.volume.grads, fd_grads), (space.volume.divs, fd_divs),
                          (seconds, fd_seconds)):
        assert np.abs(tabulated - fd).max() <= 1e-7 * max(1.0, np.abs(tabulated).max())


@pytest.mark.parametrize("degree", [1, 2])
def test_second_derivative_row_is_the_table_at_every_volume_point(degree, perturbed_mesh):
    # the monomials' second derivatives are the same constants at every
    # point, so the one row per cell is the point table bit for bit
    space = sps.build_space(perturbed_mesh, "BDM", degree)
    qp, _ = triangle_rule(space.quad_degree)
    table = space._piola(np.arange(perturbed_mesh.num_cells), qp, 2)[2]
    assert space.volume_seconds.shape == (perturbed_mesh.num_cells, 1) + table.shape[2:]
    assert np.array_equal(np.broadcast_to(space.volume_seconds, table.shape), table)


@pytest.mark.parametrize("degree", [1, 2])
def test_div_compatibility_with_scalar_space(degree, rng):
    mesh = structured_mesh(3, 3)
    space = sps.build_space(mesh, "BDM", degree)
    pspace = sps.build_space(mesh, "DGP", degree - 1)
    coeffs = rng.standard_normal(space.ndofs)
    divq = space.divs_on_quadrature(coeffs)
    # L2 projection onto the scalar space (diagonal modal mass)
    vals = pspace.volume.values
    w = pspace.volume.weights
    diag = np.repeat(mesh.areas, pspace.element.dim)
    proj = (np.einsum("cq,cq,cqi->ci", w, divq, vals).reshape(-1)) / diag
    recon = pspace.values_on_quadrature(proj)
    num = np.sqrt(np.einsum("cq,cq->", w, (divq - recon) ** 2))
    den = max(np.sqrt(np.einsum("cq,cq->", w, divq ** 2)), 1e-30)
    assert num / den <= 1e-12


@pytest.mark.parametrize("degree", [1, 2])
def test_vector_polynomial_reproduction(degree, rng):
    mesh = structured_mesh(2, 3)
    space = sps.build_space(mesh, "BDM", degree)
    coeff = rng.standard_normal((2, degree + 1, degree + 1))

    def poly(x):
        out = np.zeros_like(x)
        for comp in range(2):
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    out[:, comp] += coeff[comp, a, b] * x[:, 0] ** a * x[:, 1] ** b
        return out

    coeffs = sps.interpolate_vector_field(space, poly)
    for _ in range(10):
        cell = int(rng.integers(0, mesh.num_cells))
        pt = _random_point_in_cell(mesh, cell, rng)
        assert np.allclose(_point_eval(space, coeffs, cell, pt)[0], poly(pt[None])[0],
                           atol=1e-10)


@pytest.mark.parametrize("degree", [0, 1])
def test_scalar_polynomial_reproduction(degree, rng):
    mesh = structured_mesh(2, 2)
    space = sps.build_space(mesh, "DGP", degree)
    coeff = rng.standard_normal((degree + 1, degree + 1))

    def poly(x):
        out = np.zeros(x.shape[0])
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                out += coeff[a, b] * x[:, 0] ** a * x[:, 1] ** b
        return out

    coeffs = sps.project_scalar_field(space, poly)
    vals = space.values_on_quadrature(coeffs)
    expect = poly(space.volume.points.reshape(-1, 2)).reshape(vals.shape)
    assert np.abs(vals - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())


def test_mass_diagonal_is_shared_and_dgp_only(mesh2):
    # its values are checked against the quadrature mass through
    # Discretization.mass_p (tests/test_assembly.py)
    space = sps.build_space(mesh2, "DGP", 1)
    assert np.array_equal(space.mass_diagonal, np.repeat(mesh2.areas, 3))
    assert space.mass_diagonal is space.mass_diagonal
    assert not space.mass_diagonal.flags.writeable
    with pytest.raises(ValueError):
        sps.build_space(mesh2, "BDM", 1).mass_diagonal


def test_remove_mean(mesh2, perturbed_mesh):
    # both helpers act on mode 0 alone, without quadrature; quadrature is the
    # reference here, on stacks of rows and on meshes of unequal cells
    rng = np.random.default_rng(5)
    for mesh in (mesh2, perturbed_mesh, refine_uniform(perturbed_mesh)):
        for degree in (0, 1):
            space = sps.build_space(mesh, "DGP", degree)
            tab, nloc = space.volume, space.element.dim
            coeffs = np.stack([sps.project_scalar_field(space, lambda x: 1.7 + x[:, 0]),
                               rng.standard_normal(space.ndofs)])
            balanced = sps.remove_mean(space, coeffs)
            means = np.einsum("cq,cqi,sci->s", tab.weights, tab.values,
                              balanced[:, space.cell_dofs])
            assert np.all(np.abs(means) <= 1e-14 * np.abs(coeffs).max(axis=1))
            assert np.array_equal(np.delete(balanced, np.s_[::nloc], axis=1),
                                  np.delete(coeffs, np.s_[::nloc], axis=1))
            np.testing.assert_allclose(sps.remove_mean(space, coeffs[1]), balanced[1],
                                       rtol=0.0, atol=1e-15 * np.abs(coeffs[1]).max())

            # the load of the constant 1, stripped, acts on the constant 1 no more
            one = np.einsum("cq,cqi->ci", tab.weights, tab.values).ravel()
            loads = np.stack([one, rng.standard_normal(space.ndofs)])
            stripped = sps.remove_constant_load(space, loads)
            constant = sps.project_scalar_field(space, lambda x: np.ones(len(x)))
            assert np.all(np.abs(stripped @ constant)
                          <= 1e-14 * (np.abs(loads) @ np.abs(constant)))
            assert np.abs(stripped[0]).max() <= 1e-14 * np.abs(one).max()
