import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biotcgp import assembly as asm, spaces as sps
from biotcgp.elements import triangle_rule
from biotcgp.linalg import dense_min_eig_sym
from biotcgp.mesh import structured_mesh
from biotcgp.mms import DiscreteCase, default_mms, poly_factors
from biotcgp.slab import Discretization, SlabOperators
from biotcgp.time_basis import gauss_legendre_rule, gauss_lobatto_rule


# --- physical parameters -----------------------------------------------------

def test_default_params_consistent(params):
    assert params.rho_bar == pytest.approx(1.5)
    assert params.rho_bar * params.rho_w - params.rho_f ** 2 == pytest.approx(2.0)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(phi0=1.2), "phi0"),
    (dict(alpha=1.5), "alpha"),
    (dict(alpha=0.2), "alpha"),
    (dict(rho_w=0.5), "rho_w"),
    (dict(s0=0.0), "s0"),
    (dict(eta=-1.0), "eta"),
    (dict(kappa=np.array([[1.0, 2.0], [2.0, 1.0]])), "permeability"),
])
def test_parameter_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        asm.PhysicalParams(**kwargs)


def test_degenerate_fluid_density_allowed():
    # rho_f = 0 is the two-field limit and must produce a block-diagonal inertia
    p = asm.PhysicalParams(rho_f=0.0, rho_w=1.0)
    ops = SlabOperators(Discretization(structured_mesh(1, 1), 0, p), 1, 0.1)
    n = ops.n_bdm
    block = ops.disc.time_derivative_block
    assert abs(block[:n, 2 * n:3 * n]).max() == 0.0      # no w in the momentum row
    assert abs(block[2 * n:3 * n, n:2 * n]).max() == 0.0  # no v in the Darcy row


# --- mass matrices ---------------------------------------------------------------

def test_p0_mass_is_cell_areas(mesh2):
    space = sps.build_space(mesh2, "DGP", 0)
    m = asm.assemble_mass(space, 1.0).toarray()
    assert np.allclose(m, np.diag(mesh2.areas), atol=1e-15)


def test_weighted_measure(mesh2):
    space = sps.build_space(mesh2, "BDM", 1)
    m = asm.assemble_mass(space, 1.0)
    ones = sps.interpolate_vector_field(space, lambda x: np.ones_like(x))
    # int |(1,1)|^2 over the unit square
    assert ones @ (m @ ones) == pytest.approx(2.0, abs=1e-12)


def test_tensor_weight_factorizes(mesh2):
    space = sps.build_space(mesh2, "BDM", 1)
    m = asm.assemble_mass(space, 1.0)
    mk = asm.assemble_mass(space, 0.25 * np.eye(2))
    assert abs(mk - 0.25 * m).max() <= 1e-12 * abs(m).max()


def test_mass_weight_validation(mesh2):
    space = sps.build_space(mesh2, "BDM", 1)
    with pytest.raises(ValueError):
        asm.assemble_mass(space, -1.0)
    with pytest.raises(ValueError):
        asm.assemble_mass(space, np.array([[1.0, 0.0], [0.0, -2.0]]))


# --- elasticity form ---------------------------------------------------------------

@pytest.mark.parametrize("ell", [0, 1])
def test_elasticity_symmetry_and_coercivity(ell, mesh2):
    eta = 4.0 * (ell + 1) ** 2
    space = sps.build_space(mesh2, "BDM", ell + 1, bc="zero_normal")
    a = asm.assemble_elasticity(space, 1.0, 1.0, eta)
    assert abs(a - a.T).max() <= 1e-12 * abs(a).max()
    a_ff = a[np.ix_(space.free, space.free)].toarray()
    assert dense_min_eig_sym(a_ff) > 0.0


def test_elasticity_rejects_bad_penalty(mesh2):
    space = sps.build_space(mesh2, "BDM", 1, bc="zero_normal")
    with pytest.raises(ValueError):
        asm.assemble_elasticity(space, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("ell", [0, 1])
def test_penalty_scaling_psd(ell, mesh2):
    space = sps.build_space(mesh2, "BDM", ell + 1, bc="zero_normal")
    eta = 4.0 * (ell + 1) ** 2
    a1 = asm.assemble_elasticity(space, 1.0, 1.0, eta)
    a2 = asm.assemble_elasticity(space, 1.0, 1.0, 2.0 * eta)
    diff = (a2 - a1).toarray()
    assert dense_min_eig_sym(diff) >= -1e-12 * np.abs(diff).max()


def test_elasticity_consistency_rate(params):
    """a_h applied to interpolants of a smooth H^1_0 field approaches the
    analytic strain-plus-divergence energy at first order in h."""
    mu, lam, eta = 1.0, 1.0, 4.0
    case = default_mms(params, omega=4.0)
    t = 0.3
    u_fn = case.at("u", t)
    grad_fn = case.at("grad_u", t)

    # dense-quadrature oracle for the analytic energy, independent of a_h
    qp, qw = triangle_rule(10)
    fine = structured_mesh(24, 24)
    verts = fine.vertices[fine.cells]
    b = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
    det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    pts = np.einsum("cab,qb->cqa", b, qp) + verts[:, 0][:, None, :]
    g = grad_fn(pts.reshape(-1, 2)).reshape(pts.shape[:2] + (2, 2))
    eps = 0.5 * (g + np.swapaxes(g, -1, -2))
    div = np.trace(g, axis1=-2, axis2=-1)
    w = det[:, None] * qw[None, :]
    exact = float(2 * mu * np.einsum("cq,cqab,cqab->", w, eps, eps)
                  + lam * np.einsum("cq,cq,cq->", w, div, div))

    errors = []
    for nx in (4, 8, 16):
        mesh = structured_mesh(nx, nx)
        space = sps.build_space(mesh, "BDM", 1, bc="zero_normal")
        a = asm.assemble_elasticity(space, mu, lam, eta)
        coeffs = sps.interpolate_vector_field(space, u_fn)
        errors.append(abs(float(coeffs @ (a @ coeffs)) - exact))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(rates) >= 0.85, (errors, rates)


# --- divergence coupling --------------------------------------------------------------

def test_divergence_theorem(mesh2, rng):
    space = sps.build_space(mesh2, "BDM", 1, bc="zero_normal")
    pspace = sps.build_space(mesh2, "DGP", 0)
    b = asm.assemble_div_coupling(space, pspace, 1.0)
    p_one = sps.project_scalar_field(pspace, lambda x: np.ones(x.shape[0]))
    w = np.zeros(space.ndofs)
    w[space.free] = rng.standard_normal(space.free.size)
    assert abs(p_one @ (b.T @ w)) <= 1e-12


def test_div_coupling_rank(mesh2):
    # full rank over the pressure space modulo constants
    space = sps.build_space(mesh2, "BDM", 1, bc="zero_normal")
    pspace = sps.build_space(mesh2, "DGP", 0)
    b = asm.assemble_div_coupling(space, pspace, 1.0).toarray()
    rank = np.linalg.matrix_rank(b[space.free, :], tol=1e-10)
    assert rank == pspace.ndofs - 1


def test_zero_coefficient_zero_matrix(mesh2):
    space = sps.build_space(mesh2, "BDM", 1)
    pspace = sps.build_space(mesh2, "DGP", 0)
    assert abs(asm.assemble_div_coupling(space, pspace, 0.0)).max() == 0.0


# --- density block ----------------------------------------------------------------------

def _inertia_block(params):
    """The (v, w) inertia block the slab solver uses, on the free DOFs: rows
    {0, 2} x columns {1, 2} of ``Discretization.time_derivative_block``."""
    ops = SlabOperators(Discretization(structured_mesh(2, 2), 0, params), 1, 0.1)
    n = ops.n_bdm
    rows = np.r_[0:n, 2 * n:3 * n]
    cols = np.r_[n:3 * n]
    return ops.disc.time_derivative_block[rows][:, cols], n


def test_density_block_diagonal_limit():
    d, n = _inertia_block(asm.PhysicalParams(rho_f=0.0, rho_w=1.0))
    assert abs(d[:n, n:]).max() == 0.0
    assert abs(d[n:, :n]).max() == 0.0


def test_density_block_spd(params):
    d, _ = _inertia_block(params)
    assert abs(d - d.T).max() <= 1e-12 * abs(d).max()
    assert dense_min_eig_sym(d.toarray()) > 0.0


@settings(max_examples=50, deadline=None)
@given(rho_s=st.floats(0.1, 10.0), rho_f=st.floats(0.0, 5.0),
       phi0=st.floats(0.05, 0.95), slack=st.floats(0.0, 3.0))
def test_density_positivity_derived_from_bounds(rho_s, rho_f, phi0, slack):
    # rho_w >= rho_f/phi0 together with the mixture-density formula implies
    # the positive definiteness of the inertia block
    rho_w = max(rho_f / phi0, 1e-3) + slack
    p = asm.PhysicalParams(rho_s=rho_s, rho_f=rho_f, phi0=phi0, rho_w=rho_w)
    assert p.rho_bar * p.rho_w - p.rho_f ** 2 > 0.0


# --- load vectors ---------------------------------------------------------------------------

def test_zero_source_zero_load(mesh2):
    space = sps.build_space(mesh2, "BDM", 1)
    load = asm.assemble_load(space, asm.FieldSource([(np.cos, np.zeros_like)]), 0.1)
    assert abs(load).max() == 0.0


def test_constant_source_pairing(mesh2):
    space = sps.build_space(mesh2, "BDM", 1)
    src = asm.FieldSource(
        [(lambda t: 1.0, lambda x: np.broadcast_to([1.0, 0.0], x.shape).copy())])
    load = asm.assemble_load(space, src, 0.0)
    interp = sps.interpolate_vector_field(
        space, lambda x: np.broadcast_to([1.0, 0.0], x.shape).copy())
    assert load @ interp == pytest.approx(1.0, abs=1e-12)   # |Omega|


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
def test_load_linearity(a, b):
    mesh = structured_mesh(2, 2)
    space = sps.build_space(mesh, "BDM", 1)
    f1 = lambda x: np.stack([x[..., 0], x[..., 1] ** 2], axis=-1)
    f2 = lambda x: np.stack([np.sin(x[..., 1]), x[..., 0] * x[..., 1]], axis=-1)
    one = lambda t: 1.0
    combo = asm.FieldSource([(lambda t: a, f1), (lambda t: b, f2)])
    l1 = asm.assemble_load(space, asm.FieldSource([(one, f1)]), 0.0)
    l2 = asm.assemble_load(space, asm.FieldSource([(one, f2)]), 0.0)
    lc = asm.assemble_load(space, combo, 0.0)
    assert np.allclose(lc, a * l1 + b * l2, atol=1e-12)


def test_source_load_follows_time_and_space(mesh2):
    # the per-term loads are cached against one space; switching spaces and
    # back must give the loads of a fresh source at every time
    spaces = [sps.build_space(mesh2, "BDM", degree) for degree in (1, 2, 1)]
    profile = lambda x: np.stack([x[..., 0] * x[..., 1], np.cos(x[..., 0])], axis=-1)
    src = asm.FieldSource([(np.exp, profile), (lambda t: 1.0, profile)])
    for space, t in zip(spaces, (0.3, 0.5, 0.7)):
        fresh = asm.assemble_load(space, asm.FieldSource([(lambda t: 1.0, profile)]), t)
        assert np.allclose(asm.assemble_load(space, src, t), (np.exp(t) + 1.0) * fresh,
                           rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("temporal", ["trig", "poly"])
def test_loads_at_an_array_of_times_stack_the_single_time_loads(params, temporal):
    # one call at an array of times does the arithmetic of one call per time,
    # row by row: factors that return arrays, zero polynomials and constants
    disc = Discretization(structured_mesh(2, 2), 0, params)
    sources = (default_mms(params).sources() if temporal == "trig"
               else DiscreteCase(disc, poly_factors(1)).sources())
    constant = asm.FieldSource([(lambda t: 1.0, lambda x: np.ones(x.shape[:-1]))])
    times = 0.1 + 0.25 * gauss_lobatto_rule(3).nodes
    for space, src in ((disc.bdm, sources.f), (disc.bdm, sources.g),
                       (disc.dgp, sources.mass), (disc.dgp, constant)):
        rows = asm.assemble_load(space, src, times)
        assert rows.shape == (times.size, space.ndofs)
        assert np.array_equal(rows, np.stack([asm.assemble_load(space, src, t)
                                              for t in times]))
    assert np.array_equal(disc.pressure_load(sources.mass, times),
                          np.stack([disc.pressure_load(sources.mass, t) for t in times]))


# --- structural invariants ---------------------------------------------------------------------

def test_renumbering_invariance(mesh2, rng):
    """Assembled matrices transform as P A P^T under a DOF renumbering."""
    space = sps.build_space(mesh2, "BDM", 1, bc="zero_normal")
    a = asm.assemble_elasticity(space, 1.0, 1.0, 4.0).toarray()
    perm = rng.permutation(space.ndofs)
    shuffled = copy.copy(space)
    shuffled.cell_dofs = perm[space.cell_dofs]
    # cached tabulations carry over; only the numbering changed
    a_perm = asm.assemble_elasticity(shuffled, 1.0, 1.0, 4.0).toarray()
    assert np.allclose(a_perm[np.ix_(perm, perm)], a, atol=1e-12 * np.abs(a).max())


def test_galerkin_orthogonality_surrogate(params, params_ell1, quadratic_field):
    """Dual-route check: for a globally smooth member of the space, the matrix
    action on its interpolant equals the closure-based right-hand side, which
    is exactly the identity driving the elliptic projection."""
    mesh = structured_mesh(3, 3)
    space = sps.build_space(mesh, "BDM", 1)     # unconstrained: smooth globals live here
    a = asm.assemble_elasticity(space, params.mu, params.lam, params.eta)

    def sm_val(x):
        return np.stack([0.3 * x[:, 1] - 0.1 * x[:, 0], 0.2 * x[:, 0]], axis=-1)

    def sm_grad(x):
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = -0.1
        g[..., 0, 1] = 0.3
        g[..., 1, 0] = 0.2
        return g

    smooth = sps.interpolate_vector_field(space, sm_val)
    rhs = asm.assemble_elasticity_rhs(space, sm_val, sm_grad, params.mu,
                                      params.lam, params.eta)
    action = a @ smooth
    assert np.abs(rhs - action).max() <= 1e-10 * max(1.0, np.abs(action).max())

    # the same identity on BDM_2 (ell=1, eta=16) for a globally quadratic field
    val2, grad2 = quadratic_field
    space2 = sps.build_space(mesh, "BDM", 2)
    a2 = asm.assemble_elasticity(space2, params_ell1.mu, params_ell1.lam, params_ell1.eta)
    action2 = a2 @ sps.interpolate_vector_field(space2, val2)
    rhs2 = asm.assemble_elasticity_rhs(space2, val2, grad2, params_ell1.mu,
                                       params_ell1.lam, params_ell1.eta)
    assert np.abs(rhs2 - action2).max() <= 1e-10 * max(1.0, np.abs(action2).max())


# --- einsum references ----------------------------------------------------------------------
# The assembly contracts every cell and edge integral as one batched matmul
# (assembly._gram and assembly._moments).  These references spell the same
# integrals out index by index with np.einsum, on a mesh where no two cells
# are congruent and with a full permeability tensor.

REFERENCE_RTOL = 1e-13
FULL_KAPPA = np.array([[1.3, 0.4], [0.4, 0.9]])


def _smooth_field(x):
    return np.stack([np.sin(2.0 * x[..., 0]) * x[..., 1], np.cos(x[..., 1]) + x[..., 0] ** 2],
                    axis=-1)


def _smooth_grad(x):
    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 2.0 * np.cos(2.0 * x[..., 0]) * x[..., 1]
    g[..., 0, 1] = np.sin(2.0 * x[..., 0])
    g[..., 1, 0] = 2.0 * x[..., 0]
    g[..., 1, 1] = -np.sin(x[..., 1])
    return g


def _relative_error(got, want):
    got = got.toarray() if hasattr(got, "toarray") else got
    return np.abs(got - want).max() / np.abs(want).max()


def _dense(shape, row_dofs, col_dofs, local):
    out = np.zeros(shape)
    np.add.at(out, (row_dofs[:, :, None], col_dofs[:, None, :]), local)
    return out


def _vector(ndofs, dofs, local):
    out = np.zeros(ndofs)
    np.add.at(out, dofs, local)
    return out


def _tangential(values, n):
    return values - np.einsum("eqia,ea->eqi", values, n)[..., None] * n[:, None, None, :]


def _edge_data(space):
    mesh, tr = space.mesh, space.edge_traces
    boundary = np.flatnonzero(mesh.boundary_edge)
    wq = mesh.h_edge[:, None] * tr.s_weights[None, :]
    return mesh, tr, tr.interior, boundary, wq


def _reference_elasticity(space, mu, lam, eta):
    tab = space.volume
    eps = 0.5 * (tab.grads + np.swapaxes(tab.grads, -1, -2))
    local = (2.0 * mu * np.einsum("cq,cqiab,cqjab->cij", tab.weights, eps, eps)
             + lam * np.einsum("cq,cqi,cqj->cij", tab.weights, tab.divs, tab.divs))
    shape = (space.ndofs, space.ndofs)
    out = _dense(shape, space.cell_dofs, space.cell_dofs, local)
    mesh, tr, interior, boundary, wq = _edge_data(space)
    nd = space.element.dim

    def add_edges(ids, avg, jump, dofs):
        cons = np.einsum("eq,eqia,eqja->eij", wq[ids], avg, jump)
        pen = np.einsum("e,eq,eqia,eqja->eij", 1.0 / mesh.h_edge[ids], wq[ids], jump, jump)
        local_e = -2.0 * mu * (cons + np.swapaxes(cons, 1, 2)) + 2.0 * mu * eta * pen
        return _dense(shape, dofs, dofs, local_e)

    n = tr.normals[interior]
    avg = np.zeros(tr.values0[interior].shape[:2] + (2 * nd, 2))
    jump = np.zeros_like(avg)
    avg[:, :, :nd] = 0.5 * np.einsum("eqiab,eb->eqia", tr.strains0[interior], n)
    avg[:, :, nd:] = 0.5 * np.einsum("eqiab,eb->eqia", tr.strains1, n)
    jump[:, :, :nd] = _tangential(tr.values0[interior], n)
    jump[:, :, nd:] = -_tangential(tr.values1, n)
    union = np.concatenate([space.cell_dofs[mesh.edge_cells[interior, 0]],
                            space.cell_dofs[mesh.edge_cells[interior, 1]]], axis=1)
    out += add_edges(interior, avg, jump, union)
    n = tr.normals[boundary]
    out += add_edges(boundary, np.einsum("eqiab,eb->eqia", tr.strains0[boundary], n),
                     _tangential(tr.values0[boundary], n),
                     space.cell_dofs[mesh.edge_cells[boundary, 0]])
    return out


def _reference_elasticity_rhs(space, mu, lam, eta):
    tab = space.volume
    eps = 0.5 * (tab.grads + np.swapaxes(tab.grads, -1, -2))
    g = _smooth_grad(tab.points)
    eps_y = 0.5 * (g + np.swapaxes(g, -1, -2))
    div_y = np.trace(g, axis1=-2, axis2=-1)
    local = (2.0 * mu * np.einsum("cq,cqab,cqiab->ci", tab.weights, eps_y, eps)
             + lam * np.einsum("cq,cq,cqi->ci", tab.weights, div_y, tab.divs))
    out = _vector(space.ndofs, space.cell_dofs, local)
    mesh, tr, interior, boundary, wq = _edge_data(space)
    gy = _smooth_grad(tr.points)
    eps_ex = 0.5 * (gy + np.swapaxes(gy, -1, -2))
    n = tr.normals[interior]
    avg_y = np.einsum("eqab,eb->eqa", eps_ex[interior], n)
    for side, vals, sign in ((0, tr.values0[interior], 1.0), (1, tr.values1, -1.0)):
        jump_i = sign * _tangential(vals, n)
        out += _vector(space.ndofs, space.cell_dofs[mesh.edge_cells[interior, side]],
                       -2.0 * mu * np.einsum("eq,eqa,eqia->ei", wq[interior], avg_y, jump_i))
    n = tr.normals[boundary]
    y = _smooth_field(tr.points[boundary])
    tang_y = y - np.einsum("eqa,ea->eq", y, n)[..., None] * n[:, None, :]
    avg_y = np.einsum("eqab,eb->eqa", eps_ex[boundary], n)
    avg_i = np.einsum("eqiab,eb->eqia", tr.strains0[boundary], n)
    jump_i = _tangential(tr.values0[boundary], n)
    w = wq[boundary]
    local = (-2.0 * mu * np.einsum("eq,eqa,eqia->ei", w, avg_y, jump_i)
             - 2.0 * mu * np.einsum("eq,eqia,eqa->ei", w, avg_i, tang_y)
             + 2.0 * mu * eta * np.einsum("e,eq,eqa,eqia->ei", 1.0 / mesh.h_edge[boundary],
                                          w, tang_y, jump_i))
    return out + _vector(space.ndofs, space.cell_dofs[mesh.edge_cells[boundary, 0]], local)


def _reference_interpolant(space):
    """The canonical BDM interpolant of _smooth_field: edge moments against
    P_r, then the area-normalized interior moments of BDM_2."""
    mesh, r, npe = space.mesh, space.degree, space.element.n_edge_dofs
    rule = gauss_legendre_rule(sps.DENSE_EDGE_POINTS)
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    vals = _smooth_field(a[:, None, :] + rule.nodes[None, :, None] * (b - a)[:, None, :])
    vn = np.einsum("eqa,ea->eq", vals, mesh.edge_normals)
    powers = rule.nodes[None, :] ** np.arange(r + 1)[:, None]
    moments = np.einsum("q,iq,eq->ei", rule.weights, powers, vn)
    gram = 1.0 / (np.arange(r + 1)[:, None] + np.arange(r + 1)[None, :] + 1.0)
    nodal = (np.linalg.solve(gram, moments.T).T
             @ (space.element.edge_points[None, :] ** np.arange(r + 1)[:, None]))
    coeffs = np.zeros(space.ndofs)
    coeffs[:mesh.num_edges * npe] = nodal.reshape(-1)
    if space.element.n_interior_dofs:
        qp, qw = triangle_rule(min(space.quad_degree + 4, 12))
        verts = mesh.vertices[mesh.cells]
        bmat = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
        v = _smooth_field(np.einsum("cab,qb->cqa", bmat, qp) + verts[:, 0][:, None, :])
        w = np.broadcast_to(2.0 * qw, v.shape[:2])      # moments divided by the cell area
        curl = space._bubble_curl_physical(qp)
        interior = np.stack([np.einsum("cq,cq->c", w, v[..., 0]),
                             np.einsum("cq,cq->c", w, v[..., 1]),
                             np.einsum("cq,cqa,cqa->c", w, v, curl)], axis=1)
        coeffs[mesh.num_edges * npe:] = interior.reshape(-1)
    return coeffs


@pytest.mark.parametrize("ell", [0, 1])
def test_operators_match_einsum_references(ell, perturbed_mesh):
    params = asm.PhysicalParams(kappa=FULL_KAPPA, eta=4.0 * (ell + 1) ** 2, lam=2.0, mu=1.3)
    disc = Discretization(perturbed_mesh, ell, params)
    bdm, dgp = disc.bdm, disc.dgp
    tv, tp = bdm.volume, dgp.volume
    nb, npp = bdm.ndofs, dgp.ndofs
    mass = np.einsum("cq,cqia,cqja->cij", tv.weights, tv.values, tv.values)
    kinv = np.einsum("cq,cqia,ab,cqjb->cij", tv.weights, tv.values, params.kappa_inv,
                     tv.values)
    div = np.einsum("cq,cqi,cqj->cij", tv.weights, tv.divs, tp.values)
    # Discretization.mass_p is the diagonal of cell areas that the modal
    # basis promises (FunctionSpace.mass_diagonal), not an assembled matrix:
    # this quadrature reference is where that promise is checked
    mass_p = np.einsum("cq,cqi,cqj->cij", tp.weights, tp.values, tp.values)
    cases = {
        "mass_bdm": (disc.mass_bdm, _dense((nb, nb), bdm.cell_dofs, bdm.cell_dofs, mass)),
        "mass_kinv": (disc.mass_kinv, _dense((nb, nb), bdm.cell_dofs, bdm.cell_dofs, kinv)),
        "mass_p": (disc.mass_p, _dense((npp, npp), dgp.cell_dofs, dgp.cell_dofs, mass_p)),
        "div_w": (disc.div_w, _dense((nb, npp), bdm.cell_dofs, dgp.cell_dofs, div)),
        "div_u_alpha": (disc.div_u_alpha,
                        params.alpha * _dense((nb, npp), bdm.cell_dofs, dgp.cell_dofs, div)),
        "elasticity": (disc.elasticity,
                       _reference_elasticity(bdm, params.mu, params.lam, params.eta)),
    }
    for name, (got, want) in cases.items():
        assert _relative_error(got, want) <= REFERENCE_RTOL, name


@pytest.mark.parametrize("ell", [0, 1])
def test_loads_and_interpolant_match_einsum_references(ell, perturbed_mesh):
    params = asm.PhysicalParams(kappa=FULL_KAPPA, eta=4.0 * (ell + 1) ** 2, lam=2.0, mu=1.3)
    disc = Discretization(perturbed_mesh, ell, params)
    bdm, dgp = disc.bdm, disc.dgp
    tv, tp = bdm.volume, dgp.volume
    scalar = lambda x: np.sin(3.0 * x[..., 0]) + x[..., 1] ** 2
    one = lambda t: 1.0
    cases = {
        "vector load": (
            asm.assemble_load(bdm, asm.FieldSource([(one, _smooth_field)]), 0.0),
            _vector(bdm.ndofs, bdm.cell_dofs, np.einsum(
                "cq,cqa,cqia->ci", tv.weights, _smooth_field(tv.points), tv.values))),
        "scalar load": (
            asm.assemble_load(dgp, asm.FieldSource([(one, scalar)]), 0.0),
            _vector(dgp.ndofs, dgp.cell_dofs, np.einsum(
                "cq,cq,cqi->ci", tp.weights, scalar(tp.points), tp.values))),
        "elasticity rhs": (
            asm.assemble_elasticity_rhs(bdm, _smooth_field, _smooth_grad, params.mu,
                                        params.lam, params.eta),
            _reference_elasticity_rhs(bdm, params.mu, params.lam, params.eta)),
        "interpolant": (sps.interpolate_vector_field(bdm, _smooth_field),
                        _reference_interpolant(bdm)),
    }
    for name, (got, want) in cases.items():
        assert _relative_error(got, want) <= REFERENCE_RTOL, name
