import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from biotcgp import linalg, mms
from biotcgp import slab
from biotcgp import spaces as sps
from biotcgp.assembly import FieldSource, PhysicalParams, assemble_elasticity_rhs, assemble_load
from biotcgp.mesh import structured_mesh
from biotcgp.slab import (Discretization, SlabOperators, SlabState, SourceSet,
                          TimeGrid, march, project_initial_data)
from biotcgp.time_basis import MAX_ORDER, composite_simpson, gauss_rule, lagrange_basis
from biotcgp.verification import mass_conservation_audit
from compare_script import read_legacy_vtk
from sampling import eval_at


@pytest.fixture(scope="module")
def disc4(params):
    return Discretization(structured_mesh(4, 4), ell=0, params=params)


@pytest.fixture(scope="module")
def disc1(params):
    return Discretization(structured_mesh(1, 1), ell=0, params=params)


def _p_volume(disc):
    """Load of the constant 1 against the pressure basis, by quadrature: a
    reference independent of the modal-basis facts the solver relies on."""
    return assemble_load(disc.dgp, FieldSource([(lambda t: 1.0,
                                                 lambda x: np.ones(x.shape[:-1]))]), 0.0)


# --- grids and states ---------------------------------------------------------

def test_time_grid_basics():
    grid = TimeGrid(0.5, 4)
    assert grid.tau == 0.125
    assert np.allclose(grid.endpoints, [0, 0.125, 0.25, 0.375, 0.5])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_initial_projection_zero_fields(disc4):
    zero_v = lambda x: np.zeros_like(x)
    zero_s = lambda x: np.zeros(x.shape[0])
    state = project_initial_data(disc4, zero_v, zero_v, zero_v, zero_s)
    assert all(np.abs(getattr(state, f)).max() == 0.0 for f in ("u", "v", "w", "p"))


def test_initial_pressure_mean_removed(disc4):
    state = project_initial_data(
        disc4, lambda x: np.zeros_like(x), lambda x: np.zeros_like(x),
        lambda x: np.zeros_like(x), lambda x: 2.0 + x[:, 0])
    vals = disc4.dgp.values_on_quadrature(state.p)
    mean = np.einsum("cq,cq->", disc4.dgp.volume.weights, vals)
    assert abs(mean) <= 1e-12


def test_initial_flux_boundary_dofs_vanish(disc4):
    w0 = lambda x: np.stack([np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
                             np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])], axis=-1)
    coeffs = sps.interpolate_vector_field(disc4.bdm, w0)
    assert np.abs(coeffs[disc4.bdm.constrained]).max() <= 1e-12


# --- slab systems -----------------------------------------------------------------

def test_zero_run_stays_zero(disc4):
    grid = TimeGrid(0.5, 2)
    traj = march(disc4, 1, grid, SlabState.zeros(disc4), SourceSet())
    assert sum(np.abs(traj.coeffs[f]).max() for f in ("u", "v", "w", "p")) == 0.0
    # a source left out is the empty sum: every block of the stack is zero
    ops = SlabOperators(disc4, 2, grid.tau)
    loads = ops._load_stack(SourceSet(), grid.tau * ops.gl_nodes)
    assert loads.shape == (3, ops.block_size)
    assert not loads.any()


def test_unknown_count_two_cell_mesh(disc1):
    # k (u_free + v_free + w_free + p) unknowns, and as many right-hand side
    # rows; on the 2-cell mesh all three vector spaces have 2 free DOFs and p
    # has 2
    for k in (1, 3):
        ops = SlabOperators(disc1, k, 0.5)
        assert ops.block_size == 2 + 2 + 2 + 2
        assert ops.inner_matrix.shape == (8 * k, 8 * k)
        loads = ops._load_stack(SourceSet(), 0.5 * ops.gl_nodes)
        rhs = ops.rhs(np.ones(ops.block_size), loads)
        assert rhs.shape == ops.solve(rhs).shape == (8 * k,)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_time_coupling_weights_against_oracle(disc1, k):
    ops = SlabOperators(disc1, k, 0.25)
    basis_g0 = lagrange_basis("G0", k)
    basis_g = lagrange_basis("G", k)
    basis_gl = lagrange_basis("GL", k)
    for m in range(k):
        for i in range(k + 1):
            dt = composite_simpson(
                lambda t: np.asarray(basis_g0.deriv(i, t)) * np.asarray(basis_g.eval(m, t)),
                0.0, 1.0)
            ms = composite_simpson(
                lambda t: np.asarray(basis_g0.eval(i, t)) * np.asarray(basis_g.eval(m, t)),
                0.0, 1.0)
            src = composite_simpson(
                lambda t: np.asarray(basis_gl.eval(i, t)) * np.asarray(basis_g.eval(m, t)),
                0.0, 1.0)
            assert abs(ops.theta_dt[m, i] - dt) <= 1e-13
            assert abs(ops.theta_mass[m, i] - ms) <= 1e-13
            assert abs(ops.theta_src[m, i] - src) <= 1e-13


@pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
def test_mass_weights_are_the_gauss_weights(disc1, k):
    # the G0 basis is nodal at the Gauss nodes, so the left-end column
    # vanishes and the stage block is diag(gauss weights), both exactly
    theta_mass = SlabOperators(disc1, k, 0.25).theta_mass
    assert np.array_equal(theta_mass[:, 0], np.zeros(k))
    assert np.array_equal(theta_mass[:, 1:], np.diag(gauss_rule(k).weights))


def test_build_and_solve_single_slab(disc4, params):
    case = mms.DiscreteCase(disc4, mms.poly_factors(1))
    grid = TimeGrid(0.5, 1)
    ops = SlabOperators(disc4, 1, grid.tau)
    loads = ops._load_stack(case.sources(), grid.endpoints[0] + grid.tau * ops.gl_nodes)
    rhs = ops.rhs(ops.restrict_state(case.initial_state()), loads)
    node = ops.solve(rhs)[:ops.block_size]
    exact = case.exact_state(grid.tau * gauss_rule(1).nodes[0])
    assert np.abs(node - ops.restrict_state(exact)).max() <= 1e-9


def _assembled_inner(ops):
    """The coupled slab matrix theta_dt ⊗ T + tau theta_mass ⊗ S, assembled."""
    return (sp.kron(ops.theta_dt[:, 1:], ops.disc.time_derivative_block)
            + ops.tau * sp.kron(ops.theta_mass[:, 1:], ops.disc.stationary_block)).tocsc()


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
def test_inner_operator_matches_assembled_kronecker(params, rng, k, ell):
    disc = Discretization(structured_mesh(3, 3), ell, params)
    ops = SlabOperators(disc, k, 0.1)
    n = k * ops.block_size
    assert not sp.issparse(ops.inner_matrix)
    assert ops.inner_matrix.shape == (n, n)
    reference = _assembled_inner(ops)
    t_block, s_block = disc.time_derivative_block, disc.stationary_block
    for _ in range(2):
        x = rng.standard_normal(n)
        want = reference @ x
        got = ops.inner_matrix @ x
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        # one [T; S] product per node gives the bits of separate T and S products
        nodes = x.reshape(k, -1)
        separate = (ops.theta_dt[:, 1:] @ np.stack([t_block @ xj for xj in nodes])
                    + ops.tau * (ops.theta_mass[:, 1:] @ np.stack([s_block @ xj for xj in nodes])))
        assert np.array_equal(got, separate.ravel())


def test_slab_blocks_built_once_per_discretization(params, monkeypatch):
    # T and S depend on neither tau nor k: operators of several slab lengths
    # and orders share the one stacked block [T; S] of their discretization,
    # and T and S are views of its rows, so one copy of them is resident
    built = []
    bmat = slab.sp.bmat

    def recording(*args, **kwargs):
        built.append(1)
        return bmat(*args, **kwargs)
    monkeypatch.setattr(slab.sp, "bmat", recording)
    disc = Discretization(structured_mesh(2, 2), 0, params)
    ops = [SlabOperators(disc, k, tau) for k, tau in ((1, 0.1), (2, 0.1), (2, 0.05))]
    for o in ops:
        o.solve(np.ones(o.inner_matrix.shape[0]))
    assert len(built) == 2
    blocks = disc.slab_blocks
    n = blocks.shape[1]
    assert blocks.shape == (2 * n, n)
    for o in ops:
        assert o.inner_matrix.blocks is blocks
    for block, rows in ((disc.time_derivative_block, slice(0, n)),
                        (disc.stationary_block, slice(n, 2 * n))):
        assert np.shares_memory(block.data, blocks.data)
        assert np.shares_memory(block.indices, blocks.indices)
        want = blocks[rows]
        assert block.shape == (n, n) and block.has_canonical_format
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, attr), getattr(want, attr))


def test_slab_operators_freed_without_the_collector(disc4, monkeypatch):
    # the stage LUs are the largest objects of a march; a reference cycle
    # through the operator's matvec would keep them until a collection
    refs = []
    init = SlabOperators.__init__

    def recording(ops, *args):
        init(ops, *args)
        refs.append(weakref.ref(ops))
    monkeypatch.setattr(SlabOperators, "__init__", recording)
    case = mms.default_mms(disc4.params)
    gc.collect()
    gc.disable()
    try:
        march(disc4, 2, TimeGrid(0.5, 2), case.initial_state(disc4), case.sources())
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_march_makes_2k_plus_1_block_products_per_slab(disc4, monkeypatch, k):
    # per slab: one product of T for the right-hand side, and one product of
    # the stacked [T; S] per node in each of the two coupled matvecs (the
    # refinement step and the residual check)
    case = mms.default_mms(disc4.params, omega=4.0)
    initial, sources = case.initial_state(disc4), case.sources()
    blocks, t_block = disc4.slab_blocks, disc4.time_derivative_block
    products = []
    matmul = sp.csr_matrix.__matmul__

    def recording(matrix, other):
        products.append("[T; S]" if matrix is blocks else "T" if matrix is t_block else "other")
        return matmul(matrix, other)
    monkeypatch.setattr(sp.csr_matrix, "__matmul__", recording)
    grid = TimeGrid(0.5, 5)
    march(disc4, k, grid, initial, sources)
    assert len(products) == grid.num_slabs * (2 * k + 1)
    assert products.count("[T; S]") == grid.num_slabs * 2 * k
    assert products.count("T") == grid.num_slabs


def test_load_stack_is_the_free_columns_of_the_full_loads(disc4):
    # the f and g loads are accumulated in their free columns only, term by
    # term in the order of the full-DOF loads, so the bits do not move
    case = mms.default_mms(disc4.params, omega=4.0)
    sources = case.sources()
    ops = SlabOperators(disc4, 2, 0.1)
    times = np.linspace(0.0, 0.5, 7)
    stack = ops._load_stack(sources, times)
    n, free = ops.n_bdm, ops.free

    def full_load(source):
        full = np.zeros((len(times), disc4.bdm.ndofs))
        for (factor, _), load in zip(source.terms, source.term_loads(disc4.bdm)):
            full += np.multiply.outer(factor(times), load)
        return full
    assert len(sources.f.terms) > 2 and len(sources.g.terms) > 2
    assert np.array_equal(stack[:, :n], full_load(sources.f)[:, free])
    assert not stack[:, n:2 * n].any()
    assert np.array_equal(stack[:, 2 * n:3 * n], full_load(sources.g)[:, free])
    assert np.array_equal(stack[:, 3 * n:], disc4.pressure_load(sources.mass, times))
    assert np.abs(stack[:, 3 * n:]).max() > 0.0


# --- decoupled stage solves -----------------------------------------------------------

def _recording_lu(monkeypatch):
    calls = []
    original = slab.lu_factor

    def recorded(matrix):
        lu = original(matrix)
        calls.append((matrix, lu))
        return lu
    monkeypatch.setattr(slab, "lu_factor", recorded)
    return calls


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
def test_stage_solve_matches_coupled_direct_solve(params, rng, monkeypatch, k, ell):
    # the reference pins each stage pressure's mean to zero by one Lagrange
    # multiplier per stage in a bordered system, [[K, C^T], [C, 0]]; the
    # slab solve projects instead, and down to s0 = 1e-16, where the constant
    # pressure mode is nearly singular, it must give the same stage values
    calls = _recording_lu(monkeypatch)
    for s0 in (params.s0, 1e-8, 1e-16):
        disc = Discretization(structured_mesh(3, 3), ell, replace(params, s0=s0))
        ops = SlabOperators(disc, k, 0.1)
        del calls[:]
        n = ops.inner_matrix.shape[0]
        c = np.kron(np.eye(k), np.concatenate([np.zeros(3 * ops.n_bdm), _p_volume(disc)]))
        bordered = sp.bmat([[_assembled_inner(ops), c.T], [c, None]], format="csc")
        for _ in range(2):
            rhs = rng.standard_normal(n)
            got = ops.solve(rhs)
            want = spla.spsolve(bordered, np.concatenate([rhs, np.zeros(k)]))[:n]
            assert got.dtype == np.float64
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # one LU per real eigenvalue or conjugate pair of the stage matrix,
        # each of one spatial block, built once for all solves
        assert ([matrix.shape for matrix, _ in calls]
                == [(ops.block_size, ops.block_size)] * ((k + 1) // 2))
    # only k = 1 has no conjugate pair, and there the stage transforms stay real
    stages = ops._factor.inner
    assert np.isrealobj(stages.to_stage) == np.isrealobj(stages.from_stage) == (k == 1)


def test_stage_lus_keep_diagonal_pivots_and_low_fill(params, rng, monkeypatch):
    # the stage matrices are structurally symmetric with a nonzero diagonal:
    # the symmetric ordering must survive pivoting and beat SuperLU's defaults
    disc = Discretization(structured_mesh(8, 8), 0, params)
    ops = SlabOperators(disc, 2, 1.0 / 16.0)
    calls = _recording_lu(monkeypatch)
    ops.solve(rng.standard_normal(ops.inner_matrix.shape[0]))
    assert calls
    for matrix, lu in calls:
        assert np.array_equal(lu.perm_r, lu.perm_c)
        default = spla.splu(sp.csc_matrix(matrix))
        assert lu.L.nnz + lu.U.nnz <= 0.6 * (default.L.nnz + default.U.nnz)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_high_order_stiff_audit(k):
    params = PhysicalParams(lam=1e4)
    disc = Discretization(structured_mesh(4, 4), 1, params)
    case = mms.default_mms(params)
    sources = case.sources()
    traj = march(disc, k, TimeGrid(0.5, 4), case.initial_state(disc), sources)
    assert mass_conservation_audit(traj, sources) <= 1e-9


@pytest.mark.parametrize("lam, s0, kappa, rho_f, cells, ell, k, slabs", [
    pytest.param(1e6, 1.0, 1.0, 1.0, 8, 0, 2, 8, id="lam1e6"),
    pytest.param(1e6, 1e-8, 1e-6, 1.0, 8, 0, 2, 8, id="lam1e6-s0_1e-8-kappa1e-6"),
    pytest.param(1e6, 1e-8, 1e-6, 0.0, 8, 0, 2, 8, id="lam1e6-s0_1e-8-kappa1e-6-rhof0"),
    pytest.param(1.0, 2e-8, 1.0, 1.0, 8, 0, 2, 8, id="s0_2e-8"),
    pytest.param(1.0, 1e-10, 1.0, 1.0, 8, 0, 2, 8, id="s0_1e-10"),
    pytest.param(1.0, 1e-14, 1.0, 1.0, 8, 0, 2, 8, id="s0_1e-14"),
    pytest.param(1.0, 1e-12, 1.0, 1.0, 4, 1, 6, 4, id="s0_1e-12-k6-ell1"),
    pytest.param(1.0, 1e-15, 1.0, 1.0, 8, 0, 2, 8, id="s0_1e-15"),
    pytest.param(1.0, 1e-16, 1.0, 1.0, 8, 0, 2, 8, id="s0_1e-16"),
    pytest.param(1.0, 1e-16, 1.0, 1.0, 8, 1, 2, 8, id="s0_1e-16-ell1"),
    pytest.param(1.0, 1e-16, 1.0, 1.0, 4, 1, 6, 4, id="s0_1e-16-k6-ell1"),
    pytest.param(1e6, 1e-16, 1.0, 1.0, 4, 1, 6, 4, id="lam1e6-s0_1e-16-k6-ell1"),
    pytest.param(1e6, 1e-16, 1e-6, 0.0, 4, 1, 6, 4, id="lam1e6-s0_1e-16-kappa1e-6-rhof0-k6-ell1"),
    pytest.param(1e6, 1e-8, 1e-6, 1.0, 4, 1, 6, 4, id="lam1e6-s0_1e-8-kappa1e-6-k6-ell1"),
    pytest.param(1e6, 1e-8, 1e-6, 0.0, 4, 1, 6, 4,
                 id="lam1e6-s0_1e-8-kappa1e-6-rhof0-k6-ell1"),
])
def test_stiff_slab_residual_per_field_block(monkeypatch, lam, s0, kappa, rho_f, cells,
                                             ell, k, slabs):
    # the lambda-scaled u rows dominate ||b||, so a passing global residual
    # says little about the v, w and p rows; check each field block alone.
    # Small s0 and kappa shrink the diagonal of the p and w rows that the
    # static pivots of the stage LUs rely on; from s0 = 1e-10 down the
    # pressure pivots are raised before factoring and a second refinement
    # step is taken.  Above that the pivots stand, but one step from a
    # predicted start leaves the field blocks off by about eps over the
    # smallest pivot-to-column ratio (4.3e-10 in u at s0 = 2e-8), so the
    # start is dropped wherever that exceeds the residual contract.
    params = PhysicalParams(lam=lam, s0=s0, kappa=kappa * np.eye(2), rho_f=rho_f)
    disc = Discretization(structured_mesh(cells, cells), ell, params)
    case = mms.default_mms(params)
    sources = case.sources()
    solved = []
    solve = SlabOperators.solve

    def recording(ops, rhs, start=None):
        x = solve(ops, rhs, start)
        solved.append((ops, rhs, x))
        return x
    monkeypatch.setattr(SlabOperators, "solve", recording)
    traj = march(disc, k, TimeGrid(0.5, slabs), case.initial_state(disc), sources)

    assert len(solved) == slabs
    for ops, rhs, x in solved:
        residual, scale = _field_block_norms(ops, rhs, x)
        assert np.all(residual <= 1e-10 * scale)
    assert mass_conservation_audit(traj, sources) <= 1e-9


@pytest.mark.parametrize("cells, ell, k, slabs", [(8, 0, 2, 64), (4, 1, 6, 4)])
def test_stored_pressures_have_zero_mean(cells, ell, k, slabs):
    # at s0 = 1e-16 the constant pressure mode of the slab system is nearly
    # singular, and a solve's rounding moves it by 4e-3 (k = 2) to 2e-2
    # (k = 6) of the pressure; the slab solve removes each stage pressure's
    # mean after it
    params = PhysicalParams(s0=1e-16)
    disc = Discretization(structured_mesh(cells, cells), ell, params)
    case = mms.default_mms(params)
    traj = march(disc, k, TimeGrid(0.5, slabs), case.initial_state(disc), case.sources())
    p = traj.coeffs["p"]
    assert np.all(np.abs(p @ _p_volume(disc)) <= 1e-14 * np.abs(p).max(axis=-1))


def _field_block_norms(ops, rhs, x):
    """Norms of the residual and of the right-hand side of one slab solve on
    its u, v, w and p rows.  The residual's action on each stage's constant
    pressure, which the solve removes from the right-hand side, is left
    out."""
    disc, nb = ops.disc, ops.n_bdm
    residual = (ops.inner_matrix @ x - rhs).reshape(ops.k, -1)
    residual[:, 3 * nb:] = sps.remove_constant_load(disc.dgp, residual[:, 3 * nb:])
    residual = residual.ravel()
    rows = np.arange(len(rhs)) % ops.block_size
    blocks = (rows < nb, (nb <= rows) & (rows < 2 * nb),
              (2 * nb <= rows) & (rows < 3 * nb), rows >= 3 * nb)
    return (np.array([np.linalg.norm(residual[block]) for block in blocks]),
            np.array([np.linalg.norm(rhs[block]) for block in blocks]))


def test_predictor_gate_keeps_stiff_field_blocks(monkeypatch):
    # negative control of the pivot gate: at lam = 1e6 and s0 = 1e-16 the
    # pressure pivots are raised, and one refinement step from the predicted
    # start with that sqrt(eps)-accurate inverse meets the lambda-dominated
    # global contract but leaves the v, w and p rows far off
    params = PhysicalParams(lam=1e6, s0=1e-16)
    disc = Discretization(structured_mesh(4, 4), 1, params)
    case = mms.default_mms(params)
    ratios = []
    init = slab.GaussStages.__init__

    def opened(stages, *args):
        init(stages, *args)
        ratios.append(stages.pivot_ratio)
        stages.pivot_ratio = 1.0
    monkeypatch.setattr(slab.GaussStages, "__init__", opened)
    solved, started = [], []
    solve = SlabOperators.solve

    def recording(ops, rhs, start=None):
        x = solve(ops, rhs, start)
        solved.append((ops, rhs, x))
        started.append(start is not None)
        return x
    monkeypatch.setattr(SlabOperators, "solve", recording)
    march(disc, 6, TimeGrid(0.5, 4), case.initial_state(disc), case.sources())

    assert len(ratios) == 1 and 0.0 < ratios[0] < linalg.SQRT_EPS
    assert started == [False, True, True, True]
    # the per-block bound of test_stiff_slab_residual_per_field_block fails
    assert not all(np.all(residual <= 1e-10 * scale)
                   for residual, scale in (_field_block_norms(*entry) for entry in solved))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_predicted_start_changes_nothing_but_cost(disc4, monkeypatch, k):
    # every slab after the first starts from the previous slab's extrapolated
    # polynomial; against a march whose slabs all start from the elimination
    # only the count of stage solves moves
    case = mms.default_mms(disc4.params, omega=4.0)
    grid = TimeGrid(0.5, 8)
    calls = []
    stage_solve = slab.GaussStages.solve

    def counting(stages, rhs):
        calls.append(stages)
        return stage_solve(stages, rhs)
    monkeypatch.setattr(slab.GaussStages, "solve", counting)
    predicted = march(disc4, k, grid, case.initial_state(disc4), case.sources())
    # the elimination and one refinement step of the first slab, then one
    # step per slab
    assert len(calls) == grid.num_slabs + 1

    solve = SlabOperators.solve
    monkeypatch.setattr(SlabOperators, "solve", lambda ops, rhs, start=None: solve(ops, rhs))
    eliminated = march(disc4, k, grid, case.initial_state(disc4), case.sources())
    assert len(calls) == grid.num_slabs + 1 + 2 * grid.num_slabs
    for f in ("u", "v", "w", "p"):
        want = eliminated.coeffs[f]
        assert np.linalg.norm(predicted.coeffs[f] - want) <= 1e-12 * np.linalg.norm(want)


# --- cGP exactness and marching -----------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_polynomial_exactness(disc4, k):
    case = mms.DiscreteCase(disc4, mms.poly_factors(k))
    grid = TimeGrid(0.5, 3)
    traj = march(disc4, k, grid, case.initial_state(), case.sources())
    worst = 0.0
    for n in range(grid.num_slabs + 1):
        got = traj.state_at_endpoint(n)
        exact = case.exact_state(grid.endpoints[n])
        for f in ("u", "v", "w", "p"):
            worst = max(worst, np.abs(getattr(got, f) - getattr(exact, f)).max())
    assert worst <= 1e-9


def test_polynomial_exactness_k3(disc4):
    # the slab machinery generalizes beyond the acceptance orders
    case = mms.DiscreteCase(disc4, mms.poly_factors(3))
    traj = march(disc4, 3, TimeGrid(0.5, 2), case.initial_state(), case.sources())
    worst = 0.0
    for n in range(3):
        got = traj.state_at_endpoint(n)
        exact = case.exact_state(traj.grid.endpoints[n])
        for f in ("u", "v", "w", "p"):
            worst = max(worst, np.abs(getattr(got, f) - getattr(exact, f)).max())
    assert worst <= 1e-9


def test_steady_state_reproduced(disc4):
    # constant-in-time profiles: the solution must not move
    tf = mms.TimeFactors(a=lambda t: 0.8, da=lambda t: 0.0, dda=lambda t: 0.0,
                         b=lambda t: -0.4, db=lambda t: 0.0,
                         c=lambda t: 0.6, dc=lambda t: 0.0)
    case = mms.DiscreteCase(disc4, tf)
    grid = TimeGrid(0.5, 2)
    traj = march(disc4, 2, grid, case.initial_state(), case.sources())
    start = case.initial_state()
    for n in range(grid.num_slabs + 1):
        got = traj.state_at_endpoint(n)
        for f in ("u", "v", "w", "p"):
            assert np.abs(getattr(got, f) - getattr(start, f)).max() <= 1e-10


def test_slab_split_endpoint_agreement(disc4):
    # exactness case: one slab vs two slabs reach the same endpoint
    case = mms.DiscreteCase(disc4, mms.poly_factors(2))
    one = march(disc4, 2, TimeGrid(0.4, 1), case.initial_state(), case.sources())
    two = march(disc4, 2, TimeGrid(0.4, 2), case.initial_state(), case.sources())
    for f in ("u", "v", "w", "p"):
        a = one.state_at_endpoint(1)
        b = two.state_at_endpoint(2)
        assert np.abs(getattr(a, f) - getattr(b, f)).max() <= 1e-9


def test_endpoint_shared_between_slabs(disc4):
    case = mms.discrete_case(disc4, omega=3.0)
    grid = TimeGrid(0.5, 4)
    traj = march(disc4, 1, grid, case.initial_state(), case.sources())
    t1 = grid.endpoints[2]
    from_left = traj.endpoint("u", 2)
    stored_right = traj.coeffs["u"][2, 0]         # node 0 of the next slab
    assert np.array_equal(from_left, stored_right)
    assert np.array_equal(eval_at(traj, "u", t1), stored_right)


# --- eval_at, the off-node reference of the verification tests ---------------------

def test_eval_at_gauss_node_returns_block(disc4):
    for k in range(1, 5):
        case = mms.discrete_case(disc4, omega=3.0)
        grid = TimeGrid(0.5, 2)
        traj = march(disc4, k, grid, case.initial_state(), case.sources())
        for j, s in enumerate(gauss_rule(k).nodes):   # Gauss nodes of slab 1
            got = eval_at(traj, "w", grid.endpoints[0] + grid.tau * float(s))
            assert np.allclose(got, traj.coeffs["w"][0, j + 1], atol=1e-12)


def test_midpoint_is_endpoint_average_k1(disc4):
    # linear-in-time slabs: the Gauss-node (midpoint) value averages the ends
    case = mms.DiscreteCase(disc4, mms.poly_factors(1))
    grid = TimeGrid(0.5, 1)
    traj = march(disc4, 1, grid, case.initial_state(), case.sources())
    mid = eval_at(traj, "u", 0.25)
    avg = 0.5 * (traj.endpoint("u", 0) + traj.endpoint("u", 1))
    assert np.abs(mid - avg).max() <= 1e-11


def test_eval_linear_in_coefficients(disc4):
    case = mms.discrete_case(disc4, omega=2.0)
    grid = TimeGrid(0.5, 2)
    traj = march(disc4, 1, grid, case.initial_state(), case.sources())
    t = 0.3
    for f in ("u", "p"):
        doubled = {k: v.copy() for k, v in traj.coeffs.items()}
        doubled[f] = 2.0 * doubled[f]
        traj2 = type(traj)(traj.grid, traj.k, traj.disc, doubled)
        assert np.allclose(eval_at(traj2, f, t), 2.0 * eval_at(traj, f, t), atol=1e-13)


def test_eval_outside_interval_rejected(disc4):
    case = mms.DiscreteCase(disc4, mms.poly_factors(1))
    traj = march(disc4, 1, TimeGrid(0.5, 1), case.initial_state(), case.sources())
    with pytest.raises(ValueError):
        eval_at(traj, "u", -0.1)
    with pytest.raises(ValueError):
        eval_at(traj, "u", 0.6)


# --- Trajectory.sample, the one evaluation of the slab polynomials ----------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_sample_matches_stored_rows_and_eval_at(disc4, k):
    """Against references that share no code with ``sample``: at position 0
    the stored node-0 rows, at 1 the node-0 rows of the next slabs (which the
    march evaluated on its own), off the nodes ``eval_at``; and the times are
    the slab's left end plus tau times the position."""
    case = mms.default_mms(disc4.params, omega=4.0)
    grid = TimeGrid(0.5, 5)
    traj = march(disc4, k, grid, case.initial_state(disc4), case.sources())
    off_node = [0.1, 0.3, 0.7, 0.9]
    times = grid.times(off_node, slice(1, 4))
    assert times.shape == (3, 4)
    for f, c in traj.coeffs.items():
        bound = 1e-15 * np.abs(c).max()
        assert np.array_equal(traj.sample(f, [0.0]), c[:, 0])
        assert np.abs(traj.sample(f, [1.0], slice(0, 4)) - c[1:, 0]).max() <= bound
        values = traj.sample(f, off_node, slice(1, 4))
        assert values.shape == (12, c.shape[-1])
        for row, (n, s) in enumerate((n, s) for n in (1, 2, 3) for s in off_node):
            assert times[n - 1, off_node.index(s)] == grid.endpoints[n] + grid.tau * s
            assert np.abs(values[row] - eval_at(traj, f, grid.endpoints[n] + grid.tau * s)).max() \
                <= bound


def _collocation_residuals(traj, sources):
    """Per slab, the largest entry of T y' + S y - F at its Gauss nodes on the
    free DOFs, over the largest entry of the three terms.  y and y' come from
    ``Trajectory.sample``; F is the Gauss-Lobatto interpolant of the march's
    own ``_load_stack`` rows, and the pressure rows of the residual lose their
    action on the constant 1, which the zero-mean pressure tests never see."""
    disc, k, grid = traj.disc, traj.k, traj.grid
    ops = SlabOperators(disc, k, grid.tau)
    nodes = gauss_rule(k).nodes

    def stacked(derivative):
        rows = [traj.sample(f, nodes, derivative=derivative) for f in ("u", "v", "w", "p")]
        return np.hstack([x[:, ops.free] for x in rows[:3]] + rows[3:])

    t_term = (disc.time_derivative_block @ stacked(True).T).T
    s_term = (disc.stationary_block @ stacked(False).T).T
    loads = ops._load_stack(sources, grid.times(ops.gl_nodes).ravel())
    f_term = (lagrange_basis("GL", k).eval_all(nodes)
              @ loads.reshape(grid.num_slabs, k + 1, -1)).reshape(t_term.shape)
    residual = t_term + s_term - f_term
    p = slice(3 * ops.n_bdm, None)
    residual[:, p] = sps.remove_constant_load(disc.dgp, residual[:, p])

    def per_slab(x):
        return np.abs(x).reshape(grid.num_slabs, -1).max(axis=1)

    return per_slab(residual) / np.max([per_slab(x) for x in (t_term, s_term, f_term)], axis=0)


@pytest.mark.parametrize("s0", [1.0, 1e-8, 1e-10])
@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["trig", "discrete"])
def test_sampled_trajectory_collocates_at_the_gauss_nodes(kind, k, ell, s0):
    """cGP(k) is collocation at the Gauss points (module doc): the sampled
    values and derivatives of every slab meet T y' + S y = F there, to 1e-10
    relative per slab.  A perturbed stage coefficient fails its slab alone."""
    params = PhysicalParams(s0=s0, eta=16.0 if ell else 4.0)
    disc = Discretization(structured_mesh(3, 3), ell, params)
    case = mms.default_mms(params, omega=4.0) if kind == "trig" else mms.discrete_case(disc)
    sources = case.sources()
    traj = march(disc, k, TimeGrid(0.5, 5), case.initial_state(disc), sources)
    assert _collocation_residuals(traj, sources).max() <= 1e-10

    u = traj.coeffs["u"].copy()
    u[2, k, disc.bdm.free[0]] += 1e-6 * np.abs(u).max()
    residuals = _collocation_residuals(replace(traj, coeffs={**traj.coeffs, "u": u}), sources)
    assert residuals[2] > 1e-8
    assert np.delete(residuals, 2).max() <= 1e-10


def test_march_determinism(disc4):
    case = mms.default_mms(disc4.params, omega=4.0)
    grid = TimeGrid(0.5, 3)
    t1 = march(disc4, 1, grid, case.initial_state(disc4), case.sources())
    t2 = march(disc4, 1, grid, case.initial_state(disc4), case.sources())
    for f in ("u", "v", "w", "p"):
        assert np.array_equal(t1.coeffs[f], t2.coeffs[f])


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunked_loads_leave_the_march_unchanged(disc4, monkeypatch, chunk):
    # the loads are evaluated per chunk of slabs; the left-end block and the
    # predicted start must carry across the chunk boundaries, so a march of
    # 19 slabs gives the same bits for every chunk length
    case = mms.default_mms(disc4.params, omega=4.0)
    grid = TimeGrid(0.5, 19)
    default = march(disc4, 2, grid, case.initial_state(disc4), case.sources())
    monkeypatch.setattr(slab, "_CHUNK", chunk)
    chunked = march(disc4, 2, grid, case.initial_state(disc4), case.sources())
    for f in ("u", "v", "w", "p"):
        assert np.array_equal(chunked.coeffs[f], default.coeffs[f])


@pytest.mark.parametrize("discrete", [False, True], ids=["projected", "discrete"])
def test_first_slab_stores_the_initial_state(disc4, discrete):
    # the march carries free-DOF blocks and writes them into the free DOFs;
    # both initial states have zero boundary-normal DOFs, so nothing is lost
    case = mms.discrete_case(disc4) if discrete else mms.default_mms(disc4.params)
    initial = case.initial_state(disc4)
    grid = TimeGrid(0.5, 2)
    traj = march(disc4, 2, grid, initial, case.sources())
    for f in ("u", "v", "w", "p"):
        assert np.array_equal(traj.coeffs[f][0, 0], getattr(initial, f))
        # the march evaluates a slab's end on the free-DOF block; the same
        # contraction over the full DOFs gives the same bits
        end = np.einsum("i,id->d", lagrange_basis("G0", 2).eval_all(1.0), traj.coeffs[f][0])
        assert np.array_equal(end, traj.coeffs[f][1, 0])


# --- BLAS threads -------------------------------------------------------------------

def _threads(pools):
    return [get() for get, _ in pools]


@pytest.fixture()
def blas_pools():
    """The loaded OpenBLAS pools, each set to 2 threads for the test and put
    back to the caller's count afterwards."""
    pools = linalg._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS pool is loaded")
    before = _threads(pools)
    for _, set_threads in pools:
        set_threads(2)
    yield pools
    for (_, set_threads), count in zip(pools, before):
        set_threads(count)


def test_march_runs_on_one_blas_thread(disc4, monkeypatch, blas_pools):
    seen = []
    solve = slab.GaussStages.solve

    def recording(stages, rhs):
        seen.append(_threads(blas_pools))
        return solve(stages, rhs)
    monkeypatch.setattr(slab.GaussStages, "solve", recording)
    case = mms.default_mms(disc4.params)
    march(disc4, 2, TimeGrid(0.5, 2), case.initial_state(disc4), case.sources())
    assert seen and all(counts == [1] * len(blas_pools) for counts in seen)
    assert _threads(blas_pools) == [2] * len(blas_pools)

    def failing(ops, rhs, start=None):
        raise linalg.SolverError("slab solve failed")
    monkeypatch.setattr(SlabOperators, "solve", failing)
    with pytest.raises(linalg.SolverError):
        march(disc4, 2, TimeGrid(0.5, 2), case.initial_state(disc4), case.sources())
    assert _threads(blas_pools) == [2] * len(blas_pools)


def test_march_independent_of_the_callers_blas_threads(params, blas_pools):
    # the stage systems of a 12x12 mesh at k = 2 are large enough for
    # OpenBLAS to split its kernels, which reorders their sums
    disc = Discretization(structured_mesh(12, 12), 0, params)
    case = mms.default_mms(params)
    runs = []
    for count in (1, 2):
        for _, set_threads in blas_pools:
            set_threads(count)
        runs.append(march(disc, 2, TimeGrid(0.5, 2), case.initial_state(disc),
                          case.sources()))
    for f in ("u", "v", "w", "p"):
        assert np.array_equal(runs[0].coeffs[f], runs[1].coeffs[f])


def test_assembly_independent_of_the_callers_blas_threads(blas_pools):
    # assembly contracts its cell and edge integrals with batched matmuls,
    # which reach BLAS; reruns stay byte-identical only if no thread count
    # reorders their sums
    params = PhysicalParams(eta=16.0, kappa=np.array([[1.3, 0.4], [0.4, 0.9]]))
    runs = []
    for count in (1, 2):
        for _, set_threads in blas_pools:
            set_threads(count)
        disc = Discretization(structured_mesh(24, 24), 1, params)
        case = mms.default_mms(params)
        u, grad_u = case.at("u", 0.3), case.at("grad_u", 0.3)
        runs.append([getattr(disc, name) for name in (
            "mass_bdm", "mass_kinv", "elasticity", "div_w", "div_u_alpha", "mass_p",
            "time_derivative_block", "stationary_block")]
            + [_p_volume(disc), sps.interpolate_vector_field(disc.bdm, u),
               assemble_elasticity_rhs(disc.bdm, u, grad_u, params.mu, params.lam,
                                       params.eta)])
    for first, second in zip(*runs):
        if sp.issparse(first):
            assert np.array_equal(first.indptr, second.indptr)
            assert np.array_equal(first.indices, second.indices)
            first, second = first.data, second.data
        assert np.array_equal(first, second)


def test_snapshot_export(tmp_path, disc4):
    case = mms.default_mms(disc4.params, omega=4.0)
    traj = march(disc4, 1, TimeGrid(0.25, 1), case.initial_state(disc4), case.sources())
    from biotcgp.slab import export_snapshots
    paths = export_snapshots(traj, str(tmp_path))
    assert len(paths) == 4    # 2 endpoints x (mesh + edge samples)
    for p in paths:
        with open(p, "rb") as handle:
            assert handle.read().startswith(b"# vtk DataFile Version 3.0\n")
    # the edge vectors are the BDM fields at the edge midpoints, evaluated in
    # the first adjacent cell, one tabulate_at call per snapshot and field
    mesh, bdm = disc4.mesh, disc4.bdm
    cells = mesh.edge_cells[:, 0]
    for n, path in enumerate(paths[1::2]):
        arrays = read_legacy_vtk(path)
        state = traj.state_at_endpoint(n)
        for f in ("u", "v", "w"):
            assert arrays[f].shape == (mesh.num_edges, 3)
            assert np.all(arrays[f][:, 2] == 0.0)
            got = arrays[f][:, :2]
            vals = bdm.tabulate_at(cells, mesh.edge_midpoints[:, None, :])
            want = np.einsum("eqia,ei->ea", vals, getattr(state, f)[bdm.cell_dofs[cells]])
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
