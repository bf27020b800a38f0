import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sparse

from biotcgp import assembly as asm, mms, spaces as sps, verification as ver
from biotcgp.mesh import refine_uniform, structured_mesh
from biotcgp.slab import FIELDS, Discretization, SlabState, SourceSet, TimeGrid, march
from biotcgp.time_basis import gauss_lobatto_rule, gauss_rule, lagrange_basis
from sampling import sample_error_norms


@pytest.fixture(scope="module")
def disc4(params):
    return Discretization(structured_mesh(4, 4), ell=0, params=params)


# --- eoc helper ------------------------------------------------------------------

def test_eoc_examples():
    assert ver.eoc([1.0, 0.25], [1.0, 0.5]) == [pytest.approx(2.0)]
    assert ver.eoc([1.0, 1.0], [1.0, 0.5]) == [pytest.approx(0.0)]
    assert ver.eoc([8e-3, 1e-3], [1.0, 0.5]) == [pytest.approx(3.0)]


def test_eoc_flags_exact_levels():
    rates = ver.eoc([1e-3, 0.0], [1.0, 0.5])
    assert rates == [None]


def test_eoc_input_validation():
    with pytest.raises(ValueError):
        ver.eoc([1.0], [1.0])
    with pytest.raises(ValueError):
        ver.eoc([1.0, 0.5], [1.0])


# --- error norms ----------------------------------------------------------------------

def test_exact_trajectory_has_tiny_errors(disc4):
    case = mms.DiscreteCase(disc4, mms.poly_factors(1))
    traj = march(disc4, 1, TimeGrid(0.5, 2), case.initial_state(), case.sources())
    errs = ver.trajectory_errors(traj, case)
    assert max(errs.values()) <= 1e-9


def test_zero_trajectory_measures_exact_norm(disc4, params):
    """Against the zero solution the error equals the field's own norm; the
    pressure norm has the closed form |1 + sin(omega t)| / 2."""
    omega = 4.0
    case = mms.default_mms(params, omega)
    zero_traj = march(disc4, 1, TimeGrid(0.5, 2), SlabState.zeros(disc4), SourceSet())
    for t in (0.0, 0.2, 0.5):
        norms = sample_error_norms(zero_traj, case, t)
        closed_form = abs(1.0 + np.sin(omega * t)) * 0.5
        assert norms["p_L2"] == pytest.approx(closed_form, rel=1e-4)


def test_dg_norm_monotone_in_h2_term(disc4, params):
    case = mms.default_mms(params, omega=4.0)
    traj = march(disc4, 1, TimeGrid(0.5, 2), case.initial_state(disc4), case.sources())
    norms = sample_error_norms(traj, case, 0.25)
    assert norms["u_DG"] >= norms["u_DG_no_h2"]
    assert norms["u_Uh"] >= norms["u_DG"]


def _per_sample_trajectory_errors(traj, case):
    """The definition of ``trajectory_errors`` written out one sample time at
    a time: Linf over the sorted endpoint and interior Gauss-Lobatto times,
    the combined measure over the endpoints, and a per-slab Gauss sum for
    the L2-in-time norms."""
    grid, k = traj.grid, traj.k
    root_s0 = np.sqrt(traj.disc.params.s0)
    ends = list(grid.endpoints)
    gl = gauss_lobatto_rule(k).nodes
    times = set(ends)
    for n in range(grid.num_slabs):
        times.update(ends[n] + grid.tau * float(s) for s in gl[1:-1])
    linf, combined = {}, 0.0
    for t in sorted(times):
        norms = sample_error_norms(traj, case, t)
        for key, val in norms.items():
            linf[key] = max(linf.get(key, 0.0), val)
        if t in ends:
            combined = max(combined, norms["u_Uh"] + norms["mrho_vw"]
                           + root_s0 * norms["p_L2"])
    rule = gauss_rule(min(k + 2, 6))
    l2i_sq = {}
    for n in range(grid.num_slabs):
        for s, wq in zip(rule.nodes, rule.weights):
            norms = sample_error_norms(traj, case, ends[n] + grid.tau * float(s))
            for key, val in norms.items():
                l2i_sq[key] = l2i_sq.get(key, 0.0) + grid.tau * wq * val * val
    out = {f"{key}_Linf": val for key, val in linf.items()}
    out.update({f"{key}_L2I": np.sqrt(val) for key, val in l2i_sq.items()})
    out["combined_endpoint"] = combined
    out["combined_Linf"] = linf["u_Uh"] + linf["mrho_vw"] + root_s0 * linf["p_L2"]
    return out


def _check_against_per_sample_loop(kind, k, ell, mesh_n, n_slabs, l2_in_time):
    params = asm.PhysicalParams(eta=16.0) if ell else asm.PhysicalParams()
    disc = Discretization(structured_mesh(mesh_n, mesh_n), ell, params)
    if kind == "trig":
        case = mms.default_mms(params, omega=3.0)
        initial = case.initial_state(disc)
    else:
        case = mms.discrete_case(disc, omega=3.0)
        initial = case.initial_state()
    traj = march(disc, k, TimeGrid(0.5, n_slabs), initial, case.sources())
    got = ver.trajectory_errors(traj, case, l2_in_time=l2_in_time)
    want = {key: val for key, val in _per_sample_trajectory_errors(traj, case).items()
            if l2_in_time or not key.endswith("_L2I")}
    assert sorted(got) == sorted(want)
    for key, val in want.items():
        assert abs(got[key] - val) <= max(1e-12 * abs(val), 1e-14), key


@pytest.mark.parametrize("kind, k, ell, mesh_n", [
    ("trig", 1, 0, 3), ("trig", 2, 0, 3), ("discrete", 2, 0, 3), ("trig", 2, 1, 2)])
def test_trajectory_errors_matches_per_sample_loop(kind, k, ell, mesh_n):
    _check_against_per_sample_loop(kind, k, ell, mesh_n, n_slabs=3, l2_in_time=True)


@pytest.mark.parametrize("l2_in_time", [True, False])
@pytest.mark.parametrize("n_slabs", [7, 9])
@pytest.mark.parametrize("kind, k", [("trig", 1), ("trig", 2), ("trig", 3), ("discrete", 2)])
def test_trajectory_errors_matches_per_sample_loop_across_chunks(kind, k, n_slabs,
                                                                 l2_in_time):
    """Slab counts that are no multiple of the slabs per evaluation chunk,
    except where one slab's samples fill a chunk: the last chunk is short,
    and the right end of the last slab is a call of its own."""
    _check_against_per_sample_loop(kind, k, 0, 2, n_slabs, l2_in_time)


@pytest.mark.parametrize("l2_in_time", [True, False])
def test_discrete_errors_match_per_sample_loop_across_coefficient_chunks(l2_in_time):
    """The coefficient path's larger chunk, crossed several times: 105 or 40
    samples at k = 3, in chunks of 4 slabs of 8 samples or of 10 slabs of 3,
    the last one short, then the right end of the last slab."""
    assert ver._COEFFICIENT_CHUNK < 40
    _check_against_per_sample_loop("discrete", 3, 0, 2, 13, l2_in_time)


# slab counts per k for the temporal orders: the finest level stays above
# round-off in every asserted norm (at k = 4 combined_endpoint does not)
TEMPORAL_LEVELS = {1: [32, 64], 2: [16, 32], 3: [16, 32], 4: [8, 16]}
OFF_NODE = (0.1, 0.3, 0.7, 0.9)   # no Gauss or Gauss-Lobatto node for k <= 4


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_temporal_orders_in_both_norms(disc4, k):
    """cGP(k) in time on a case with no spatial error: the L2-in-time norms and
    the true maximum over off-node times converge at k+1; the endpoint
    combined measure superconverges at 2k (Aziz & Monk 1989)."""
    case = mms.discrete_case(disc4, omega=4.0)
    levels = []
    for num_slabs in TEMPORAL_LEVELS[k]:
        grid = TimeGrid(0.5, num_slabs)
        traj = march(disc4, k, grid, case.initial_state(), case.sources())
        errs = ver.trajectory_errors(traj, case)
        for n in range(num_slabs):
            for s in OFF_NODE:
                norms = sample_error_norms(traj, case, grid.endpoints[n] + grid.tau * s)
                for key in ("u_Uh", "p_L2", "w_Kinv"):
                    errs[f"{key}_max"] = max(errs.get(f"{key}_max", 0.0), norms[key])
        levels.append((grid.tau, errs))
    taus = [tau for tau, _ in levels]

    def rate(key):
        return ver.eoc([errs[key] for _, errs in levels], taus)[-1]

    for key in ("u_L2_L2I", "p_L2_L2I", "w_Kinv_L2I", "u_Uh_max", "p_L2_max", "w_Kinv_max"):
        assert abs(rate(key) - (k + 1)) <= 0.15, (key, rate(key))
    if k <= 3:
        assert rate("combined_endpoint") >= 2 * k - 0.2


@pytest.mark.parametrize("ell", [0, 1])
def test_spatial_orders_in_l2_in_time(params, params_ell1, ell):
    """The spatial study's setup measured in L2 in time: u converges at the
    optimal BDM order ell+2 and p at the DG order ell+1."""
    params = params_ell1 if ell else params
    meshes = [4, 8, 16]
    levels = []
    for nx in meshes:
        disc = Discretization(structured_mesh(nx, nx), ell, params)
        case = mms.default_mms(params, omega=2.0)
        traj = march(disc, 2, TimeGrid(0.5, 8), case.initial_state(disc), case.sources())
        levels.append(ver.trajectory_errors(traj, case, l2_in_time=True))
    steps = [1.0 / nx for nx in meshes]
    for key, order in (("u_L2_L2I", ell + 2), ("p_L2_L2I", ell + 1)):
        rate = ver.eoc([errs[key] for errs in levels], steps)[-1]
        assert abs(rate - order) <= 0.15, (key, rate)


def test_field_error_norms_stack_matches_single_calls(params_ell1):
    disc = Discretization(structured_mesh(2, 2), 1, params_ell1)
    case = mms.default_mms(params_ell1, omega=3.0)
    rng = np.random.default_rng(5)
    sizes = {"u": disc.bdm.ndofs, "v": disc.bdm.ndofs, "w": disc.bdm.ndofs,
             "p": disc.dgp.ndofs}
    coeffs = {f: rng.standard_normal((3, n)) for f, n in sizes.items()}
    times = np.array([0.0, 0.2, 0.45])
    stacked = ver.field_error_norms(disc, coeffs, case.exact_terms(times))
    for i in range(3):
        single = ver.field_error_norms(disc, {f: c[i:i + 1] for f, c in coeffs.items()},
                                       case.exact_terms(times[i:i + 1]))
        for key, val in single.items():
            assert val.shape == (1,)
            assert stacked[key][i] == pytest.approx(val[0], rel=1e-12), key


def test_bdm1_h2_term_is_the_cached_profile_integral(params):
    # BDM_1 has no discrete second derivatives, so the h^2 term is the exact
    # field's own: its factors squared times one cached profile integral,
    # against the quadrature of the scaled profile values at every sample
    disc = Discretization(structured_mesh(3, 3), 0, params)
    assert disc.bdm.degree == 1
    case = mms.default_mms(params, omega=3.0)
    rng = np.random.default_rng(7)
    sizes = {"u": disc.bdm.ndofs, "v": disc.bdm.ndofs, "w": disc.bdm.ndofs,
             "p": disc.dgp.ndofs}
    coeffs = {f: rng.standard_normal((3, n)) for f, n in sizes.items()}
    exact = case.exact_terms(np.array([0.0, 0.2, 0.45]))
    factors, profile = exact["second_u"]
    weights = disc.mesh.h_cell[:, None] ** 2 * disc.bdm.volume.weights
    values = np.asarray(profile(disc.bdm.volume.points))[..., None] * factors
    want = np.einsum("cq,cqabds->s", weights, values * values)

    profiles = {}
    norms = ver.field_error_norms(disc, coeffs, exact, _profiles=profiles)
    assert (profile, "h2") in profiles and (profile, "volume") not in profiles
    np.testing.assert_allclose(profiles[(profile, "h2")] * factors ** 2, want, rtol=1e-14)
    np.testing.assert_allclose(norms["u_DG"], np.sqrt(norms["u_DG_no_h2"] ** 2 + want),
                               rtol=1e-14)


FORM_MESHES = {"structured": structured_mesh(3, 3),
               "refined": refine_uniform(structured_mesh(2, 2)),
               "anisotropic": structured_mesh(6, 2)}


@pytest.mark.parametrize("ell, vector_degree", [(0, None), (1, None), (0, 2)])
def test_error_rows_per_cell(ell, vector_degree):
    """div BDM_r lies in P_{r-1} on each cell and the BDM_2 second derivatives
    are constant there: ``div_rows`` holds one row per modal P_{r-1} function
    of a cell (1 or 3 against its 6 or 12 DOFs) and ``h2_rows`` one per
    component and derivative pair (8 against 12).  ``div_rows`` is bitwise
    the matrix built against a modal P_{r-1} space of its own, although a
    conservative pairing reads the pressure space and ``div_w`` instead."""
    disc = Discretization(structured_mesh(4, 4), ell, asm.PhysicalParams(),
                          vector_degree=vector_degree)
    nc, r = disc.mesh.num_cells, disc.bdm.degree
    assert disc.div_rows.shape == (nc * r * (r + 1) // 2, disc.bdm.ndofs)
    modal = sps.build_space(disc.mesh, "DGP", r - 1, None, disc.bdm.quad_degree)
    coupling = asm.assemble_div_coupling(disc.bdm, modal, 1.0)
    want = (sparse.diags(modal.mass_diagonal ** -0.5) @ coupling.T).tocsr()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(disc.div_rows, name), getattr(want, name)), name
    assert (disc.modal_coupling[0] is disc.dgp) == (vector_degree is None)
    if r >= 2:
        assert disc.h2_rows.shape == (8 * nc, disc.bdm.ndofs)


@pytest.mark.parametrize("mesh_name, ell, vector_degree",
                         [(name, ell, None) for name in FORM_MESHES for ell in (0, 1)]
                         + [("structured", 0, 2)])
def test_quadratic_form_norms_match_quadrature(mesh_name, ell, vector_degree):
    """With no exact field, field_error_norms measures coefficient stacks as
    quadratic forms of Gram matrices; ``exact={}`` measures the same stacks by
    quadrature.  Random stacks, boundary DOFs included, agreed to 7.5e-16
    relative over these cases, and smooth fields' interpolants to 4.6e-15
    (bound 1e-14 for both).  The semidefinite divergence and h^2 terms are
    sums of squares of row matrices, so no cancellation grows with 1/h^2: a
    quadratic form of their Gram matrices read u_DG 2.4e-13 off here and
    7.2e-12 off on 16x16."""
    params = asm.PhysicalParams(eta=16.0) if ell else asm.PhysicalParams()
    disc = Discretization(FORM_MESHES[mesh_name], ell, params, vector_degree=vector_degree)
    rng = np.random.default_rng(11)
    sizes = {f: disc.dgp.ndofs if f == "p" else disc.bdm.ndofs for f in FIELDS}
    random = {f: rng.standard_normal((4, n)) for f, n in sizes.items()}
    assert np.abs(random["u"][:, disc.bdm.constrained]).min() > 0.0
    smooth = {f: np.array([sps.interpolate_vector_field(disc.bdm, mms.U),
                           sps.interpolate_vector_field(disc.bdm, mms.W)])
              for f in ("u", "v", "w")}
    smooth["p"] = np.array([sps.project_scalar_field(disc.dgp, mms.P)] * 2)
    for coeffs, bound in ((random, 1e-14), (smooth, 1e-14)):
        forms = ver.field_error_norms(disc, coeffs)
        quadrature = ver.field_error_norms(disc, coeffs, {})
        assert sorted(forms) == sorted(quadrature)
        for key, want in quadrature.items():
            np.testing.assert_allclose(forms[key], want, rtol=bound, atol=0.0, err_msg=key)


@pytest.mark.parametrize("mesh_name, ell", [(name, ell) for name in FORM_MESHES for ell in (0, 1)])
def test_divergence_free_field_reads_its_quadrature_divergence(mesh_name, ell):
    """The interpolant of curl sin(3x + 2y) is divergence-free up to rounding
    and its dense-quadrature moments: quadrature reads u_div 4e-15 to 8e-12
    at L2 norm 2.6.  A quadratic form of the divergence Gram matrix read it at
    the square root of a rounding residue, up to 6.5e-7 here; the sum of
    squares of the divergence rows reads what quadrature reads."""
    params = asm.PhysicalParams(eta=16.0) if ell else asm.PhysicalParams()
    disc = Discretization(FORM_MESHES[mesh_name], ell, params)

    def curl(x):
        c = np.cos(3.0 * x[..., 0] + 2.0 * x[..., 1])
        return np.stack([2.0 * c, -3.0 * c], axis=-1)

    zeros = np.zeros((1, disc.bdm.ndofs))
    coeffs = {"u": sps.interpolate_vector_field(disc.bdm, curl)[None], "v": zeros,
              "w": zeros, "p": np.zeros((1, disc.dgp.ndofs))}
    forms = ver.field_error_norms(disc, coeffs)
    quadrature = ver.field_error_norms(disc, coeffs, {})
    assert quadrature["u_div"][0] <= 1e-11 * quadrature["u_L2"][0]
    assert abs(forms["u_div"][0] - quadrature["u_div"][0]) <= 1e-12 * forms["u_L2"][0]


@pytest.mark.parametrize("kind", ["trig", "discrete"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dropping_l2_in_time_changes_no_other_key(params, kind, k):
    disc = Discretization(structured_mesh(3, 3), 0, params)
    if kind == "trig":
        case = mms.default_mms(params, omega=3.0)
        initial = case.initial_state(disc)
    else:
        case = mms.discrete_case(disc, omega=3.0)
        initial = case.initial_state()
    traj = march(disc, k, TimeGrid(0.5, 3), initial, case.sources())
    full = ver.trajectory_errors(traj, case)
    linf_only = ver.trajectory_errors(traj, case, l2_in_time=False)
    assert not [key for key in linf_only if key.endswith("_L2I")]
    assert sorted(linf_only) == sorted(key for key in full if not key.endswith("_L2I"))
    for key, val in linf_only.items():
        assert abs(val - full[key]) <= 1e-14 * abs(full[key]), key


def test_profile_values_do_not_outlive_the_call(monkeypatch, params):
    """Exact profile values are kept for one call only: no discretization may
    stay reachable once trajectory_errors or a study returns.  The spatial
    study builds its levels one at a time, so no more than the previous and
    the current level are alive when it builds one."""
    disc = Discretization(structured_mesh(2, 2), 0, params)
    case = mms.default_mms(params)
    traj = march(disc, 2, TimeGrid(0.5, 2), case.initial_state(disc), case.sources())
    ver.trajectory_errors(traj, case)
    alive = weakref.ref(disc)
    del disc, traj
    gc.collect()
    assert alive() is None

    built, alive_at_build = [], []

    def tracked(*args, **kwargs):
        made = Discretization(*args, **kwargs)
        built.append(weakref.ref(made))
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        return made

    monkeypatch.setattr(ver, "Discretization", tracked)
    studies = {"projection": (2, lambda: ver.projection_study(params, ell=0, mesh_sizes=[2, 4])),
               "temporal": (1, lambda: ver.temporal_study(params, k=1, ell=0,
                                                          slab_counts=[2, 4], mesh_n=2)),
               "spatial": (3, lambda: ver.spatial_study(params, ell=0, mesh_sizes=[2, 3, 4],
                                                        k=1, n_slabs=2))}
    for name, (levels, study) in studies.items():
        built.clear()
        alive_at_build.clear()
        study()
        gc.collect()
        assert len(built) == levels, name
        assert all(ref() is None for ref in built), name
    assert alive_at_build == [1, 2, 2]


def test_study_levels_drop_their_trajectory_before_the_next_march(monkeypatch, params):
    """No level's trajectory is alive while the next level marches.  Held
    through the last march of the temporal benchmark workload, the 64-slab
    trajectory (2.2 MB) raised that run's peak memory."""
    made, alive = [], []

    def tracked(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        traj = march(*args, **kwargs)
        made.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(ver, "march", tracked)
    ver.temporal_study(params, k=1, ell=0, slab_counts=[2, 4, 8], mesh_n=2)
    ver.spatial_study(params, ell=0, mesh_sizes=[2, 3], k=1, n_slabs=2, tau_check=False)
    assert alive == [0] * 5


@pytest.mark.parametrize("l2_in_time", [False, True])
@pytest.mark.parametrize("mesh", [structured_mesh(6, 2), refine_uniform(structured_mesh(2, 2))],
                         ids=["anisotropic", "refined"])
def test_march_case_is_march_errors_and_audit(params, mesh, l2_in_time):
    """march_case gives bit for bit what march, trajectory_errors and
    mass_conservation_audit give when called one by one, here on a 3:1
    anisotropic grid and on a uniformly refined one, and the audit holds."""
    disc = Discretization(mesh, 0, params)
    case = mms.default_mms(params)
    grid = TimeGrid(0.5, 3)
    sources = case.sources()
    traj, errs, audit = ver.march_case(disc, case, 2, grid, sources, l2_in_time=l2_in_time)

    ref = march(disc, 2, grid, case.initial_state(disc), sources)
    for name in FIELDS:
        np.testing.assert_array_equal(traj.coeffs[name], ref.coeffs[name])
    assert errs == ver.trajectory_errors(ref, case, l2_in_time=l2_in_time)
    assert audit == ver.mass_conservation_audit(ref, sources)
    assert audit <= 1e-9


@pytest.mark.parametrize("l2_in_time", [True, False])
def test_coefficient_errors_do_not_depend_on_the_chunk(monkeypatch, l2_in_time):
    """The coefficient path measures every sample on its own column, so
    chunks of 8 and of 32 samples give bitwise equal errors."""
    disc = Discretization(structured_mesh(3, 3), 0, asm.PhysicalParams())
    case = mms.discrete_case(disc, omega=3.0)
    traj = march(disc, 2, TimeGrid(0.5, 13), case.initial_state(), case.sources())
    errors = []
    for chunk in (8, 32):
        monkeypatch.setattr(ver, "_COEFFICIENT_CHUNK", chunk)
        errors.append(ver.trajectory_errors(traj, case, l2_in_time=l2_in_time))
    assert errors[0] == errors[1]


def test_studies_sample_only_where_they_report(monkeypatch, params):
    """The studies report maxima in time only: at k = 2 each slab is sampled
    at its left end and its interior Gauss-Lobatto point, and the last slab of
    every march also at its right end, 2 N + 1 samples in all.  The samples
    are evaluated in chunks of whole consecutive slabs, as many as fill each
    path's cap, then the right end alone: 16 slabs for the coefficient errors
    of the temporal study's ``DiscreteCase`` (cap 32), 4 for the quadrature
    errors of the spatial study's ``TrigCase`` (cap 8)."""
    marches = []
    original_errors, original_norms = ver.trajectory_errors, ver.field_error_norms

    def per_march(*args, **kwargs):
        marches.append([])
        return original_errors(*args, **kwargs)

    def counting(disc, coeffs, *args, **kwargs):
        marches[-1].append(len(coeffs["u"]))
        return original_norms(disc, coeffs, *args, **kwargs)

    monkeypatch.setattr(ver, "trajectory_errors", per_march)
    monkeypatch.setattr(ver, "field_error_norms", counting)

    ver.temporal_study(params, k=2, ell=0, slab_counts=[2, 4, 20], mesh_n=2)
    ver.spatial_study(params, ell=0, mesh_sizes=[2, 3], k=2, n_slabs=2)
    # two meshes, then the tau-halving rerun
    slab_counts = (2, 4, 20, 2, 2, 4)
    caps = [ver._COEFFICIENT_CHUNK] * 3 + [ver._CHUNK] * 3
    assert (ver._CHUNK, ver._COEFFICIENT_CHUNK) == (8, 32)
    for sizes, n, cap in zip(marches, slab_counts, caps, strict=True):
        per_call = cap // 2
        assert sizes == [2 * min(per_call, n - start) for start in range(0, n, per_call)] + [1]


# --- projections ------------------------------------------------------------------------

def test_projections_idempotent(disc4, params, params_ell1, quadratic_field):
    # fields already in the spaces are reproduced
    rng = np.random.default_rng(3)
    coeffs = np.zeros(disc4.bdm.ndofs)
    coeffs[disc4.bdm.free] = rng.standard_normal(disc4.bdm.free.size)

    def val(x):
        # piecewise evaluation via the quadrature tabulation is unavailable at
        # arbitrary x, so use a globally linear member of the space instead
        return np.stack([0.1 * x[:, 1], -0.2 * x[:, 0]], axis=-1)

    def grad(x):
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 1] = 0.1
        g[..., 1, 0] = -0.2
        return g

    space_nobc = sps.build_space(disc4.mesh, "BDM", 1)
    interp = sps.interpolate_vector_field(space_nobc, val)
    disc_nobc = Discretization(disc4.mesh, 0, disc4.params)
    disc_nobc.bdm = space_nobc
    p1 = ver.projection_p1(disc_nobc, val, grad)
    assert np.abs(p1 - interp).max() <= 1e-10 * max(1.0, np.abs(interp).max())

    p2 = ver.projection_p2(disc4, val)
    pts = disc4.bdm.volume.points
    exact = val(pts.reshape(-1, 2)).reshape(pts.shape)
    assert (np.abs(disc4.bdm.values_on_quadrature(p2) - exact).max()
            <= 1e-10 * np.abs(exact).max())

    vals = disc4.dgp.values_on_quadrature(
        ver.projection_p3(disc4, lambda x: np.full(x.shape[0], 0.7)))
    assert np.abs(vals - 0.7).max() <= 1e-12

    # degree 2 (ell=1, eta=16): both projections reproduce a globally
    # quadratic field, the premise of their L2 order ell+2
    val2, grad2 = quadratic_field
    disc2 = Discretization(disc4.mesh, 1, params_ell1)
    disc2.bdm = sps.build_space(disc4.mesh, "BDM", 2)
    p2 = ver.projection_p2(disc2, val2)
    pts = disc2.bdm.volume.points
    exact = val2(pts.reshape(-1, 2)).reshape(pts.shape)
    assert (np.abs(disc2.bdm.values_on_quadrature(p2) - exact).max()
            <= 1e-10 * np.abs(exact).max())
    p1 = ver.projection_p1(disc2, val2, grad2)
    assert np.abs(p1 - p2).max() <= 1e-10 * max(1.0, np.abs(p2).max())


def test_p3_reproduces_cellwise_constant(disc4):
    # project a P0 field (cellwise constant): P3 must return it exactly
    target = np.zeros(disc4.dgp.ndofs)
    target[0::1] = 0.0
    nloc = disc4.dgp.element.dim
    rng = np.random.default_rng(8)
    cells_const = rng.standard_normal(disc4.mesh.num_cells)
    target[0::nloc] = cells_const

    mesh = disc4.mesh
    verts = mesh.vertices[mesh.cells]
    mats = np.linalg.inv(np.stack([verts[:, 1] - verts[:, 0],
                                   verts[:, 2] - verts[:, 0]], axis=-1))

    def fn(x):
        out = np.empty(x.shape[0])
        for i, pt in enumerate(x):
            lam = mats @ (pt - verts[:, 0])[..., None]
            inside = np.flatnonzero((lam[..., 0] >= -1e-12).all(axis=1)
                                    & (lam.sum(axis=(1, 2)) <= 1 + 1e-12))
            out[i] = cells_const[inside[0]]
        return out

    got = ver.projection_p3(disc4, fn)
    assert np.abs(got - target).max() <= 1e-12


# --- conservation audit -----------------------------------------------------------------

def _kinematic_consistency(traj):
    """Worst relative mass-norm of d/dt u - v at the Gauss points."""
    disc, k, grid = traj.disc, traj.k, traj.grid
    basis_g0 = lagrange_basis("G0", k)
    g_nodes = gauss_rule(k).nodes
    val_w = basis_g0.eval_all(g_nodes)
    der_w = basis_g0.deriv_all(g_nodes) / grid.tau
    m = disc.mass_bdm
    worst = 0.0
    for n in range(grid.num_slabs):
        du = der_w @ traj.coeffs["u"][n]
        vv = val_w @ traj.coeffs["v"][n]
        for i in range(k):
            d = du[i] - vv[i]
            dn = np.sqrt(float(d @ (m @ d)))
            scale = max(np.sqrt(float(vv[i] @ (m @ vv[i]))), 1e-30)
            worst = max(worst, dn / scale)
    return worst


def _energy_at_endpoints(traj):
    """a_h(u,u) + density norm of (v,w) squared + s0 |p|^2 at each t_n."""
    disc = traj.disc
    prm = disc.params
    a = disc.elasticity
    m = disc.mass_bdm
    mp = disc.mass_p
    out = []
    for n in range(traj.grid.num_slabs + 1):
        st = traj.state_at_endpoint(n)
        e = (float(st.u @ (a @ st.u))
             + prm.rho_bar * float(st.v @ (m @ st.v))
             + 2.0 * prm.rho_f * float(st.v @ (m @ st.w))
             + prm.rho_w * float(st.w @ (m @ st.w))
             + prm.s0 * float(st.p @ (mp @ st.p)))
        out.append(e)
    return np.asarray(out)


def test_audit_on_converged_run(disc4, params):
    case = mms.default_mms(params, omega=4.0)
    traj = march(disc4, 2, TimeGrid(0.5, 4), case.initial_state(disc4), case.sources())
    assert ver.mass_conservation_audit(traj, case.sources()) <= 1e-9
    assert _kinematic_consistency(traj) <= 1e-9


def test_audit_looks_at_every_slab(disc4, params):
    """A pressure defect at one Gauss row shows in the audit wherever the
    slab sits: the first slab, either side of the first chunk boundary of
    the batched evaluation, and the last slab."""
    k = 2
    boundary = ver._COEFFICIENT_CHUNK // k
    n_slabs = boundary + 4
    case = mms.default_mms(params, omega=4.0)
    sources = case.sources()
    traj = march(disc4, k, TimeGrid(0.5, n_slabs), case.initial_state(disc4), sources)
    assert ver.mass_conservation_audit(traj, sources) <= 1e-9
    rng = np.random.default_rng(5)
    for n in (0, boundary - 1, boundary, n_slabs - 1):
        p = traj.coeffs["p"].copy()
        p[n, 1] += 0.1 * rng.standard_normal(p.shape[-1])
        perturbed = dataclasses.replace(traj, coeffs={**traj.coeffs, "p": p})
        assert ver.mass_conservation_audit(perturbed, sources) > 1e-3, n


def _quadrature_audit(traj, sources):
    """The mass audit evaluated at the volume quadrature points, the
    reference of the modal one: every term tabulated at the points of each
    cell, every L2 norm a quadrature sum; all Gauss rows of the run at once."""
    disc, k, grid = traj.disc, traj.k, traj.grid
    prm = disc.params
    bdm, dgp = disc.bdm, disc.dgp
    basis_g0, basis_gl = lagrange_basis("G0", k), lagrange_basis("GL", k)
    g_nodes = gauss_rule(k).nodes
    val_w = basis_g0.eval_all(g_nodes)
    der_w = basis_g0.deriv_all(g_nodes) / grid.tau
    gl_w = basis_gl.eval_all(g_nodes)
    loads = disc.pressure_load(sources.mass,
                               np.append(grid.times(basis_gl.nodes[:-1]), grid.endpoints[-1]))
    loads /= dgp.mass_diagonal

    def at_gauss_rows(table, space, weights, slab_coeffs):
        rows = np.einsum("gi,cid->dcg", weights, slab_coeffs)
        return ver._on_points(table, rows.reshape(len(rows), -1)[space.cell_dofs])

    windows = k * np.arange(grid.num_slabs)[:, None] + np.arange(k + 1)
    terms = [prm.s0 * at_gauss_rows(dgp.volume.values, dgp, der_w, traj.coeffs["p"]),
             prm.alpha * at_gauss_rows(bdm.volume.divs, bdm, der_w, traj.coeffs["u"]),
             at_gauss_rows(bdm.volume.divs, bdm, val_w, traj.coeffs["w"]),
             -at_gauss_rows(dgp.volume.values, dgp, gl_w, loads[windows])]
    qw = bdm.volume.weights
    res = np.sqrt(ver._integral(qw, sum(terms) ** 2))
    scale = np.max([np.sqrt(ver._integral(qw, tm * tm)) for tm in terms], axis=0)
    return float(np.divide(res, scale, out=res.copy(), where=scale > 0.0).max())


def _check_modal_audit(disc, k):
    """The modal audit against ``_quadrature_audit`` on a march of the trig
    case, as marched and with the fields perturbed in two slabs.  The audit is
    a residual relative to its terms, so it is compared absolutely at 1e-12
    (relative to the terms), and on the perturbed run, where it is O(1), also
    at 1e-12 relative to itself.  Returns the unperturbed audit."""
    case = mms.default_mms(disc.params, omega=4.0)
    sources = case.sources()
    traj = march(disc, k, TimeGrid(0.5, 5), case.initial_state(disc), sources)
    audit = ver.mass_conservation_audit(traj, sources)
    assert abs(audit - _quadrature_audit(traj, sources)) <= 1e-12
    rng = np.random.default_rng(11)
    coeffs = {f: c.copy() for f, c in traj.coeffs.items()}
    for f in ("u", "w", "p"):
        coeffs[f][[1, 3], 1:] += 0.1 * rng.standard_normal(coeffs[f][[1, 3], 1:].shape)
    perturbed = dataclasses.replace(traj, coeffs=coeffs)
    got, want = (ver.mass_conservation_audit(perturbed, sources),
                 _quadrature_audit(perturbed, sources))
    assert 1e-3 < want and abs(got - want) <= 1e-12 * want
    return audit


@pytest.mark.parametrize("s0", [1.0, 1e-8])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("perturbed", [False, True])
def test_modal_audit_matches_quadrature(perturbed, ell, k, s0, perturbed_mesh):
    """div BDM_{ell+1} lies in the pressure space, so the audit's terms are
    its modal coefficients and their norms those of the diagonal mass; the
    quadrature at the points reads the same values."""
    mesh = perturbed_mesh if perturbed else structured_mesh(3, 3)
    params = asm.PhysicalParams(s0=s0, eta=16.0 if ell else 4.0)
    disc = Discretization(mesh, ell, params)
    assert _check_modal_audit(disc, k) <= 1e-9
    assert disc.modal_coupling == (disc.dgp, disc.div_w)


@pytest.mark.parametrize("ell, vector_degree", [(0, 2), (1, 1)])
def test_modal_audit_matches_quadrature_on_mismatched_pairings(ell, vector_degree):
    """Where the BDM degree is not ell + 1 the audit's terms live in the modal
    space of degree max(r - 1, ell).  BDM_2 with P_0 leaves the pressure
    space and must fail; BDM_1 with P_1 keeps every divergence in it."""
    params = asm.PhysicalParams(eta=16.0)
    disc = Discretization(structured_mesh(3, 3), ell, params, vector_degree=vector_degree)
    audit = _check_modal_audit(disc, 2)
    if vector_degree == 2:
        assert audit > 1e-3
    else:
        assert audit <= 1e-9


def test_audit_negative_control(params):
    # vector degree 2 paired with P0: divergences leave the pressure space
    disc = Discretization(structured_mesh(2, 2), ell=0, params=params, vector_degree=2)
    case = mms.default_mms(params, omega=4.0)
    traj = march(disc, 1, TimeGrid(0.25, 2), case.initial_state(disc), case.sources())
    assert ver.mass_conservation_audit(traj, case.sources()) > 1e-3


def test_audit_robust_to_parameters():
    # anisotropic permeability, alpha < 1, strong lambda: conservation and the
    # kinematic identity are structural, not parameter-tuned
    prm = asm.PhysicalParams(rho_s=3.0, rho_f=0.8, phi0=0.4, rho_w=2.5, alpha=0.7,
                             s0=0.2, lam=5.0, mu=0.6,
                             kappa=np.array([[2.0, 0.3], [0.3, 0.5]]), eta=16.0)
    disc = Discretization(structured_mesh(4, 4), ell=1, params=prm)
    case = mms.default_mms(prm, omega=3.0)
    traj = march(disc, 2, TimeGrid(0.4, 4), case.initial_state(disc), case.sources())
    assert ver.mass_conservation_audit(traj, case.sources()) <= 1e-9
    assert _kinematic_consistency(traj) <= 1e-9


def test_audit_zero_everything(disc4):
    traj = march(disc4, 1, TimeGrid(0.5, 2), SlabState.zeros(disc4), SourceSet())
    assert ver.mass_conservation_audit(traj, SourceSet()) == 0.0


def test_energy_nonincreasing_without_sources(disc4, params):
    case = mms.default_mms(params, omega=4.0)
    traj = march(disc4, 1, TimeGrid(0.5, 8), case.initial_state(disc4), SourceSet())
    energy = _energy_at_endpoints(traj)
    growth = np.diff(energy) / energy[:-1]
    assert growth.max() <= 1e-8


# --- studies -----------------------------------------------------------------------------

def test_temporal_study_shape(params):
    res = ver.temporal_study(params, k=1, ell=0, slab_counts=[2, 4], mesh_n=2,
                             total_time=0.5, omega=4.0)
    assert len(res.steps) == 2
    assert set(res.columns) >= {"combined_endpoint", "u_Uh_Linf"}
    assert res.extras["mass_audit"] <= 1e-9


def test_temporal_study_builds_its_sources_once(params, monkeypatch):
    # the levels share one Discretization, so one SourceSet serves them all
    calls = []
    sources = mms.DiscreteCase.sources

    def counting(case):
        calls.append(case)
        return sources(case)
    monkeypatch.setattr(mms.DiscreteCase, "sources", counting)
    ver.temporal_study(params, k=1, ell=0, slab_counts=[2, 4, 8], mesh_n=2)
    assert len(calls) == 1


def test_spatial_study_shape(params):
    res = ver.spatial_study(params, ell=0, mesh_sizes=[2, 4], k=1, n_slabs=2,
                            omega=2.0, tau_check=False)
    assert len(res.steps) == 2
    rates = res.rates()
    assert all(len(r) == 1 for r in rates.values())


def test_projection_suite_orders_lower_bounded(params):
    """All six projection estimates hold as guaranteed orders: measured EOC of
    every error column is at least ell+1 (the L2 vector columns exceed it)."""
    res = ver.projection_study(params, ell=0, mesh_sizes=[4, 8, 16])
    rates = res.rates()
    for name, rate_list in rates.items():
        assert rate_list[-1] >= 1.0 - 0.15, (name, rate_list)


def test_spatial_invariant_ell1(params_ell1):
    # module invariant: combined-norm EOC in h >= ell+1-0.2 also at ell = 1,
    # with the displacement L2 error at the optimal order ell+2
    res = ver.spatial_study(params_ell1, ell=1, mesh_sizes=[4, 8, 16], k=2,
                            n_slabs=8, omega=2.0)
    rates = res.rates()
    assert rates["combined_Linf"][-1] >= 1.8
    assert rates["u_L2_Linf"][-1] >= 2.8
    assert res.extras["mass_audit"] <= 1e-9
    assert res.extras["tau_halving_change"] < 0.05


@pytest.mark.parametrize("lam", [1e4, 1e6])
def test_stiff_lambda_conserves_mass_without_locking(lam):
    # the lambda-scaled elasticity rows dominate the slab right-hand side;
    # unrefined solves met the global residual but audited 1.6e-9 and 1.7e-7.
    # The last displacement L2 EOC stays at the optimal order ell + 2 = 2,
    # which lambda = 1 reads as 1.973 on the same study: no locking
    res = ver.spatial_study(asm.PhysicalParams(lam=lam, eta=4.0), 0, [4, 8, 16],
                            k=2, n_slabs=8, tau_check=False)
    assert res.extras["mass_audit"] <= 1e-9
    assert abs(res.rates()["u_L2_Linf"][-1] - 2.0) <= 0.05


def test_study_csv_round_trip(tmp_path, params):
    res = ver.temporal_study(params, k=1, ell=0, slab_counts=[2, 4], mesh_n=2,
                             total_time=0.5, omega=4.0)
    path = str(tmp_path / "study_time.csv")
    res.to_csv(path)
    lines = open(path).read().strip().splitlines()
    assert len(lines) == 3                          # header + 2 levels
    header = lines[0].split(",")
    assert header[:3] == ["level", "h", "tau"]
    assert any(name.startswith("eoc_") for name in header)
    first_row = lines[1].split(",")
    assert first_row[-1] == ""                      # no EOC on the first level
