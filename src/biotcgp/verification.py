"""Error norms, projection operators, conservation audit, and EOC studies.

The mesh-dependent displacement norm combines the broken H1 seminorm, the
h_e^{-1}-weighted tangential jumps over all edges, the h_K^2-weighted broken
H2 seminorm, and (for the full graph norm) the divergence; the combined error
measure adds the density-weighted velocity/flux norm, the K^{-1/2} flux norm,
and the sqrt(s0)-scaled pressure norm.  Errors that are themselves discrete
fields are measured as quadratic forms of the coefficients (Gram or
row matrices); errors against an analytic field, by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from .ioutil import atomic_write_text, fmt17
from .linalg import LinearSystem, lu_solve
from .mesh import structured_mesh
from .mms import DiscreteCase, default_mms, discrete_case, div_W
from .slab import FIELDS, Discretization, SourceSet, TimeGrid, Trajectory, chunks, march
from .spaces import interpolate_vector_field, project_scalar_field
from .time_basis import gauss_lobatto_rule, gauss_rule, lagrange_basis

__all__ = ["field_error_norms", "trajectory_errors",
           "mass_conservation_audit", "march_case", "projection_p1", "projection_p2",
           "projection_p3", "eoc", "StudyResult", "temporal_study", "spatial_study",
           "projection_study"]


# --- spatial error norms -----------------------------------------------------

def _on_points(table: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Stacked fields at tabulated points: a basis table (n, nq, nd, *comp)
    times local coefficients (n, nd, S) gives (n, nq, *comp, S).

    One batched matmul over the table's own memory order (point and component
    axes flattened, the basis index last), so a table whose basis index is
    innermost in memory is not copied.
    """
    order = [0, *sorted([1, *range(3, table.ndim)], key=lambda a: -table.strides[a])]
    base = table.transpose(order + [2])
    out = base.reshape(len(base), -1, base.shape[-1]) @ local
    out = out.reshape(base.shape[:-1] + out.shape[-1:])
    return out.transpose(sorted(range(len(order)), key=order.__getitem__) + [table.ndim - 1])


def _exact_values(exact: dict, name: str, points: np.ndarray, where: str,
                  profiles: dict):
    """Exact field ``name`` of every sample at the ``where`` point set (..., 2):
    its profile times the per-sample factors; (..., *comp, S).  0.0 when the
    name is absent.

    The profile values are kept in ``profiles`` under (profile, where), so a
    profile shared by several fields, or met again on a later call with the
    same dict, is evaluated once per point set."""
    if name not in exact:
        return 0.0
    factors, profile = exact[name]
    key = (profile, where)
    if key not in profiles:
        profiles[key] = np.asarray(profile(points))[..., None]
    return profiles[key] * factors


def _integral(weights: np.ndarray, integrand: np.ndarray) -> np.ndarray:
    """sum_{c,q} weights[c, q] * integrand[c, q, ...] summed over the component
    axes; integrand (n, nq, *comp, S) gives (S,).

    One matmul of the flattened weights against the (n*nq, comp*S) view of the
    integrand (a copy only if the integrand is not C-contiguous), then a sum of
    the comp partial sums of each sample."""
    columns = weights.reshape(-1) @ integrand.reshape(weights.size, -1)
    return columns.reshape(-1, integrand.shape[-1]).sum(axis=0)


def _norms(u_l2_sq, dg_no_h2_sq, h2_sq, div_sq, mrho_sq, wk_sq, p_sq) -> dict[str, np.ndarray]:
    """The ``field_error_norms`` dict from its squared parts, each (S,)."""
    dg_sq = dg_no_h2_sq + h2_sq
    return {
        "u_L2": np.sqrt(u_l2_sq),
        "u_DG": np.sqrt(dg_sq),
        "u_DG_no_h2": np.sqrt(dg_no_h2_sq),
        "u_Uh": np.sqrt(dg_sq + div_sq),
        "u_div": np.sqrt(div_sq),
        "mrho_vw": np.sqrt(mrho_sq),
        "w_Kinv": np.sqrt(wk_sq),
        "p_L2": np.sqrt(p_sq),
    }


def _coefficient_norms(disc: Discretization,
                       coeffs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``field_error_norms`` of coefficient stacks (S, ndofs) that are the
    errors themselves, per sample: each squared norm is c^T G c of a Gram
    matrix G of ``disc``, or for the semidefinite divergence and h^2 terms
    ||B c||^2 of a row matrix B, whose sum of squares has no floor of
    about sqrt(eps) times the whole field, as c^T B^T B c would."""
    prm = disc.params
    # one sample per column, in the C order that the sparse products read
    u, v, w, p = (np.ascontiguousarray(np.asarray(coeffs[f]).T) for f in FIELDS)

    def form(gram, x, y=None):
        """y_s^T G x_s for every sample column s; ``y`` defaults to ``x``."""
        return np.einsum("ds,ds->s", x if y is None else y, gram @ x)

    def squares(rows):
        """||B u_s||^2 for every sample column s of a row matrix B."""
        values = rows @ u
        return np.einsum("rs,rs->s", values, values)

    mass = disc.mass_bdm
    return _norms(form(mass, u), form(disc.gram_broken_h1, u),
                  squares(disc.h2_rows) if disc.bdm.degree >= 2 else 0.0,
                  squares(disc.div_rows),
                  form(mass, v, prm.rho_bar * v + prm.rho_f * w)
                  + form(mass, w, prm.rho_f * v + prm.rho_w * w),
                  form(disc.mass_kinv, w), form(disc.mass_p, p))


def field_error_norms(disc: Discretization, coeffs: dict[str, np.ndarray],
                      exact: dict | None = None, *,
                      _profiles: dict | None = None) -> dict[str, np.ndarray]:
    """Norms of (discrete field - exact field) for a stack of S samples.

    ``coeffs[f]`` is (S, ndofs).  ``exact`` None means the fields are
    themselves the errors (a ``DiscreteCase``'s coefficient differences):
    every norm is then an exact quadratic form of the coefficients
    (``_coefficient_norms``).

    Otherwise the norms are quadrature sums of the difference at the
    quadrature points.  ``exact`` maps a field name (u, v, w, p, grad_u,
    div_u, second_u) to a separable exact field: per-sample factors (S,) and a
    profile of points (..., 2).  An absent field counts as zero, so ``{}``
    measures the discrete fields themselves by quadrature.  Each profile is
    evaluated once per point set (volume quadrature points, boundary-edge
    points), and at BDM_1 the h^2 term is one integral of the exact profile.
    ``_profiles`` carries those values from one call to the next: a caller
    that measures many stacks on the same ``disc`` passes one dict, which
    lives no longer than that caller's own call.

    Returns (S,) arrays of u_L2, u_DG, u_DG_no_h2, u_Uh, u_div, mrho_vw,
    w_Kinv, p_L2.
    """
    if exact is None:
        return _coefficient_norms(disc, coeffs)
    bdm, dgp = disc.bdm, disc.dgp
    prm = disc.params
    mesh = disc.mesh
    w = bdm.volume.weights
    pts = bdm.volume.points
    profiles = {} if _profiles is None else _profiles
    local = {f: np.asarray(coeffs[f]).T[(dgp if f == "p" else bdm).cell_dofs]
             for f in FIELDS}                                   # (nc, nd, S)

    def exact_at(name):
        return _exact_values(exact, name, pts, "volume", profiles)

    e_u = _on_points(bdm.volume.values, local["u"]) - exact_at("u")
    e_v = _on_points(bdm.volume.values, local["v"]) - exact_at("v")
    e_w = _on_points(bdm.volume.values, local["w"]) - exact_at("w")
    e_p = _on_points(dgp.volume.values, local["p"]) - exact_at("p")

    u_l2_sq = _integral(w, e_u * e_u)
    mrho_sq = _integral(w, prm.rho_bar * e_v * e_v + 2.0 * prm.rho_f * e_v * e_w
                        + prm.rho_w * e_w * e_w)
    wk_sq = _integral(w, e_w * (prm.kappa_inv @ e_w))
    p_sq = _integral(w, e_p * e_p)

    grad_err = _on_points(bdm.volume.grads, local["u"]) - exact_at("grad_u")
    h1_sq = _integral(w, grad_err * grad_err)
    div_err = _on_points(bdm.volume.divs, local["u"]) - exact_at("div_u")
    div_sq = _integral(w, div_err * div_err)

    h2_w = mesh.h_cell[:, None] ** 2 * w
    if bdm.degree >= 2:
        # the one second-derivative row of a cell, at each of its points
        sec_err = _on_points(bdm.volume_seconds, local["u"]) - exact_at("second_u")
        sec_err = np.broadcast_to(sec_err, w.shape + sec_err.shape[2:])
        h2_sq = _integral(h2_w, sec_err * sec_err)
    elif "second_u" in exact:
        # BDM_1 has no discrete second derivatives, so the term is the exact
        # field's own: its factors squared times one integral of its profile
        factors, profile = exact["second_u"]
        if (profile, "h2") not in profiles:
            values = np.asarray(profile(pts))[..., None]
            profiles[profile, "h2"] = _integral(h2_w, values * values)
        h2_sq = factors ** 2 * profiles[profile, "h2"]
    else:
        h2_sq = 0.0

    # tangential jumps of the displacement error over every edge; the exact
    # field is continuous, so it enters on boundary edges only
    tr = bdm.edge_traces
    jump = _on_points(tr.values0, local["u"][mesh.edge_cells[:, 0]])
    jump[tr.interior] -= _on_points(tr.values1, local["u"][mesh.edge_cells[tr.interior, 1]])
    boundary = np.flatnonzero(mesh.boundary_edge)
    jump[boundary] -= _exact_values(exact, "u", tr.points[boundary], "boundary", profiles)
    tangents = tr.normals @ np.array([[0.0, 1.0], [-1.0, 0.0]])
    jt = (tangents[:, None, None, :] @ jump)[:, :, 0]
    # the h_e from ds and the h_e^{-1} weight cancel
    jump_sq = np.einsum("q,eqs->s", tr.s_weights, jt * jt)

    return _norms(u_l2_sq, h1_sq + jump_sq, h2_sq, div_sq, mrho_sq, wk_sq, p_sq)


def _stacked_errors(disc: Discretization, case, values: dict[str, np.ndarray],
                    times, profiles: dict | None = None) -> dict[str, np.ndarray]:
    """``field_error_norms`` of trajectory values (S, ndofs) per field at S times."""
    if isinstance(case, DiscreteCase):
        exact = case.exact_state(np.asarray(times))
        return field_error_norms(disc, {f: v - getattr(exact, f) for f, v in values.items()})
    return field_error_norms(disc, values, case.exact_terms(np.asarray(times)),
                             _profiles=profiles)


# Samples (times, or the Gauss rows of the audit) evaluated together.  The
# per-call overhead of a few samples dominates; a larger batch gains no more
# time but holds (cells, points, samples) arrays: the whole audit in one pass
# raised the temporal study's peak RSS by 8 MB, a batch of 16 samples by 2-3 MB.
_CHUNK = 8


def _slab_times(grid: TimeGrid, positions: np.ndarray) -> np.ndarray:
    """Times at the local ``positions`` in [0, 1) of every slab, slab by slab,
    then the final time."""
    ends = grid.endpoints
    return np.append((ends[:-1, None] + grid.tau * positions).ravel(), ends[-1])


def trajectory_errors(traj: Trajectory, case, l2_in_time: bool = True) -> dict[str, float]:
    """Reduce the per-time error norms over the run.

    Linf norms (``*_Linf``) are maxima over slab endpoints plus the interior
    Gauss-Lobatto points of every slab; the endpoint-only combined measure
    (graph norm of u, density norm of (v, w), sqrt(s0)-scaled pressure) is
    reported separately.  With ``l2_in_time`` the L2-in-time norms
    (``*_L2I``) are added, from a dense Gauss rule per slab: min(k+2, 6) more
    samples per slab.  Without it each slab is sampled only where the Linf
    norms look, k-1 interior points plus its left end (and the right end of
    the last slab), and the other keys are unchanged.

    The samples of consecutive slabs are evaluated together, ``_CHUNK`` at a
    time, and the exact profiles once per point set for the whole call.
    """
    grid, k = traj.grid, traj.k
    n_slabs = grid.num_slabs
    rule = gauss_rule(min(k + 2, 6))
    # sample positions in every slab: left end, interior Gauss-Lobatto, Gauss
    positions = gauss_lobatto_rule(k).nodes[:-1]
    if l2_in_time:
        positions = np.concatenate([positions, rule.nodes])
    basis = lagrange_basis("G0", k)
    lagrange = np.concatenate([np.tile(basis.eval_all(positions), (n_slabs, 1)),
                               basis.eval_all(np.array([1.0]))])
    slab_of = np.append(np.repeat(np.arange(n_slabs), positions.size), n_slabs - 1)
    times = _slab_times(grid, positions)

    profiles: dict = {}
    parts = [_stacked_errors(traj.disc, case,
                             {f: np.einsum("ri,rid->rd", lagrange[rows],
                                           traj.coeffs[f][slab_of[rows]]) for f in FIELDS},
                             times[rows], profiles)
             for rows in chunks(times.size, _CHUNK)]
    norms = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}

    root_s0 = float(np.sqrt(traj.disc.params.s0))
    combined = norms["u_Uh"] + norms["mrho_vw"] + root_s0 * norms["p_L2"]
    out = {"combined_endpoint": float(max(combined[:-1:positions.size].max(), combined[-1]))}
    for key, val in norms.items():
        by_slab = val[:-1].reshape(n_slabs, -1)     # val[-1] is at the final time
        out[f"{key}_Linf"] = float(max(by_slab[:, :k].max(), val[-1]))
        if l2_in_time:
            l2i_sq = grid.tau * np.sum(by_slab[:, k:] ** 2 @ rule.weights)
            out[f"{key}_L2I"] = float(np.sqrt(l2i_sq))
    out["combined_Linf"] = out["u_Uh_Linf"] + out["mrho_vw_Linf"] + root_s0 * out["p_L2_Linf"]
    return out


# --- conservation audit ----------------------------------------------------------

def mass_conservation_audit(traj: Trajectory, sources: SourceSet) -> float:
    """Worst relative L2(Omega) residual of the discrete mass balance
    evaluated pointwise at the Gauss points of every slab.

    The divergence terms are evaluated pointwise (not projected), so a
    pairing whose divergences do not live in the pressure space fails loudly;
    the source is audited as it enters the system (pressure-space projection
    of its Gauss-Lobatto time interpolant, zero-mean part).  The Gauss rows
    of consecutive slabs are evaluated together, at most ``_CHUNK`` at a time.
    """
    disc, k, grid = traj.disc, traj.k, traj.grid
    prm = disc.params
    bdm, dgp = disc.bdm, disc.dgp
    basis_g0 = lagrange_basis("G0", k)
    basis_gl = lagrange_basis("GL", k)
    g_nodes = gauss_rule(k).nodes
    val_w = basis_g0.eval_all(g_nodes)              # (k, k+1)
    der_w = basis_g0.deriv_all(g_nodes) / grid.tau
    gl_w = basis_gl.eval_all(g_nodes)               # (k, k+1)
    qw = bdm.volume.weights
    # the load at the N k + 1 distinct Gauss-Lobatto times: the right node of
    # a slab is the left node of the next
    loads = disc.pressure_load(sources.mass, _slab_times(grid, basis_gl.nodes[:-1]))
    loads /= disc.dgp.mass_diagonal

    def at_gauss_rows(table, space, weights, slab_coeffs):
        """(cells, points, c k) values of the field whose slab coefficients
        (c, k+1, ndofs) are contracted with the time weights (k, k+1)."""
        rows = np.einsum("gi,cid->dcg", weights, slab_coeffs)
        return _on_points(table, rows.reshape(len(rows), -1)[space.cell_dofs])

    worst = 0.0
    for slabs in chunks(grid.num_slabs, max(1, _CHUNK // k)):
        terms = [prm.s0 * at_gauss_rows(dgp.volume.values, dgp, der_w, traj.coeffs["p"][slabs]),
                 prm.alpha * at_gauss_rows(bdm.volume.divs, bdm, der_w, traj.coeffs["u"][slabs]),
                 at_gauss_rows(bdm.volume.divs, bdm, val_w, traj.coeffs["w"][slabs])]
        windows = k * np.arange(slabs.start, slabs.stop)[:, None] + np.arange(k + 1)
        terms.append(-at_gauss_rows(dgp.volume.values, dgp, gl_w, loads[windows]))
        res = np.sqrt(_integral(qw, sum(terms) ** 2))
        scale = np.max([np.sqrt(_integral(qw, tm * tm)) for tm in terms], axis=0)
        ratio = np.divide(res, scale, out=res.copy(), where=scale > 0.0)
        worst = max(worst, float(ratio.max()))
    return worst


def march_case(disc: Discretization, case, k: int, grid: TimeGrid, sources: SourceSet,
               l2_in_time: bool = False) -> tuple[Trajectory, dict[str, float], float]:
    """March ``case`` on ``disc`` from its initial state and measure the run:
    the trajectory, its ``trajectory_errors`` and its mass audit."""
    traj = march(disc, k, grid, case.initial_state(disc), sources)
    return (traj, trajectory_errors(traj, case, l2_in_time=l2_in_time),
            mass_conservation_audit(traj, sources))


# --- projection operators -------------------------------------------------------

def projection_p1(disc: Discretization, value_fn, grad_fn) -> np.ndarray:
    """Elliptic projection: matches the interior-penalty form of the input."""
    prm = disc.params
    rhs = asm.assemble_elasticity_rhs(disc.bdm, value_fn, grad_fn, prm.mu, prm.lam,
                                      prm.eta)
    free = disc.bdm.free
    a_ff = disc.elasticity[np.ix_(free, free)]
    x = lu_solve(LinearSystem(a_ff, rhs[free]))
    return disc.bdm.lift(x)


def projection_p2(disc: Discretization, value_fn) -> np.ndarray:
    """Canonical interpolant (matches the divergence moments by construction)."""
    return interpolate_vector_field(disc.bdm, value_fn)


def projection_p3(disc: Discretization, value_fn) -> np.ndarray:
    """Cell-local L2 projection onto the pressure space."""
    return project_scalar_field(disc.dgp, value_fn)


# --- EOC -------------------------------------------------------------------------

def eoc(values, steps) -> list[float | None]:
    """log-ratio convergence rates; ``None`` flags an exactly-resolved level."""
    values = list(values)
    steps = list(steps)
    if len(values) != len(steps) or len(values) < 2:
        raise ValueError("need matching lists with at least two levels")
    rates: list[float | None] = []
    for i in range(len(values) - 1):
        if values[i] <= 0.0 or values[i + 1] <= 0.0:
            rates.append(None)
            continue
        rates.append(float(np.log(values[i] / values[i + 1])
                           / np.log(steps[i] / steps[i + 1])))
    return rates


@dataclass
class StudyResult:
    """One refinement study: per-level mesh/slab sizes, error columns, EOCs.

    ``steps`` is the refined quantity (h for spatial studies, tau for temporal
    ones); both h and tau are emitted per level in the CSV.
    """

    steps: list[float] = field(default_factory=list)
    h_values: list[float] = field(default_factory=list)
    tau_values: list[float] = field(default_factory=list)
    columns: dict[str, list[float]] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)

    def add_level(self, step: float, h: float, tau: float, values: dict[str, float]) -> None:
        """Append one level: its refined quantity, h, tau and a value per column."""
        self.steps.append(step)
        self.h_values.append(h)
        self.tau_values.append(tau)
        for key, val in values.items():
            self.columns.setdefault(key, []).append(val)

    def rates(self) -> dict[str, list[float | None]]:
        return {key: eoc(vals, self.steps) for key, vals in self.columns.items()}

    def to_csv(self, path: str) -> None:
        """One row per level: h, tau, every column and its EOC.  The ``*_Linf``
        columns are maxima over the slab ends and the interior Gauss-Lobatto
        nodes, not over all of [0, T]."""
        names = sorted(self.columns)
        rates = self.rates()
        header = ["level", "h", "tau"] + names + [f"eoc_{n}" for n in names]
        lines = [",".join(header)]
        for i in range(len(self.steps)):
            row = [str(i), fmt17(self.h_values[i]), fmt17(self.tau_values[i])]
            row += [fmt17(self.columns[n][i]) for n in names]
            for n in names:
                if i == 0:
                    row.append("")
                else:
                    r = rates[n][i - 1]
                    row.append("exact" if r is None else fmt17(r))
            lines.append(",".join(row))
        atomic_write_text(path, "\n".join(lines) + "\n")


# --- study drivers ------------------------------------------------------------------

def _march_levels(levels, case, sources: SourceSet, k: int,
                  columns) -> tuple[StudyResult, Discretization | None]:
    """One study row per level (step, h, disc, grid): ``march_case`` of
    ``case`` and the error ``columns``; the worst audit of all levels goes to
    ``extras["mass_audit"]``.  ``levels`` is consumed lazily, so a level is
    built only once the one before it has been measured.  Returns the study
    and the last level's discretization."""
    result, worst, disc = StudyResult(), 0.0, None
    for step, h, disc, grid in levels:
        # the trajectory is dropped at once, not held through the next march
        errs, audit = march_case(disc, case, k, grid, sources)[1:]
        worst = max(worst, audit)
        result.add_level(step, h, grid.tau, {key: errs[key] for key in columns})
    result.extras["mass_audit"] = worst
    return result, disc


def temporal_study(params: asm.PhysicalParams, k: int, ell: int, slab_counts,
                   mesh_n: int = 4, total_time: float = 0.5,
                   omega: float = 4.0) -> StudyResult:
    """Convergence in tau on a fixed mesh with a spatially exact solution."""
    mesh = structured_mesh(mesh_n, mesh_n)
    disc = Discretization(mesh, ell, params)
    case = discrete_case(disc, omega)
    sources = case.sources()   # one SourceSet, so its term loads are integrated once
    grids = (TimeGrid(total_time, int(n_slabs)) for n_slabs in slab_counts)
    result, _ = _march_levels(((grid.tau, 1.0 / mesh_n, disc, grid) for grid in grids),
                              case, sources, k,
                              ("combined_endpoint", "u_Uh_Linf", "mrho_vw_Linf",
                               "w_Kinv_Linf", "p_L2_Linf", "u_L2_Linf"))
    return result


def spatial_study(params: asm.PhysicalParams, ell: int, mesh_sizes, k: int = 2,
                  n_slabs: int = 8, total_time: float = 0.5, omega: float = 2.0,
                  tau_check: bool = True) -> StudyResult:
    """Convergence in h with the trigonometric solution and tau fixed small.

    The finest level is re-run with halved tau to verify the temporal error is
    subdominant; the worst relative change is reported in ``extras``.  The
    case and its sources serve every level: a ``FieldSource`` integrates its
    loads once per target space, so once per level.
    """
    case = default_mms(params, omega)
    sources = case.sources()
    grid = TimeGrid(total_time, n_slabs)
    levels = ((1.0 / nx, 1.0 / nx,
               Discretization(structured_mesh(int(nx), int(nx)), ell, params), grid)
              for nx in mesh_sizes)
    result, disc = _march_levels(levels, case, sources, k,
                                 ("combined_Linf", "u_Uh_Linf", "u_L2_Linf",
                                  "mrho_vw_Linf", "w_Kinv_Linf", "p_L2_Linf"))
    if tau_check and disc is not None:
        traj2 = march(disc, k, TimeGrid(total_time, 2 * n_slabs), case.initial_state(disc),
                      sources)
        errs2 = trajectory_errors(traj2, case, l2_in_time=False)
        result.extras["tau_halving_change"] = max(
            abs(errs2[key] - result.columns[key][-1]) / result.columns[key][-1]
            for key in ("combined_Linf", "u_L2_Linf"))
    return result


def projection_study(params: asm.PhysicalParams, ell: int, mesh_sizes,
                     omega: float = 4.0) -> StudyResult:
    """Measured orders of the three projection operators on the default
    fields at t = 0."""
    result = StudyResult()
    case = default_mms(params, omega)
    exact = case.exact_terms(np.zeros(1))
    for nx in mesh_sizes:
        disc = Discretization(structured_mesh(int(nx), int(nx)), ell, params)
        p1 = projection_p1(disc, case.at("u", 0.0), case.at("grad_u", 0.0))
        p2 = projection_p2(disc, case.at("w", 0.0))
        p3 = projection_p3(disc, case.at("p", 0.0))
        zeros = np.zeros((1, disc.bdm.ndofs))
        norms_u = field_error_norms(
            disc, {"u": p1[None], "v": zeros, "w": zeros, "p": np.zeros((1, disc.dgp.ndofs))},
            {key: exact[key] for key in ("u", "grad_u", "div_u", "second_u")})
        # the flux interpolant is measured in the displacement slot, whose
        # L2 and divergence norms are the ones reported for it
        norms_wp = field_error_norms(
            disc, {"u": p2[None], "v": zeros, "w": zeros, "p": p3[None]},
            {"u": exact["w"], "div_u": (exact["w"][0], div_W), "p": exact["p"]})
        result.add_level(1.0 / nx, 1.0 / nx, 0.0, {
            key: float(norms[name][0])
            for key, (norms, name) in (("u_p1_L2", (norms_u, "u_L2")),
                                       ("u_p1_DG", (norms_u, "u_DG")),
                                       ("u_p1_div", (norms_u, "u_div")),
                                       ("w_p2_L2", (norms_wp, "u_L2")),
                                       ("w_p2_div", (norms_wp, "u_div")),
                                       ("p_p3_L2", (norms_wp, "p_L2")))})
    return result
