"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per check (run with ``pytest -s`` to see them inline).
"""

import os
import time

import pytest

from biotcgp import mms, time_basis as tb, verification as ver
from biotcgp.assembly import PhysicalParams
from biotcgp.cli import RunConfig, run
from biotcgp.mesh import structured_mesh
from biotcgp.slab import Discretization, TimeGrid, march

SEED = 20260808

REPORT_LINES: list[str] = []


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}"
    REPORT_LINES.append(line)
    print(line)


# --- shared study fixtures (computed once) ------------------------------------------

@pytest.fixture(scope="module")
def projection_results():
    out = {}
    for ell, eta in ((0, 4.0), (1, 16.0)):
        t0 = time.time()
        res = ver.projection_study(PhysicalParams(eta=eta), ell=ell,
                                   mesh_sizes=[4, 8, 16, 32])
        out[ell] = (res, time.time() - t0)
    return out


@pytest.fixture(scope="module")
def temporal_results():
    params = PhysicalParams()
    out = {}
    t0 = time.time()
    out[1] = ver.temporal_study(params, k=1, ell=0, slab_counts=[4, 8, 16, 32],
                                mesh_n=4, total_time=0.5, omega=4.0)
    out[2] = ver.temporal_study(params, k=2, ell=0, slab_counts=[2, 4, 8, 16],
                                mesh_n=4, total_time=0.5, omega=4.0)
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def spatial_result():
    t0 = time.time()
    res = ver.spatial_study(PhysicalParams(), ell=0, mesh_sizes=[4, 8, 16, 32],
                            k=2, n_slabs=8, total_time=0.5, omega=2.0)
    return res, time.time() - t0


# --- criterion 1: quadrature exactness ------------------------------------------------

def test_criterion_1_quadrature_exactness():
    t0 = time.time()
    worst = 0.0
    inexact_ok = True
    for k in range(1, 5):
        for rule in (tb.gauss_rule(k), tb.gauss_lobatto_rule(k)):
            for m in range(2 * k):
                exact = 1.0 / (m + 1)
                worst = max(worst, abs(rule.integrate(lambda t: t ** m) - exact) / exact)
            m = 2 * k
            exact = 1.0 / (m + 1)
            if abs(rule.integrate(lambda t: t ** m) - exact) / exact <= 1e-13:
                inexact_ok = False
    elapsed = time.time() - t0
    ok = worst <= 1e-13 and inexact_ok and elapsed < 1.0
    _report("criterion 1 (quadrature exactness)", ok,
            f"worst_rel={worst:.2e} bound<=1e-13, degree-2k inexact={inexact_ok}, "
            f"runtime={elapsed:.2f}s<1s")
    assert worst <= 1e-13
    assert inexact_ok
    assert elapsed < 1.0


# --- criterion 2: weighted node-transfer identities -------------------------------------

def test_criterion_2_identities_and_coupling_matrix():
    t0 = time.time()
    worst = 0.0
    for k in (1, 2, 3):
        suite = tb.weighted_identity_suite(k, trials=100, seed=SEED)
        worst = max(worst, suite["collapse_rel_err"], suite["pairing_rel_err"])
        dsuite = tb.derivative_identity_suite(k, trials=100, seed=SEED + k)
        worst = max(worst, dsuite["pairing_rel_err"], dsuite["symmetry_rel_err"])
    min_eig = min(tb.coupling_matrix(k)[2] for k in range(1, 5))
    elapsed = time.time() - t0
    ok = worst <= 1e-11 and min_eig > 0.0 and elapsed < 5.0
    _report("criterion 2 (temporal identities)", ok,
            f"worst_rel={worst:.2e} bound<=1e-11, min_eig_sym={min_eig:.4f}>0, "
            f"runtime={elapsed:.2f}s<5s")
    assert worst <= 1e-11
    assert min_eig > 0.0
    assert elapsed < 5.0


# --- criterion 3: projection rates --------------------------------------------------------

def _final_rate(res, column):
    return res.rates()[column][-1]


@pytest.mark.parametrize("ell", [0, 1])
def test_criterion_3_pressure_projection_band(projection_results, ell):
    res, _ = projection_results[ell]
    rate = _final_rate(res, "p_p3_L2")
    ok = abs(rate - (ell + 1)) <= 0.15
    _report(f"criterion 3 (p-P3p L2, ell={ell})", ok,
            f"measured_eoc={rate:.3f} band={ell + 1}+/-0.15")
    assert ok


@pytest.mark.parametrize("ell", [0, 1])
def test_criterion_3_displacement_dg_band(projection_results, ell):
    res, _ = projection_results[ell]
    rate = _final_rate(res, "u_p1_DG")
    ok = abs(rate - (ell + 1)) <= 0.15
    _report(f"criterion 3 (u-P1u DG, ell={ell})", ok,
            f"measured_eoc={rate:.3f} band={ell + 1}+/-0.15")
    assert ok


@pytest.mark.parametrize("ell", [0, 1])
def test_criterion_3_displacement_l2_band(projection_results, ell):
    # BDM_{ell+1} holds every vector polynomial of degree ell+1, and the
    # symmetric interior-penalty form is adjoint-consistent on the convex
    # square, so the elliptic projection converges in L2 at order ell+2.
    res, _ = projection_results[ell]
    rate = _final_rate(res, "u_p1_L2")
    ok = abs(rate - (ell + 2)) <= 0.15
    _report(f"criterion 3 (u-P1u L2, ell={ell})", ok,
            f"measured_eoc={rate:.3f} band={ell + 2}+/-0.15 "
            f"(optimal L2 order of BDM_{ell + 1})")
    assert ok


@pytest.mark.parametrize("ell", [0, 1])
def test_criterion_3_flux_l2_band(projection_results, ell):
    # The canonical BDM_{ell+1} interpolant reproduces every vector
    # polynomial of degree ell+1, so its L2 order for smooth fields is ell+2.
    res, _ = projection_results[ell]
    rate = _final_rate(res, "w_p2_L2")
    ok = abs(rate - (ell + 2)) <= 0.15
    _report(f"criterion 3 (w-P2w L2, ell={ell})", ok,
            f"measured_eoc={rate:.3f} band={ell + 2}+/-0.15 "
            f"(optimal L2 order of BDM_{ell + 1})")
    assert ok


def test_criterion_3_runtime(projection_results):
    elapsed = sum(projection_results[ell][1] for ell in (0, 1))
    ok = elapsed < 120.0
    _report("criterion 3 (runtime)", ok, f"runtime={elapsed:.1f}s<120s")
    assert ok


# --- criterion 4: temporal convergence -----------------------------------------------------

def test_criterion_4_temporal_convergence(temporal_results):
    details = []
    ok = True
    for k in (1, 2):
        rate = _final_rate(temporal_results[k], "combined_endpoint")
        bound = k + 1 - 0.2
        ok = ok and rate >= bound
        details.append(f"k={k}: eoc={rate:.3f}>={bound:.2f}")
    elapsed = temporal_results["elapsed"]
    ok = ok and elapsed < 180.0
    _report("criterion 4 (temporal convergence)", ok,
            "; ".join(details) + f"; runtime={elapsed:.1f}s<180s")
    for k in (1, 2):
        assert _final_rate(temporal_results[k], "combined_endpoint") >= k + 1 - 0.2
    assert elapsed < 180.0


# --- criterion 5: spatial convergence --------------------------------------------------------

def test_criterion_5_spatial_convergence(spatial_result):
    res, elapsed = spatial_result
    rate = _final_rate(res, "combined_Linf")
    rate_u = _final_rate(res, "u_L2_Linf")
    drift = res.extras["tau_halving_change"]
    ok = (rate >= 0.8 and rate_u >= 1.8 and drift < 0.05 and elapsed < 300.0)
    _report("criterion 5 (spatial convergence, ell=0)", ok,
            f"combined_eoc={rate:.3f}>=0.80, uL2_eoc={rate_u:.3f}>=1.80, "
            f"tau_halving_change={drift:.4f}<0.05, runtime={elapsed:.1f}s<300s")
    assert rate >= 0.8
    assert rate_u >= 1.8
    assert drift < 0.05
    assert elapsed < 300.0


# --- criterion 6: strong mass conservation -----------------------------------------------------

def test_criterion_6_mass_conservation(temporal_results, spatial_result):
    audits = [temporal_results[1].extras["mass_audit"],
              temporal_results[2].extras["mass_audit"],
              spatial_result[0].extras["mass_audit"]]
    worst = max(audits)

    params = PhysicalParams()
    case = mms.default_mms(params, omega=4.0)
    broken = Discretization(structured_mesh(2, 2), ell=0, params=params,
                            vector_degree=2)
    traj = march(broken, 1, TimeGrid(0.25, 2), case.initial_state(broken),
                 case.sources())
    control = ver.mass_conservation_audit(traj, case.sources())

    ok = worst <= 1e-9 and control > 1e-3
    _report("criterion 6 (strong mass conservation)", ok,
            f"worst_audit={worst:.2e}<=1e-09, negative_control={control:.2e}>1e-03")
    assert worst <= 1e-9
    assert control > 1e-3


# --- criterion 7: cGP exactness ------------------------------------------------------------------

def test_criterion_7_cgp_exactness():
    t0 = time.time()
    params = PhysicalParams()
    disc = Discretization(structured_mesh(4, 4), ell=0, params=params)
    worst = 0.0
    for k in (1, 2):
        case = mms.DiscreteCase(disc, mms.poly_factors(k))
        per_n = []
        for n_slabs in (3, 5):
            traj = march(disc, k, TimeGrid(0.5, n_slabs), case.initial_state(),
                         case.sources())
            errs = ver.trajectory_errors(traj, case)
            per_n.append(max(errs.values()))
        worst = max(worst, *per_n)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report("criterion 7 (cGP exactness)", ok,
            f"worst_error={worst:.2e}<=1e-09 across N in {{3,5}}, k in {{1,2}}, "
            f"runtime={elapsed:.1f}s<10s")
    assert worst <= 1e-9
    assert elapsed < 10.0


# --- criterion 8: determinism ----------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        cfg = RunConfig(mode="time-study", out_dir=out, levels=2, base_slabs=2,
                        base_mesh=2)
        run(cfg)
        outputs.append(open(os.path.join(out, "study_time.csv"), "rb").read())
    ok = outputs[0] == outputs[1]
    _report("criterion 8 (determinism)", ok,
            f"byte_identical={ok} ({len(outputs[0])} bytes)")
    assert ok
