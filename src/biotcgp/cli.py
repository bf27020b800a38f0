"""Batch front end: config parsing, study orchestration, file outputs.

The config is plain sectioned key=value text ([run] and [params]); every CLI
flag overrides its config key, and BIOT_SEED in the environment overrides the
seed.  All outputs are written atomically and are byte-identical across reruns
of the same configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import time_basis as tb
from .assembly import PhysicalParams, assemble_div_coupling
from .ioutil import atomic_write_text, fmt17
from .mesh import structured_mesh
from .mms import default_mms
from .slab import Discretization, TimeGrid, export_snapshots
from .spaces import build_space
from .verification import StudyResult, march_case, spatial_study, temporal_study

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

MODES = ("time-study", "space-study", "single-run", "property-suite")
DEFAULT_SEED = 20260808


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


@dataclass
class RunConfig:
    mode: str = "space-study"
    k: int = 1
    ell: int = 0
    levels: int = 4
    total_time: float = 0.5
    base_slabs: int = 4
    base_mesh: int = 4
    omega: float = 4.0
    out_dir: str = "out"
    seed: int = DEFAULT_SEED
    rho_s: float = 2.0
    rho_f: float = 1.0
    phi0: float = 0.5
    rho_w: float = 2.0
    alpha: float = 1.0
    s0: float = 1.0
    lam: float = 1.0
    mu: float = 1.0
    kappa_xx: float = 1.0
    kappa_xy: float = 0.0
    kappa_yy: float = 1.0
    eta: float | None = None    # None -> 4 (ell+1)^2

    def resolved_eta(self) -> float:
        return self.eta if self.eta is not None else 4.0 * (self.ell + 1) ** 2

    def params(self) -> PhysicalParams:
        try:
            return PhysicalParams(
                rho_s=self.rho_s, rho_f=self.rho_f, phi0=self.phi0, rho_w=self.rho_w,
                alpha=self.alpha, s0=self.s0, lam=self.lam, mu=self.mu,
                kappa=np.array([[self.kappa_xx, self.kappa_xy],
                                [self.kappa_xy, self.kappa_yy]]),
                eta=self.resolved_eta())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}")
        if not 1 <= self.k <= tb.MAX_ORDER:
            raise ConfigError(f"k must lie in 1..{tb.MAX_ORDER}")
        if self.ell not in (0, 1):
            raise ConfigError("ell must lie in {0, 1}")
        if self.mode.endswith("study") and self.levels < 2:
            raise ConfigError("levels must be >= 2 for studies")
        if not 0.0 < self.total_time < np.inf:
            raise ConfigError("T must be positive and finite")
        if self.base_slabs < 1 or self.base_mesh < 1:
            raise ConfigError("base_slabs and base_mesh must be >= 1")
        if not 0.0 < self.omega < np.inf:
            raise ConfigError("omega must be positive and finite")
        self.params()   # full physical-parameter validation
        return self


_RUN_KEYS = {"mode": str, "k": int, "ell": int, "levels": int, "T": float,
             "base_slabs": int, "base_mesh": int, "omega": float, "out_dir": str,
             "seed": int}
_PARAM_KEYS = {"rho_s": float, "rho_f": float, "phi0": float, "rho_w": float,
               "alpha": float, "s0": float, "lambda": float, "mu": float,
               "kappa_xx": float, "kappa_xy": float, "kappa_yy": float,
               "eta": float}
_ALIASES = {"T": "total_time", "lambda": "lam"}


def parse_config(text: str) -> RunConfig:
    """Parse sectioned key=value text; unknown keys and bad ranges raise
    ConfigError naming the key and the violated constraint."""
    cfg = RunConfig()
    section = "run"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("run", "params"):
                raise ConfigError(f"unknown section [{section}] (line {lineno})")
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value at line {lineno}: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        table = _RUN_KEYS if section == "run" else _PARAM_KEYS
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        attr = _ALIASES.get(key, key)
        if value == "":
            if key == "eta":
                cfg.eta = None
                continue
            raise ConfigError(f"empty value for key {key!r}")
        caster = table[key]
        try:
            setattr(cfg, attr, caster(value))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} as "
                              f"{caster.__name__}") from exc
    return cfg.validate()


# --- execution ------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _summary(out_dir: str, checks: list[CheckResult]) -> int:
    lines = []
    for c in checks:
        lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.name} {c.detail}")
    ok = all(c.passed for c in checks)
    lines.append(f"OVERALL {'PASS' if ok else 'FAIL'}")
    atomic_write_text(os.path.join(out_dir, "summary.txt"), "\n".join(lines) + "\n")
    return 0 if ok else 1


def _eoc_check(name: str, result: StudyResult, column: str, bound: float) -> CheckResult:
    """The study's final-level EOC of ``column`` against a lower bound; an
    exactly resolved level counts as an infinite rate."""
    last = result.rates()[column][-1]
    rate = float("inf") if last is None else last
    return CheckResult(name, rate >= bound, f"measured={rate:.3f} bound>={bound:.2f}")


def _audit_check(audit: float) -> CheckResult:
    return CheckResult("mass_conservation", audit <= 1e-9,
                       f"measured={audit:.3e} bound<=1e-09")


def run(cfg: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    cfg.validate()
    seed_env = os.environ.get("BIOT_SEED")
    try:
        seed = int(seed_env) if seed_env else cfg.seed
    except ValueError as exc:
        raise ConfigError(f"BIOT_SEED: cannot parse {seed_env!r} as int") from exc
    os.makedirs(cfg.out_dir, exist_ok=True)
    return _summary(cfg.out_dir, _run_mode(cfg, cfg.params(), seed))


def _run_mode(cfg: RunConfig, params: PhysicalParams, seed: int) -> list[CheckResult]:
    """Run the configured mode, write its files and return its checks."""
    if cfg.mode == "time-study":
        counts = [cfg.base_slabs * 2 ** i for i in range(cfg.levels)]
        result = temporal_study(params, cfg.k, cfg.ell, counts, mesh_n=cfg.base_mesh,
                                total_time=cfg.total_time, omega=cfg.omega)
        result.to_csv(os.path.join(cfg.out_dir, "study_time.csv"))
        return [_eoc_check("temporal_eoc", result, "combined_endpoint", cfg.k + 1 - 0.2),
                _audit_check(result.extras["mass_audit"])]
    if cfg.mode == "space-study":
        sizes = [cfg.base_mesh * 2 ** i for i in range(cfg.levels)]
        result = spatial_study(params, cfg.ell, sizes, k=cfg.k,
                               n_slabs=cfg.base_slabs, total_time=cfg.total_time,
                               omega=cfg.omega)
        result.to_csv(os.path.join(cfg.out_dir, "study_space.csv"))
        drift = result.extras.get("tau_halving_change", 0.0)
        return [_eoc_check("spatial_eoc", result, "combined_Linf", cfg.ell + 1 - 0.2),
                _eoc_check("displacement_l2_eoc", result, "u_L2_Linf", cfg.ell + 2 - 0.2),
                CheckResult("temporal_subdominance", drift < 0.05,
                            f"measured={drift:.4f} bound<0.05"),
                _audit_check(result.extras["mass_audit"])]
    if cfg.mode == "single-run":
        disc = Discretization(structured_mesh(cfg.base_mesh, cfg.base_mesh), cfg.ell, params)
        case = default_mms(params, cfg.omega)
        grid = TimeGrid(cfg.total_time, cfg.base_slabs)
        traj, errs, audit = march_case(disc, case, cfg.k, grid, case.sources(),
                                       l2_in_time=True)
        export_snapshots(traj, os.path.join(cfg.out_dir, "snapshots"))
        table = [f"{key},{fmt17(val)}" for key, val in sorted(errs.items())]
        atomic_write_text(os.path.join(cfg.out_dir, "single_run_errors.csv"),
                          "name,value\n" + "\n".join(table) + "\n")
        return [_audit_check(audit)]
    return _property_suite(cfg, seed)


def _property_suite(cfg: RunConfig, seed: int) -> list[CheckResult]:
    """Randomized invariant batteries of the temporal algebra and the spaces."""
    checks = [CheckResult("random_seed", True, f"seed={seed}")]
    worst = 0.0
    for k in range(1, 5):
        for rule in (tb.gauss_rule(k), tb.gauss_lobatto_rule(k)):
            for m in range(2 * k):
                exact = 1.0 / (m + 1)
                worst = max(worst, abs(rule.integrate(lambda t: t ** m) - exact) / exact)
    checks.append(CheckResult("quadrature_exactness", worst <= 1e-13,
                              f"measured={worst:.3e} bound<=1e-13 (k=1..4)"))

    ident_worst = 0.0
    for k in (1, 2, 3):
        suite = tb.weighted_identity_suite(k, trials=100, seed=seed)
        ident_worst = max(ident_worst, suite["collapse_rel_err"],
                          suite["pairing_rel_err"])
        dsuite = tb.derivative_identity_suite(k, trials=100, seed=seed + k)
        ident_worst = max(ident_worst, dsuite["pairing_rel_err"],
                          dsuite["symmetry_rel_err"])
    checks.append(CheckResult("weighted_identities", ident_worst <= 1e-11,
                              f"measured={ident_worst:.3e} bound<=1e-11 "
                              f"(600 randomized sets)"))

    min_eig = min(tb.coupling_matrix(k)[2] for k in range(1, 5))
    checks.append(CheckResult("coupling_matrix_spd", min_eig > 0.0,
                              f"min_eig={min_eig:.4f} (k=1..4)"))

    rng = np.random.default_rng(seed)
    mesh = structured_mesh(3, 3)
    jump_worst = 0.0
    div_worst = 0.0
    for degree in (1, 2):
        space = build_space(mesh, "BDM", degree, bc="zero_normal")
        coeffs = rng.standard_normal(space.ndofs)
        tr = space.edge_traces
        local0 = coeffs[space.cell_dofs[mesh.edge_cells[tr.interior, 0]]]
        local1 = coeffs[space.cell_dofs[mesh.edge_cells[tr.interior, 1]]]
        t0 = np.einsum("eqia,ei->eqa", tr.values0[tr.interior], local0)
        t1 = np.einsum("eqia,ei->eqa", tr.values1, local1)
        n = tr.normals[tr.interior]
        jump = np.einsum("eqa,ea->eq", t0 - t1, n)
        scale = max(np.abs(t0).max(), 1.0)
        jump_worst = max(jump_worst, np.abs(jump).max() / scale)

        pspace = build_space(mesh, "DGP", degree - 1)
        divq = space.divs_on_quadrature(coeffs)
        b = assemble_div_coupling(space, pspace, 1.0)
        rep = pspace.values_on_quadrature((b.T @ coeffs) / pspace.mass_diagonal)
        num = np.sqrt(np.einsum("cq,cq->", space.volume.weights, (divq - rep) ** 2))
        den = max(np.sqrt(np.einsum("cq,cq->", space.volume.weights, divq ** 2)), 1e-30)
        div_worst = max(div_worst, num / den)
    checks.append(CheckResult("normal_trace_continuity", jump_worst <= 1e-11,
                              f"measured={jump_worst:.3e} bound<=1e-11"))
    checks.append(CheckResult("div_compatibility", div_worst <= 1e-12,
                              f"measured={div_worst:.3e} bound<=1e-12"))
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biotcgp",
        description="Convergence studies and simulations of the dynamic "
                    "three-field poroelastic solver")
    parser.add_argument("--config", metavar="PATH", help="sectioned key=value file")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--out", metavar="DIR")
    parser.add_argument("--k", type=int)
    parser.add_argument("--ell", type=int)
    parser.add_argument("--levels", type=int)
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as handle:
                cfg = parse_config(handle.read())
        else:
            cfg = RunConfig()
        if args.mode:
            cfg.mode = args.mode
        if args.out:
            cfg.out_dir = args.out
        if args.k is not None:
            cfg.k = args.k
        if args.ell is not None:
            cfg.ell = args.ell
        if args.levels is not None:
            cfg.levels = args.levels
        return run(cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
