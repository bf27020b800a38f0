"""Benchmark workloads: inputs drawn from a seed, the entry call, output checks.

Each workload is one public entry point of biotcgp run at a fixed size.  The
seed picks one of ``PARAM_SETS`` material-parameter sets; set 0 is the unit
default of ``RunConfig``, the others are drawn from the ranges the test suite
covers (lambda <= 5, s0 >= 0.1, mild diagonal kappa).  The parameters change
no sparsity pattern and no amount of work, only the numbers, and every set has
reference outputs in ``reference.json``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from biotcgp import PhysicalParams, projection_study
from biotcgp.cli import RunConfig, run

PARAM_SETS = 8

# Tolerance of a CSV cell against the stored reference: |got - want| <=
# RTOL |want| + ATOL.  RTOL admits the ~2e-9 relative drift a reordered
# tabulation contraction produced; ATOL is ten times the largest shift of an
# error norm (1e-12, on the temporal errors near 1e-10) that a change of LU
# pivoting produced.  EOC columns are compared to within EOC_ATOL, a hundred
# times their largest shift under the same pivoting change.
RTOL = 1e-7
ATOL = 1e-11
EOC_ATOL = 0.05

AUDIT_MAX = 1e-9
BAND_HALF_WIDTH = 0.15
# criterion-3 columns that converge at order ell+1; the two L2 columns
# superconverge at ell+2 by design and are not gated
BAND_COLUMNS = ("u_p1_DG", "u_p1_div", "w_p2_div", "p_p3_L2")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def draw_params(seed: int) -> dict[str, float]:
    index = seed % PARAM_SETS
    if index == 0:
        return {"lam": 1.0, "mu": 1.0, "kappa_xx": 1.0, "kappa_yy": 1.0, "s0": 1.0}
    rng = np.random.default_rng(index)
    return {"lam": round(float(rng.uniform(0.5, 5.0)), 3),
            "mu": round(float(rng.uniform(0.6, 2.0)), 3),
            "kappa_xx": round(float(rng.uniform(0.5, 2.0)), 3),
            "kappa_yy": round(float(rng.uniform(0.5, 2.0)), 3),
            "s0": round(float(rng.uniform(0.1, 1.0)), 3)}


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                  # root span of a traced call
    csv_name: str
    make_inputs: Callable[[dict], object]
    execute: Callable[[object, str], None]
    extra_checks: Callable[[object, str], list[Check]]

    def inputs(self, seed: int):
        return self.make_inputs(draw_params(seed))


# --- projection: projection_study + to_csv, no time marching ------------------

PROJECTION_ELL = 1
PROJECTION_MESHES = (2, 4)


def _projection_inputs(p: dict) -> PhysicalParams:
    return PhysicalParams(eta=16.0, lam=p["lam"], mu=p["mu"], s0=p["s0"],
                          kappa=np.diag([p["kappa_xx"], p["kappa_yy"]]))


def _projection_execute(params: PhysicalParams, out_dir: str) -> None:
    result = projection_study(params, ell=PROJECTION_ELL,
                              mesh_sizes=list(PROJECTION_MESHES))
    result.to_csv(os.path.join(out_dir, "study_projection.csv"))


def _projection_checks(params, out_dir: str) -> list[Check]:
    table = read_csv(os.path.join(out_dir, "study_projection.csv"))
    checks = []
    target = PROJECTION_ELL + 1
    for column in BAND_COLUMNS:
        rate = float(table[f"eoc_{column}"][-1])
        checks.append(Check(f"band:{column}", abs(rate - target) <= BAND_HALF_WIDTH,
                            f"eoc={rate:.4f} band={target}+/-{BAND_HALF_WIDTH}"))
    return checks


# --- the three cli workloads ---------------------------------------------------

def _cli_inputs(**fixed):
    def make(p: dict) -> RunConfig:
        return RunConfig(**fixed, **p).validate()
    return make


def _cli_execute(cfg: RunConfig, out_dir: str) -> None:
    run(dataclasses.replace(cfg, out_dir=out_dir))


def _summary_checks(cfg, out_dir: str) -> list[Check]:
    path = os.path.join(out_dir, "summary.txt")
    if not os.path.exists(path):
        return [Check("summary", False, "summary.txt missing")]
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    overall = [line for line in lines if line.startswith("OVERALL ")]
    checks = [Check("summary:OVERALL", overall == ["OVERALL PASS"], " ".join(overall))]
    for line in lines:
        if line in overall:
            continue
        status, name, *rest = line.split(" ")
        checks.append(Check(f"summary:{name}", status == "PASS", " ".join(rest)))
        if name == "mass_conservation":
            audit = float(rest[0].split("=", 1)[1])
            checks.append(Check("audit", audit <= AUDIT_MAX,
                                f"audit={audit:.3e} bound<={AUDIT_MAX:g}"))
    return checks


def _single_run_checks(cfg, out_dir: str) -> list[Check]:
    snapshots = os.listdir(os.path.join(out_dir, "snapshots"))
    expected = 2 * (cfg.base_slabs + 1)
    return _summary_checks(cfg, out_dir) + [
        Check("snapshots", len(snapshots) == expected,
              f"files={len(snapshots)} expected={expected}")]


WORKLOADS = {
    "projection": Workload(
        "projection", "verification.projection_study", "study_projection.csv",
        _projection_inputs, _projection_execute, _projection_checks),
    "spatial": Workload(
        "spatial", "cli.run", "study_space.csv",
        _cli_inputs(mode="space-study", k=2, ell=0, levels=3, base_mesh=3,
                    base_slabs=8, omega=2.0),
        _cli_execute, _summary_checks),
    "temporal": Workload(
        "temporal", "cli.run", "study_time.csv",
        _cli_inputs(mode="time-study", k=2, ell=0, levels=4, base_mesh=8,
                    base_slabs=16),
        _cli_execute, _summary_checks),
    "single_run": Workload(
        "single_run", "cli.run", "single_run_errors.csv",
        _cli_inputs(mode="single-run", k=1, ell=0, base_mesh=8, base_slabs=32),
        _cli_execute, _single_run_checks),
}


# --- output checks ---------------------------------------------------------------

def read_csv(path: str) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _cell_deviation(column: str, got: str, want: str) -> float:
    """0 for a match, else the distance in units of the tolerance (> 1 fails)."""
    try:
        a, b = float(got), float(want)
    except ValueError:
        return 0.0 if got == want else math.inf
    if math.isnan(a) or math.isnan(b):
        return math.inf
    tolerance = EOC_ATOL if column.startswith("eoc_") else RTOL * abs(b) + ATOL
    return abs(a - b) / tolerance


def reference_checks(workload: Workload, seed: int, out_dir: str) -> list[Check]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        reference = json.load(handle)[workload.name][str(seed % PARAM_SETS)]
    table = read_csv(os.path.join(out_dir, workload.csv_name))
    checks = [Check("csv:columns", sorted(table) == sorted(reference),
                    f"got={sorted(table)}")]
    for column, want in sorted(reference.items()):
        got = table.get(column, [])
        if len(got) != len(want):
            checks.append(Check(f"csv:{column}", False, f"rows={len(got)} expected={len(want)}"))
            continue
        worst = max((_cell_deviation(column, g, w) for g, w in zip(got, want)),
                    default=0.0)
        checks.append(Check(f"csv:{column}", worst <= 1.0,
                            f"worst deviation {worst:.3g} x tolerance"))
    return checks


def output_digest(out_dir: str) -> str:
    """Hash of every output file's relative path and bytes."""
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(out_dir)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, out_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def check_outputs(workload: Workload, inputs, seed: int, out_dir: str) -> list[Check]:
    return workload.extra_checks(inputs, out_dir) + reference_checks(workload, seed, out_dir)
