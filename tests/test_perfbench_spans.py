"""The benchmark tracer (perfbench/spans.py) wraps biotcgp's functions by
name; these checks keep that contract with the program."""

import sys
from pathlib import Path

import pytest

from biotcgp import mms, verification as ver
from biotcgp.cli import RunConfig, run
from biotcgp.mesh import structured_mesh
from biotcgp.slab import Discretization, TimeGrid, export_snapshots, march

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wrapped_attributes(functions, methods):
    """Identity of every attribute the tracer replaces, keyed by owner."""
    modules = [m for key, m in sys.modules.items()
               if key == "biotcgp" or key.startswith("biotcgp.")]
    out = {}
    for _, attr, _, _ in functions:
        for module in modules:
            if attr in module.__dict__:
                out[(module.__name__, attr)] = module.__dict__[attr]
    for module_name, cls_name, attr, _, _ in methods:
        out[(cls_name, attr)] = getattr(sys.modules[module_name], cls_name).__dict__[attr]
    return out


def test_tracer_counts_one_error_evaluation_per_chunk(monkeypatch, params):
    # verification.error_samples counts field_error_norms calls; the samples
    # of consecutive slabs go through one call per chunk
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import FUNCTIONS, METHODS, Tracer

    disc = Discretization(structured_mesh(2, 2), 0, params)
    case = mms.default_mms(params)
    grid = TimeGrid(0.5, 2)
    traj = march(disc, 2, grid, case.initial_state(disc), case.sources())
    before = _wrapped_attributes(FUNCTIONS, METHODS)

    tracer = Tracer()
    errs = tracer.call("root", ver.trajectory_errors, traj, case)

    assert "verification.errors" in {span[0] for span in tracer.spans}
    # at k = 2 with the L2-in-time norms: left end, interior Gauss-Lobatto
    # point and 4 Gauss points per slab, and the right end of the last slab
    samples = grid.num_slabs * 6 + 1
    assert tracer.stats["verification.error_samples"] == -(-samples // ver._CHUNK)
    after = _wrapped_attributes(FUNCTIONS, METHODS)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert errs == ver.trajectory_errors(traj, case)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tracer_reads_every_slab_residual(monkeypatch, params, k):
    # the benchmark's residual check reads slab.residual_max: a solve path that
    # skipped LinearSystem.residual would leave it at 0 and pass unnoticed.
    # The refinement step stays inside one wrapped solve per slab, and the
    # stage LUs, one per real eigenvalue or conjugate pair, count as factors
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    disc = Discretization(structured_mesh(2, 2), 0, params)
    case = mms.default_mms(params)
    grid = TimeGrid(0.5, 3)
    tracer = Tracer()
    tracer.call("root", march, disc, k, grid, case.initial_state(disc), case.sources())

    metrics = tracer.metrics()
    assert metrics["slab.solves"] == metrics["linalg.solves"] == grid.num_slabs
    assert metrics["linalg.factors"] == (k + 1) // 2
    assert 0.0 < metrics["slab.residual_max"] <= 1e-10
    # f, g and the mass load once per chunk of up to 8 slabs at all their
    # Gauss-Lobatto times; the constant 1's load behind the zero-mean
    # projections is the cell areas, not an assembled load
    assert metrics["assembly.load_calls"] == 3 * -(-grid.num_slabs // 8)
    # the observer reads the shape of the coupled operator, which is never
    # assembled: k blocks of the free u, v, w and all p unknowns
    assert metrics["slab.unknowns"] == k * (3 * disc.bdm.free.size + disc.dgp.ndofs)


def test_tracer_sees_every_snapshot_file_and_one_tabulation(monkeypatch, params, tmp_path):
    # single_run's layer split puts the VTK encoding under io.format, one span per
    # file, and the edge-midpoint table under spaces.tabulate_at, once per export
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    disc = Discretization(structured_mesh(2, 2), 0, params)
    case = mms.default_mms(params)
    grid = TimeGrid(0.5, 2)
    traj = march(disc, 1, grid, case.initial_state(disc), case.sources())
    tracer = Tracer()
    paths = tracer.call("root", export_snapshots, traj, str(tmp_path))

    names = [span[0] for span in tracer.spans]
    assert names.count("io.format") == len(paths) == 2 * (grid.num_slabs + 1)
    assert names.count("io.write") == len(paths)
    assert names.count("spaces.tabulate_at") == 1


@pytest.mark.parametrize("mode", ["time-study", "space-study", "single-run"])
def test_tracer_sees_every_layer_of_the_cli_march_modes(monkeypatch, tmp_path, mode):
    # the benchmark's layer table reads these spans from a traced cli.run; a
    # runner that bound a traced function where the tracer cannot replace it
    # (a default argument, a local alias) would lose its span unnoticed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    cfg = RunConfig(mode=mode, k=1, levels=2, base_mesh=2, base_slabs=2, out_dir=str(tmp_path))
    tracer = Tracer()
    tracer.call("cli.run", run, cfg)

    names = {span[0] for span in tracer.spans}
    expected = {"spaces.build", "assembly.operators", "slab.solve", "linalg.factor",
                "verification.errors", "verification.audit"}
    if mode == "single-run":
        expected.add("io.format")
    assert expected <= names
    assert 0.0 < tracer.metrics()["verification.audit_max"] <= 1e-9
