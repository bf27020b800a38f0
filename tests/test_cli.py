import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biotcgp.cli import (_ALIASES, _PARAM_KEYS, _RUN_KEYS, ConfigError, RunConfig,
                         main, parse_config, run)
from biotcgp.mesh import structured_mesh
from biotcgp.mms import default_mms
from biotcgp.slab import Discretization, TimeGrid, march
from compare_script import read_legacy_vtk

FLOAT_KEYS = ([("run", key) for key, kind in _RUN_KEYS.items() if kind is float]
              + [("params", key) for key, kind in _PARAM_KEYS.items() if kind is float])


def test_empty_config_defaults():
    cfg = parse_config("")
    assert (cfg.k, cfg.ell, cfg.total_time) == (1, 0, 0.5)
    assert cfg.resolved_eta() == 4.0
    assert cfg.params().rho_bar == pytest.approx(1.5)


def test_alpha_bound_message():
    with pytest.raises(ConfigError, match=r"alpha must lie in \[phi0, 1\]"):
        parse_config("[params]\nalpha = 1.5\n")


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config("nonsense = 3\n")
    with pytest.raises(ConfigError, match="rho_s"):
        parse_config("rho_s = 1.0\n")     # params key in the run section


def _render(cfg):
    """Config text that sets every key to its value in ``cfg``."""
    lines = ["[run]"]
    lines += [f"{key} = {getattr(cfg, _ALIASES.get(key, key))}" for key in _RUN_KEYS]
    lines.append("[params]")
    for key in _PARAM_KEYS:
        value = getattr(cfg, _ALIASES.get(key, key))
        lines.append(f"{key} = {'' if value is None else value}")
    return "\n".join(lines) + "\n"


def test_mms_key_rejected():
    # run() never read an mms key: setting one is an error, not a silent no-op
    with pytest.raises(ConfigError, match="unknown key 'mms'"):
        parse_config("mms = discrete\n")


def test_round_trip_default():
    cfg = parse_config("")
    assert parse_config(_render(cfg)) == cfg


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 3), ell=st.integers(0, 1), levels=st.integers(2, 5),
       omega=st.floats(0.5, 8.0), s0=st.floats(0.1, 2.0))
def test_round_trip_random_valid(k, ell, levels, omega, s0):
    cfg = RunConfig(k=k, ell=ell, levels=levels, omega=omega, s0=s0)
    cfg.validate()
    assert parse_config(_render(cfg)) == cfg


def test_comments_and_sections():
    cfg = parse_config("""
# comment
[run]
mode = time-study    # trailing comment
k = 2

[params]
mu = 3.0
""")
    assert cfg.mode == "time-study" and cfg.k == 2 and cfg.mu == 3.0


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="levels"):
        RunConfig(levels=1).validate()
    with pytest.raises(ConfigError, match="ell"):
        RunConfig(ell=3).validate()
    for k in (0, 7):
        with pytest.raises(ConfigError, match=r"k must lie in 1\.\.6"):
            RunConfig(k=k).validate()
    with pytest.raises(ConfigError, match="parse"):
        parse_config("k = two\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_non_finite_values_rejected(section, key, value):
    with pytest.raises(ConfigError):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_property_suite_mode(tmp_path):
    cfg = RunConfig(mode="property-suite", out_dir=str(tmp_path))
    assert run(cfg) == 0
    text = open(tmp_path / "summary.txt").read()
    assert text.count("PASS") >= 5
    assert "OVERALL PASS" in text


def test_time_study_outputs(tmp_path):
    cfg = RunConfig(mode="time-study", out_dir=str(tmp_path), levels=2,
                    base_slabs=2, base_mesh=2)
    status = run(cfg)
    lines = open(tmp_path / "study_time.csv").read().strip().splitlines()
    assert len(lines) == 3
    assert status == 0


def test_time_study_refined_to_round_off_passes(tmp_path):
    # the finest level's endpoint error is about 1e-10, where unrefined slab
    # solves flattened the last EOC to 2.79 against the 2.80 bound
    cfg = RunConfig(mode="time-study", out_dir=str(tmp_path), k=2, ell=1,
                    base_mesh=8, base_slabs=32, levels=4)
    assert run(cfg) == 0
    assert "OVERALL PASS" in open(tmp_path / "summary.txt").read()


def test_space_study_csv_shape(tmp_path):
    cfg = RunConfig(mode="space-study", out_dir=str(tmp_path), levels=4,
                    base_mesh=2, base_slabs=2, k=1, omega=2.0)
    run(cfg)
    lines = open(tmp_path / "study_space.csv").read().strip().splitlines()
    assert len(lines) == 5                          # header + 4 levels
    header = lines[0].split(",")
    eoc_cols = [i for i, name in enumerate(header) if name.startswith("eoc_")]
    assert eoc_cols
    for col in eoc_cols:                             # 3 EOC entries per norm
        values = [lines[r].split(",")[col] for r in range(2, 5)]
        assert all(v != "" for v in values)
        assert lines[1].split(",")[col] == ""


def test_reruns_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        cfg = RunConfig(mode="space-study", out_dir=out, levels=2, base_mesh=2,
                        base_slabs=2, k=1, omega=2.0)
        run(cfg)
    c1 = open(os.path.join(out1, "study_space.csv"), "rb").read()
    c2 = open(os.path.join(out2, "study_space.csv"), "rb").read()
    assert c1 == c2


def test_single_run_snapshots(tmp_path):
    cfg = RunConfig(mode="single-run", out_dir=str(tmp_path), base_mesh=2,
                    base_slabs=2)
    assert run(cfg) == 0
    snaps = sorted(os.listdir(tmp_path / "snapshots"))
    assert len(snaps) == 2 * (cfg.base_slabs + 1)
    assert os.path.exists(tmp_path / "single_run_errors.csv")

    # the last snapshot pair decodes to the cell pressures of the same march,
    # bit for bit, and to one edge sample per mesh edge
    params = cfg.params()
    disc = Discretization(structured_mesh(cfg.base_mesh, cfg.base_mesh), cfg.ell, params)
    case = default_mms(params, cfg.omega)
    traj = march(disc, cfg.k, TimeGrid(cfg.total_time, cfg.base_slabs),
                 case.initial_state(disc), case.sources())
    n = cfg.base_slabs
    cell_file = read_legacy_vtk(str(tmp_path / "snapshots" / f"snapshot_{n:04d}.vtk"))
    edge_file = read_legacy_vtk(str(tmp_path / "snapshots" / f"snapshot_{n:04d}_edges.vtk"))
    want = traj.state_at_endpoint(n).p[0::disc.dgp.element.dim]
    assert np.array_equal(cell_file["pressure"].view(np.uint64), want.view(np.uint64))
    assert edge_file["POINTS"].shape == (disc.mesh.num_edges, 3)


def test_cli_flags_override(tmp_path):
    config_path = tmp_path / "cfg.txt"
    config_path.write_text("[run]\nmode = single-run\nk = 1\n")
    out = str(tmp_path / "out")
    status = main(["--config", str(config_path), "--mode", "property-suite",
                   "--out", out, "--k", "2"])
    assert status == 0
    assert os.path.exists(os.path.join(out, "summary.txt"))


def test_exit_status_reflects_failures(tmp_path):
    from biotcgp.cli import CheckResult, _summary
    status = _summary(str(tmp_path), [CheckResult("a", True, ""),
                                      CheckResult("b", False, "measured=1")])
    assert status == 1
    text = open(tmp_path / "summary.txt").read()
    assert "FAIL b" in text and "OVERALL FAIL" in text
    assert _summary(str(tmp_path), [CheckResult("a", True, "")]) == 0


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BIOT_SEED", "424242")
    cfg = RunConfig(mode="property-suite", out_dir=str(tmp_path))
    assert run(cfg) == 0
    text = open(tmp_path / "summary.txt").read()
    assert "seed=424242" in text


def test_cli_error_paths(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("[params]\nalpha = 9\n")
    assert main(["--config", str(bad)]) == 2
    assert main(["--config", str(tmp_path / "missing.txt")]) == 2
    # above time_basis.MAX_ORDER the gauss rules do not exist
    assert main(["--mode", "time-study", "--k", "7", "--levels", "2",
                 "--out", str(tmp_path)]) == 2


def test_bad_env_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIOT_SEED", "abc")
    assert main(["--mode", "property-suite", "--out", str(tmp_path)]) == 2
    assert "error: BIOT_SEED" in capsys.readouterr().err
