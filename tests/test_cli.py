"""Config parsing, serialization format and exit-code contract."""

import configparser
import io
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from adiascat import adiabatic, cli, experiments
from adiascat.cli import CSV_HEADER, ConfigError, _fmt, _parse_ini, main
from adiascat.coherent import CoherentLabel, coherent_state
from adiascat.experiments import EXPERIMENTS, Check, ExperimentResult, Row
from adiascat.network import clearance_T
from adiascat.numerics import Grid, NumericalContractError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOOD_CONFIG = """\
[model]
kind = soluble
schedule = bump
schedule_a = 1.0
schedule_b = 0.0
schedule_c = 1.0
amps = 0.8
centers = 0.35
widths = 1.0

[grid]
x_min = -40.0
x_max = 40.0
n = 512

[sweep]
experiment = outgoing-state
omega = 0.1
eps = 0.5
s = 0.4
e = 1.0
seed = 3
"""


def write_config(tmp_path: Path, text: str, name: str = "exp.ini") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_csv_header_is_the_contract():
    assert CSV_HEADER == ("experiment,omega,eps,s,e,j,jp,"
                          "value_exact_re,value_exact_im,"
                          "value_approx_re,value_approx_im,"
                          "abs_error,predicted_bound,wall_ms")


def test_fmt_seventeen_significant_digits():
    assert _fmt(None) == ""
    assert _fmt(3) == "3"
    assert _fmt(np.int64(4)) == "4"
    assert _fmt(1.0) == "1"
    assert _fmt(0.1) == "0.10000000000000001"
    assert float(_fmt(1.0 / 3.0)) == 1.0 / 3.0


def test_parse_ini_rejects_unknown_section(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG + "\n[plotting]\nstyle = fancy\n")
    with pytest.raises(ConfigError):
        _parse_ini(path)


@pytest.mark.parametrize("mangle", [
    lambda text: text.replace("kind = soluble", "kind = spectral"),
    lambda text: text.replace("centers = 0.35", "centers = 0.35,0.7"),
    lambda text: text.replace("omega = 0.1\neps", "omega = -0.1\neps"),
    lambda text: text.replace("x_max = 40.0", "x_max = -41.0"),
    lambda text: text.replace("n = 512", "n = 8"),
    lambda text: text.replace("experiment = outgoing-state",
                              "experiment = warp-field"),
    lambda text: text.replace("eps = 0.5", "eps = 0.0"),
])
def test_bad_configs_exit_one(tmp_path, mangle):
    path = write_config(tmp_path, mangle(GOOD_CONFIG))
    rc = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "config-error"


def test_config_error_summary_goes_to_the_config_dir(tmp_path, monkeypatch):
    # a config that parses but fails to resolve names its own [output] dir
    monkeypatch.chdir(tmp_path)
    wanted = tmp_path / "wanted"
    text = GOOD_CONFIG.replace("eps = 0.5", "eps = 0.0") \
        + f"\n[output]\ndir = {wanted}\n"
    assert main(["run", "--config", write_config(tmp_path, text)]) == 1
    summary = json.loads((wanted / "summary.json").read_text())
    assert summary["status"] == "config-error"
    assert "sweep.eps" in summary["diagnostics"][0]["message"]
    assert not (tmp_path / "out").exists()


def test_bad_matrix_spec_exits_one(tmp_path):
    text = GOOD_CONFIG.replace("kind = soluble",
                               "kind = matrix\nchannel_matrix = 1.0,2.0,3.0")
    path = write_config(tmp_path, text)
    assert main(["run", "--config", path,
                 "--out", str(tmp_path / "out")]) == 1


def test_missing_config_exits_one(tmp_path):
    rc = main(["validate", "--config", str(tmp_path / "absent.ini")])
    assert rc == 1


def test_validate_clean_config_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    rc = main(["validate", "--config", path])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == []


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")),
                         ids=lambda path: path.stem)
def test_shipped_config_validates_clean(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "[]"


def test_validate_reports_cramped_response_window(tmp_path, capsys):
    # at eps = 0.05 a matched label's packet, t = s / omega, spreads too
    # wide to clear the interaction inside its grid's half window 96
    text = (CONFIGS / "omega-scaling.ini").read_text(encoding="ascii")
    assert "\neps = 0.5\n" in text
    path = write_config(tmp_path, text.replace("\neps = 0.5\n",
                                               "\neps = 0.05\n"))
    rc = main(["validate", "--config", path])
    assert rc == 1
    [diagnostic] = json.loads(capsys.readouterr().out)
    assert diagnostic["field"] == "grid"
    assert diagnostic["message"].startswith(
        "window cannot clear the interaction: need T in [104, -0.75]")
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert summary["diagnostics"] == [diagnostic]
    assert not (out / "results.csv").exists()


def test_combined_validates_and_runs_at_small_eps(tmp_path, capsys):
    # a matrix coupling's tau needs only a grid that holds the
    # interaction, so at eps = 0.11 validate has nothing to report and the
    # run completes; its combined bound may fail, a gate outcome
    path = str(CONFIGS / "combined.ini")
    assert main(["validate", "--config", path, "--eps", "0.11"]) == 0
    assert json.loads(capsys.readouterr().out) == []
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--eps", "0.11"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert (out / "results.csv").exists()


def test_combined_runs_a_grid_of_two_mod_four_points(tmp_path, capsys):
    path = str(CONFIGS / "combined.ini")
    assert main(["validate", "--config", path, "--grid-n", "4098"]) == 0
    assert json.loads(capsys.readouterr().out) == []
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--grid-n", "4098"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["checks"] and all(c["passed"] for c in summary["checks"])


@pytest.mark.parametrize("name, old, new", [
    ("omega-scaling", "schedule = bump\n", "schedule = constant\n"),
    ("omega-scaling", "schedule_a = 1.0\n", "schedule_a = 0.0\n"),
    ("combined", "schedule = bump\n", "schedule = constant\n"),
    ("energy-shift", "schedule = bump\n", "schedule = constant\n"),
], ids=["constant", "zero-amplitude", "combined-constant",
        "energy-shift-constant"])
def test_omega_scaling_refuses_a_model_with_no_drive(tmp_path, capsys, name,
                                                     old, new):
    # no drive leaves each gated effect of the drive exactly 0: the
    # remainder has no log-log slope, and the combined bound and the joint
    # sweeps would compare rounding noise
    text = (CONFIGS / f"{name}.ini").read_text(encoding="ascii")
    assert old in text
    path = write_config(tmp_path, text.replace(old, new))
    assert main(["validate", "--config", path]) == 1
    [diagnostic] = json.loads(capsys.readouterr().out)
    assert diagnostic["field"] == "model"
    assert "no drive" in diagnostic["message"]
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert summary["diagnostics"] == [diagnostic]
    assert not (out / "results.csv").exists()


def _validation_error(tmp_path, capsys, path: str, *flags) -> dict:
    """The one diagnostic that validate gives for the config at path with
    the flags, which run also stops on before it writes results."""
    assert main(["validate", "--config", path, *flags]) == 1
    [diagnostic] = json.loads(capsys.readouterr().out)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), *flags]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert summary["diagnostics"] == [diagnostic]
    assert not (out / "results.csv").exists()
    return diagnostic


@pytest.mark.parametrize("omegas", ["0.1", "0.1,0.1"])
def test_omega_scaling_needs_two_distinct_omegas(tmp_path, capsys, omegas):
    # one omega stopped the run in fit_slope; the same omega twice gave a
    # minimum-norm least-squares "slope" and a gate on it
    diagnostic = _validation_error(tmp_path, capsys,
                                   str(CONFIGS / "omega-scaling.ini"),
                                   "--omega", omegas)
    assert diagnostic["field"] == "sweep.omega"
    assert "two distinct values" in diagnostic["message"]


def test_epsilon_scaling_fits_a_slope_for_a_rank_one_model_only(tmp_path,
                                                               capsys):
    # the rank-one gate fits a slope in eps, the matrix gate takes the
    # worst error, which one eps gives
    diagnostic = _validation_error(
        tmp_path, capsys, str(CONFIGS / "epsilon-scaling-rankone.ini"),
        "--eps", "0.4")
    assert diagnostic["field"] == "sweep.eps"
    assert "two distinct values" in diagnostic["message"]
    path = str(MATRIX_CONFIG)
    assert main(["validate", "--config", path, "--eps", "0.4"]) == 0
    assert json.loads(capsys.readouterr().out) == []
    out = tmp_path / "matrix"
    assert main(["run", "--config", path, "--out", str(out),
                 "--eps", "0.4"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["checks"] and all(c["passed"] for c in summary["checks"])


@pytest.mark.parametrize("name, flag, value", [
    ("coherent-props", "--eps", "0.05"),
    ("outgoing-state", "--eps", "0.05"),
    ("omega-scaling", "--eps", "0.5,0.01"),
])
def test_validate_checks_only_what_the_driver_uses(tmp_path, capsys,
                                                   shipped_runs, name, flag,
                                                   value):
    # each driver ignores what the flag changes (omega-scaling reads only
    # the first eps, for its labels), so
    # validate has nothing to report and the run is the default run, byte
    # for byte
    path = str(CONFIGS / f"{name}.ini")
    assert main(["validate", "--config", path, flag, value]) == 0
    assert json.loads(capsys.readouterr().out) == []
    default, changed = shipped_runs[name][0], tmp_path / "changed"
    assert main(["run", "--config", path, "--out", str(changed),
                 flag, value]) == 0
    summary = json.loads((changed / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["checks"] and all(c["passed"] for c in summary["checks"])
    assert (changed / "results.csv").read_bytes() \
        == (default / "results.csv").read_bytes()


def test_omega_flag_reaches_the_epsilon_scaling_rows(tmp_path, shipped_runs):
    # the model is at the sweep's first omega: the flag rewrites the omega
    # column, and the frozen on-shell data of every other cell stay put
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIGS / "epsilon-scaling-matrix.ini"),
                 "--out", str(out), "--omega", "0.3"]) == 0
    shipped = (shipped_runs["epsilon-scaling-matrix"][0]
               / "results.csv").read_text().splitlines()
    changed = (out / "results.csv").read_text().splitlines()
    column = CSV_HEADER.split(",").index("omega")
    assert len(changed) == len(shipped) > 1
    for old, new in zip(shipped[1:], changed[1:]):
        old, new = old.split(","), new.split(",")
        assert float(old[column]) == 0.1 and float(new[column]) == 0.3
        del old[column], new[column]
        assert new == old


MATRIX_CONFIG = (Path(__file__).resolve().parent.parent / "configs"
                 / "epsilon-scaling-matrix.ini")


@pytest.mark.parametrize("field,old,new", [
    ("sweep.j", "j = 0", "j = 5"),
    ("sweep.j", "j = 0", "j = -1"),
    ("sweep.jp", "jp = 1", "jp = 2"),
])
def test_validate_rejects_out_of_range_channel(tmp_path, capsys,
                                               field, old, new):
    text = MATRIX_CONFIG.read_text(encoding="ascii")
    assert f"\n{old}\n" in text
    path = write_config(tmp_path, text.replace(f"\n{old}\n", f"\n{new}\n"))
    rc = main(["validate", "--config", path])
    assert rc == 1
    diagnostics = json.loads(capsys.readouterr().out)
    assert [d["field"] for d in diagnostics] == [field]


def test_run_rejects_out_of_range_channel(tmp_path):
    text = MATRIX_CONFIG.read_text(encoding="ascii")
    path = write_config(tmp_path, text.replace("\nj = 0\n", "\nj = 5\n"))
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out)])
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert [d["field"] for d in summary["diagnostics"]] == ["sweep.j"]
    assert not (out / "results.csv").exists()


def test_run_writes_results_and_summary(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out)])
    assert rc == 0
    lines = (out / "results.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) > 1
    # without --timing the wall column stays empty for reproducibility
    assert all(line.endswith(",") for line in lines[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["rows"] == len(lines) - 1
    assert summary["seed"] == 3
    assert summary["config"]["sweep"]["experiment"] == "outgoing-state"
    assert all(isinstance(c["passed"], bool) for c in summary["checks"])


def test_run_byte_identical_for_fixed_seed(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out_a)]) == 0
    assert main(["run", "--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() \
        == (out_b / "results.csv").read_bytes()


@pytest.mark.parametrize("config", [
    GOOD_CONFIG,
    (CONFIGS / "omega-scaling.ini").read_text(encoding="ascii"),
], ids=["outgoing-state", "omega-scaling"])
def test_run_timing_fills_wall_column(tmp_path, config):
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out), "--timing"])
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    walls = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert all(wall and float(wall) >= 0.0 for wall in walls)
    # each row is stamped with the time since the previous one, so the
    # column accounts for the whole run
    wall_s = json.loads((out / "summary.json").read_text())["wall_s"]
    ratio = sum(float(wall) for wall in walls) / (1e3 * wall_s)
    assert 0.9 <= ratio <= 1.0 + 1e-9


def test_grid_n_override_is_checked_like_the_config(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out), "--grid-n", "12"])
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "config-error"
    assert summary["diagnostics"] == [
        {"field": "config", "message": "grid n must be at least 16"}]


def _refused_grid(tmp_path, capsys, path, *flags):
    """validate's one grid diagnostic, after run has stopped on it before
    computing anything."""
    assert main(["validate", "--config", path, *flags]) == 1
    [diagnostic] = json.loads(capsys.readouterr().out)
    assert diagnostic["field"] == "grid"
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), *flags]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert summary["diagnostics"] == [diagnostic]
    assert not (out / "results.csv").exists()
    return diagnostic["message"]


def test_outgoing_state_grid_above_dense_limit_is_a_grid_error(tmp_path,
                                                             capsys):
    # the driver runs the grid it is given, and one dense eigh of n = 2048
    # is over the limit
    message = _refused_grid(tmp_path, capsys,
                            str(CONFIGS / "outgoing-state.ini"),
                            "--grid-n", "2048")
    assert "n <= 1024" in message


def test_outgoing_state_seam_jump_is_a_grid_error(tmp_path, capsys):
    # at omega = 0.05 the closed-form S_d jumps by 0.16 across the periodic
    # seam of the shipped grid, and criterion-07c fails at 0.061 against
    # 1e-5
    message = _refused_grid(tmp_path, capsys,
                            str(CONFIGS / "outgoing-state.ini"),
                            "--omega", "0.05")
    assert "fermi transport residual is 0.0609, ratio 6.09e+03 against " \
        "criterion-07c's 1e-05" in message


def test_outgoing_state_band_seam_is_a_grid_error(tmp_path, capsys):
    # at n = 256 the momentum band is +-10.05, inside the fermi density's
    # floor at -12: it is about 1 at one end of the band and 0 at the
    # other, and criterion-07c fails at 0.374 against 1e-5
    message = _refused_grid(tmp_path, capsys,
                            str(CONFIGS / "outgoing-state.ini"),
                            "--grid-n", "256")
    assert "fermi transport residual is 0.374, ratio 3.74e+04" in message


def test_outgoing_state_momentum_tail_is_a_grid_error(tmp_path, capsys):
    # at n = 384 and omega = 0.5 the seam is quiet and the band ends agree,
    # but S_d's momentum tail carries the fermi floor across the band
    # bottom, and criterion-07c fails at ratio 36.3
    message = _refused_grid(tmp_path, capsys,
                            str(CONFIGS / "outgoing-state.ini"),
                            "--grid-n", "384", "--omega", "0.5")
    assert re.search(r"fermi transport residual is 0\.000363, ratio 36\.3 "
                     r"against .*raise grid n", message)


def _outgoing_draws(count=3, seed=0):
    """Seeded (grid n <= 512, omega) flags on the shipped window."""
    rng = np.random.default_rng(seed)
    return [["--grid-n", str(int(rng.choice([320, 384, 448, 512]))),
             "--omega", f"{rng.uniform(0.05, 1.0):.3f}"]
            for _ in range(count)]


@pytest.mark.parametrize("flags", [
    [], ["--omega", "0.05"], ["--grid-n", "256"],
    ["--grid-n", "384", "--omega", "0.5"],
    ["--grid-n", "448", "--omega", "0.7"], *_outgoing_draws()],
    ids=lambda flags: " ".join(flags) or "shipped")
def test_validate_predicts_the_outgoing_state_gate(tmp_path, capsys,
                                                   monkeypatch, flags):
    # validate computes criterion-07c's own residual, so it prints []
    # exactly when the driver's gate passes, and its residual is the
    # run's fermi row bit for bit (--grid-n 448 --omega 0.7 passes at
    # ratio 0.83)
    path = str(CONFIGS / "outgoing-state.ini")
    residuals, residual_of = [], experiments.outgoing_state_check

    def recorded(*args):
        residuals.append(residual_of(*args))
        return residuals[-1]

    monkeypatch.setattr(experiments, "outgoing_state_check", recorded)
    rc = main(["validate", "--config", path, *flags])
    clean = json.loads(capsys.readouterr().out) == []
    assert (rc == 0) == clean
    [residual] = residuals
    # the driver itself, which run would reach without validate
    setup, _ = cli._build_setup(_parse_ini(path), cli._parser().parse_args(
        ["run", "--config", path, *flags]))
    result = experiments.run_outgoing_state(setup)
    [check] = result.checks
    assert check.criterion == "criterion-07c"
    assert clean == check.passed
    assert result.rows[0].experiment == "outgoing-state/fermi"
    assert result.rows[0].value_exact == residual
    if clean:
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out),
                     *flags]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [c["passed"] for c in summary["checks"]] == [True]
        fermi = (out / "results.csv").read_text().splitlines()[1]
        assert fermi.startswith("outgoing-state/fermi,")
        assert float(fermi.split(",")[7]) == residual


def test_outgoing_state_run_takes_one_eigh(tmp_path, monkeypatch):
    # validate takes the one dense eigh, whose time summary.json records
    # as validate_s, and the run's three densities reuse it
    validate, validated = cli.validate_setup, []

    def counted(experiment, setup):
        diagnostics = validate(experiment, setup)
        validated.append(adiabatic._shifted_spectrum.cache_info().misses)
        return diagnostics

    monkeypatch.setattr(cli, "validate_setup", counted)
    adiabatic._shifted_spectrum.cache_clear()
    assert main(["run", "--config", str(CONFIGS / "outgoing-state.ini"),
                 "--out", str(tmp_path / "out")]) == 0
    info = adiabatic._shifted_spectrum.cache_info()
    assert validated == [1]
    assert info.misses == 1 and info.hits >= 1


def test_coherent_props_wrap_hazard_is_a_grid_error(tmp_path, capsys):
    # on [-16, 16] the seed's free shift by -1.94 parks a packet on the
    # periodic seam, and the run would stop with a wrap hazard (exit 2)
    text = (CONFIGS / "coherent-props.ini").read_text(encoding="ascii")
    grid = "x_min = -64.0\nx_max = 64.0\nn = 2048\n"
    assert grid in text
    path = write_config(tmp_path, text.replace(
        grid, "x_min = -16.0\nx_max = 16.0\nn = 512\n"))
    assert "free shift by -1.94 leaves 1.24e-09 relative weight" \
        in _refused_grid(tmp_path, capsys, path)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_coherent_draws_replay_the_scalar_stream(seed):
    # one uniform call over a (100, 7) table of bounds draws, element for
    # element, what one scalar call per draw gives
    grid = Grid(-64.0, 64.0, 2048)
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(100):
        t, e, eps = (float(rng.uniform(lo, hi))
                     for lo, hi in ((-4.0, 4.0), (-2.5, 2.5), (0.3, 1.2)))
        tau = grid.snap(float(rng.uniform(-2.0, 2.0)))[1]
        other = CoherentLabel(t + float(rng.uniform(-1.5, 1.5)),
                              e + float(rng.uniform(-1.0, 1.0)), eps)
        en = e + float(rng.uniform(-1.0, 1.0)) * eps
        want.append((CoherentLabel(t, e, eps), tau, other, en))
    setup = types.SimpleNamespace(seed=seed, grid=grid)
    assert experiments._coherent_draws(setup) == want


def test_coherent_props_ignores_a_resonant_model(tmp_path, capsys,
                                                 shipped_runs):
    # coherent-props never reads the model, so a rank-one coupling whose
    # smearing window meets a resonance is no problem of its run
    text = (CONFIGS / "coherent-props.ini").read_text(encoding="ascii")
    assert "kind = soluble\n" in text and "amps = 0.8\n" in text
    path = write_config(tmp_path, text.replace(
        "kind = soluble\n", "kind = rankone\nvector = 0.8, 0.6\n").replace(
        "amps = 0.8\n", "amps = 1.6\n"))
    assert main(["validate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out) == []
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert all(check["passed"] for check in summary["checks"])
    assert (out / "results.csv").read_bytes() \
        == (shipped_runs["coherent-props"][0] / "results.csv").read_bytes()


def test_outgoing_state_runs_the_configured_grid(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--grid-n", "768"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    [check] = summary["checks"]
    assert check["details"]["grid_n"] == summary["config"]["grid"]["n"] == 768
    # the ungated poly row says what it measures
    assert "band-seam jump" in summary["info"]["poly"]


def test_cli_overrides_reach_the_summary(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out),
               "--seed", "11", "--grid-n", "384", "--eps", "0.6"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 11
    assert summary["config"]["grid"]["n"] == 384
    assert summary["config"]["sweep"]["eps"] == [0.6]


def _config_to_ini(config: dict) -> str:
    """A summary's resolved config written back as an INI file."""
    def cell(value):
        if isinstance(value, list):
            return ", ".join(repr(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    parser = configparser.ConfigParser()
    for section, values in config.items():
        parser[section] = {key: cell(v) for key, v in values.items()}
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


@pytest.mark.parametrize("name", ["epsilon-scaling-matrix",
                                  "epsilon-scaling-rankone",
                                  "soluble-exact", "omega-scaling",
                                  "energy-shift", "combined",
                                  "outgoing-state"])
def test_summary_config_reproduces_the_run(tmp_path, shipped_runs, name):
    shipped = CONFIGS / f"{name}.ini"
    first, summary = shipped_runs[name]
    second = tmp_path / "second"
    config = summary["config"]
    assert set(_parse_ini(str(shipped))["model"]) <= set(config["model"])
    path = write_config(tmp_path, _config_to_ini(config), "resolved.ini")
    assert main(["run", "--config", path, "--out", str(second)]) == 0
    assert (first / "results.csv").read_bytes() \
        == (second / "results.csv").read_bytes()


def _resonant_rankone_config(tmp_path, e: str) -> str:
    # amps = 1.6 puts a resonance, |1 - lambda(0.5) g(E)| = 0.039, within
    # 6 eps of e = 1.0; about e = -4.0 the gap is 1.40
    text = (CONFIGS / "epsilon-scaling-rankone.ini").read_text(
        encoding="ascii")
    assert "\namps = 1.0\n" in text and "\ns = 0.5\n" in text
    assert "\ne = 1.0\n" in text
    text = text.replace("\namps = 1.0\n", "\namps = 1.6\n").replace(
        "\ne = 1.0\n", f"\ne = {e}\n")
    return write_config(tmp_path, text.replace("n = 2048", "n = 512"))


def test_validate_refuses_a_resonance_at_the_runs_s_and_e(tmp_path, capsys):
    path = _resonant_rankone_config(tmp_path, "1.0")
    assert main(["validate", "--config", path]) == 1
    diagnostics = json.loads(capsys.readouterr().out)
    assert [d["field"] for d in diagnostics] == ["model"]
    assert "resonance" in diagnostics[0]["message"]


def test_resonance_at_an_e_the_run_never_reads_is_no_problem(tmp_path,
                                                             capsys):
    # epsilon-scaling reads only the first e, so the resonance near the
    # second is none of its run's business: validate prints [] exactly
    # when run exits 0
    path = _resonant_rankone_config(tmp_path, "-4.0, 1.0")
    assert main(["validate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out) == []
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [(c["criterion"], c["passed"]) for c in summary["checks"]] \
        == [("criterion-06", True)]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_sweep_s_takes_one_number(tmp_path, capsys, command):
    # every driver reads one epoch s
    text = (CONFIGS / "epsilon-scaling-rankone.ini").read_text(
        encoding="ascii")
    path = write_config(tmp_path, text.replace("\ns = 0.5\n",
                                               "\ns = 0.5, 4.0\n"))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 1
    if command == "validate":
        diagnostics = json.loads(capsys.readouterr().out)
    else:
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "config-error"
        diagnostics = summary["diagnostics"]
    [diagnostic] = diagnostics
    assert diagnostic["field"] == "config"
    assert diagnostic["message"].startswith("sweep.s must be ")


def _delaying_rankone_config(tmp_path) -> str:
    # this form delays the scattered wave by up to 29 time units; its
    # tail needs a window far longer than the shipped grid has room for
    text = (CONFIGS / "epsilon-scaling-rankone.ini").read_text(
        encoding="ascii")
    form = "amps = 1.0\ncenters = 0.0\nwidths = 1.0\n"
    assert form in text
    return write_config(tmp_path, text.replace(
        form, "amps = 0.8, 0.6\ncenters = -0.6, 1.1\nwidths = 0.7, 1.2\n"))


def test_rankone_delay_leaves_no_room_on_the_shipped_grid(tmp_path):
    path = _delaying_rankone_config(tmp_path)
    setup, _ = cli._build_setup(
        _parse_ini(path), cli._parser().parse_args(["run", "--config", path]))
    ket = coherent_state(CoherentLabel(0.0, 1.0, 0.4), setup.grid,
                         n_channels=2)
    with pytest.raises(ValueError, match="cannot clear"):
        clearance_T(setup.model, ket)


def test_validate_skips_window_for_epsilon_scaling(tmp_path, capsys):
    # epsilon-scaling is on-shell quadrature and never propagates, so the
    # window the delaying form cannot fit is no problem of its run
    path = _delaying_rankone_config(tmp_path)
    assert main(["validate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out) == []
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["status"] == "ok"


def test_validate_checks_window_at_every_matched_label(tmp_path, capsys):
    # omega-scaling probes t = s / omega at each omega; s = 4.0 puts the
    # omega = 0.05 label at t = 80, too near the edge of [-96, 96] to clear
    text = (CONFIGS / "omega-scaling.ini").read_text(encoding="ascii")
    assert "\ns = 0.70710678\n" in text
    path = write_config(tmp_path, text.replace("\ns = 0.70710678\n",
                                               "\ns = 4.0\n"))
    assert main(["validate", "--config", path]) == 1
    diagnostics = json.loads(capsys.readouterr().out)
    assert [d["field"] for d in diagnostics] == ["grid"]
    assert "cannot clear" in diagnostics[0]["message"]
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert not (out / "results.csv").exists()


def test_validate_checks_every_energy_shift_label(tmp_path, capsys):
    # on [-60, 60] energy-shift's probes at eps = 0.5 clear, but the joint
    # sweep's t = 2 label at eps = 0.1, 42 wide at 6 sigma, cannot
    text = (CONFIGS / "energy-shift.ini").read_text(encoding="ascii")
    grid = "x_min = -160.0\nx_max = 160.0\nn = 4096\n"
    assert grid in text
    path = write_config(tmp_path, text.replace(
        grid, "x_min = -60.0\nx_max = 60.0\nn = 1536\n"))
    assert main(["validate", "--config", path]) == 1
    diagnostics = json.loads(capsys.readouterr().out)
    assert [d["field"] for d in diagnostics] == ["grid"]
    assert "cannot clear" in diagnostics[0]["message"]
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert not (out / "results.csv").exists()


def test_validate_checks_every_soluble_exact_probe(tmp_path, capsys):
    # soluble-exact probes t = 0 and t = -2; on [-30, 30] the t = 0 window
    # fits and the t = -2 one does not, so validate must probe both
    text = (CONFIGS / "soluble-exact.ini").read_text(encoding="ascii")
    grid = "x_min = -40.0\nx_max = 40.0\nn = 2048\n"
    assert grid in text
    path = write_config(tmp_path, text.replace(
        grid, "x_min = -30.0\nx_max = 30.0\nn = 1024\n"))
    assert main(["validate", "--config", path]) == 1
    diagnostics = json.loads(capsys.readouterr().out)
    assert [d["field"] for d in diagnostics] == ["grid"]
    assert "cannot clear" in diagnostics[0]["message"]
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("field", ["omega", "eps", "s", "e"])
def test_empty_sweep_list_is_a_config_error(tmp_path, capsys, field,
                                            command):
    # a comma-only flag or an empty INI value leaves no sweep point
    text, flags = GOOD_CONFIG, []
    if field in ("omega", "eps"):
        flags = [f"--{field}", ","]
    else:
        text = re.sub(rf"^{field} = .*$", f"{field} =", text, flags=re.M)
    out = tmp_path / "out"
    path = write_config(tmp_path, text)
    assert main([command, "--config", path, "--out", str(out), *flags]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if command == "run":
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "config-error"
        diagnostics = summary["diagnostics"]
    else:
        diagnostics = json.loads(captured.out)
    [diagnostic] = diagnostics
    assert f"sweep.{field}" in diagnostic["message"]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("source", ["flag", "ini"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, source, command):
    # numpy's generator takes no negative seed: coherent-props would stop
    # mid-run
    text = (CONFIGS / "coherent-props.ini").read_text(encoding="ascii")
    assert "\nseed = 0\n" in text
    flags = ["--seed", "-1"] if source == "flag" else []
    if source == "ini":
        text = text.replace("\nseed = 0\n", "\nseed = -1\n")
    out = tmp_path / "out"
    path = write_config(tmp_path, text)
    assert main([command, "--config", path, "--out", str(out), *flags]) == 1
    captured = capsys.readouterr()
    if command == "run":
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "config-error"
        diagnostics = summary["diagnostics"]
    else:
        diagnostics = json.loads(captured.out)
    assert diagnostics == [{"field": "config", "message":
                            "sweep.seed must be non-negative, not -1"}]
    assert not (out / "results.csv").exists()


NON_FINITE = [("sweep", key) for key in ("omega", "eps", "s", "e")] \
    + [("model", key) for key in ("omega", "amps", "centers", "widths",
                                  "schedule_a", "schedule_b", "schedule_c",
                                  "schedule_d")] \
    + [("grid", "x_min"), ("grid", "x_max")]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("section, key", NON_FINITE,
                         ids=[f"{s}.{k}" for s, k in NON_FINITE])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, section, key,
                                             value, command):
    # an infinite omega would pass criterion-04 against an infinite bound,
    # and a nan would fail only mid-run
    cfg = configparser.ConfigParser()
    cfg.read_string(GOOD_CONFIG)
    cfg[section][key] = value
    text = io.StringIO()
    cfg.write(text)
    out = tmp_path / "out"
    path = write_config(tmp_path, text.getvalue())
    assert main([command, "--config", path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    if command == "run":
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "config-error"
        diagnostics = summary["diagnostics"]
    else:
        diagnostics = json.loads(captured.out)
    [diagnostic] = diagnostics
    # [model] omega is no longer a key (the model runs at the sweep's first
    # omega), so a non-finite value there is refused as an unknown key
    reason = ("unknown config key model.omega" if (section, key)
              == ("model", "omega") else f"{section}.{key} must be finite")
    assert reason in diagnostic["message"]


@pytest.mark.parametrize("flag", ["--omega", "--eps"])
def test_non_finite_sweep_flag_is_a_config_error(tmp_path, capsys, flag):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["validate", "--config", path, flag, "0.1,inf"]) == 1
    [diagnostic] = json.loads(capsys.readouterr().out)
    assert f"sweep.{flag[2:]} must be finite" in diagnostic["message"]


def config_error(tmp_path, capsys, command, text, *flags) -> str:
    """The message of the one config diagnostic that run or validate gives
    for the config text, which exits 1 without a traceback or results."""
    out = tmp_path / "out"
    path = write_config(tmp_path, text)
    assert main([command, "--config", path, "--out", str(out), *flags]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if command == "validate":
        [diagnostic] = json.loads(captured.out)
    else:
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "config-error"
        [diagnostic] = summary["diagnostics"]
        assert not (out / "results.csv").exists()
    assert diagnostic["field"] == "config"
    return diagnostic["message"]


UNKNOWN_KEYS = {
    "sweep.epsilon": GOOD_CONFIG.replace("eps = 0.5\n",
                                         "eps = 0.5\nepsilon = 0.3\n"),
    "model.shedule": GOOD_CONFIG.replace("schedule = bump\n",
                                         "schedule = bump\nshedule = tanh\n"),
    # omega is the sweep's alone: the model takes its first value
    "model.omega": GOOD_CONFIG.replace("kind = soluble\n",
                                       "kind = soluble\nomega = 0.1\n"),
    # only kind = rankone reads a channel vector
    "model.vector": (CONFIGS / "epsilon-scaling-matrix.ini").read_text(
        encoding="ascii").replace("channel_matrix = sx\n",
                                  "channel_matrix = sx\nvector = 0.8, 0.6\n"),
}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("field", sorted(UNKNOWN_KEYS))
def test_unknown_key_is_a_config_error(tmp_path, capsys, field, command):
    # a key the run does not read would otherwise be dropped without a word
    assert field in config_error(tmp_path, capsys, command,
                                 UNKNOWN_KEYS[field])


MALFORMED = {
    "duplicate-key": (GOOD_CONFIG.replace("eps = 0.5\n",
                                          "eps = 0.5\neps = 0.4\n"),
                      "option 'eps' in section 'sweep' already exists"),
    "no-equals": (GOOD_CONFIG.replace("eps = 0.5\n", "eps 0.5\n"),
                  "parsing errors"),
    "no-section-header": (GOOD_CONFIG.split("\n", 1)[1],
                          "no section headers"),
    "default-section": ("[DEFAULT]\nseed = 1\n\n" + GOOD_CONFIG,
                        "unknown config section [DEFAULT]"),
    # a key with no default, left out
    "missing-key": (GOOD_CONFIG.replace("kind = soluble\n", ""),
                    "missing required key model.kind"),
}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_ini_is_a_config_error(tmp_path, capsys, case, command):
    text, reason = MALFORMED[case]
    assert reason in config_error(tmp_path, capsys, command, text)


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("flag", ["--grid-n", "--seed"])
def test_non_integer_flag_is_a_config_error(tmp_path, capsys, flag,
                                            command):
    # parsed by the config's own parser, not argparse (whose usage error
    # exits 2, the code of a numerical contract violation)
    key = {"--grid-n": "grid.n", "--seed": "sweep.seed"}[flag]
    assert f"{key} must be an integer" in config_error(
        tmp_path, capsys, command, GOOD_CONFIG, flag, "1.5")


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_output_dir_that_cannot_be_made_is_a_config_error(
        tmp_path, capsys, caplog, monkeypatch, below):
    # a file where the directory, or one of its parents, should go:
    # validate says so without making anything, and run stops before the
    # driver starts
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = str(blocker / below)
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["validate", "--config", path, "--out", out]) == 1
    [diagnostic] = json.loads(capsys.readouterr().out)
    assert diagnostic["field"] == "output.dir"
    assert "taken is not a directory" in diagnostic["message"]

    def driver(setup):
        raise AssertionError("the driver ran")

    monkeypatch.setitem(EXPERIMENTS, "outgoing-state", driver)
    assert main(["run", "--config", path, "--out", out]) == 1
    assert "output.dir: cannot make" in caplog.text
    assert blocker.read_text() == "keep\n"


CLOSED_FORM = ("soluble-exact", "omega-scaling", "energy-shift",
               "outgoing-state", "combined")


@pytest.mark.parametrize("kind", ["matrix", "rankone"])
@pytest.mark.parametrize("experiment", CLOSED_FORM)
def test_closed_form_experiment_rejects_other_models(tmp_path, capsys,
                                                     kind, experiment):
    text = (CONFIGS / f"epsilon-scaling-{kind}.ini").read_text(
        encoding="ascii")
    text = text.replace("experiment = epsilon-scaling",
                        f"experiment = {experiment}")
    path = write_config(tmp_path, text.replace("n = 2048", "n = 512"))
    assert main(["validate", "--config", path]) == 1
    diagnostics = json.loads(capsys.readouterr().out)
    assert "model" in [d["field"] for d in diagnostics]
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "validation-error"
    assert "model" in [d["field"] for d in summary["diagnostics"]]
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("experiment", CLOSED_FORM)
def test_closed_form_mismatch_mid_run_exits_one(tmp_path, monkeypatch,
                                                experiment):
    # a model that skipped validation reaches the driver: still a
    # configuration problem, not a crash
    monkeypatch.setattr(cli, "validate_setup", lambda experiment, setup: [])
    text = (CONFIGS / "epsilon-scaling-matrix.ini").read_text(encoding="ascii")
    path = write_config(tmp_path, text.replace(
        "experiment = epsilon-scaling", f"experiment = {experiment}"))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "config-error"
    [diagnostic] = summary["diagnostics"]
    assert diagnostic["field"] == "run"
    assert "one channel and one matrix term" in diagnostic["message"]


def test_failed_check_still_exits_zero(tmp_path, monkeypatch):
    def stub(setup):
        return ExperimentResult(
            rows=[Row(experiment="outgoing-state", omega=0.1,
                      value_exact=1.0, value_approx=0.0)],
            checks=[Check(criterion="criterion-00", name="stub",
                          ratio=2.0, details={"worst": 1.0})])

    monkeypatch.setitem(EXPERIMENTS, "outgoing-state", stub)
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"][0]["passed"] is False
    assert summary["checks"][0]["ratio"] == 2.0


@pytest.mark.parametrize("boom", [
    NumericalContractError("norm drift 1e-2 exceeds 1e-6"),
])
def test_mid_run_failures_exit_two(tmp_path, monkeypatch, boom):
    def stub(setup):
        raise boom

    monkeypatch.setitem(EXPERIMENTS, "outgoing-state", stub)
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out)])
    assert rc == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "numerical-contract"


def test_mid_run_value_error_exits_one(tmp_path, monkeypatch):
    # a setting validation could not see is a configuration problem
    def stub(setup):
        raise ValueError("window cannot clear the interaction")

    monkeypatch.setitem(EXPERIMENTS, "outgoing-state", stub)
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out)])
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "config-error"
    assert summary["diagnostics"] == [
        {"field": "run", "message": "window cannot clear the interaction"}]


def test_console_entry_point_smoke(tmp_path, subprocess_env):
    path = write_config(tmp_path, GOOD_CONFIG)
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from adiascat.cli import main; "
                           "sys.exit(main(sys.argv[1:]))",
                           "validate", "--config", path],
                          env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0


def test_module_entry_point_runs_without_warning(subprocess_env):
    proc = subprocess.run([sys.executable, "-m", "adiascat.cli", "validate",
                           "--config", str(CONFIGS / "combined.ini")],
                          env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"
    assert "RuntimeWarning" not in proc.stderr


def test_package_import_loads_no_scipy(subprocess_env):
    # scipy.special alone is most of the import time of every run
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, adiascat; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rankone_resolvents_load_no_scipy(subprocess_env):
    # the Faddeeva oracle and the quadrature route are numpy only
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from adiascat.network import rankone_resolvent, "
         "rankone_resolvent_exact; from adiascat.profiles import GaussianMix; "
         "form = GaussianMix((0.9,), (0.0,), (1.2,)); "
         "rankone_resolvent_exact(form, [0.0, 1.0]); "
         "rankone_resolvent(form, [0.0, 1.0]); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


FOOTPRINT_SCRIPT = """
import json, sys
import adiascat
bare = 'numpy.polynomial' in sys.modules
from adiascat import cli, network
codes = [cli.main(['run', '--config', config, '--out', out])
         for config, out in zip(sys.argv[1::2], sys.argv[2::2])]
loaded = sorted({'numpy.ma', 'numpy.polynomial', 'numpy.random'}
                & set(sys.modules))
from numpy.polynomial.legendre import leggauss
print(json.dumps({'bare': bare, 'codes': codes, 'loaded': loaded,
                  'leggauss': network.leggauss is leggauss}))
"""


def test_no_shipped_run_loads_numpy_ma_polynomial_or_random(
        subprocess_env, tmp_path):
    # np.unique imports numpy.ma (1.2 MB) and numpy.polynomial (0.6 MB)
    # holds leggauss; the package needs neither, and network still hands
    # out numpy's leggauss, imported at first access.  The seeded draws
    # come from _pcg64.UniformStream, so no run imports numpy.random (and
    # with it secrets, hashlib and OpenSSL)
    configs = sorted(CONFIGS.glob("*.ini"))
    assert len(configs) == 8
    args = []
    for path in configs:
        args += [str(path), str(tmp_path / path.stem)]
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, *args],
        env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"bare": False, "codes": [0] * 8, "loaded": [],
                      "leggauss": True}


def test_runs_that_draw_nothing_leave_the_stream_unimported(subprocess_env,
                                                            tmp_path):
    # without cached bytecode every run compiles each module it imports,
    # so only the two drivers that draw import the stream
    script = ("import sys; from adiascat import cli; "
              "code = cli.main(['run', '--config', sys.argv[1], "
              "'--out', sys.argv[2]]); "
              "print(code, 'adiascat._pcg64' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(CONFIGS / "combined.ini"),
         str(tmp_path / "out")],
        env=subprocess_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_summary_times_validate_on_every_shipped_config(shipped_runs):
    for name, (_, summary) in shipped_runs.items():
        assert summary["validate_s"] >= 0.0, name
