"""Config parsing, serialization format and exit-code contract."""

import configparser
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adiascat import cli
from adiascat.cli import CSV_HEADER, ConfigError, _fmt, _parse_ini, main
from adiascat.coherent import CoherentLabel, coherent_state
from adiascat.experiments import EXPERIMENTS, Check, ExperimentResult, Row
from adiascat.network import clearance_T
from adiascat.numerics import Grid, NumericalContractError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOOD_CONFIG = """\
[model]
kind = soluble
omega = 0.1
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
    lambda text: text.replace("omega = 0.1\nschedule", "omega = -0.1\nschedule"),
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
    path = write_config(tmp_path, GOOD_CONFIG.replace("eps = 0.5",
                                                      "eps = 0.05"))
    rc = main(["validate", "--config", path])
    assert rc == 1
    diagnostics = json.loads(capsys.readouterr().out)
    assert any(d["field"] == "sweep.eps" for d in diagnostics)


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


def test_cli_overrides_reach_the_summary(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out),
               "--seed", "11", "--grid-n", "256", "--eps", "0.6"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 11
    assert summary["config"]["grid"]["n"] == 256
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
def test_summary_config_reproduces_the_run(tmp_path, name):
    shipped = CONFIGS / f"{name}.ini"
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--config", str(shipped), "--out", str(first)]) == 0
    config = json.loads((first / "summary.json").read_text())["config"]
    assert set(_parse_ini(str(shipped))["model"]) <= set(config["model"])
    path = write_config(tmp_path, _config_to_ini(config), "resolved.ini")
    assert main(["run", "--config", path, "--out", str(second)]) == 0
    assert (first / "results.csv").read_bytes() \
        == (second / "results.csv").read_bytes()


@pytest.mark.parametrize("s_values", ["0.5, 4.0", "4.0, 0.5"])
def test_validate_checks_resonance_at_every_s(tmp_path, capsys, s_values):
    # amps = 1.6 puts a resonance in the window at s = 0.5 but not at
    # s = 4.0, where the bump has died out; the run would visit both
    text = (CONFIGS / "epsilon-scaling-rankone.ini").read_text(
        encoding="ascii")
    assert "\namps = 1.0\n" in text and "\ns = 0.5\n" in text
    text = text.replace("\namps = 1.0\n", "\namps = 1.6\n").replace(
        "\ns = 0.5\n", f"\ns = {s_values}\n")
    path = write_config(tmp_path, text.replace("n = 2048", "n = 512"))
    assert main(["validate", "--config", path]) == 1
    diagnostics = json.loads(capsys.readouterr().out)
    assert [d["field"] for d in diagnostics] == ["model"]
    assert "resonance" in diagnostics[0]["message"]


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
    cfg = _parse_ini(_delaying_rankone_config(tmp_path))
    model = cli._build_model(cli._model_section(cfg))
    grid = Grid(cfg.getfloat("grid", "x_min"), cfg.getfloat("grid", "x_max"),
                cfg.getint("grid", "n"))
    ket = coherent_state(CoherentLabel(0.0, 1.0, 0.4), grid, n_channels=2)
    with pytest.raises(ValueError, match="cannot clear"):
        clearance_T(model, ket)


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
                          passed=False, details={"worst": 1.0})])

    monkeypatch.setitem(EXPERIMENTS, "outgoing-state", stub)
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    rc = main(["run", "--config", path, "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"][0]["passed"] is False


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
