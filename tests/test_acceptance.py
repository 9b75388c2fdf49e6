"""Release-gating acceptance battery.

Every shipped config in ``configs/`` runs once through the command line
runner (the ``shipped_runs`` fixture in ``conftest.py``), and each check
its summary.json reports is asserted as it stands there, with one
verdict line per check: criterion, name, PASS or FAIL, and its ratio,
which passes below 1.  Criterion-09 has no driver and runs here
directly; criterion-10 runs the command line twice in a subprocess.
Stream the lines with ``pytest -s tests/test_acceptance.py``.
"""

import math
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from adiascat.coherent import (CoherentLabel, StateVector, braket,
                               coherent_state, free_shift)
from adiascat.experiments import GATES, Check, _worst_step, gate_ratio
from adiascat.network import (MatrixPotential, RankOne, ScatterModel,
                              clearance_T, dynamical_S, frozen,
                              frozen_S_apply, intertwine_residual,
                              omega_dot_residual, on_shell_S, wave_operator)
from adiascat.numerics import Grid
from adiascat.profiles import GaussianMix, Schedule

BUMP = Schedule("bump", 1.0, 0.0, 1.0)
MIX = GaussianMix((0.8,), (0.35,), (1.0,))
SX = np.array([[0.0, 1.0], [1.0, 0.0]])

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# every gate a shipped config reports: all but criterion-09
SHIPPED_GATES = [gate for gate in GATES if gate[0] != "criterion-09"]


def soluble_model(potential: GaussianMix, omega: float) -> ScatterModel:
    """The soluble model: one channel, the one-term matrix [[1.0]]."""
    return ScatterModel(1, MatrixPotential(([[1.0]],), (potential,), BUMP),
                        omega)


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    line = f"{criterion}: {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    assert passed, line


def _gate_verdict(check: dict, source: str) -> None:
    """The one verdict line of a gate's check, as summary.json writes it."""
    _verdict(f"{check['criterion']} {check['name']}", check["passed"],
             f"ratio {check['ratio']:.3g} ({source})")


@pytest.mark.parametrize("gate", SHIPPED_GATES, ids="-".join)
def test_shipped_config_gate(shipped_runs, gate):
    checks = [(config, check) for config, (_, summary) in shipped_runs.items()
              for check in summary["checks"]
              if (check["criterion"], check["name"]) == gate]
    assert checks, f"no shipped config reports {gate}"
    for config, check in checks:
        _gate_verdict(check, config)


def test_shipped_configs_report_every_gate_but_criterion_09(shipped_runs):
    reported = [(check["criterion"], check["name"])
                for _, summary in shipped_runs.values()
                for check in summary["checks"]]
    assert set(reported) == set(SHIPPED_GATES)


@pytest.mark.parametrize("value, limit, ratio, passed", [
    (0.5, 2.0, 0.25, True),
    (2.0, 2.0, 1.0, False),
    (1e-300, 0.0, math.inf, False),
    (0.0, 0.0, 0.0, True),
    (math.nan, 1.0, math.inf, False),
    (1e-5, math.nan, math.inf, False),
])
def test_a_gate_passes_exactly_below_ratio_one(value, limit, ratio, passed):
    got = gate_ratio(value, limit)
    assert got == ratio
    assert Check("criterion-00", "stub", got).passed is passed
    # a failing part fails the gate whichever place max() meets it in
    for parts in ([0.5, got], [got, 0.5]):
        assert Check("criterion-00", "stub", max(parts)).passed is passed


@pytest.mark.parametrize("errors, passed", [
    ([0.1, 0.05, 0.02], True),
    ([0.1, 0.05, 0.05], False),
    ([0.1, 0.05, math.nan], False),
    ([math.nan, 0.1, 0.05], False),
    ([0.0, 0.0], True),
    ([0.1], True),
])
def test_a_monotone_sweep_passes_when_every_step_falls(errors, passed):
    assert Check("criterion-00", "stub", _worst_step(errors)).passed is passed


def test_criterion_09_structural_identities():
    grid = Grid(-64.0, 64.0, 2048)
    soluble = soluble_model(MIX, 0.2)
    matrix = ScatterModel(2, MatrixPotential((SX,), (MIX,), BUMP), 0.2)
    rankone = ScatterModel(
        2, RankOne(GaussianMix((0.4,), (0.0,), (1.0,)), BUMP, (0.8, 0.6)), 0.2)

    one = coherent_state(CoherentLabel(0.0, 1.0, 0.7), grid)
    two = coherent_state(CoherentLabel(0.0, 1.0, 0.7), grid,
                         channel=0, n_channels=2)
    # the resonant tail of the separable coupling needs the long window
    ro_grid = Grid(-40.0, 40.0, 512)
    ro_ket = coherent_state(CoherentLabel(0.0, 1.0, 0.7), ro_grid,
                            channel=0, n_channels=2)
    unitarity = max(
        abs(dynamical_S(soluble, 0.4, one).norm() - 1.0),
        abs(frozen_S_apply(soluble, 0.4, one).norm() - 1.0),
        abs(dynamical_S(matrix, 0.4, two).norm() - 1.0),
        abs(frozen_S_apply(matrix, 0.4, two).norm() - 1.0),
        abs(dynamical_S(rankone, 0.4, ro_ket, T=24.0).norm() - 1.0),
        on_shell_S(soluble, 0.4, 1.0).unitarity_defect(),
        on_shell_S(matrix, 0.4, 1.0).unitarity_defect(),
        on_shell_S(rankone, 0.4, 1.0).unitarity_defect())

    model = soluble_model(MIX, 0.1)
    s = 0.4
    t_c = s / model.omega
    probe = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    T = clearance_T(model, probe)
    direct = dynamical_S(model, s, probe, T=T)
    routed = free_shift(dynamical_S(model, 0.0, free_shift(probe, -t_c), T=T),
                        t_c)
    base_conj = StateVector(grid,
                            direct.amplitudes - routed.amplitudes).norm()

    fmodel = frozen(model, s)
    bra = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    ket = coherent_state(CoherentLabel(4.0, 0.6, 0.6), grid)
    _, T2 = grid.snap(max(clearance_T(model, bra), clearance_T(model, ket)))
    lhs = braket(bra, dynamical_S(model, s, ket, T=T2))
    rhs = braket(wave_operator(fmodel, s, +1, bra, T=T2),
                 dynamical_S(model, s,
                             wave_operator(fmodel, s, -1, ket, T=T2),
                             T=T2, reference=fmodel))
    ref_change = abs(lhs - rhs)

    resids = []
    for n in (3072, 6144):
        g = Grid(-96.0, 96.0, n)
        st = coherent_state(CoherentLabel(4.0, 1.0, 0.5), g)
        resids.append(intertwine_residual(model, s, st))
    ratio = resids[0] / resids[1]

    g = Grid(-48.0, 48.0, 3072)
    omega_dot = omega_dot_residual(
        model, s, coherent_state(CoherentLabel(4.0, 1.0, 0.5), g))

    gate = ("criterion-09", "structural-identities")
    tol = GATES[gate]
    # the grid ratio's window as a slope gate: |ratio - centre| / half-width
    low, high = tol["grid_ratio_min"], tol["grid_ratio_max"]
    check = Check(*gate, max(
        gate_ratio(unitarity, tol["unitarity"]),
        gate_ratio(base_conj, tol["base_conjugation"]),
        gate_ratio(ref_change, tol["reference_change"]),
        gate_ratio(resids[1], tol["intertwine"]),
        gate_ratio(abs(ratio - (low + high) / 2), (high - low) / 2),
        gate_ratio(omega_dot, tol["omega_dot"])))
    _gate_verdict(asdict(check), "direct")


def test_gate_table_holds_the_published_tolerances():
    # every tolerance a gate is published with, as a literal: a change to
    # the table is a change to a gate
    assert GATES == {
        ("criterion-01", "coherent-properties"):
            {"A": 1e-10, "C": 1e-9, "D": 1e-9, "E": 1e-6, "F": 1e-9},
        ("criterion-02", "soluble-oracle-equivalence"): {"tol": 1e-6},
        ("criterion-03", "frozen-data-degeneracy"):
            {"frozen_gap": 1e-12, "wigner_delay": 1e-10},
        ("criterion-04", "first-order-law"): {"slope": 1.0, "slope_tol": 0.1},
        ("criterion-04", "combined-bound"): {"margin": 3.0},
        ("criterion-04", "joint-monotone"): {},
        ("criterion-05", "frozen-data-insufficiency"):
            {"frozen_gap": 1e-12, "remainder_gap": 1e-5},
        ("criterion-06", "on-shell-smearing"):
            {"slope": 2.0, "slope_tol": 0.2, "matrix_error": 1e-9},
        ("criterion-07a", "algebraic-vs-differencing"): {"tol": 1e-6},
        ("criterion-07b", "soluble-profile"): {"tol": 1e-6},
        ("criterion-07c", "outgoing-state-transport"): {"tol": 1e-5},
        ("criterion-07d", "base-point-conjugation"): {"tol": 1e-7},
        ("criterion-08", "thawed-vs-frozen-joint-sweep"): {},
        ("criterion-09", "structural-identities"):
            {"unitarity": 1e-8, "base_conjugation": 1e-7,
             "reference_change": 1e-6, "intertwine": 1e-5,
             "grid_ratio_min": 3.0, "grid_ratio_max": 5.0,
             "omega_dot": 1e-5},
    }


def _cli_command() -> list:
    exe = shutil.which("adiascat")
    if exe:
        return [exe]
    return [sys.executable, "-c",
            "import sys; from adiascat.cli import main;"
            " sys.exit(main(sys.argv[1:]))"]


def test_criterion_10_deterministic_csv(tmp_path, subprocess_env):
    config = CONFIG_DIR / "coherent-props.ini"
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        res = subprocess.run(
            _cli_command() + ["run", "--config", str(config),
                              "--out", str(out)],
            cwd=tmp_path, env=subprocess_env, capture_output=True, text=True,
            timeout=300)
        assert res.returncode == 0, res.stderr
        outs.append((out / "results.csv").read_bytes())
    rows = outs[0].count(b"\n") - 1
    _verdict("criterion-10", outs[0] == outs[1] and rows > 0,
             f"repeated run, fixed seed: {rows} rows,"
             f" {len(outs[0])} bytes, byte-identical")
