"""Release-gating acceptance battery.

Every gate below runs a full experiment driver (or the command line
runner itself) at its published tolerance and prints one verdict line
per criterion id, mirroring the pass/fail entries a run writes to
summary.json.  Stream the lines with ``pytest -s tests/test_acceptance.py``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adiascat.coherent import (CoherentLabel, StateVector, braket,
                               coherent_state, free_shift)
from adiascat.experiments import EXPERIMENTS, Setup
from adiascat.network import (MatrixPotential, RankOne, ScatterModel,
                              clearance_T, dynamical_S, frozen,
                              frozen_S_apply, intertwine_residual,
                              omega_dot_residual, on_shell_S, wave_operator)
from adiascat.numerics import Grid
from adiascat.profiles import GaussianMix, Schedule

BUMP = Schedule("bump", 1.0, 0.0, 1.0)
MIX = GaussianMix((0.8,), (0.35,), (1.0,))
UNIT = GaussianMix((1.0,), (0.0,), (1.0,))
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def soluble_model(potential: GaussianMix, omega: float) -> ScatterModel:
    """The soluble model: one channel, the one-term matrix [[1.0]]."""
    return ScatterModel(1, MatrixPotential(([[1.0]],), (potential,), BUMP),
                        omega)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    line = f"{criterion}: {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    assert passed, line


def _by_criterion(result) -> dict:
    return {c.criterion: c for c in result.checks}


# ---------------------------------------------------------------------------
# Driver runs, one per sweep family, shared across the gates they feed
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coherent_checks():
    setup = Setup(soluble_model(MIX, 0.1), Grid(-64.0, 64.0, 2048),
                  (0.1,), (0.5,), (0.0,), (1.0,), seed=0)
    return _by_criterion(EXPERIMENTS["coherent-props"](setup))


@pytest.fixture(scope="module")
def soluble_checks():
    setup = Setup(soluble_model(UNIT, 0.2), Grid(-40.0, 40.0, 2048),
                  (0.2, 0.1), (0.7,), (0.4,), (1.0, -0.5), seed=7)
    return _by_criterion(EXPERIMENTS["soluble-exact"](setup))


@pytest.fixture(scope="module")
def omega_checks():
    # epoch at the schedule inflection keeps the quadratic tail small
    setup = Setup(soluble_model(MIX, 0.1), Grid(-96.0, 96.0, 6144),
                  (0.2, 0.1, 0.05), (0.5,), (0.70710678,), (1.0,), seed=11)
    return _by_criterion(EXPERIMENTS["omega-scaling"](setup))


@pytest.fixture(scope="module")
def smearing_checks():
    rankone = Setup(ScatterModel(2, RankOne(UNIT, BUMP, (0.8, 0.6)), 0.1),
                    Grid(-160.0, 160.0, 2048),
                    (0.1,), (0.4, 0.2, 0.1), (0.5,), (1.0,), j=0, jp=0)
    matrix = Setup(ScatterModel(2, MatrixPotential((SX,), (UNIT,), BUMP), 0.1),
                   Grid(-160.0, 160.0, 2048),
                   (0.1,), (0.4, 0.2, 0.1), (0.5,), (1.0,), j=0, jp=1)
    run = EXPERIMENTS["epsilon-scaling"]
    return {"rankone": _by_criterion(run(rankone))["criterion-06"],
            "matrix": _by_criterion(run(matrix))["criterion-06"]}


@pytest.fixture(scope="module")
def energy_checks():
    setup = Setup(soluble_model(MIX, 0.1), Grid(-160.0, 160.0, 4096),
                  (0.1,), (0.4, 0.2, 0.1), (0.5,), (1.0,), seed=0)
    return _by_criterion(EXPERIMENTS["energy-shift"](setup))


@pytest.fixture(scope="module")
def outgoing_checks():
    setup = Setup(soluble_model(MIX, 0.1), Grid(-40.0, 40.0, 512),
                  (0.1,), (0.5,), (0.5,), (1.0,), seed=0)
    return _by_criterion(EXPERIMENTS["outgoing-state"](setup))


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def test_criterion_01_coherent_state_suite(coherent_checks):
    check = coherent_checks["criterion-01"]
    d = check.details
    worst = " ".join(f"{k}={d[f'worst_{k}']:.1e}" for k in "ACDEF")
    _verdict("criterion-01", check.passed,
             f"100 random labels, worst {worst}")


def test_criterion_02_soluble_oracle_equivalence(soluble_checks):
    check = soluble_checks["criterion-02"]
    _verdict("criterion-02", check.passed,
             f"worst state distance {check.details['worst_state_distance']:.1e}"
             f" < {check.details['tol']:.0e} over omega 0.2, 0.1")


def test_criterion_03_frozen_data_degeneracy(omega_checks):
    check = omega_checks["criterion-03"]
    d = check.details
    _verdict("criterion-03", check.passed,
             f"{d['pairs']} equal-weight pairs, frozen gap"
             f" {d['worst_frozen_gap']:.1e} < 1e-12, delay"
             f" {d['worst_wigner_delay']:.1e} < 1e-10")


def test_criterion_04_first_order_law(omega_checks):
    check = omega_checks["criterion-04"]
    d = check.details
    ratios = ", ".join(f"{r:.3f}" for r in d["residual_over_omega"])
    _verdict("criterion-04", check.passed,
             f"remainder slope {d['remainder_slope']:.3f} in 1.0+-0.1,"
             f" residual/omega monotone [{ratios}]")


def test_criterion_05_frozen_data_insufficiency(omega_checks):
    check = omega_checks["criterion-05"]
    d = check.details
    _verdict("criterion-05", check.passed,
             f"frozen gap {d['frozen_gap']:.1e} < 1e-12 yet remainder gap"
             f" {d['remainder_gap']:.1e} > {d['threshold']:.0e}")


def test_criterion_06_on_shell_smearing(smearing_checks):
    ro, mat = smearing_checks["rankone"], smearing_checks["matrix"]
    _verdict("criterion-06", ro.passed and mat.passed,
             f"rank-one slope {ro.details['slope']:.3f} in 2.0+-0.2,"
             f" matrix worst error {mat.details['worst_error']:.1e} < 1e-09")


def test_criterion_07a_algebraic_vs_differencing(energy_checks):
    check = energy_checks["criterion-07a"]
    _verdict("criterion-07a", check.passed,
             f"error {check.details['error']:.1e} < 1e-06"
             f" (central step {check.details['h']})")


def test_criterion_07b_soluble_shift_profile(energy_checks):
    check = energy_checks["criterion-07b"]
    _verdict("criterion-07b", check.passed,
             f"error {check.details['error']:.1e} < 1e-06")


def test_criterion_07c_outgoing_state_transport(outgoing_checks):
    check = outgoing_checks["criterion-07c"]
    res = check.details["residuals"]
    _verdict("criterion-07c", check.passed,
             f"fermi residual {res['fermi']:.1e} < 1e-05 on"
             f" {check.details['grid_n']}-point grid"
             f" (gaussian {res['gaussian']:.1e})")


def test_criterion_07d_base_point_on_elements(energy_checks):
    check = energy_checks["criterion-07d"]
    _verdict("criterion-07d", check.passed,
             f"error {check.details['error']:.1e} < 1e-07")


def test_criterion_08_thawed_vs_frozen_joint_sweep(energy_checks):
    check = energy_checks["criterion-08"]
    errs = ", ".join(f"{e:.4f}" for e in check.details["errors"])
    sweep = ", ".join(f"{e ** 2:.2f}" for e in check.details["sweep_eps"])
    _verdict("criterion-08", check.passed,
             f"errors [{errs}] decrease over omega = eps^2 in [{sweep}]")


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

    passed = (unitarity < 1e-8 and base_conj < 1e-7 and ref_change < 1e-6
              and resids[1] < 1e-5 and 3.0 < ratio < 5.0
              and omega_dot < 1e-5)
    _verdict("criterion-09", passed,
             f"unitarity {unitarity:.1e} < 1e-08;"
             f" base conjugation {base_conj:.1e} < 1e-07;"
             f" reference change {ref_change:.1e} < 1e-06;"
             f" intertwine {resids[1]:.1e} < 1e-05"
             f" (grid ratio {ratio:.2f} in 3..5);"
             f" omega-dot {omega_dot:.1e} < 1e-05")


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
