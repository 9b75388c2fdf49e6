"""Propagator and scattering-operator tests against independent routes.

Local potentials on a chiral channel have a closed characteristic form:
evolving from t0 to t1 transports the state by t1 - t0 and multiplies
by the phase collected along the incoming ray.  Gauss-Legendre
quadrature of that phase is an oracle the transport kernels never see.
Wave-operator identities, the resolvent dual route and the equation-of-
motion residuals cover the rest of the module.
"""

import importlib.resources
import json
import math
import re
import tracemalloc
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import erf, wofz

from adiascat import _kernels, cli, network
from adiascat.coherent import (CoherentLabel, StateVector, braket,
                               coherent_state, free_shift)
from adiascat.network import (MatrixPotential, RankOne, ScatterModel,
                              clearance_T, dynamical_S,
                              dynamical_S_adjoint, frozen, frozen_energy_shift_onshell,
                              frozen_S_apply, intertwine_residual,
                              omega_dot_residual, on_shell_S, propagate,
                              rankone_resolvent, rankone_resolvent_exact,
                              rankone_scalar_amplitude, wave_operator,
                              wigner_delay, _matrix_transport)
from adiascat.numerics import (Grid, NumericalContractError,
                               central_derivative, ordered_exponential)
from adiascat.profiles import GaussianMix, Schedule
from adiascat.soluble import dynamical_S_profile, frozen_S_value

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
JX3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2)

MIX = GaussianMix((0.8,), (0.35,), (1.0,))
BUMP = Schedule("bump", 1.0, 0.0, 1.0)


def soluble_twin(omega: float, schedule: Schedule = BUMP,
                 entry: float = 1.0) -> ScatterModel:
    """The soluble model: MIX times the one-channel matrix [[entry]]."""
    return ScatterModel(1, MatrixPotential(([[entry]],), (MIX,), schedule),
                        omega)


def phase_quadrature(model, points, t0, t1, nodes=400):
    """Characteristic phase by Gauss-Legendre, independent of the kernels.

    phase(x) = int_{t0}^{t1} f(omega u) v(x - (t1 - u)) du for the first
    (and only) profile of the coupling.
    """
    gl_x, gl_w = leggauss(nodes)
    u = 0.5 * (t1 + t0) + 0.5 * (t1 - t0) * gl_x
    w = 0.5 * (t1 - t0) * gl_w
    f = model.schedule.value(model.omega * u)
    profile = model.coupling.profiles[0]
    v = profile(points[:, None] - (t1 - u)[None, :])
    return v @ (f * w)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def test_propagate_matches_characteristic_quadrature():
    grid = Grid(-40.0, 40.0, 1280)
    model = soluble_twin(0.3, Schedule("tanh", 0.7, 0.2, 1.1, 0.1))
    state = coherent_state(CoherentLabel(-8.0, 0.9, 0.7), grid)
    t0 = 0.7
    m, dur = grid.snap(16.0)
    out = propagate(model, state, t0, t0 + dur)
    phase = phase_quadrature(model, grid.points, t0, t0 + dur)
    expected = np.exp(-1j * phase) * np.roll(state.amplitudes, m, axis=-1)
    assert np.max(np.abs(out.amplitudes - expected)) < 5e-9


def test_propagate_zero_coupling_is_free_shift():
    grid = Grid(-40.0, 40.0, 1024)
    coupling = MatrixPotential((np.array([[1.0]]),), (MIX,),
                               Schedule("constant", 0.0, 0.0, 1.0))
    model = ScatterModel(1, coupling, 0.2)
    state = coherent_state(CoherentLabel(-3.0, 0.5, 0.6), grid)
    _, dur = grid.snap(3.0)
    out = propagate(model, state, 0.0, dur)
    shifted = free_shift(state, dur)
    assert np.array_equal(out.amplitudes, shifted.amplitudes)


def test_propagate_snaps_sub_lattice_duration_to_rest():
    grid = Grid(-40.0, 40.0, 1024)
    model = soluble_twin(0.2)
    state = coherent_state(CoherentLabel(0.0, 0.5, 0.6), grid)
    out = propagate(model, state, 0.0, 0.3 * grid.dx)
    assert out is not state
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_one_channel_transport_multiplies_only_where_the_phase_lives():
    # points whose phase is exactly 0 skip exp and the product; the map
    # still equals the full-grid product bit for bit, and leaves its
    # input alone
    grid = Grid(-40.0, 40.0, 1024)
    model = soluble_twin(0.3, Schedule("tanh", 0.7, 0.2, 1.1, 0.1))
    m, tau = grid.snap(16.0)
    phase = _kernels.characteristic_phase(
        grid.points, tau, 0.7 + tau, m, model.coupling.profiles[0],
        model.schedule.value, model.omega,
        model.coupling.support_radius(1e-16))
    assert 0 < np.count_nonzero(phase) < grid.n
    rng = np.random.default_rng(3)
    amps = rng.normal(size=(2, grid.n)) + 1j * rng.normal(size=(2, grid.n))
    before = amps.copy()
    got = _matrix_transport(model, grid, amps, 0.7, m)
    want = np.roll(amps, m, axis=-1) * np.exp(-1j * phase)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(amps, before)


def test_one_channel_terms_take_the_phase_of_their_summed_profile():
    # several terms on one channel commute, so their transport is the
    # phase kernel on the summed profile, bit for bit
    grid = Grid(-40.0, 40.0, 1024)
    second = GaussianMix((0.5,), (-0.4,), (0.8,))
    schedule = Schedule("tanh", 0.7, 0.2, 1.1, 0.1)
    model = ScatterModel(1, MatrixPotential(([[1.0]], [[0.5]]),
                                            (MIX, second), schedule), 0.3)
    m, tau = grid.snap(16.0)
    phase = _kernels.characteristic_phase(
        grid.points, tau, 0.7 + tau, m, lambda y: MIX(y) + 0.5 * second(y),
        schedule.value, model.omega, model.coupling.support_radius(1e-16))
    amps = np.random.default_rng(3).normal(size=(1, grid.n)) + 0j
    got = _matrix_transport(model, grid, amps, 0.7, m)
    want = np.roll(amps, m, axis=-1) * np.exp(-1j * phase)
    assert got.tobytes() == want.tobytes()


def _call_log(monkeypatch, name):
    """Record each call of _kernels.<name> with its result."""
    kernel, calls = getattr(_kernels, name), []

    def logged(*args):
        calls.append(kernel(*args))
        return calls[-1]
    monkeypatch.setattr(_kernels, name, logged)
    return calls


@pytest.mark.parametrize("matrix", [SX, JX3, np.ones((2, 2))],
                         ids=["sx", "jx3", "singular"])
def test_one_term_route_matches_channel_unitaries(monkeypatch, matrix):
    # a zero second term leaves the field, and with it the lattice, as
    # it is, but sends the coupling through characteristic_unitary
    nc = matrix.shape[0]
    schedule = Schedule("tanh", 0.7, 0.2, 1.1, 0.1)
    model = ScatterModel(nc, MatrixPotential((matrix,), (MIX,), schedule),
                         0.3)
    twin = ScatterModel(nc, MatrixPotential((matrix, 0.0 * matrix),
                                            (MIX, MIX), schedule), 0.3)
    grid = Grid(-40.0, 40.0, 1024)
    m, _ = grid.snap(16.0)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=(nc, grid.n)) + 1j * rng.normal(size=(nc, grid.n))
    unitaries = _call_log(monkeypatch, "characteristic_unitary")
    phases = _call_log(monkeypatch, "characteristic_phase")
    got = _matrix_transport(model, grid, amps, 0.7, m)
    s_got = on_shell_S(model, 0.5).matrix
    assert not unitaries and len(phases) == 2 * nc
    want = _matrix_transport(twin, grid, amps, 0.7, m)
    s_want = on_shell_S(twin, 0.5).matrix
    assert len(unitaries) == 2
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(s_got - s_want)) < 1e-12
    lam, vec = np.linalg.eigh(matrix)
    if lam[0] == 0.0:
        # the null channel collects no phase: it is rolled and nothing else
        assert not np.any(phases[0]) and not np.any(phases[nc])
        null = vec[:, :1] @ amps[:1]
        moved = _matrix_transport(model, grid, null, 0.7, m)
        assert np.max(np.abs(moved - np.roll(null, m, axis=-1))) \
            < 4 * np.finfo(float).eps * np.max(np.abs(null))


def test_on_shell_sx_matches_closed_form():
    # epsilon-scaling-matrix.ini's model: one sigma_x term, so S is
    # exp(-i f(s) W sigma_x) with W the weight of the profile
    mix = GaussianMix((1.0,), (0.0,), (1.0,))
    schedule = Schedule("bump", 1.0, 0.0, 1.0)
    model = ScatterModel(2, MatrixPotential((SX,), (mix,), schedule), 0.1)
    phase = float(schedule.value(0.5)) * mix.weight
    want = math.cos(phase) * np.eye(2) - 1j * math.sin(phase) * SX
    assert np.max(np.abs(on_shell_S(model, 0.5).matrix - want)) < 1e-14


def test_commuting_couplings_never_reach_the_unitaries(monkeypatch,
                                                       tmp_path):
    # the shipped matrix config and the criterion-09 sigma_x model run
    # without characteristic_unitary; non-commuting terms still reach it
    def refuse(*args):
        raise AssertionError("characteristic_unitary called")
    monkeypatch.setattr(_kernels, "characteristic_unitary", refuse)
    config = Path(__file__).resolve().parents[1] / "configs" \
        / "epsilon-scaling-matrix.ini"
    assert cli.main(["run", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    grid = Grid(-64.0, 64.0, 2048)
    model = ScatterModel(2, MatrixPotential((SX,), (MIX,), BUMP), 0.2)
    ket = coherent_state(CoherentLabel(0.0, 1.0, 0.7), grid, channel=0,
                         n_channels=2)
    assert abs(dynamical_S(model, 0.4, ket).norm() - 1.0) < 1e-8
    with pytest.raises(AssertionError, match="characteristic_unitary"):
        on_shell_S(_noncommuting_model(), 0.7071)


def test_propagate_two_channel_commuting_closed_form():
    # single sigma_x term: ordering collapses, U = exp(-i phase sigma_x)
    coupling = MatrixPotential((SX,), (MIX,), Schedule("tanh", 0.7, 0.2, 1.1))
    model = ScatterModel(2, coupling, 0.3)
    t0 = -1.3
    errs = []
    for n in (1280, 5120):
        grid = Grid(-40.0, 40.0, n)
        state = coherent_state(CoherentLabel(-8.0, 0.9, 0.7), grid,
                               channel=0, n_channels=2)
        m, dur = grid.snap(16.0)
        phase = phase_quadrature(model, grid.points, t0, t0 + dur)
        rolled = np.roll(state.amplitudes[0], m)
        expected = np.stack([np.cos(phase) * rolled,
                             -1j * np.sin(phase) * rolled])
        out = propagate(model, state, t0, t0 + dur)
        errs.append(np.max(np.abs(out.amplitudes - expected)))
    # midpoint transport carries an O(dx^2) tail where a characteristic
    # window cuts the potential midway; the finer grid quarters the step
    assert errs[0] < 5e-9
    assert errs[1] < errs[0] / 4.0


def test_propagate_unitarity_matrix_backend():
    grid = Grid(-40.0, 40.0, 1024)
    coupling = MatrixPotential((SX, SZ),
                               (MIX, GaussianMix((0.5,), (-0.6,), (0.9,))),
                               BUMP)
    model = ScatterModel(2, coupling, 0.25)
    state = coherent_state(CoherentLabel(-6.0, 0.8, 0.6), grid,
                           channel=1, n_channels=2)
    out = propagate(model, state, -2.0, 10.0)
    assert abs(out.norm() - state.norm()) < 1e-12


def test_propagate_unitarity_rankone_backend():
    grid = Grid(-32.0, 32.0, 512)
    coupling = RankOne(GaussianMix((0.9,), (0.0,), (1.2,)),
                       Schedule("tanh", 0.5, 0.0, 1.0, 0.6),
                       np.array([0.8, 0.6]))
    model = ScatterModel(2, coupling, 0.25)
    state = coherent_state(CoherentLabel(-6.0, 0.5, 0.6), grid,
                           channel=0, n_channels=2)
    out = propagate(model, state, 0.0, 6.0)
    assert abs(out.norm() - state.norm()) < 1e-6


def test_propagate_rankone_matches_dense_lattice_evolution():
    # a frozen model is exp(-i H tau) with H = P + lam dx |phi><phi| on
    # the periodic lattice, by dense eigh; legs of 1.5 grid widths both
    # ways, so the scattered wave wraps and meets the form again
    grid = Grid(-20.0, 20.0, 256)
    u = np.array([0.8, 0.6])
    model = ScatterModel(2, RankOne(GaussianMix((0.4,), (0.0,), (1.0,)),
                                    Schedule("constant", 1.0), u), 0.2)
    fourier = np.fft.fft(np.eye(grid.n), axis=0)
    momentum = np.linalg.solve(fourier, grid.momenta[:, None] * fourier)
    phi = np.kron(u, model.coupling.form(grid.points))
    ham = np.kron(np.eye(2), momentum) + grid.dx * np.outer(phi, phi)
    energies, vecs = np.linalg.eigh(0.5 * (ham + np.conj(ham.T)))
    state = coherent_state(CoherentLabel(3.0, 1.0, 0.7), grid, channel=0,
                           n_channels=2)
    for duration in (60.0, -60.0):
        _, tau = grid.snap(duration)
        exact = vecs @ (np.exp(-1j * energies * tau)
                        * (np.conj(vecs.T) @ state.amplitudes.ravel()))
        out = propagate(model, state, 0.0, tau).amplitudes.ravel()
        assert np.linalg.norm(out - exact) < 1e-6 * np.linalg.norm(exact)


# ---------------------------------------------------------------------------
# Model plumbing and guards
# ---------------------------------------------------------------------------

def test_frozen_model_has_constant_schedule():
    model = soluble_twin(0.2, Schedule("tanh", 0.7, 0.2, 1.1, 0.1))
    fmodel = frozen(model, 0.4)
    assert fmodel.schedule.is_constant
    assert fmodel.schedule.value(99.0) == pytest.approx(
        model.schedule.value(0.4), abs=1e-15)
    assert fmodel.omega == model.omega


def test_coupling_validation_errors():
    with pytest.raises(ValueError):
        MatrixPotential((np.array([[0.0, 1.0], [0.0, 0.0]]),), (MIX,), BUMP)
    with pytest.raises(ValueError):
        MatrixPotential((SX, np.array([[1.0]])), (MIX, MIX), BUMP)
    with pytest.raises(ValueError):
        MatrixPotential((), (), BUMP)
    with pytest.raises(ValueError):
        RankOne(MIX, BUMP, np.zeros(2))
    with pytest.raises(ValueError, match="must be square"):
        MatrixPotential((np.ones((2, 3)),), (MIX,), BUMP)
    with pytest.raises(ValueError, match="GaussianMix"):
        MatrixPotential((SX,), (lambda y: np.exp(-y * y),), BUMP)
    with pytest.raises(ValueError, match="nonempty"):
        RankOne(MIX, BUMP, ())
    with pytest.raises(ValueError):
        ScatterModel(2, MatrixPotential((np.array([[1.0]]),), (MIX,), BUMP),
                     0.1)
    with pytest.raises(ValueError):
        soluble_twin(0.2) and ScatterModel(
            1, MatrixPotential((np.array([[1.0]]),), (MIX,), BUMP), -0.1)
    with pytest.raises(ValueError, match="omega must be positive"):
        soluble_twin(math.nan)
    with pytest.raises(ValueError, match="form factor must be nonzero"):
        RankOne(GaussianMix((0.0,), (0.0,), (1.0,)), BUMP, (0.8, 0.6))


def test_clearance_T_rejects_cramped_grid():
    grid = Grid(-10.0, 10.0, 256)
    model = soluble_twin(0.2)
    state = coherent_state(CoherentLabel(0.0, 0.5, 0.5), grid)
    with pytest.raises(ValueError):
        clearance_T(model, state)


def test_wave_operator_flags_unclear_asymptote():
    grid = Grid(-40.0, 40.0, 1024)
    model = soluble_twin(0.2)
    state = coherent_state(CoherentLabel(0.0, 0.5, 0.5), grid)
    with pytest.raises(NumericalContractError):
        wave_operator(model, 0.0, -1, state, T=2.0)
    with pytest.raises(ValueError):
        wave_operator(model, 0.0, 0, state)


def test_dynamical_S_rejects_driven_reference():
    grid = Grid(-64.0, 64.0, 1024)
    model = soluble_twin(0.1)
    state = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    with pytest.raises(ValueError):
        dynamical_S(model, 0.4, state, reference=model)


def test_dynamical_S_rejects_reference_of_another_channel_count():
    grid = Grid(-64.0, 64.0, 1024)
    model = soluble_twin(0.1)
    state = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    reference = frozen(ScatterModel(2, MatrixPotential((SX,), (MIX,), BUMP),
                                    0.1), 0.4)
    with pytest.raises(ValueError, match="reference channel count"):
        dynamical_S(model, 0.4, state, reference=reference)


def test_one_nan_amplitude_violates_the_contracts():
    # NaN fails every "> tol" comparison, so each check reads "not <= tol"
    grid = Grid(-40.0, 40.0, 1024)
    state = coherent_state(CoherentLabel(0.0, 0.5, 0.5), grid)
    state.amplitudes[0, 300] = np.nan
    rankone = ScatterModel(1, RankOne(MIX, BUMP, (1.0,)), 0.2)
    for model in (soluble_twin(0.2), rankone):
        with pytest.raises(NumericalContractError, match="norm drift"):
            propagate(model, state, 0.0, 1.0)
    with pytest.raises(NumericalContractError, match="not cleared"):
        network._check_cleared(state, 1.0, "left", "probe")
    with pytest.raises(NumericalContractError, match="wrap hazard"):
        free_shift(state, 0.0)


def test_clearance_T_refuses_a_zero_state():
    zero = StateVector(Grid(-40.0, 40.0, 512), np.zeros(512))
    with pytest.raises(ValueError, match="zero or non-finite state"):
        clearance_T(soluble_twin(0.2), zero)


def test_propagate_refuses_norm_drift():
    # a strong narrow rank-one form on a coarse grid: the Volterra steps
    # lose 4.4e-4 of the norm, beyond NORM_TOL
    model = ScatterModel(1, RankOne(GaussianMix((3.0,), (0.0,), (0.3,)),
                                    BUMP, (1.0,)), 0.2)
    state = coherent_state(CoherentLabel(5.0, 1.0, 0.7),
                           Grid(-20.0, 20.0, 128))
    with pytest.raises(NumericalContractError,
                       match="propagation norm drift"):
        propagate(model, state, -5.0, 15.0)


# ---------------------------------------------------------------------------
# Wave operators and scattering
# ---------------------------------------------------------------------------

def test_wave_operator_isometry_and_pairing():
    grid = Grid(-64.0, 64.0, 2048)
    model = soluble_twin(0.1)
    ket = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    bra = coherent_state(CoherentLabel(3.0, 0.6, 0.6), grid)
    T = clearance_T(model, ket)
    for sign in (-1, +1):
        om = wave_operator(model, 0.4, sign, ket, T=T)
        assert abs(om.norm() - ket.norm()) < 1e-10
    plus = wave_operator(model, 0.4, +1, bra, T=T)
    minus = wave_operator(model, 0.4, -1, ket, T=T)
    via_s = braket(bra, dynamical_S(model, 0.4, ket, T=T))
    assert abs(braket(plus, minus) - via_s) < 1e-11


def test_frozen_incoming_wave_operator_is_gauge_multiplication():
    # frozen single channel: Omega_- = exp(-i f(s) A(x)), A the cumulative
    # integral of the potential; midpoint transport converges at 2nd order
    model = soluble_twin(0.1)
    s = 0.4
    fmodel = frozen(model, s)
    lam = float(model.schedule.value(s))
    a, c, w = MIX.amps[0], MIX.centers[0], MIX.widths[0]
    errs = []
    for n in (1536, 6144):
        grid = Grid(-48.0, 48.0, n)
        state = coherent_state(CoherentLabel(0.0, 0.8, 0.5), grid)
        cumulative = a * w * math.sqrt(math.pi) / 2.0 \
            * (1.0 + erf((grid.points - c) / w))
        expected = np.exp(-1j * lam * cumulative) * state.amplitudes
        om = wave_operator(fmodel, s, -1, state)
        errs.append(np.max(np.abs(om.amplitudes - expected)))
    assert errs[0] < 1e-3
    assert errs[1] < errs[0] / 8.0


def test_base_point_moves_by_free_conjugation():
    grid = Grid(-64.0, 64.0, 2048)
    model = soluble_twin(0.1)
    s = 0.4
    t_c = s / model.omega
    state = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    T = clearance_T(model, state)
    direct = dynamical_S(model, s, state, T=T)
    inner = dynamical_S(model, 0.0, free_shift(state, -t_c), T=T)
    routed = free_shift(inner, t_c)
    diff = StateVector(grid, direct.amplitudes - routed.amplitudes)
    assert diff.norm() / state.norm() < 1e-9


def test_reference_change_preserves_matrix_elements():
    grid = Grid(-64.0, 64.0, 2048)
    model = soluble_twin(0.1)
    s = 0.4
    fmodel = frozen(model, s)
    bra = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    ket = coherent_state(CoherentLabel(4.0, 0.6, 0.6), grid)
    _, T = grid.snap(max(clearance_T(model, bra), clearance_T(model, ket)))
    lhs = braket(bra, dynamical_S(model, s, ket, T=T))
    om_bra = wave_operator(fmodel, s, +1, bra, T=T)
    om_ket = wave_operator(fmodel, s, -1, ket, T=T)
    rhs = braket(om_bra, dynamical_S(model, s, om_ket, T=T, reference=fmodel))
    assert abs(lhs - rhs) < 1e-8


def test_dynamical_S_matches_soluble_profile():
    grid = Grid(-64.0, 64.0, 2048)
    model = soluble_twin(0.1)
    state = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    out = dynamical_S(model, 0.4, state)
    expected = dynamical_S_profile(model, 0.4, grid) * state.amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-9


def test_dynamical_S_matches_soluble_profile_of_scaled_entry():
    # the matrix entry c = -0.7 enters the closed form as c MIX
    grid = Grid(-64.0, 64.0, 2048)
    model = soluble_twin(0.1, entry=-0.7)
    state = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    out = dynamical_S(model, 0.4, state)
    expected = dynamical_S_profile(model, 0.4, grid) * state.amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-9


def _adjoint_case(coupling: str):
    """A model, a bra and a ket, and a window that clears both."""
    if coupling == "rank-one":
        # criterion-09's two-channel bump model and window
        grid = Grid(-40.0, 40.0, 512)
        model = ScatterModel(2, RankOne(GaussianMix((0.4,), (0.0,), (1.0,)),
                                        BUMP, (0.8, 0.6)), 0.2)
        ket = coherent_state(CoherentLabel(0.0, 1.0, 0.7), grid, channel=0,
                             n_channels=2)
        bra = coherent_state(CoherentLabel(0.5, 1.0, 0.6), grid, channel=1,
                             n_channels=2)
        return model, bra, ket, 24.0
    grid = Grid(-64.0, 64.0, 2048)
    if coupling == "soluble":
        model = soluble_twin(0.1)
        ket = coherent_state(CoherentLabel(3.0, 0.8, 0.6), grid)
        bra = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    else:
        second = GaussianMix((0.5,), (-0.4,), (0.8,))
        model = ScatterModel(2, MatrixPotential((SX, SZ), (MIX, second),
                                                BUMP), 0.1)
        label = CoherentLabel(3.0, 0.8, 0.6)
        ket = StateVector(grid, 0.8 * coherent_state(
            label, grid, channel=0, n_channels=2).amplitudes + 0.6
            * coherent_state(label, grid, channel=1, n_channels=2).amplitudes)
        bra = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid, channel=1,
                             n_channels=2)
    _, T = grid.snap(max(clearance_T(model, bra), clearance_T(model, ket)))
    return model, bra, ket, T


# the rank-one bar is criterion-09's unitarity bar: that transport is
# accurate to the Volterra discretization, not exactly unitary
ROUND_TRIP_TOL = {"soluble": 1e-10, "two-channel": 1e-10, "rank-one": 1e-8}


@pytest.mark.parametrize("coupling", ["soluble", "two-channel", "rank-one"])
def test_dynamical_S_adjoint_pairs_and_inverts(coupling):
    model, bra, ket, T = _adjoint_case(coupling)
    s = 0.4
    forward = dynamical_S(model, s, ket, T=T)
    lhs = braket(bra, forward)
    rhs = braket(dynamical_S_adjoint(model, s, bra, T=T), ket)
    assert abs(lhs) > 1e-3  # the pairing is not trivially zero
    assert abs(lhs - rhs) < 1e-10
    back = dynamical_S_adjoint(model, s, forward, T=T)
    assert StateVector(ket.grid, back.amplitudes - ket.amplitudes).norm() \
        < ROUND_TRIP_TOL[coupling]
    # the round trip is not trivially the identity
    assert StateVector(ket.grid, forward.amplitudes - ket.amplitudes).norm() \
        > 1e-2


@pytest.mark.parametrize("coupling", ["soluble", "two-channel", "rank-one"])
def test_dynamical_S_adjoint_flags_unclear_asymptote(coupling):
    model, _, ket, _ = _adjoint_case(coupling)
    with pytest.raises(NumericalContractError):
        dynamical_S_adjoint(model, 0.4, ket, T=1.0)


# ---------------------------------------------------------------------------
# On-shell amplitudes
# ---------------------------------------------------------------------------

def test_on_shell_unitarity_and_energy_dependence():
    noncom = MatrixPotential(
        (SX, SZ),
        (GaussianMix((0.7,), (-0.4,), (0.9,)),
         GaussianMix((0.5,), (0.5,), (1.1,))),
        Schedule("constant", 0.9, 0.0, 1.0))
    matrix_model = ScatterModel(2, noncom, 0.2)
    s_lo = on_shell_S(matrix_model, 0.0, 0.0)
    s_hi = on_shell_S(matrix_model, 0.0, 0.7)
    assert s_lo.unitarity_defect() < 1e-9
    # linear dispersion: matrix backend is energy flat
    assert np.allclose(s_lo.matrix, s_hi.matrix, atol=1e-12)

    rk = ScatterModel(2, RankOne(GaussianMix((0.9,), (0.0,), (1.2,)),
                                 Schedule("constant", 0.6, 0.0, 1.0),
                                 np.array([0.8, 0.6])), 0.2)
    r_lo = on_shell_S(rk, 0.0, 0.0)
    r_hi = on_shell_S(rk, 0.0, 0.8)
    assert r_lo.unitarity_defect() < 1e-9
    assert np.linalg.norm(r_lo.matrix - r_hi.matrix) > 1e-3


def test_on_shell_single_channel_matches_soluble_value():
    model = soluble_twin(0.2, Schedule("constant", 0.9, 0.0, 1.0))
    got = on_shell_S(model, 0.0).matrix[0, 0]
    assert abs(got - frozen_S_value(model, 0.0)) < 1e-10


def _ordered_on_shell(model, s):
    """The matrix on-shell S by the ordered product over [-(r+1), r+1]."""
    coupling = model.coupling
    f = float(coupling.schedule.value(s))
    radius = coupling.support_radius(1e-16) + 1.0
    return ordered_exponential(
        lambda u: -1j * coupling.value(np.array([u]), f)[0], -radius, radius)


JZ3 = np.diag([1.0, 0.0, -1.0])
TWO_BUMPS = (GaussianMix.single(1.0, -0.4, 0.9), GaussianMix.single(1.0, 0.5, 1.1))


@pytest.mark.parametrize("s", [-0.6, 0.5, 1.3])
@pytest.mark.parametrize("matrices,profiles", [
    ((np.array([[1.0]]),), (MIX,)),
    ((SX,), (MIX,)),
    ((0.7 * SX, 0.5 * SZ), TWO_BUMPS),
    ((0.7 * JX3, 0.5 * JZ3), TWO_BUMPS),
], ids=["one-channel", "two-channel", "two-channel-noncommuting",
        "three-channel-noncommuting"])
def test_on_shell_matches_ordered_exponential(matrices, profiles, s):
    # the characteristic kernels against the ordered product they replace:
    # the same midpoints, multiplied in another order
    nc = matrices[0].shape[0]
    model = ScatterModel(nc, MatrixPotential(matrices, profiles, BUMP), 0.2)
    got = on_shell_S(model, s).matrix
    assert got.shape == (nc, nc)
    assert np.max(np.abs(got - _ordered_on_shell(model, s))) < 1e-12


def _noncommuting_model():
    profiles = (GaussianMix.single(1.0, -0.7, 1.0),
                GaussianMix.single(1.0, 0.9, 0.8))
    return ScatterModel(2, MatrixPotential((0.8 * SZ, 0.6 * SX), profiles,
                                           BUMP), 0.1)


def test_noncommuting_on_shell_error_is_second_order():
    # test_on_shell_matches_ordered_exponential compares two routes on the
    # same midpoints, so it cannot see the step error, which for
    # non-commuting terms is second order.  Here the reference is a
    # 2^17-step midpoint product (it moves by 1.3e-10 at 2^18).  Measured when this test was written: on_shell_S is 7.6e-5
    # off, and the (1, 0) element of frozen_S_apply 3.0e-4, 7.4e-5 and
    # 1.8e-5 at n = 2048, 4096 and 8192.
    model = _noncommuting_model()
    coupling = model.coupling
    s = 0.7071
    radius = coupling.support_radius(1e-16) + 1.0
    steps = 2 ** 17
    dt = 2.0 * radius / steps
    midpoints = -radius + (np.arange(steps) + 0.5) * dt
    ref = _kernels.unitary_product(
        coupling.value(midpoints, float(coupling.schedule.value(s))), dt)
    assert np.max(np.abs(on_shell_S(model, s).matrix - ref)) < 1e-4
    label = CoherentLabel(0.0, 1.0, 0.5)
    errors = []
    for n in (2048, 4096, 8192):
        grid = Grid(-160.0, 160.0, n)
        ket = coherent_state(label, grid, channel=0, n_channels=2)
        bra = coherent_state(label, grid, channel=1, n_channels=2)
        element = braket(bra, frozen_S_apply(model, s, ket))
        errors.append(abs(element - ref[1, 0]))
    assert errors[1] < 1e-4
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_wigner_delay_structure():
    matrix_model = ScatterModel(
        2, MatrixPotential((SX,), (MIX,), Schedule("constant", 0.9, 0.0, 1.0)),
        0.2)
    flat = wigner_delay(matrix_model, 0.0, 0.0)
    assert np.linalg.norm(flat.matrix) < 1e-8
    assert flat.hermiticity_defect < 1e-10

    u = np.array([0.8, 0.6])
    rk = ScatterModel(2, RankOne(GaussianMix((0.9,), (0.0,), (1.2,)),
                                 Schedule("constant", 0.6, 0.0, 1.0), u), 0.2)
    delay = wigner_delay(rk, 0.0, 0.3)
    assert delay.hermiticity_defect < 1e-8
    assert np.allclose(delay.matrix, np.conj(delay.matrix.T))
    proj = np.outer(u, u)
    # rank-one channel: the delay lives entirely on the coupling projector
    scaled = delay.matrix[0, 0] / proj[0, 0] * proj
    assert np.allclose(delay.matrix, scaled, atol=1e-10)
    assert abs(delay.matrix[0, 0]) > 1e-3


@pytest.mark.parametrize("matrices", [(np.array([[1.0]]),), (SX, SZ)],
                         ids=["one-channel", "two-channel"])
def test_matrix_wigner_delay_matches_finite_difference(matrices):
    # the shortcut against the route it replaces: differences of the
    # on-shell matrix in energy, taken here outside wigner_delay
    nc = matrices[0].shape[0]
    model = ScatterModel(
        nc, MatrixPotential(matrices, (MIX,) * len(matrices),
                            Schedule("tanh", 0.7, 0.2, 1.1, 0.1)), 0.2)
    s, e = 0.4, 0.8
    delay = wigner_delay(model, s, e)
    assert delay.matrix.shape == (nc, nc)
    assert np.all(delay.matrix == 0.0)
    assert delay.hermiticity_defect == 0.0
    base = on_shell_S(model, s, e).matrix
    ds = central_derivative(lambda en: on_shell_S(model, s, en).matrix, e,
                            1e-3)
    assert np.array_equal(delay.matrix, -1j * ds @ np.conj(base.T))


def test_frozen_energy_shift_onshell_closed_form():
    sched = Schedule("tanh", 0.7, 0.2, 1.1, 0.1)
    model = soluble_twin(0.2, sched)
    shift = frozen_energy_shift_onshell(model, 0.3)
    expected = float(sched.derivative(0.3)) * MIX.weight
    assert shift.hermiticity_defect < 1e-12
    assert shift.matrix[0, 0] == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# Rank-one resolvent dual route
# ---------------------------------------------------------------------------

def test_rankone_resolvent_against_faddeeva_closed_form():
    form = GaussianMix((0.9,), (0.0,), (1.2,))
    energies = np.linspace(-3.0, 3.0, 13)
    quad_route = rankone_resolvent(form, energies)
    exact_route = rankone_resolvent_exact(form, energies)
    assert np.max(np.abs(quad_route - exact_route)) < 1e-8
    expected_im = -math.pi * np.abs(form.fourier(energies)) ** 2
    assert np.allclose(quad_route.imag, expected_im, atol=1e-13)
    assert isinstance(rankone_resolvent(form, 0.5), complex)
    with pytest.raises(ValueError):
        rankone_resolvent_exact(GaussianMix((0.9,), (0.3,), (1.2,)), 0.0)


@pytest.mark.parametrize("route", [rankone_resolvent, rankone_resolvent_exact],
                         ids=["quadrature", "closed-form"])
def test_rankone_resolvent_routes_follow_the_input_shape(route):
    # a one-element array gave the quadrature route a Python complex
    form = GaussianMix((0.9,), (0.0,), (1.2,))
    one = route(form, np.array([0.5]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    scalar = route(form, 0.5)
    assert type(scalar) is complex and scalar == one[0]


def one_shot_resolvent(form, energies):
    """rankone_resolvent's quadrature in one pass over every energy, with
    each node array E x 800: the reference the blocked passes keep."""
    band = form.fourier_band(1e-18)
    half = np.abs(energies) + band + 4.0
    gl_x, gl_w = network.gauss_legendre(800)
    k = energies[:, None] + half[:, None] * gl_x[None, :]
    rho = np.abs(form.fourier(k)) ** 2
    rho_e = np.abs(form.fourier(energies)) ** 2
    integrand = (rho - rho_e[:, None]) / (energies[:, None] - k)
    real_part = np.sum(integrand * (half[:, None] * gl_w[None, :]), axis=1)
    return real_part - 1j * math.pi * rho_e


RESOLVENT_FORMS = {"one-term": GaussianMix((0.9,), (0.0,), (1.2,)),
                   "three-term": GaussianMix((0.4, 0.3), (-0.6, 1.1),
                                             (0.7, 1.2))}


@pytest.mark.parametrize("size", [1, network.RESOLVENT_BLOCK - 1,
                                  network.RESOLVENT_BLOCK,
                                  network.RESOLVENT_BLOCK + 1, 291])
@pytest.mark.parametrize("form", RESOLVENT_FORMS.values(),
                         ids=RESOLVENT_FORMS.keys())
def test_blocked_resolvent_is_the_one_shot_quadrature(form, size):
    # each energy's row takes the same elementwise steps and row sum in
    # its block as in one pass over all energies, so every bit agrees
    energies = np.random.default_rng(size).uniform(-4.0, 4.0, size)
    got = np.atleast_1d(rankone_resolvent(form, energies))
    assert np.array_equal(got, one_shot_resolvent(form, energies))


def test_resolvent_working_set_is_bounded():
    # one pass over 1000 energies held several 1000 x 800 node arrays at
    # once (a 70 MB peak on this form); a block holds 32 energies
    form = RESOLVENT_FORMS["three-term"]
    energies = np.linspace(-3.0, 3.0, 1000)
    rankone_resolvent(form, energies[:1])  # reads the stored rule
    tracemalloc.start()
    try:
        rankone_resolvent(form, energies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_rankone_resolvent_nodes_keep_off_the_pole(monkeypatch):
    # the integrand divides by E - k at k = E + half x_i, half >= 4: an
    # even node count keeps every x_i, and so every k, off E (no 0/0)
    counts = []
    original = network.gauss_legendre

    def recording(nodes):
        counts.append(nodes)
        return original(nodes)

    monkeypatch.setattr(network, "gauss_legendre", recording)
    g = rankone_resolvent(MIX, np.array([-1.0, 0.0, 0.5, 2.0]))
    assert np.all(np.isfinite(g))
    [nodes] = counts
    gap = float(np.min(np.abs(original(nodes)[0])))
    assert nodes % 2 == 0 and gap > 1e-3
    assert 4.0 * gap > 1e-9


def stored_rule_sizes() -> set[int]:
    with np.load(network.GAUSS_LEGENDRE_RULES) as rules:
        return {int(key[1:]) for key in rules.files if key.startswith("x")}


@pytest.mark.parametrize("nodes", [800, 160])
def test_stored_gauss_legendre_rule_is_leggauss(nodes):
    # the stored bits are leggauss's where they were written; another
    # BLAS may move its eigensolve by an ulp or two
    assert nodes in stored_rule_sizes()
    x, w = network.gauss_legendre(nodes)
    for got, ref in zip((x, w), leggauss(nodes)):
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(np.abs(ref)))
        assert not got.flags.writeable
    assert np.array_equal(x, -x[::-1])
    assert abs(w.sum() - 2.0) <= 8.0 * np.spacing(2.0)


def test_gauss_legendre_refuses_an_unstored_size():
    # no eigensolve stands behind the stored rules
    with pytest.raises(KeyError):
        network.gauss_legendre.__wrapped__(12)


def test_every_literal_rule_size_in_the_package_is_stored():
    # a new size in the package would bring back the per-process eigensolve
    package = Path(network.__file__).parent
    sizes = {int(size) for path in package.rglob("*.py") for size in
             re.findall(r"gauss_legendre\((\d+)\)", path.read_text())}
    assert sizes and sizes <= stored_rule_sizes()


def test_package_data_ships_the_stored_rules():
    # the rules are a package resource, and pyproject's package-data
    # covers them; the table is read as text (tomllib is 3.11+ and the
    # package supports 3.10)
    name = network.GAUSS_LEGENDRE_RULES.name
    assert importlib.resources.files("adiascat").joinpath(name).is_file()
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    table = re.search(r"^\[tool\.setuptools\.package-data\]$(.*?)(?=^\[|\Z)",
                      pyproject.read_text(), re.M | re.S).group(1)
    patterns = re.search(r"^adiascat\s*=\s*(\[.*?\])", table, re.M | re.S)
    assert any(fnmatch(name, pattern)
               for pattern in json.loads(patterns.group(1)))


def test_rankone_resolvent_exact_matches_wofz():
    # the Faddeeva form with scipy's wofz, inline, as the reference
    energies = np.linspace(-30.0, 30.0, 6001)
    for form in (GaussianMix((0.9,), (0.0,), (1.2,)),
                 GaussianMix((-1.7,), (0.0,), (0.4,))):
        a, w = form.amps[0], form.widths[0]
        fad = wofz(energies * w / math.sqrt(2.0))
        ref = a * a * w * w / 2.0 * math.pi * (fad.imag - 1j * fad.real)
        got = rankone_resolvent_exact(form, energies)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0))
    assert isinstance(rankone_resolvent_exact(form, 0.5), complex)


def test_rankone_frozen_scattering_diagonal_in_momentum():
    # the Volterra transport against the resolvent amplitude, mode by mode;
    # the scattered wave trails the free front, so the window is generous
    grid = Grid(-40.0, 40.0, 512)
    coupling = RankOne(GaussianMix((0.9,), (0.0,), (1.2,)),
                       Schedule("constant", 0.4, 0.0, 1.0), np.array([1.0]))
    model = ScatterModel(1, coupling, 0.2)
    state = coherent_state(CoherentLabel(0.0, 0.4, 0.7), grid)
    out = dynamical_S(model, 0.0, state, T=24.0)
    psi_hat = np.fft.fft(state.amplitudes[0])
    out_hat = np.fft.fft(out.amplitudes[0])
    sel = np.abs(psi_hat) > 1e-5 * np.abs(psi_hat).max()
    predicted = rankone_scalar_amplitude(coupling, 0.0, grid.momenta[sel])
    assert np.max(np.abs(out_hat[sel] / psi_hat[sel] - predicted)) < 1e-5


# ---------------------------------------------------------------------------
# Equation-of-motion residuals
# ---------------------------------------------------------------------------

def test_intertwine_residual_second_order_in_grid():
    model = soluble_twin(0.1)
    resids = []
    for n in (1536, 3072):
        grid = Grid(-96.0, 96.0, n)
        state = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
        resids.append(intertwine_residual(model, 0.4, state))
    ratio = resids[0] / resids[1]
    assert resids[1] < 3e-5
    assert 3.0 < ratio < 5.0


def test_omega_dot_residual_small():
    grid = Grid(-48.0, 48.0, 3072)
    model = soluble_twin(0.1)
    state = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    assert omega_dot_residual(model, 0.4, state) < 1e-5
