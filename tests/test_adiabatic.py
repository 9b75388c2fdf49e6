"""First-order diagnostics against closed forms and quadrature oracles.

The soluble single-channel family gives every operator here an exact
profile: the energy shift is the slow-time derivative of the swept
gauge phase, and the response coefficient tau a moment formula.  Tests
pin the grid realizations to those forms and to plain trapezoid or
Gauss-Legendre re-derivations.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from adiascat import adiabatic, cli, experiments
from adiascat.adiabatic import (ErrorReport, adiabatic_tau,
                                combined_report, energy_shift_operator,
                                onshell_vs_frozen, outgoing_state_check,
                                remainder_exact, rho_fermi, rho_gaussian,
                                rho_polynomial, smeared_frozen_element,
                                thawed_energy_shift_report)
from adiascat import network
from adiascat.coherent import (CoherentLabel, StateVector, braket,
                               coherent_state)
from adiascat.network import (MatrixPotential, RankOne, ScatterModel,
                              clearance_T, coupling_map, frozen, on_shell_S,
                              rankone_scalar_amplitude, wave_operator)
from adiascat.numerics import (Grid, NumericalContractError,
                               central_derivative)
from adiascat.profiles import GaussianMix, Schedule
from adiascat.soluble import (dynamical_S_profile,
                              dynamical_energy_shift_profile,
                              soluble_potential, tau_first_order)

MIX = GaussianMix((0.8,), (0.35,), (1.0,))
BUMP = Schedule("bump", 1.0, 0.0, 1.0)


def soluble_model(omega: float) -> ScatterModel:
    return ScatterModel(1, MatrixPotential(([[1.0]],), (MIX,), BUMP), omega)


def rankone_model(lam: float = 0.6) -> ScatterModel:
    coupling = RankOne(GaussianMix((0.9,), (0.0,), (1.2,)),
                       Schedule("constant", lam, 0.0, 1.0),
                       np.array([0.8, 0.6]))
    return ScatterModel(2, coupling, 0.2)


def test_error_report_abs_error():
    report = ErrorReport(1.0 + 1.0j, 1.0)
    assert report.abs_error == pytest.approx(1.0)


def test_adiabatic_tau_matches_moment_formula():
    model = soluble_model(0.1)
    grid = Grid(-64.0, 64.0, 2048)
    via_elements = adiabatic_tau(model, 0.4, 1.0, 0.7, grid=grid)
    closed = tau_first_order(model, 0.4)
    assert abs(via_elements - closed) < 1e-10
    assert abs(closed) > 0.05


def two_channel_model() -> ScatterModel:
    """0.8 sz G(-0.7, 1) + 0.6 sx G(0.9, 0.8): non-commuting terms."""
    sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    return ScatterModel(2, MatrixPotential(
        (0.8 * sz, 0.6 * sx),
        (GaussianMix.single(1.0, -0.7, 1.0),
         GaussianMix.single(1.0, 0.9, 0.8)),
        BUMP), 0.1)


def tau_per_label(model, s, e, eps, j, jp, grid):
    """tau by sending each of 61 labels over |t'| <= 10 / eps through both
    wave operators of the frozen model, each with its own clearance
    window.  On the two-channel model the walk over |t'| <= 8 / eps
    misses 2.2e-12 of the label integral; this one agrees with its
    exact form to 7e-15."""
    fmodel = frozen(model, s)
    drive = coupling_map(model, grid, float(model.schedule.derivative(s)))
    times = np.linspace(-10.0 / eps, 10.0 / eps, 61)
    values = []
    for tp in times:
        label = CoherentLabel(tp, e, eps)
        ket = coherent_state(label, grid, jp, model.n_channels)
        bra = coherent_state(label, grid, j, model.n_channels)
        T = clearance_T(fmodel, ket)
        w_minus = wave_operator(fmodel, s, -1, ket, T=T)
        w_plus = wave_operator(fmodel, s, +1, bra, T=T)
        values.append(braket(w_plus, StateVector(
            grid, drive(w_minus.amplitudes))))
    return -np.trapezoid(times * np.array(values), times)


@pytest.mark.parametrize("j, jp", [(0, 0), (0, 1)])
def test_matrix_tau_matches_per_label_wave_operators(j, jp):
    model = two_channel_model()
    grid = Grid(-48.0, 48.0, 1024)
    got = adiabatic_tau(model, 0.5, 1.0, 1.0, j, jp, grid=grid)
    want = tau_per_label(model, 0.5, 1.0, 1.0, j, jp, grid)
    assert abs(want) > 0.1
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("j, jp", [(0, 0), (0, 1)])
def test_matrix_tau_reads_neither_e_nor_eps(j, jp):
    # the label density integrates to -x exactly, whatever the labels'
    # energy and width
    model = two_channel_model()
    grid = Grid(-48.0, 48.0, 1024)
    want = adiabatic_tau(model, 0.5, 1.0, 1.0, j, jp, grid=grid)
    for e in (-1.0, 1.0):
        for eps in (0.3, 0.5, 1.0):
            assert adiabatic_tau(model, 0.5, e, eps, j, jp, grid=grid) == want


def test_matrix_tau_needs_a_grid_that_holds_the_interaction():
    # the two-channel coupling reaches |x| = 6.8 at 1e-16
    with pytest.raises(ValueError, match="does not hold the interaction"):
        adiabatic_tau(two_channel_model(), 0.5, 1.0, 1.0,
                      grid=Grid(-4.0, 4.0, 256))


def test_matrix_tau_bounds_the_field_norm_drift(monkeypatch):
    # a field whose columns drift by 2e-6 would let a label's norm drift
    # past NORM_TOL, so the field itself is rejected
    transport = network._matrix_transport
    monkeypatch.setattr(network, "_matrix_transport",
                        lambda *args: (1.0 + 2e-6) * transport(*args))
    with pytest.raises(NumericalContractError, match="norm drift"):
        adiabatic_tau(two_channel_model(), 0.5, 1.0, 1.0,
                      grid=Grid(-48.0, 48.0, 1024))


def test_rankone_tau_factorises_over_channels(monkeypatch):
    # tau_jj' = u_j conj(u_j') tau of the one-channel model of the same
    # asymmetric form; every label shares one band, whose delayed tail
    # takes a single resolvent
    form = GaussianMix((0.5, 0.3), (-0.6, 1.1), (1.0, 1.2))
    grid = Grid(-80.0, 80.0, 1024)
    resolvent = network.rankone_resolvent
    calls = []
    monkeypatch.setattr(network, "rankone_resolvent",
                        lambda *args: calls.append(args) or resolvent(*args))
    network._band_delay.cache_clear()
    scalar = adiabatic_tau(ScatterModel(1, RankOne(form, BUMP, (1.0,)), 0.1),
                           0.5, 1.0, 1.0, grid=grid)
    assert len(calls) == 1
    assert abs(scalar) > 0.1
    model = ScatterModel(2, RankOne(form, BUMP, (0.8, 0.6)), 0.1)
    u = model.coupling.vector
    for j, jp in ((0, 0), (0, 1)):
        got = adiabatic_tau(model, 0.5, 1.0, 1.0, j, jp, grid=grid)
        want = u[j] * np.conj(u[jp]) * scalar
        assert abs(got - want) <= 1e-13 * abs(scalar)


def test_remainder_default_window_clears_rankone_delayed_tail():
    # the rank-one coupling delays the scattered wave (Wigner delay 2.8
    # at s, e); without room for its tail the frozen leg leaves 1.25e-4
    # of the weight in the interaction region on Grid(-96, 96, 2048)
    model = ScatterModel(2, RankOne(
        GaussianMix((0.8, 0.6), (-0.6, 1.1), (0.7, 1.2)), BUMP, (0.8, 0.6)),
        0.1)
    s, e, eps = 0.7071, 1.0, 0.5
    cramped = Grid(-96.0, 96.0, 2048)
    with pytest.raises(ValueError, match="cannot clear"):
        remainder_exact(model, s, e, eps, grid=cramped)
    # T = 80 clears the tail on this lattice
    grid = Grid(-400.0, 400.0, 8192)
    got = remainder_exact(model, s, e, eps, grid=grid)
    want = remainder_exact(model, s, e, eps, grid=grid, T=80.0)
    assert abs(want) > 1e-2
    assert abs(got - want) < 1e-12


def test_remainder_is_first_order_with_second_order_tail():
    s = 1.0 / math.sqrt(2.0)
    grid = Grid(-64.0, 64.0, 2048)
    curvatures = []
    for omega in (0.2, 0.1):
        model = soluble_model(omega)
        rem = remainder_exact(model, s, 1.0, 0.5, grid=grid)
        tau = tau_first_order(model, s)
        curvatures.append((rem + 1j * omega * tau) / omega ** 2)
    assert abs(curvatures[0]) > 0.1
    assert abs(curvatures[0] - curvatures[1]) < 0.3 * abs(curvatures[1])


def test_smeared_frozen_element_rankone_trapezoid_oracle():
    model = rankone_model()
    s, e, eps, j, jp = 0.0, 0.5, 0.3, 0, 1
    got = smeared_frozen_element(model, s, e, eps, j, jp)
    energies = np.linspace(e - 10.0 * eps, e + 10.0 * eps, 4001)
    amps = rankone_scalar_amplitude(model.coupling, s, energies)
    u = model.coupling.vector
    values = (amps - 1.0) * np.outer(u, np.conj(u))[j, jp]
    weight = np.exp(-((energies - e) / eps) ** 2) / (math.sqrt(math.pi) * eps)
    expected = np.trapezoid(values * weight, energies)
    assert abs(got - expected) < 1e-9


def test_smeared_frozen_element_matrix_backend_is_on_shell():
    model = soluble_model(0.1)
    fmodel = frozen(model, 0.4)
    got = smeared_frozen_element(fmodel, 0.4, 1.0, 0.5)
    assert got == complex(on_shell_S(fmodel, 0.4, 1.0).matrix[0, 0])


def test_onshell_vs_frozen_scales_quadratically_in_eps():
    model = rankone_model()
    reports = onshell_vs_frozen(model, 0.0, 0.5, (0.4, 0.2), 0, 1)
    for report in reports:
        assert report.abs_error <= report.predicted_bound
    ratio = reports[0].abs_error / reports[1].abs_error
    assert 3.0 < ratio < 5.5


def per_eps_report(model, s, e, eps, j, jp):
    """onshell_vs_frozen's report at one eps, every datum computed afresh:
    the smeared value, the on-shell value, and eps^2 (|tau_w|^2 +
    |dtau_w/dE|) with dtau_w/dE by central difference at step 1e-2."""
    exact = smeared_frozen_element(model, s, e, eps, j, jp)
    approx = complex(on_shell_S(model, s, e).matrix[j, jp])
    tw = network.wigner_delay(model, s, e).matrix
    dtw = central_derivative(
        lambda en: network.wigner_delay(model, s, en).matrix, e, 1e-2)
    bound = eps ** 2 * (np.linalg.norm(tw, 2) ** 2 + np.linalg.norm(dtw, 2))
    return exact, approx, float(bound)


def test_onshell_vs_frozen_computes_the_on_shell_data_once(monkeypatch):
    # the on-shell value (1 on_shell_S) and the delay spread (a Wigner
    # delay and four more for its derivative, each 5 on_shell_S) do not
    # depend on eps: 26 calls for the whole sweep, not 26 per eps
    model, epsilons = rankone_model(), (0.4, 0.2, 0.1)
    want = [per_eps_report(model, 0.0, 0.5, eps, 0, 1) for eps in epsilons]
    calls = []
    on_shell = network.on_shell_S

    def counting(*args):
        calls.append(args)
        return on_shell(*args)

    monkeypatch.setattr(network, "on_shell_S", counting)
    monkeypatch.setattr(adiabatic, "on_shell_S", counting)
    reports = onshell_vs_frozen(model, 0.0, 0.5, epsilons, 0, 1)
    assert len(calls) == 26
    assert [(r.value_exact, r.value_approx, r.predicted_bound)
            for r in reports] == want


def test_energy_shift_operator_matches_profile():
    model = soluble_model(0.1)
    grid = Grid(-64.0, 64.0, 2048)
    s = 0.4
    state = coherent_state(CoherentLabel(4.0, 1.0, 0.5), grid)
    out = energy_shift_operator(model, s)(state)
    expected = dynamical_energy_shift_profile(model, s, grid) \
        * state.amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-7


def test_combined_report_error_within_bound():
    model = soluble_model(0.1)
    grid = Grid(-64.0, 64.0, 2048)
    s = 1.0 / math.sqrt(2.0)
    report = combined_report(model, s, 1.0, 0.5, tau_first_order(model, s),
                             grid=grid)
    assert report.abs_error > 0.0
    assert report.abs_error <= 3.0 * report.predicted_bound


def test_thawed_energy_shift_report_improves_with_joint_scaling():
    # eps = sqrt(omega): the slow label sits at s/omega and the state
    # widens like 1/eps, so the box is the expensive part of this test
    grid = Grid(-128.0, 128.0, 2560)
    errors = []
    for omega in (0.16, 0.04):
        model = soluble_model(omega)
        report = thawed_energy_shift_report(model, 0.5, 1.0,
                                            math.sqrt(omega), grid=grid)
        errors.append(report.abs_error)
    assert errors[0] < 0.5
    assert errors[1] < 0.5 * errors[0]


def test_outgoing_state_check_densities():
    model = soluble_model(0.1)
    grid = Grid(-40.0, 40.0, 512)
    banded = outgoing_state_check(model, 0.4,
                                  rho_fermi(mu=0.5, width=0.2, floor=-12.0),
                                  grid)
    assert banded < 1e-5
    smooth = outgoing_state_check(model, 0.4,
                                  rho_gaussian(center=0.0, width=1.0), grid)
    assert smooth < 1e-5
    # a hard step at the band seam is an honest O(1) defect, and a plain
    # linear density wraps with a jump of the full bandwidth
    naked = outgoing_state_check(model, 0.4, rho_fermi(mu=0.5, width=0.2),
                                 grid)
    assert naked > 0.1
    wrapped = outgoing_state_check(model, 0.4, rho_polynomial((0.0, 1.0)),
                                   grid)
    assert wrapped > 1.0


def test_circulant_matches_dense_fourier_sandwich():
    grid = Grid(-3.7, 5.1, 64)
    fmat = np.exp(-1j * np.outer(grid.momenta, grid.points)) / math.sqrt(grid.n)
    rng = np.random.default_rng(11)
    for values in (grid.momenta, rng.normal(size=grid.n),
                   rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)):
        dense = np.conj(fmat.T) @ (values[:, None] * fmat)
        # the oracle's phases p x carry |p x| 2^-52 rounding each: on the
        # momenta (|p| <= 22.8) it is itself 1.06e-13 off the exact sum
        np.testing.assert_allclose(
            adiabatic._circulant(values), dense, rtol=0.0,
            atol=1e-13 * max(1.0, float(np.max(np.abs(values)))))


def outgoing_two_eigh(model, s, rho, grid):
    """Reference: rho(H_0) and rho(H_0 - omega E_d) each by a dense eigh."""
    fmat = np.exp(-1j * np.outer(grid.momenta, grid.points)) / math.sqrt(grid.n)
    h0 = np.conj(fmat.T) @ (grid.momenta[:, None] * fmat)
    h0 = 0.5 * (h0 + np.conj(h0.T))
    s_diag = dynamical_S_profile(model, s, grid)
    w, v = np.linalg.eigh(h0)
    lhs = (s_diag[:, None] * ((v * rho(w)) @ np.conj(v.T))) \
        * np.conj(s_diag)[None, :]
    shifted = h0 - model.omega * np.diag(
        dynamical_energy_shift_profile(model, s, grid))
    w2, v2 = np.linalg.eigh(0.5 * (shifted + np.conj(shifted.T)))
    rhs = (v2 * rho(w2)) @ np.conj(v2.T)
    return float(np.linalg.norm(lhs - rhs, 2))


def test_outgoing_state_check_matches_two_eigh_route():
    model = soluble_model(0.1)
    grid = Grid(-40.0, 40.0, 512)
    # the densities of run_outgoing_state
    densities = (rho_fermi(mu=0.5, width=0.2, floor=-12.0),
                 rho_gaussian(center=0.0, width=1.0),
                 rho_polynomial((0.0, 1.0)))
    for rho in densities:
        ref = outgoing_two_eigh(model, 0.5, rho, grid)
        got = outgoing_state_check(model, 0.5, rho, grid)
        assert abs(got - ref) <= 1e-12 * max(ref, 1.0)
    # a new s must not be served the cached spectrum of the last one
    rho = densities[0]
    at_half = outgoing_state_check(model, 0.5, rho, grid)
    ref = outgoing_two_eigh(model, -0.3, rho, grid)
    got = outgoing_state_check(model, -0.3, rho, grid)
    assert abs(got - ref) <= 1e-12 * max(ref, 1.0)
    assert abs(got - at_half) > 1e-3 * at_half
    for arr in adiabatic._shifted_spectrum(soluble_potential(model),
                                           model.schedule, model.omega,
                                           -0.3, grid):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def hermitian_cases():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
    full = 0.5 * (a + np.conj(a.T))
    # extremes +2.5 and -2.5: the largest |eigenvalue| is degenerate in
    # modulus with opposite signs
    q, _ = np.linalg.qr(a)
    values = np.concatenate(([2.5, -2.5], rng.uniform(-2.0, 2.0, 94)))
    paired = (q * values) @ np.conj(q.T)
    # rank one: the Krylov space is exhausted after a step or two
    u = rng.normal(size=96) + 1j * rng.normal(size=96)
    rank_one = 0.7 * np.outer(u, np.conj(u))
    return {"full": full, "paired": paired, "rank-one": rank_one,
            "zero": np.zeros((96, 96), dtype=complex),
            "n=1": np.array([[-1.75 + 0.0j]])}


@pytest.mark.parametrize("name", ["full", "paired", "rank-one", "zero", "n=1"])
def test_hermitian_norm_matches_eigvalsh(name):
    mat = hermitian_cases()[name]
    ref = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    with np.errstate(all="raise"):
        got = adiabatic._hermitian_norm(lambda x: mat @ x, mat.shape[0],
                                        float(np.linalg.norm(mat)))
    assert abs(got - ref) <= 1e-14 * ref


def test_hermitian_norm_of_rounding_noise():
    # A x - V (w V^* x) with A = V diag(w) V^* is zero but for rounding:
    # theta and beta are both noise, so only the scale of the terms
    # (|w| <= 1 on each side) can stop the iteration early
    rng = np.random.default_rng(5)
    n = 96
    v, _ = np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))
    w = rng.uniform(-1.0, 1.0, n)
    a = (v * w) @ np.conj(v.T)
    calls = []

    def apply(x):
        calls.append(x)
        return a @ x - v @ (w * (np.conj(v.T) @ x))

    assert adiabatic._hermitian_norm(apply, n, 2.0) <= 1e-13
    assert len(calls) <= 5
    # noise unrelated to its input never converges without a scale, so
    # the iteration runs to step n, where its basis spans C^n, and ends
    calls.clear()

    def noise(x):
        calls.append(x)
        return 1e-16 * (rng.normal(size=8) + 1j * rng.normal(size=8))

    assert adiabatic._hermitian_norm(noise, 8, 0.0) <= 1e-13
    assert len(calls) == 8


def test_outgoing_state_check_of_constant_density(monkeypatch):
    # S 1 S^* = 1 exactly, so the defect is rounding alone and the
    # iteration must stop at the scale of rho, not run to n = 512 steps
    model = soluble_model(0.1)
    calls = []
    norm = adiabatic._hermitian_norm

    def counted(apply, n, scale):
        return norm(lambda x: calls.append(x) or apply(x), n, scale)

    monkeypatch.setattr(adiabatic, "_hermitian_norm", counted)
    got = outgoing_state_check(model, 0.5, rho_polynomial((1.0,)),
                               Grid(-40.0, 40.0, 512))
    assert got <= 1e-13
    assert len(calls) <= 20


def test_outgoing_state_check_guards():
    model = soluble_model(0.1)
    with pytest.raises(ValueError):
        outgoing_state_check(model, 0.4, rho_gaussian(), Grid(-40.0, 40.0, 2048))
    # no soluble potential: a configuration problem, so a ValueError
    with pytest.raises(ValueError, match="one channel and one matrix term"):
        outgoing_state_check(rankone_model(), 0.4, rho_gaussian(),
                             Grid(-40.0, 40.0, 512))


def test_rho_fermi_is_exactly_zero_where_its_exponentials_overflow():
    # on a fine grid outgoing-state's band reaches |E - mu| and |E - floor|
    # past 709 widths, where exp overflows to inf and 1 / (1 + inf) = 0
    # exactly: no RuntimeWarning
    rho = experiments.OUTGOING_DENSITIES["fermi"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rho(np.array([-200.0, 200.0])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("coeffs", [(0.0, 1.0), (0.3, -1.2, 0.05, 0.7)])
def test_rho_polynomial_is_numpy_polynomial_polyval(coeffs):
    # np.polyval on the reversed coefficients takes polyval's Horner
    # steps, on the momenta of the shipped outgoing-state grid
    path = str(Path(__file__).resolve().parents[1] / "configs"
               / "outgoing-state.ini")
    setup, _ = cli._build_setup(
        cli._parse_ini(path), cli._parser().parse_args(["run", "--config",
                                                        path]))
    momenta = setup.grid.momenta
    assert np.array_equal(rho_polynomial(coeffs)(momenta),
                          polyval(momenta, np.asarray(coeffs)))


def test_outgoing_residuals_do_not_depend_on_the_lanczos_start(monkeypatch):
    # the iteration stops at a Ritz residual of 2^-52 max(top, scale), so
    # another start may move a residual by about that much and no more:
    # conjugating the map by random phases d starts the chirp at d q in
    # the map's own basis, on each density of the shipped config
    path = str(Path(__file__).resolve().parents[1] / "configs"
               / "outgoing-state.ini")
    setup, _ = cli._build_setup(
        cli._parse_ini(path), cli._parser().parse_args(["run", "--config",
                                                        path]))
    norm, maps = adiabatic._hermitian_norm, []

    def captured(apply, n, scale):
        maps.append((apply, n, scale))
        return norm(apply, n, scale)

    monkeypatch.setattr(adiabatic, "_hermitian_norm", captured)
    phases = np.exp(2j * math.pi * np.random.default_rng(0).uniform(
        size=setup.grid.n))
    for rho in experiments.OUTGOING_DENSITIES.values():
        got = outgoing_state_check(setup.model, setup.s, rho, setup.grid)
        apply, n, scale = maps[-1]
        moved = norm(lambda x: np.conj(phases) * apply(phases * x), n, scale)
        assert abs(moved - got) <= 2.0 * 2.0 ** -52 * max(got, scale)


def test_matrix_coupling_smearing_bound_is_exactly_zero():
    # a matrix coupling's on-shell S does not depend on E, so its Wigner
    # delay, and with it every predicted smearing bound, is exactly 0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = ScatterModel(2, MatrixPotential((sx,), (MIX,), BUMP), 0.2)
    for report in onshell_vs_frozen(model, 0.4, 1.0, (0.5, 0.1), 0, 1):
        assert report.predicted_bound == 0.0
        assert report.abs_error == 0.0
