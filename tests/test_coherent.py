"""Time-energy coherent states: closed forms against grid realizations."""

import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiascat import experiments
from adiascat.coherent import (LABEL_BLOCK, CoherentLabel, StateVector,
                               braket, coherent_state, free_shift,
                               identity_resolution_residual, label_box,
                               overlap, plane_wave_amplitude)
from adiascat.numerics import Grid, NumericalContractError

GRID = Grid(-48.0, 48.0, 1536)

labels = st.builds(
    CoherentLabel,
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=0.3, max_value=1.2),
)


@given(labels)
@settings(max_examples=60, deadline=None)
def test_norm_is_one(label):
    state = coherent_state(label, GRID)
    assert abs(state.norm() - 1.0) < 1e-10


@given(labels, labels)
@settings(max_examples=60, deadline=None)
def test_overlap_matches_grid_braket(a, b):
    b = CoherentLabel(b.t, b.e, a.eps)  # closed form wants equal widths
    measured = braket(coherent_state(a, GRID), coherent_state(b, GRID))
    assert abs(measured - overlap(a, b)) < 1e-12


def test_overlap_rejects_unequal_widths():
    with pytest.raises(ValueError):
        overlap(CoherentLabel(0.0, 0.0, 0.5), CoherentLabel(0.0, 0.0, 0.6))


@given(labels, st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_free_shift_covariance(label, duration):
    # |t, e> evolves to a phase times |t - duration, e>
    tau = GRID.snap(duration)[1]
    state = coherent_state(label, GRID)
    shifted = free_shift(state, tau)
    predicted = coherent_state(CoherentLabel(label.t - tau, label.e,
                                             label.eps), GRID)
    phase = np.exp(-0.5j * tau * label.e)
    dist = math.sqrt(GRID.dx) * np.linalg.norm(
        shifted.amplitudes - phase * predicted.amplitudes)
    assert dist < 1e-10


@pytest.mark.parametrize("tau", [0.37 * GRID.dx, 3.0 + 0.5 * GRID.dx])
def test_free_shift_rejects_off_lattice_duration(tau):
    # a shift is an index roll, so it needs a duration on the dx lattice
    state = coherent_state(CoherentLabel(0.5, 1.0, 0.6), GRID)
    with pytest.raises(ValueError, match=r"off the dx = 0\.0625 lattice"):
        free_shift(state, tau)


def test_free_shift_wrap_guard():
    # fits the window, but the shift parks it on the periodic seam
    state = coherent_state(CoherentLabel(40.0, 0.0, 0.8), GRID)
    with pytest.raises(NumericalContractError):
        free_shift(state, -7.0)


def test_plane_wave_amplitude_closed_form():
    label = CoherentLabel(1.3, 0.8, 0.5)
    state = coherent_state(label, GRID)
    energies = np.array([0.8, 1.1, 0.2])
    amps = plane_wave_amplitude(state, energies)
    expected = (np.exp(-0.5j * label.t * label.e)
                * np.exp(1j * label.t * energies)
                * (math.pi * label.eps ** 2) ** -0.25
                * np.exp(-(energies - label.e) ** 2 / (2 * label.eps ** 2)))
    np.testing.assert_allclose(amps[0], expected, atol=1e-12)


def test_label_box_of_coherent_state():
    # the measured spreads of a label are eps / sqrt(2) in energy and
    # 1 / (sqrt(2) eps) in time, so against its own width the box is
    # twelve of each wide on either side of (t, e)
    eps = 0.7
    state = coherent_state(CoherentLabel(0.5, 1.0, eps), GRID)
    (t_lo, t_hi), (e_lo, e_hi) = label_box(state, eps)
    pad_t, pad_e = 12.0 / (math.sqrt(2.0) * eps), 12.0 * eps / math.sqrt(2.0)
    assert (t_lo, t_hi) == pytest.approx((0.5 - pad_t, 0.5 + pad_t), rel=1e-6)
    assert (e_lo, e_hi) == pytest.approx((1.0 - pad_e, 1.0 + pad_e), rel=1e-6)


def test_identity_resolution_residual_small():
    state = coherent_state(CoherentLabel(0.4, 0.9, 0.6), GRID)
    assert identity_resolution_residual(state, 0.6) < 1e-6


def residual_per_energy(state, eps, t_span, e_span, nt=64, ne=64):
    """Reference: the label-plane reconstruction one energy at a time."""
    grid = state.grid
    p = grid.momenta
    dp = 2.0 * math.pi / (grid.n * grid.dx)
    ts = np.linspace(t_span[0], t_span[1], nt)
    es = np.linspace(e_span[0], e_span[1], ne)
    wt = np.full(nt, ts[1] - ts[0])
    wt[[0, -1]] *= 0.5
    we = np.full(ne, es[1] - es[0])
    we[[0, -1]] *= 0.5
    waves = np.exp(-1j * np.outer(ts, p))
    err = ref = 0.0
    for phat in state.momentum_amplitudes():
        rec = np.zeros_like(phat)
        for i in range(ne):
            g = (math.pi * eps ** 2) ** -0.25 * np.exp(
                -((p - es[i]) ** 2) / (2.0 * eps ** 2))
            coeff = waves @ (g * phat * dp)
            rec += (we[i] / (2.0 * math.pi)) * g * ((wt * coeff) @ np.conj(waves))
        err += float(np.sum(np.abs(rec - phat) ** 2) * dp)
        ref += float(np.sum(np.abs(phat) ** 2) * dp)
    return math.sqrt(err / ref)


def _residual_one_pass(state, eps, nt=64, ne=64):
    """Oracle: the label-plane residual with every energy on the whole
    band in one pass, the band as a mask in FFT order and each time row
    from its own cos and sin."""
    phat = state.momentum_amplitudes()
    t_span, e_span = label_box(state, eps)
    grid = state.grid
    p = grid.momenta
    dp = 2.0 * math.pi / (grid.n * grid.dx)
    ts = np.linspace(t_span[0], t_span[1], nt)
    es = np.linspace(e_span[0], e_span[1], ne)
    wt = np.full(nt, ts[1] - ts[0])
    wt[[0, -1]] *= 0.5
    we = np.full(ne, es[1] - es[0])
    we[[0, -1]] *= 0.5
    reach = math.sqrt(2.0 * math.log(1e17)) * eps
    band = (p >= e_span[0] - reach) & (p <= e_span[1] + reach)
    p_band = p[band]
    half = nt // 2
    t_c = 0.5 * (t_span[0] + t_span[1])
    rows = np.empty((nt, p_band.size))
    sin_rows = rows[half:2 * half]
    np.multiply.outer(ts[:half] - t_c, p_band, out=sin_rows)
    np.cos(sin_rows, out=rows[:half])
    np.sin(sin_rows, out=sin_rows)
    rows[2 * half:] = 1.0
    pair = 2.0 * wt[:half]
    weights = np.outer(np.concatenate((pair, pair, wt[half:nt - half])),
                       we / (2.0 * math.pi))
    g = (math.pi * eps ** 2) ** (-0.25) * np.exp(
        -((p_band[:, None] - es[None, :]) ** 2) / (2.0 * eps ** 2))
    centre = np.exp(-1j * t_c * p_band)
    total_err = 0.0
    total_ref = 0.0
    for ch in range(state.channels):
        psi = phat[ch, band] * centre
        b = g * (psi * dp)[:, None]
        amps = (rows @ b.view(np.float64)).view(np.complex128)
        amps *= weights
        terms = (rows.T @ amps.view(np.float64)).view(np.complex128)
        terms *= g
        total_err += float((np.sum(np.abs(terms.sum(axis=1) - psi) ** 2)
                            + np.sum(np.abs(phat[ch, ~band]) ** 2)) * dp)
        total_ref += float(np.sum(np.abs(phat[ch]) ** 2) * dp)
    return math.sqrt(total_err / total_ref)


def _one_and_two_channel_states(eps):
    one = coherent_state(CoherentLabel(0.4, 0.9, eps), GRID)

    def on_channel(label, channel):
        return coherent_state(label, GRID, channel, 2).amplitudes

    # two channels carrying two different labels with unequal weights, so
    # the label box is not symmetric between them
    two = StateVector(GRID, 0.8 * on_channel(CoherentLabel(0.4, 0.9, eps), 0)
                      + 0.6 * on_channel(CoherentLabel(-1.5, 1.6, eps), 1))
    assert abs(two.norm() - 1.0) < 1e-10
    return one, two


def test_identity_resolution_matches_per_energy_reference():
    eps = 0.6
    # the default lattice resolves to round-off; the coarse ones leave a
    # percent-level defect, and the smallest a defect of order one, so
    # agreement there pins the arithmetic, the odd lattices' middle time
    # and the weights of the mirrored time pairs
    for state in _one_and_two_channel_states(eps):
        box_t, box_e = label_box(state, eps)
        for nt, ne in ((64, 64), (16, 12), (17, 12), (5, 7), (6, 7)):
            got = identity_resolution_residual(state, eps, nt=nt, ne=ne)
            ref = residual_per_energy(state, eps, box_t, box_e, nt, ne)
            assert abs(got - ref) <= 1e-14


# the grid of configs/coherent-props.ini
PROPS_GRID = Grid(-64.0, 64.0, 2048)


@pytest.mark.parametrize("eps", [0.3, 0.6, 1.2])
def test_band_limit_counts_out_of_band_weight(eps):
    # a top-hat's momentum tails decay only like 1/p, so part of its
    # weight lies beyond the momenta the label Gaussians reach
    x = PROPS_GRID.points
    amps = np.where(np.abs(x - 1.0) <= 2.0, np.exp(1j * x), 0.0)
    state = StateVector(PROPS_GRID, amps)
    state = StateVector(PROPS_GRID, amps / state.norm())
    box_t, box_e = label_box(state, eps)
    reach = math.sqrt(2.0 * math.log(1e17)) * eps
    p = PROPS_GRID.momenta
    dens = np.abs(state.momentum_amplitudes()[0]) ** 2
    outside = (p < box_e[0] - reach) | (p > box_e[1] + reach)
    assert np.sum(dens[outside]) / np.sum(dens) > 1e-3
    got = identity_resolution_residual(state, eps)
    ref = residual_per_energy(state, eps, box_t, box_e)
    assert ref > 0.05 and abs(got - ref) <= 1e-14


@pytest.mark.parametrize("eps", [0.3, 1.2])
@pytest.mark.parametrize("e", [-2.5, 2.5])
def test_band_limit_at_extreme_labels(eps, e):
    # the narrowest band (eps = 0.3) and the one reaching furthest toward
    # the momentum edge (eps = 1.2, |e| = 2.5) of the coherent-props labels
    state = coherent_state(CoherentLabel(4.0 * np.sign(e), e, eps), PROPS_GRID)
    box_t, box_e = label_box(state, eps)
    for nt, ne in ((64, 64), (16, 12), (17, 12), (5, 7), (6, 7)):
        got = identity_resolution_residual(state, eps, nt=nt, ne=ne)
        ref = residual_per_energy(state, eps, box_t, box_e, nt, ne)
        assert abs(got - ref) <= 1e-14


def test_blocked_residual_matches_one_pass_on_coherent_props_draws():
    # the 100 labels of configs/coherent-props.ini at seed 0, eps from 0.3
    # to 1.2; the blocks drop only Gaussians below 1e-17 of their peak
    setup = types.SimpleNamespace(seed=0, grid=PROPS_GRID)
    for label, _, _, _ in experiments._coherent_draws(setup):
        state = coherent_state(label, PROPS_GRID)
        got = identity_resolution_residual(state, label.eps)
        assert abs(got - _residual_one_pass(state, label.eps)) <= 1e-15


@pytest.mark.parametrize("nt", [2, 5, 64])
@pytest.mark.parametrize("ne", [15, 16, 17, 33])
def test_blocked_residual_matches_one_pass_across_block_edges(ne, nt):
    # LABEL_BLOCK = 16: one short block, one full block, a full block and
    # a single energy, and three blocks; nt = 2 has one time pair and no
    # running product, nt = 5 a middle time
    assert LABEL_BLOCK == 16
    eps = 0.6
    for state in _one_and_two_channel_states(eps):
        got = identity_resolution_residual(state, eps, nt=nt, ne=ne)
        ref = _residual_one_pass(state, eps, nt, ne)
        assert abs(got - ref) <= 1e-15


@pytest.mark.parametrize("fill", [0.0, math.nan, math.inf],
                         ids=["zero", "nan", "inf"])
def test_label_box_and_residual_reject_a_state_without_a_norm(fill):
    # a zero state once gave a NaN box with RuntimeWarnings and a
    # ZeroDivisionError in the residual; NaN amplitudes a silent nan
    amps = np.zeros(GRID.n, dtype=np.complex128)
    amps[GRID.n // 2] = fill
    state = StateVector(GRID, amps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="state norm must be positive "
                                             "and finite"):
            label_box(state, 0.6)
        with pytest.raises(ValueError, match="state norm must be positive "
                                             "and finite"):
            identity_resolution_residual(state, 0.6)


@pytest.mark.parametrize("eps, nt, ne, message", [
    (-0.6, 64, 64, "eps must be positive"),
    (0.0, 64, 64, "eps must be positive"),
    (math.nan, 64, 64, "eps must be positive"),
    (0.6, 1, 64, "nt and ne must be at least 2"),
    (0.6, 64, 1, "nt and ne must be at least 2"),
    (0.6, 0, 0, "nt and ne must be at least 2"),
], ids=["eps<0", "eps=0", "eps=nan", "nt=1", "ne=1", "nt=ne=0"])
def test_identity_resolution_rejects_bad_width_and_lattice(eps, nt, ne,
                                                           message):
    # a negative width once gave a residual of 1.0, a zero width a
    # ZeroDivisionError and a one-point lattice an IndexError
    state = coherent_state(CoherentLabel(0.0, 0.0, 0.6), GRID)
    with pytest.raises(ValueError, match=message):
        identity_resolution_residual(state, eps, nt=nt, ne=ne)
    if nt >= 2 and ne >= 2:
        with pytest.raises(ValueError, match=message):
            label_box(state, eps)


@pytest.mark.parametrize("grid", [Grid(-64.0, 64.0, 2048),
                                  Grid(-160.0, 160.0, 4096)],
                         ids=["coherent-props", "combined"])
@pytest.mark.parametrize("eps", [0.3, 1.2])
@pytest.mark.parametrize("e", [-2.5, 2.5])
def test_coherent_state_skips_only_exact_zeros(grid, eps, e):
    # momenta where the Gaussian's exp underflows to 0.0 are left at 0
    # (all but the combined grid at eps = 1.2 have some); the state
    # equals the full-grid evaluation bit for bit
    label = CoherentLabel(1.3, e, eps)
    p = grid.momenta
    g = (math.pi * eps ** 2) ** (-0.25) * np.exp(
        -((p - e) ** 2) / (2.0 * eps ** 2))
    phat = np.exp(-0.5j * label.t * e) * np.exp(1j * label.t * p) * g
    want = np.zeros((2, grid.n), dtype=np.complex128)
    want[1] = grid.from_momentum(phat)
    got = coherent_state(label, grid, channel=1, n_channels=2).amplitudes
    assert got.tobytes() == want.tobytes()


def test_labels_states_and_brakets_refuse_mismatches():
    # a NaN width would give an all-zero state, a NaN time an all-NaN one
    for eps in (0.0, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            CoherentLabel(0.0, 0.0, eps)
    for t, e in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="t and e must be finite"):
            CoherentLabel(t, e, 0.5)
    with pytest.raises(ValueError, match=r"\(channels, grid.n\)"):
        StateVector(GRID, np.zeros(GRID.n - 1))
    state = coherent_state(CoherentLabel(0.0, 0.0, 0.5), GRID)
    with pytest.raises(ValueError, match="different grids"):
        braket(state, coherent_state(CoherentLabel(0.0, 0.0, 0.5),
                                     Grid(-48.0, 48.0, 1024)))
    with pytest.raises(ValueError, match="different channel counts"):
        braket(state, coherent_state(CoherentLabel(0.0, 0.0, 0.5), GRID,
                                     n_channels=2))


def test_coherent_state_representability_guards():
    with pytest.raises(ValueError):
        coherent_state(CoherentLabel(46.0, 0.0, 0.4), GRID)
    with pytest.raises(ValueError):
        # energy too close to the band edge
        coherent_state(CoherentLabel(0.0, 0.95 * GRID.p_max, 0.4), GRID)
    with pytest.raises(ValueError):
        coherent_state(CoherentLabel(0.0, 0.0, 0.5), GRID, channel=2,
                       n_channels=2)


def test_braket_conjugate_symmetry():
    a = coherent_state(CoherentLabel(0.3, 0.5, 0.5), GRID)
    b = coherent_state(CoherentLabel(-0.6, 1.1, 0.8), GRID)
    assert braket(a, b) == pytest.approx(np.conj(braket(b, a)))


def test_multichannel_states_are_orthogonal_across_channels():
    a = coherent_state(CoherentLabel(0.0, 1.0, 0.5), GRID, channel=0,
                       n_channels=2)
    b = coherent_state(CoherentLabel(0.0, 1.0, 0.5), GRID, channel=1,
                       n_channels=2)
    assert abs(braket(a, b)) < 1e-15
    assert abs(a.norm() - 1.0) < 1e-10


def test_state_vector_promotes_single_channel():
    amps = np.zeros(GRID.n, dtype=complex)
    state = StateVector(GRID, amps)
    assert state.amplitudes.shape == (1, GRID.n)
