"""Time-energy coherent states on chiral channels.

A label (t, e) with width eps describes a minimal wave packet whose
momentum amplitude is

    psi_hat(p) = exp(-i t e / 2) exp(i t p) g_eps(p - e),
    g_eps(p) = (pi eps^2)^{-1/4} exp(-p^2 / (2 eps^2)).

With unit rightward velocity the packet is centered at position -t, so
t is the arrival time at the origin and e the mean energy.  Inner
products conjugate the first argument, so scalar factors on the ket
pull out of brackets unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Grid, NumericalContractError

_TWO_PI = 2.0 * math.pi
WRAP_TOL = 1e-10


@dataclass
class StateVector:
    """Channel-resolved amplitudes on a periodic grid; rows are channels."""

    grid: Grid
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim == 1:
            amps = amps[None, :]
        if amps.ndim != 2 or amps.shape[1] != self.grid.n:
            raise ValueError("amplitudes must be (channels, grid.n)")
        self.amplitudes = amps

    @property
    def channels(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return math.sqrt(self.grid.dx * float(np.sum(np.abs(self.amplitudes) ** 2)))

    def copy(self) -> "StateVector":
        return StateVector(self.grid, self.amplitudes.copy())

    def momentum_amplitudes(self) -> np.ndarray:
        return self.grid.to_momentum(self.amplitudes)


def braket(bra: StateVector, ket: StateVector) -> complex:
    """Physics inner product on the grid; conjugates the bra."""
    if bra.grid != ket.grid:
        raise ValueError("states live on different grids")
    if bra.channels != ket.channels:
        raise ValueError("states have different channel counts")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes) * bra.grid.dx)


@dataclass(frozen=True)
class CoherentLabel:
    """Time-energy label with packet width eps."""

    t: float
    e: float
    eps: float

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")

    @property
    def position_center(self) -> float:
        return -self.t

    @property
    def position_spread(self) -> float:
        return 1.0 / (math.sqrt(2.0) * self.eps)

    @property
    def energy_spread(self) -> float:
        return self.eps / math.sqrt(2.0)


def _momentum_profile(label: CoherentLabel, p: np.ndarray) -> np.ndarray:
    g = (math.pi * label.eps ** 2) ** (-0.25) * np.exp(
        -((p - label.e) ** 2) / (2.0 * label.eps ** 2))
    return np.exp(-0.5j * label.t * label.e) * np.exp(1j * label.t * p) * g


def coherent_state(label: CoherentLabel, grid: Grid,
                   channel: int = 0, n_channels: int = 1) -> StateVector:
    """Grid realization of the labelled packet on one channel.

    Rejects labels whose packet would not fit the position window or the
    momentum band with six spreads to spare.
    """
    if not 0 <= channel < n_channels:
        raise ValueError("channel index out of range")
    require_fit(label, grid)
    # exp of a Gaussian exponent below -746 is exactly 0.0: skip those
    p = grid.momenta
    keep = np.flatnonzero((p - label.e) ** 2 < 1492.0 * label.eps ** 2)
    phat = np.zeros(grid.n, dtype=np.complex128)
    phat[keep] = _momentum_profile(label, p[keep])
    amps = np.zeros((n_channels, grid.n), dtype=np.complex128)
    amps[channel] = grid.from_momentum(phat)
    return StateVector(grid, amps)


def require_fit(label: CoherentLabel, grid: Grid) -> None:
    """A ValueError unless the labelled packet fits the position window
    and the momentum band with six spreads to spare."""
    x_c = label.position_center
    sx = 6.0 * label.position_spread
    if x_c - sx < grid.x_min or x_c + sx > grid.x_max:
        raise ValueError(
            f"packet at x={x_c:.3g} +- {sx:.3g} does not fit window "
            f"[{grid.x_min:.3g}, {grid.x_max:.3g}]")
    sp = 6.0 * label.energy_spread
    if abs(label.e) + sp > 0.9 * grid.p_max:
        raise ValueError(
            f"energy {label.e:.3g} +- {sp:.3g} too close to the momentum "
            f"band edge {grid.p_max:.3g}")


def overlap(a: CoherentLabel, b: CoherentLabel) -> complex:
    """Closed-form inner product of two equal-width labels, bra first."""
    if a.eps != b.eps:
        raise ValueError("overlap requires equal widths")
    eps = a.eps
    mag = math.exp(-((a.e - b.e) ** 2) / (4.0 * eps ** 2)
                   - (eps ** 2) * ((a.t - b.t) ** 2) / 4.0)
    phase = 0.5 * (a.e * b.t - b.e * a.t)
    return mag * complex(math.cos(phase), math.sin(phase))


def free_shift(state: StateVector, duration: float) -> StateVector:
    """Free chiral evolution by the given duration: translation by +duration.

    The duration must lie on the dx lattice (see Grid.snap), where the
    shift is an exact index roll.  Rejects shifts that leave more than
    WRAP_TOL of the weight at the periodic seam.
    """
    grid = state.grid
    m, snapped = grid.snap(duration)
    if abs(snapped - duration) >= 1e-12 * max(1.0, abs(duration)):
        raise ValueError(
            f"free shift by {duration!r} is off the dx = {grid.dx!r} "
            "lattice; snap it with Grid.snap")
    out = np.roll(state.amplitudes, m, axis=-1)
    shifted = StateVector(grid, out)
    edge = grid.edge_mass(out)
    if edge > WRAP_TOL:
        raise NumericalContractError(
            f"free shift by {duration:.3g} leaves {edge:.2e} relative weight "
            "at the window edge (wrap hazard)")
    return shifted


def _grid_moments(state: StateVector, phat: np.ndarray
                  ) -> tuple[float, float, float, float]:
    """(mean x, variance of x, mean p, variance of p) of the densities
    summed over channels; phat is state.momentum_amplitudes()."""
    grid = state.grid
    dens_x = np.sum(np.abs(state.amplitudes) ** 2, axis=0)
    wx = grid.quadrature(dens_x)
    x = grid.points
    mean_x = grid.quadrature(dens_x * x) / wx
    var_x = grid.quadrature(dens_x * (x - mean_x) ** 2) / wx
    dens_p = np.sum(np.abs(phat) ** 2, axis=0)
    dp = _TWO_PI / (grid.n * grid.dx)
    wp = dp * np.sum(dens_p)
    p = grid.momenta
    mean_p = dp * np.sum(dens_p * p) / wp
    var_p = dp * np.sum(dens_p * (p - mean_p) ** 2) / wp
    return float(mean_x), float(var_x), float(mean_p), float(var_p)


def plane_wave_amplitude(state: StateVector, energies) -> np.ndarray:
    """Amplitudes (E| state on each channel for the given energy values.

    For a coherent label this tends to
    exp(-i t e / 2) exp(i t E) g_eps(E - e) as the grid refines.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    waves = np.exp(-1j * np.outer(energies, state.grid.points))
    out = (state.grid.dx / math.sqrt(_TWO_PI)) * (waves @ state.amplitudes.T)
    return out.T


def label_box(state: StateVector, eps: float
              ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Label-plane box that captures the state against width-eps packets,
    six spreads wide on each side.  A state whose norm is zero or not
    finite has no box: ValueError."""
    return _label_box(state, eps, _checked_momenta(state, eps))


def _checked_momenta(state: StateVector, eps: float) -> np.ndarray:
    """The state's momentum amplitudes, once eps is positive and the
    state's norm positive and finite."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < state.norm() < math.inf:
        raise ValueError("state norm must be positive and finite")
    return state.momentum_amplitudes()


def _label_box(state: StateVector, eps: float, phat: np.ndarray
               ) -> tuple[tuple[float, float], tuple[float, float]]:
    """label_box from the state's momentum amplitudes phat."""
    mean_x, var_x, mean_p, var_p = _grid_moments(state, phat)
    de, dt = math.sqrt(var_p), math.sqrt(var_x)
    pad_t = 6.0 * (dt + 1.0 / (math.sqrt(2.0) * eps))
    pad_e = 6.0 * (de + eps / math.sqrt(2.0))
    return ((-mean_x - pad_t, -mean_x + pad_t), (mean_p - pad_e, mean_p + pad_e))


# energies per pass of identity_resolution_residual's reconstruction: a
# block's products then span only the momenta its own Gaussians reach
LABEL_BLOCK = 16


def identity_resolution_residual(state: StateVector, eps: float,
                                 nt: int = 64, ne: int = 64) -> float:
    """Relative defect of the label-plane resolution of identity.

    Reconstructs the state from its coherent amplitudes over the label
    box of label_box(state, eps), on an nt x ne lattice with measure
    dt de / (2 pi), and returns the relative L2 error.

    A width-eps Gaussian is below 1e-17 of its peak beyond
    reach = 8.8 eps of its energy, so it adds nothing to that precision
    there.  Only the band of momenta within reach of the box's energies
    enters the reconstruction, as one slice of the ascending momenta, and
    the state's weight outside it counts in full as error.  The energies
    go LABEL_BLOCK at a time, and each block's analysis and synthesis
    run on the momenta within reach of its own energies; the blocks'
    reconstructions add up on the band.

    The label times mirror about the box centre t_c, so the arithmetic
    is real.  With exp(-i t_c p) folded into the state, the times
    t_c -+ tau carry the waves cos(tau p) -+ i sin(tau p), and the two
    terms of such a pair in the reconstruction sum to
    2 (C cos(tau p) + S sin(tau p)), where C and S are the amplitudes
    against cos(tau p) and sin(tau p).  One real row of cosines and one
    of sines per pair (and a row of ones for tau = 0 when nt is odd)
    take both the analysis and the reconstruction as real matrix
    products on the complex amplitudes viewed as float pairs.  The
    times are uniform, tau_k = tau_0 + k dt, so the rows are the real
    and imaginary parts of the running product
    exp(i tau_0 p) exp(i dt p)^k.
    """
    if nt < 2 or ne < 2:
        raise ValueError("nt and ne must be at least 2")
    phat = _checked_momenta(state, eps)
    t_span, e_span = _label_box(state, eps, phat)
    grid = state.grid
    dp = _TWO_PI / (grid.n * grid.dx)
    ts = np.linspace(t_span[0], t_span[1], nt)
    es = np.linspace(e_span[0], e_span[1], ne)
    wt = np.full(nt, ts[1] - ts[0])
    wt[[0, -1]] *= 0.5
    we = np.full(ne, es[1] - es[0])
    we[[0, -1]] *= 0.5
    # a width-eps Gaussian is below 1e-17 of its peak beyond this distance
    reach = math.sqrt(2.0 * math.log(1e17)) * eps
    # the grid's n is even, so its shifted momenta ascend
    p = np.fft.fftshift(grid.momenta)
    phat = np.fft.fftshift(phat, axes=-1)
    lo = np.searchsorted(p, e_span[0] - reach)
    hi = np.searchsorted(p, e_span[1] + reach, side="right")
    p_band = p[lo:hi]
    # exp(i tau p) for the tau < 0 half of the times, by a running product
    half = nt // 2
    t_c = 0.5 * (t_span[0] + t_span[1])
    waves = np.empty((half, p_band.size), dtype=np.complex128)
    waves[0] = np.exp(1j * (ts[0] - t_c) * p_band)
    step = np.exp(1j * (ts[1] - ts[0]) * p_band)
    for k in range(1, half):
        np.multiply(waves[k - 1], step, out=waves[k])
    # rows: cos(tau p) for that half, then sin(tau p), then ones for the
    # middle time of an odd lattice; each pair row weighs 2 wt
    rows = np.empty((nt, p_band.size))
    rows[:half] = waves.real
    rows[half:2 * half] = waves.imag
    rows[2 * half:] = 1.0
    pair = 2.0 * wt[:half]
    weights = np.outer(np.concatenate((pair, pair, wt[half:nt - half])),
                       we / _TWO_PI)
    # the band amplitudes with exp(-i t_c p) folded in
    psi = phat[:, lo:hi] * np.exp(-1j * t_c * p_band)
    psi_dp = psi * dp
    rec = np.zeros_like(psi)
    for i in range(0, ne, LABEL_BLOCK):
        e_blk = es[i:i + LABEL_BLOCK]
        w = slice(np.searchsorted(p_band, e_blk[0] - reach),
                  np.searchsorted(p_band, e_blk[-1] + reach, side="right"))
        g = (math.pi * eps ** 2) ** (-0.25) * np.exp(
            -((p_band[w, None] - e_blk[None, :]) ** 2) / (2.0 * eps ** 2))
        r = rows[:, w]
        for ch in range(state.channels):
            # coherent amplitudes on the block's (t, e) labels, then their
            # weighted superposition back onto the block's momenta
            b = g * psi_dp[ch, w, None]
            amps = (r @ b.view(np.float64)).view(np.complex128)
            amps *= weights[:, i:i + LABEL_BLOCK]
            terms = (r.T @ amps.view(np.float64)).view(np.complex128)
            terms *= g
            rec[ch, w] += terms.sum(axis=1)
    err = (np.sum(np.abs(rec - psi) ** 2) + np.sum(np.abs(phat[:, :lo]) ** 2)
           + np.sum(np.abs(phat[:, hi:]) ** 2))
    return math.sqrt(float(err / np.sum(np.abs(phat) ** 2)))
