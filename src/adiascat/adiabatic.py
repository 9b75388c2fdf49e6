"""First-order adiabatic scattering diagnostics.

Ties together the pieces: coherent labels probe the dynamical
scattering operator, the frozen on-shell matrix provides the
approximation, and the routines here measure the gap and the
first-order structures that predict it:

* remainder between dynamical and frozen scattering on matched labels,
* the first-order response coefficient tau (a label-time-weighted
  integral of frozen wave-operator elements of the drive derivative),
* the dynamical energy shift operator and its frozen on-shell twin,
* a dense functional-calculus identity check for outgoing states.

Conventions: on matched labels (t = s/omega) the leading remainder is
-i omega tau + O(omega^2).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .coherent import CoherentLabel, StateVector, braket, coherent_state
from .numerics import Grid, central_derivative, read_only
from .network import (ScatterModel, MatrixPotential, apply_h0,
                      clearance_T, coupling_map, dynamical_S,
                      dynamical_S_adjoint, frozen, frozen_S_apply,
                      frozen_energy_shift_onshell, on_shell_S,
                      wave_operator, wigner_delay)
from .profiles import GaussianMix, Schedule
from .soluble import dynamical_S_profile, soluble_potential
from . import network as _network, soluble as _soluble

logger = logging.getLogger(__name__)


@dataclass
class ErrorReport:
    value_exact: complex
    value_approx: complex
    predicted_bound: float | None = None

    @property
    def abs_error(self) -> float:
        return abs(self.value_exact - self.value_approx)


def _matched_states(model: ScatterModel, s: float, e: float, eps: float,
                    j: int, jp: int, grid: Grid):
    label = CoherentLabel(s / model.omega, e, eps)
    ket = coherent_state(label, grid, channel=jp, n_channels=model.n_channels)
    bra = ket if j == jp else coherent_state(label, grid, channel=j,
                                             n_channels=model.n_channels)
    return label, bra, ket


def remainder_exact(model: ScatterModel, s: float, e: float, eps: float,
                    j: int = 0, jp: int = 0, *, grid: Grid,
                    T: float | None = None) -> complex:
    """Element of S_dynamical(0) - S_frozen(s) on matched labels t = s/omega.

    Both operators are realized with the same asymptotic window so the
    difference isolates the drive, not the windowing.
    """
    _, bra, ket = _matched_states(model, s, e, eps, j, jp, grid)
    T = _network._window(model, ket, T)
    out_dyn = dynamical_S(model, 0.0, ket, T=T)
    out_froz = frozen_S_apply(model, s, ket, T=T)
    return braket(bra, out_dyn) - braket(bra, out_froz)


def adiabatic_tau(model: ScatterModel, s: float, e: float, eps: float,
                  j: int = 0, jp: int = 0, *, grid: Grid) -> complex:
    """First-order response coefficient.

    tau = - integral dt' t' <t',e,j| W_+^* (dH/ds) W_- |t',e,jp>
    with W_+- the wave operators of the model frozen at s, by the
    trapezoid rule on 49 label times over |t'| <= 8 / eps.  On matched
    labels the dynamical-minus-frozen remainder is -i omega tau to
    leading order in omega.
    """
    fmodel = frozen(model, s)
    sigma_x = 1.0 / (math.sqrt(2.0) * eps)
    radius = model.interaction_radius()
    reach = radius + sigma_x * math.sqrt(2.0 * math.log(1e14))
    nodes = np.linspace(-8.0 / eps, 8.0 / eps, 49)
    weights = np.full(49, nodes[1] - nodes[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    dh_ds = coupling_map(model, grid, float(model.schedule.derivative(s)))
    total = 0.0 + 0.0j
    for tp, wgt in zip(nodes, weights):
        if abs(tp) > reach:
            continue
        label = CoherentLabel(tp, e, eps)
        ket = coherent_state(label, grid, channel=jp,
                             n_channels=model.n_channels)
        bra = ket if j == jp else coherent_state(
            label, grid, channel=j, n_channels=model.n_channels)
        T = clearance_T(fmodel, ket)
        w_minus = wave_operator(fmodel, s, -1, ket, T=T)
        w_plus = wave_operator(fmodel, s, +1, bra, T=T)
        drive = StateVector(grid, dh_ds(w_minus.amplitudes))
        total += wgt * tp * braket(w_plus, drive)
    return -total


def smeared_frozen_element(model: ScatterModel, s: float, e: float, eps: float,
                           j: int = 0, jp: int = 0) -> complex:
    """Gaussian energy smearing of the frozen on-shell amplitude.

    (pi eps^2)^{-1/2} integral of S_{j,jp}(s, E) exp(-(E-e)^2/eps^2) dE
    by 160 Gauss-Legendre nodes over |E - e| <= 10 eps, a window wide
    enough for the weight to saturate.
    """
    if isinstance(model.coupling, MatrixPotential):
        # energy independent by construction; the weight integrates to one
        return complex(on_shell_S(model, s, e).matrix[j, jp])
    gl_x, gl_w = _network.gauss_legendre(160)
    half = 10.0 * eps
    energies = e + half * gl_x
    scalars = _network.rankone_scalar_amplitude(model.coupling, s, energies)
    u = model.coupling.vector
    proj = np.outer(u, np.conj(u))[j, jp]
    values = (1.0 if j == jp else 0.0) + (scalars - 1.0) * proj
    weight = np.exp(-((energies - e) ** 2) / eps ** 2) / (
        math.sqrt(math.pi) * eps)
    return complex(np.sum(values * weight * gl_w) * half)


def _smearing_bound(model: ScatterModel, s: float, e: float,
                    eps: float) -> float:
    """eps^2 (|tau_w|^2 + |dtau_w/dE|) from the Wigner delay matrix tau_w.

    A matrix coupling's delay is exactly zero (see wigner_delay), and so
    is the bound.
    """
    if isinstance(model.coupling, MatrixPotential):
        return 0.0
    tw = wigner_delay(model, s, e)

    def tw_fun(en: float) -> np.ndarray:
        return wigner_delay(model, s, en).matrix

    dtw = central_derivative(tw_fun, e, 1e-2)
    return eps ** 2 * (np.linalg.norm(tw.matrix, 2) ** 2
                       + np.linalg.norm(dtw, 2))


def onshell_vs_frozen(model: ScatterModel, s: float, e: float, eps: float,
                      j: int = 0, jp: int = 0) -> ErrorReport:
    """Smeared frozen amplitude against its on-shell value at the center.

    The predicted bound is eps^2 (|tau_w|^2 + |dtau_w/dE|) from the
    Wigner delay matrix and its energy derivative.
    """
    exact = smeared_frozen_element(model, s, e, eps, j, jp)
    approx = complex(on_shell_S(model, s, e).matrix[j, jp])
    bound = _smearing_bound(model, s, e, eps)
    return ErrorReport(exact, approx, float(bound))


def combined_report(model: ScatterModel, s: float, e: float, eps: float,
                    j: int = 0, jp: int = 0, *, grid: Grid,
                    T: float | None = None,
                    tau_value: complex | None = None) -> ErrorReport:
    """Dynamical element against the frozen on-shell value, with bound.

    The bound combines the smearing term eps^2 (|tau_w|^2 + |tau_w'|)
    and the drive term omega |tau|.  Pass tau_value to reuse a
    precomputed response coefficient across a sweep.
    """
    _, bra, ket = _matched_states(model, s, e, eps, j, jp, grid)
    T = _network._window(model, ket, T)
    exact = braket(bra, dynamical_S(model, 0.0, ket, T=T))
    approx = complex(on_shell_S(model, s, e).matrix[j, jp])
    smearing = _smearing_bound(model, s, e, eps)
    if tau_value is None:
        tau_value = adiabatic_tau(model, s, e, eps, j, jp, grid=grid)
    bound = smearing + model.omega * abs(tau_value)
    return ErrorReport(exact, approx, float(bound))


def energy_shift_operator(model: ScatterModel, s: float,
                          T: float | None = None
                          ) -> Callable[[StateVector], StateVector]:
    """Dynamical energy shift (H_0 - S_d H_0 S_d^*) / omega at base point
    s, as a state map."""

    def apply(state: StateVector) -> StateVector:
        T_use = _network._window(model, state, T)
        adj = dynamical_S_adjoint(model, s, state, T=T_use)
        h0adj = apply_h0(adj)
        back = dynamical_S(model, s, h0adj, T=T_use)
        out = (apply_h0(state).amplitudes - back.amplitudes) / model.omega
        return StateVector(state.grid, out)

    return apply


def thawed_energy_shift_report(model: ScatterModel, s: float, e: float,
                               eps: float, j: int = 0, jp: int = 0, *,
                               grid: Grid,
                               T: float | None = None) -> ErrorReport:
    """Dynamical energy shift element against the frozen on-shell one.

    The dynamical operator sits at base point 0 and is probed at the
    matched label t = s/omega; the frozen comparison is i dS/ds S^* of
    the on-shell family at s.  Agreement is first order in omega.
    """
    _, bra, ket = _matched_states(model, s, e, eps, j, jp, grid)
    T = _network._window(model, ket, T)
    op = energy_shift_operator(model, 0.0, T=T)
    exact = braket(bra, op(ket))
    approx = complex(frozen_energy_shift_onshell(model, s, e).matrix[j, jp])
    return ErrorReport(exact, approx)


# ---------------------------------------------------------------------------
# Dense functional-calculus check
# ---------------------------------------------------------------------------

def rho_fermi(mu: float = 0.0, width: float = 0.2,
              floor: float | None = None) -> Callable:
    """Smoothed occupation step, unit filling far below mu.

    On a periodic momentum lattice the density must settle before the
    band seam at +-pi/dx; pass a floor energy (well below any physical
    scale) to open the occupation softly at the band bottom too.
    """
    def rho(energies: np.ndarray) -> np.ndarray:
        occ = 1.0 / (1.0 + np.exp((energies - mu) / width))
        if floor is not None:
            occ = occ / (1.0 + np.exp(-(energies - floor) / width))
        return occ
    return rho


def rho_gaussian(center: float = 0.0, width: float = 1.0) -> Callable:
    def rho(energies: np.ndarray) -> np.ndarray:
        return np.exp(-((energies - center) / width) ** 2)
    return rho


def rho_polynomial(coeffs: tuple = (0.0, 1.0)) -> Callable:
    """Polynomial density, coefficients in ascending order."""
    def rho(energies: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(energies, np.asarray(coeffs))
    return rho


def _circulant(values: np.ndarray) -> np.ndarray:
    """Read-only F^dagger diag(values) F for the unitary grid DFT F: as
    p_m (x_j - x_k) = 2 pi f_m (j - k) / n, entry (j, k) is
    ifft(values)[(j - k) mod n], a strided view of one inverse FFT."""
    col = np.fft.ifft(values)
    return np.lib.stride_tricks.sliding_window_view(
        np.concatenate((col[1:], col)), col.size)[:, ::-1]


def outgoing_state_check(model: ScatterModel, s: float,
                         rho: Callable[[np.ndarray], np.ndarray],
                         grid: Grid) -> float:
    """Operator-norm defect of rho-transport through dynamical scattering.

    Checks S_d rho(H_0) S_d^* = rho(H_0 - omega E_d) with closed-form
    scattering and energy-shift profiles on a small grid (n <= 1024,
    for one dense eigh).  Neither side is formed: the difference is
    applied to vectors, the left side as S_d ifft(rho(p) fft(S_d^* x))
    (rho(H_0) is diagonal in momentum) and the right side as
    V rho(w) V^* x from the eigenpairs (w, V) of H_0 - omega E_d, which
    every density at one (model, s, grid) shares.  The norm of that
    Hermitian map is its largest |eigenvalue|, found by Lanczos
    iteration (_hermitian_norm) to the rounding level of the two sides.
    Schedules with unequal asymptotic values leave a seam jump on the
    periodic grid, which this check will honestly report.  A model
    without a soluble potential (see soluble_potential) is a ValueError.
    """
    potential = soluble_potential(model)
    if grid.n > 1024:
        raise ValueError("dense check limited to grids with n <= 1024")
    lo, hi = model.schedule.asymptotics()
    if abs(hi - lo) > 1e-12 * max(1.0, abs(hi), abs(lo)):
        logger.warning("schedule asymptotics differ (%.3g vs %.3g); "
                       "expect a seam-limited residual", lo, hi)
    w, v = _shifted_spectrum(potential, model.schedule, model.omega, s, grid)
    s_diag = dynamical_S_profile(model, s, grid)
    rho_p = rho(grid.momenta)
    rho_w = rho(w)

    def apply(x: np.ndarray) -> np.ndarray:
        lhs = s_diag * np.fft.ifft(rho_p * np.fft.fft(np.conj(s_diag) * x))
        # V^* x as the conjugate of x^* V, which reads V in its own layout
        return lhs - v @ (rho_w * np.conj(np.conj(x) @ v))

    scale = float(np.max(np.abs(rho_p)) + np.max(np.abs(rho_w)))
    return _hermitian_norm(apply, grid.n, scale)


def _hermitian_norm(apply: Callable[[np.ndarray], np.ndarray], n: int,
                    scale: float) -> float:
    """Operator norm of the Hermitian map x -> apply(x) on C^n.

    Lanczos iteration with full reorthogonalisation (two Gram-Schmidt
    passes) from a fixed-seed random start, so the value is
    deterministic.  Stops when both extreme Ritz pairs, the smallest
    and the largest theta, have residual beta |y_last| <= 2^-52
    max(|theta|, scale), or after n steps, where the Ritz values are the
    eigenvalues; returns the largest |theta|.  scale bounds the terms
    that apply sums, so a map that is zero up to their rounding (beta
    and theta both noise) stops too.
    """
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q /= np.linalg.norm(q)
    # rows are the Lanczos vectors; np.empty commits only the rows used
    basis = np.empty((n, n), dtype=np.complex128)
    tri = np.zeros((n, n))
    for k in range(n):
        basis[k] = q
        r = apply(q)
        tri[k, k] = np.vdot(q, r).real
        for _ in range(2):
            r = r - (np.conj(basis[:k + 1]) @ r) @ basis[:k + 1]
        beta = float(np.linalg.norm(r))
        theta, y = np.linalg.eigh(tri[:k + 1, :k + 1])
        top = max(-theta[0], theta[-1])
        tol = 2.0 ** -52 * max(top, scale)
        # an exhausted Krylov space (beta = 0) always stops here
        if k == n - 1 or beta * max(abs(y[-1, 0]), abs(y[-1, -1])) <= tol:
            break
        tri[k, k + 1] = tri[k + 1, k] = beta
        q = r / beta
    return float(top)


@lru_cache(maxsize=1)
def _shifted_spectrum(potential: GaussianMix, schedule: Schedule,
                      omega: float, s: float, grid: Grid
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs (w, V) of H_0 - omega E_d, with H_0 the
    circulant of the grid momenta.

    Independent of the density, so every density checked at one
    (model, s, grid) shares a single dense ``eigh``.  The model enters
    as its hashable parts, the soluble potential, the schedule and
    omega, which key the cache.
    """
    shifted = _circulant(grid.momenta) - omega * np.diag(_soluble._swept(
        potential, schedule.derivative, omega, s, grid))
    w2, v2 = np.linalg.eigh(0.5 * (shifted + np.conj(shifted.T)))
    return read_only(w2), read_only(v2)
