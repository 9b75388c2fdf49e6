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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .coherent import CoherentLabel, StateVector, braket, coherent_state
from .numerics import (Grid, NumericalContractError, central_derivative,
                       read_only)
from .network import (ScatterModel, MatrixPotential, apply_h0,
                      clearance_T, coupling_map, dynamical_S,
                      dynamical_S_adjoint, frozen, frozen_S_apply,
                      frozen_energy_shift_onshell, on_shell_S,
                      wave_operator, wigner_delay)
from .profiles import GaussianMix, Schedule
from .soluble import dynamical_S_profile, soluble_potential
from . import network as _network, soluble as _soluble

# largest grid of outgoing_state_check, which takes one dense eigh of it
OUTGOING_N_MAX = 1024


@dataclass
class ErrorReport:
    value_exact: complex
    value_approx: complex
    predicted_bound: float | None = None

    @property
    def abs_error(self) -> float:
        return abs(self.value_exact - self.value_approx)


def remainder_exact(model: ScatterModel, s: float, e: float, eps: float, *,
                    grid: Grid, T: float | None = None) -> complex:
    """Diagonal element of S_dynamical(0) - S_frozen(s) on the matched
    label t = s/omega, on channel 0.

    Both operators are realized with the same asymptotic window so the
    difference isolates the drive, not the windowing.
    """
    ket = coherent_state(CoherentLabel(s / model.omega, e, eps), grid,
                         n_channels=model.n_channels)
    T = _network._window(model, ket, T)
    out_dyn = dynamical_S(model, 0.0, ket, T=T)
    out_froz = frozen_S_apply(model, s, ket, T=T)
    return braket(ket, out_dyn) - braket(ket, out_froz)


def adiabatic_tau(model: ScatterModel, s: float, e: float, eps: float,
                  j: int = 0, jp: int = 0, *, grid: Grid) -> complex:
    """First-order response coefficient.

    tau = - integral dt' t' <t',e,j| W_+^* (dH/ds) W_- |t',e,jp>
    with W_+- the wave operators of the model frozen at s.  On matched
    labels the dynamical-minus-frozen remainder is -i omega tau to
    leading order in omega.

    A rank-one coupling sends every label through both wave operators,
    by the trapezoid rule on the label times of tau_nodes.  A matrix
    coupling's wave operators are characteristic factor fields F_+-(x),
    and the label density integrates exactly, integral dt' t'
    |psi_t'(x)|^2 = -x, so there tau = dx sum_x x (F_+ e_j)^* (dH/ds)
    (F_- e_jp) (see _matrix_tau), which reads neither e nor eps.
    """
    fmodel = frozen(model, s)
    dh_ds = coupling_map(model, grid, float(model.schedule.derivative(s)))
    if isinstance(model.coupling, MatrixPotential):
        return _matrix_tau(fmodel, s, j, jp, grid, dh_ds)
    total = 0.0 + 0.0j
    for tp, wgt in zip(*tau_nodes(model, eps)):
        label = CoherentLabel(tp, e, eps)
        ket = coherent_state(label, grid, channel=jp,
                             n_channels=model.n_channels)
        bra = ket if j == jp else coherent_state(label, grid, channel=j,
                                                 n_channels=model.n_channels)
        T = clearance_T(fmodel, ket)
        w_minus = wave_operator(fmodel, s, -1, ket, T=T)
        w_plus = wave_operator(fmodel, s, +1, bra, T=T)
        drive = StateVector(grid, dh_ds(w_minus.amplitudes))
        total += wgt * tp * braket(w_plus, drive)
    return -total


def tau_nodes(model: ScatterModel, eps: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """adiabatic_tau's label times and trapezoid weights: 49 nodes over
    |t'| <= 8 / eps, less those whose packet, down to 1e-14 of its peak,
    stays clear of the interaction."""
    sigma_x = 1.0 / (math.sqrt(2.0) * eps)
    reach = model.interaction_radius() + sigma_x * math.sqrt(
        2.0 * math.log(1e14))
    nodes = np.linspace(-8.0 / eps, 8.0 / eps, 49)
    weights = np.full(49, nodes[1] - nodes[0])
    weights[[0, -1]] *= 0.5
    keep = np.abs(nodes) <= reach
    return nodes[keep], weights[keep]


def _matrix_tau(fmodel: ScatterModel, s: float, j: int, jp: int, grid: Grid,
                dh_ds) -> complex:
    """adiabatic_tau of a frozen matrix coupling from its two
    characteristic fields.

    W_-|t',e,jp> = F_-(x) psi(x) e_jp, with F_- the characteristic
    factor over [x - T, x] (F_+ over [x, x + T]), the same for every
    label.  The fields are sampled where the coupling reaches, |x| <= r
    with r = support_radius(1e-16) as _apply_characteristic takes it,
    and any T >= 2r gives the same fields there; the grid must hold
    |x| <= r.  propagate's norm-drift check becomes a bound on the
    fields' column norms, | |F e| - 1 | <= NORM_TOL at every x, which
    bounds the drift of every label by NORM_TOL.
    """
    radius = fmodel.coupling.support_radius(1e-16)
    if grid.x_min > -radius or grid.x_max < radius:
        raise ValueError(
            f"grid [{grid.x_min:.3g}, {grid.x_max:.3g}) does not hold the "
            f"interaction |x| <= {radius:.3g}")
    m, T = grid.snap(2.0 * radius + 1.0)
    t_c = s / fmodel.omega
    fields = []
    for sign, channel in ((-1, jp), (+1, j)):
        basis = np.zeros((fmodel.n_channels, grid.n), dtype=np.complex128)
        basis[channel] = 1.0
        field = _network._matrix_transport(fmodel, grid, basis,
                                           t_c + sign * T, -sign * m)
        drift = np.abs(np.sqrt(np.sum(np.abs(field) ** 2, axis=0)) - 1.0)
        if drift.max() > _network.NORM_TOL:
            raise NumericalContractError(
                f"wave operator field norm drift {drift.max():.2e} "
                f"exceeds {_network.NORM_TOL:.2e}")
        fields.append(field)
    w_minus, w_plus = fields
    kernel = np.sum(np.conj(w_plus) * dh_ds(w_minus), axis=0)
    return complex(np.dot(grid.points, kernel)) * grid.dx


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


def _delay_spread(model: ScatterModel, s: float, e: float) -> float:
    """|tau_w|^2 + |dtau_w/dE| from the Wigner delay matrix tau_w: the
    smearing bound per eps^2.

    A matrix coupling's delay is exactly zero (see wigner_delay), and so
    is the spread.
    """
    tw = wigner_delay(model, s, e)

    def tw_fun(en: float) -> np.ndarray:
        return wigner_delay(model, s, en).matrix

    dtw = central_derivative(tw_fun, e, 1e-2)
    return float(np.linalg.norm(tw.matrix, 2) ** 2 + np.linalg.norm(dtw, 2))


def onshell_vs_frozen(model: ScatterModel, s: float, e: float, epsilons,
                      j: int = 0, jp: int = 0) -> list[ErrorReport]:
    """Smeared frozen amplitude against its on-shell value at the center,
    one report per energy width in epsilons.

    The on-shell value and the spread |tau_w|^2 + |dtau_w/dE| of the
    Wigner delay matrix do not depend on eps, so each is computed once;
    each report's predicted bound is eps^2 times the spread.
    """
    approx = complex(on_shell_S(model, s, e).matrix[j, jp])
    spread = _delay_spread(model, s, e)
    return [ErrorReport(smeared_frozen_element(model, s, e, eps, j, jp),
                        approx, float(eps ** 2 * spread))
            for eps in epsilons]


def combined_report(model: ScatterModel, s: float, e: float, eps: float,
                    tau: complex, *, grid: Grid) -> ErrorReport:
    """Dynamical diagonal element on the matched label t = s/omega, on
    channel 0, against the frozen on-shell value, with bound.

    The bound combines the smearing term eps^2 (|tau_w|^2 + |tau_w'|)
    and the drive term omega |tau|, for the response coefficient tau of
    adiabatic_tau or a closed form of it.
    """
    ket = coherent_state(CoherentLabel(s / model.omega, e, eps), grid,
                         n_channels=model.n_channels)
    exact = braket(ket, dynamical_S(model, 0.0, ket))
    approx = complex(on_shell_S(model, s, e).matrix[0, 0])
    bound = eps ** 2 * _delay_spread(model, s, e) + model.omega * abs(tau)
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
                               eps: float, *, grid: Grid) -> ErrorReport:
    """Dynamical energy shift element against the frozen on-shell one.

    The dynamical operator sits at base point 0 and is probed on the
    diagonal at the matched label t = s/omega, on channel 0; the frozen
    comparison is i dS/ds S^* of the on-shell family at s.  Agreement is
    first order in omega.
    """
    ket = coherent_state(CoherentLabel(s / model.omega, e, eps), grid,
                         n_channels=model.n_channels)
    exact = braket(ket, energy_shift_operator(model, 0.0)(ket))
    approx = complex(frozen_energy_shift_onshell(model, s, e).matrix[0, 0])
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
        with np.errstate(over="ignore"):  # exp -> inf gives exactly 0
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
    # np.polyval takes them descending; its Horner steps are those of
    # numpy.polynomial's polyval, which this keeps out of every run
    descending = np.asarray(coeffs)[::-1]

    def rho(energies: np.ndarray) -> np.ndarray:
        return np.polyval(descending, energies)
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
    scattering and energy-shift profiles on a small grid (n <=
    OUTGOING_N_MAX, for one dense eigh).  Neither side is formed: the
    difference is applied to vectors, the left side as
    S_d ifft(rho(p) fft(S_d^* x)) (rho(H_0) is diagonal in momentum) and
    the right side as V rho(w) V^* x from the eigenpairs (w, V) of
    H_0 - omega E_d, which every density at one (model, s, grid) shares.
    The norm of that Hermitian map is its largest |eigenvalue|, found by
    Lanczos iteration (_hermitian_norm) to the rounding level of the two
    sides.
    Schedules with unequal asymptotic values leave a seam jump on the
    periodic grid, which this check will honestly report.  A model
    without a soluble potential (see soluble_potential) is a ValueError.
    """
    potential = soluble_potential(model)
    if grid.n > OUTGOING_N_MAX:
        raise ValueError(f"one dense eigh needs grid n <= {OUTGOING_N_MAX}, "
                         f"not {grid.n}")
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
    passes) from the chirp q_j = exp(i pi j^2 / n) / sqrt(n), flat in
    position and, for the even n of every Grid, in momentum, so the
    value is deterministic and no grid point or Fourier mode is missed.
    Stops when both extreme Ritz pairs, the smallest and the largest
    theta, have residual beta |y_last| <= 2^-52 max(|theta|, scale), or
    after n steps, where the Ritz values are the eigenvalues; returns
    the largest |theta|.  scale bounds the terms that apply sums, so a
    map that is zero up to their rounding (beta and theta both noise)
    stops too.
    """
    q = np.exp(1j * math.pi / n * np.arange(n) ** 2) / math.sqrt(n)
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
    # hermitise in place and drop shifted, so eigh runs beside one matrix
    h = np.conj(shifted.T)
    h += shifted
    h *= 0.5
    del shifted
    w2, v2 = np.linalg.eigh(h)
    return read_only(w2), read_only(v2)
