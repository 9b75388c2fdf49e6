"""Driven scattering models on chiral channels and their propagators.

Two interaction backends share one model container:

* ``MatrixPotential``: a Hermitian matrix-valued local potential built
  from Gaussian profiles.  Propagation is exact transport along
  characteristics with ordered local factors, so it is unconditionally
  unitary.
* ``RankOne``: a separable (form-factor) interaction coupling the
  channels through a fixed internal vector.  Propagation solves the
  scalar Volterra equation for the overlap with the form factor, on
  which the Duhamel formula closes.  Its frozen scattering amplitude
  has a closed resolvent form, which gives the package an independent
  on-shell route.

Scattering operators are realized through finite asymptotic windows:
free (or reference) legs sandwich one driven leg, with clearance of the
interaction region checked at every seam.  Here and in ``adiabatic``
the window is ``_window``: clearance_T when T is None, else T snapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Union

import numpy as np
# bound for perfbench's tracer, which wraps network.leggauss by name; the
# package itself reads the stored rules of GAUSS_LEGENDRE_RULES
from numpy.polynomial.legendre import leggauss  # noqa: F401

from . import _kernels
from .coherent import StateVector, free_shift
from .numerics import (Grid, NumericalContractError, _dawson,
                       central_derivative, hermitize, read_only)
from .profiles import GaussianMix, Schedule

CLEARANCE_TOL = 1e-10
NORM_TOL = 1e-6


@dataclass
class MatrixPotential:
    """Sum over terms of (Hermitian matrix) x (Gaussian profile), driven."""

    matrices: tuple
    profiles: tuple
    schedule: Schedule

    def __post_init__(self):
        if len(self.matrices) != len(self.profiles) or not self.matrices:
            raise ValueError("need matching nonzero matrices and profiles")
        mats = []
        nc = None
        for m in self.matrices:
            m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
            if m.shape[0] != m.shape[1]:
                raise ValueError("coupling matrices must be square")
            if nc is None:
                nc = m.shape[0]
            elif m.shape[0] != nc:
                raise ValueError("coupling matrices disagree on channel count")
            defect = np.linalg.norm(m - np.conj(m.T), 2)
            if defect > 1e-12 * max(1.0, np.linalg.norm(m, 2)):
                raise ValueError("coupling matrices must be Hermitian")
            mats.append(0.5 * (m + np.conj(m.T)))
        self.matrices = tuple(mats)
        for p in self.profiles:
            if not isinstance(p, GaussianMix):
                raise ValueError("profiles must be GaussianMix instances")

    @property
    def n_channels(self) -> int:
        return self.matrices[0].shape[0]

    @cached_property
    def _scale(self) -> float:
        """Largest spectral norm of the (Hermitised) term matrices."""
        return max(float(np.linalg.norm(m, 2)) for m in self.matrices)

    def support_radius(self, tol: float = 1e-14) -> float:
        return max(p.support_radius(tol / max(1.0, self._scale))
                   for p in self.profiles)

    def value(self, x: np.ndarray, f: float) -> np.ndarray:
        """Potential matrix field f * sum_i M_i v_i(x), shape (nx, nc, nc)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((x.size, self.n_channels, self.n_channels),
                       dtype=np.complex128)
        for m, mix in zip(self.matrices, self.profiles):
            out += mix(x)[:, None, None] * m
        return f * out


@dataclass
class RankOne:
    """Separable interaction lambda(s) |chi x u><chi x u|."""

    form: GaussianMix
    schedule: Schedule
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.complex128).ravel()
        if v.size == 0:
            raise ValueError("channel vector must be nonempty")
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise ValueError("channel vector must be nonzero")
        self.vector = v / nrm

    @property
    def n_channels(self) -> int:
        return self.vector.size

    def support_radius(self, tol: float = 1e-14) -> float:
        return self.form.support_radius(tol)


Coupling = Union[MatrixPotential, RankOne]


@dataclass
class ScatterModel:
    n_channels: int
    coupling: Coupling
    omega: float

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.coupling.n_channels != self.n_channels:
            raise ValueError("coupling channel count disagrees with model")

    @property
    def schedule(self) -> Schedule:
        return self.coupling.schedule

    def interaction_radius(self) -> float:
        return self.coupling.support_radius()


def frozen(model: ScatterModel, s: float) -> ScatterModel:
    """Freeze the drive at slow time s."""
    sched = model.schedule.frozen_at(s)
    return ScatterModel(model.n_channels,
                        replace(model.coupling, schedule=sched), model.omega)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def _apply_characteristic(model: ScatterModel, x: np.ndarray, tau: float,
                          t1: float, nsteps: int, schedule,
                          out: np.ndarray) -> np.ndarray:
    """Multiply amplitudes out (..., nc, n) on the lattice x in place by
    a matrix coupling's characteristic factors, and return them.

    Where the terms commute trivially (one term M = W diag(lam) W^dagger,
    or one channel) the factor is W diag(exp(-i phi_a)) W^dagger, phi_a
    the phase kernel on the profile lam_a v; one channel takes its summed
    profile and no change of basis.  Else the channel unitaries.
    """
    coupling: MatrixPotential = model.coupling
    rmax = coupling.support_radius(1e-16)
    if model.n_channels > 1 and len(coupling.matrices) > 1:
        return np.einsum("jab,...bj->...aj", _kernels.characteristic_unitary(
            x, tau, t1, nsteps, coupling.value, schedule, model.omega,
            rmax), out)
    if model.n_channels == 1:
        vec, profiles = None, [lambda y: coupling.value(y, 1.0)[:, 0, 0].real]
    else:
        lam, vec = np.linalg.eigh(coupling.matrices[0])
        profiles = [lambda y, a=a: a * coupling.profiles[0](y) for a in lam]
    phase = np.array([_kernels.characteristic_phase(
        x, tau, t1, nsteps, p, schedule, model.omega, rmax) for p in profiles])
    # points the coupling never reaches keep their amplitude: exp(0) = 1
    live = np.flatnonzero(phase.any(axis=0))
    if vec is None:
        out[..., live] *= np.exp(-1j * phase[0, live])
    else:
        out[..., live] = vec @ (np.exp(-1j * phase[:, live])
                                * (np.conj(vec.T) @ out[..., live]))
    return out


def _matrix_transport(model: ScatterModel, grid: Grid, amps: np.ndarray,
                      t0: float, tau: float, m: int) -> np.ndarray:
    """Amplitudes transported under a matrix coupling over tau = m dx.

    Rolls them by m lattice steps and applies the characteristic factors
    of the coupling's field and schedule (_apply_characteristic), built
    in |m| steps of dx.  A schedule that is constantly zero only rolls.
    """
    schedule = model.coupling.schedule
    out = np.roll(amps, m, axis=-1)
    if schedule.is_constant and schedule.a == 0.0:
        return out
    return _apply_characteristic(model, grid.points, tau, t0 + tau, abs(m),
                                 schedule.value, out)


def _volterra_trapezoid(f: np.ndarray, K: np.ndarray, lam: np.ndarray,
                        h: float) -> np.ndarray:
    """Trapezoid solve of a_i = f_i - i h sum_j w_ij lam_j K_{i-j} a_j by
    forward substitution; returns y_j = w_j lam_j a_j, which the caller
    multiplies by h."""
    krev = K[::-1].copy()  # contiguous: np.dot is slow on a view
    last = f.size - 1
    diag = 1.0 + 0.5j * h * lam * K[0]
    y = np.zeros(f.size, dtype=np.complex128)
    y[0] = 0.5 * lam[0] * f[0]
    for i in range(1, f.size):
        a = (f[i] - 1j * h * np.dot(y[:i], krev[last - i:last])) / diag[i]
        y[i] = lam[i] * a
    y[-1] *= 0.5
    return y


def _propagate_rankone(model: ScatterModel, state: StateVector,
                       t0: float, m: int) -> np.ndarray:
    """Rank-one transport over m lattice steps as a scalar Volterra equation.

    Free motion is an exact roll, so the Duhamel formula closes on
    a(t) = <phi|psi(t)>, phi = u x chi: a(t) = f(t) - i int_{t0}^{t}
    lam(omega t') K(t - t') a(t') dt' with f(t) = <phi|U0(t - t0) psi0>
    and K(tau) = <phi|U0(tau) phi>, and psi(t1) = roll(psi0 - i u x
    int lam a chi(. + t' - t0) dt', m).  Trapezoid solves on signed steps
    dx and dx/2 and one Richardson step.
    """
    grid, coupling, u = state.grid, model.coupling, model.coupling.vector
    sign = 1 if m > 0 else -1
    # the form at both sub-lattice offsets; f, K and the source are
    # circular correlations with it, c[k] = sum_x form[x + k] b[x], which
    # wrap the moving form periodically onto the grid
    forms = np.stack([coupling.form(grid.points + d)
                      for d in (0.0, 0.5 * sign * grid.dx)])
    spec = np.fft.fft(forms, axis=-1)
    probes = np.conj(np.fft.fft(np.conj(
        [np.conj(u) @ state.amplitudes, forms[0]]), axis=-1))
    corr = grid.dx * np.fft.ifft(spec[:, None, :] * probes, axis=-1)
    sources = np.zeros((2, grid.n), dtype=np.complex128)
    for r, weight in ((1, -1.0 / 3.0), (2, 4.0 / 3.0)):
        j = np.arange(r * abs(m) + 1)
        offset, k = j % r, (sign * (j // r)) % grid.n
        h = sign * grid.dx / r
        lam = coupling.schedule.value(model.omega * (t0 + j * h))
        y = _volterra_trapezoid(corr[offset, 0, k], corr[offset, 1, k],
                                lam, h)
        np.add.at(sources, (offset, k), weight * h * y)
    source = np.fft.ifft(spec * np.fft.ifft(sources, axis=-1), axis=-1)
    out = state.amplitudes - 1j * grid.n * np.outer(u, source.sum(axis=0))
    return np.roll(out, m, axis=-1)


def propagate(model: ScatterModel, state: StateVector, t0: float,
              t1: float) -> StateVector:
    """Evolve a state under the driven Hamiltonian from t0 to t1.

    Durations snap onto the grid lattice, whose spacing dx is also the
    transport step.  Norm drift beyond NORM_TOL is a contract violation,
    not a warning.
    """
    grid = state.grid
    m, tau = grid.snap(t1 - t0)
    if m == 0:
        return state.copy()
    if isinstance(model.coupling, MatrixPotential):
        out = _matrix_transport(model, grid, state.amplitudes, t0, tau, m)
    else:
        out = _propagate_rankone(model, state, t0, m)
    result = StateVector(grid, out)
    drift = abs(result.norm() - state.norm())
    if drift > NORM_TOL * max(state.norm(), 1e-30):
        raise NumericalContractError(
            f"propagation norm drift {drift:.2e} exceeds {NORM_TOL:.2e}")
    return result


def coupling_map(model: ScatterModel, grid: Grid, scale: float):
    """Interaction field of a model times scale, as an array map."""
    if isinstance(model.coupling, MatrixPotential):
        field = model.coupling.value(grid.points, scale)

        def apply(amps: np.ndarray) -> np.ndarray:
            return np.einsum("jab,bj->aj", field, amps)
    else:
        coupling: RankOne = model.coupling
        chi = coupling.form(grid.points)
        u = coupling.vector

        def apply(amps: np.ndarray) -> np.ndarray:
            inner = grid.dx * np.sum(chi * (np.conj(u)[:, None] * amps).sum(axis=0))
            return scale * inner * u[:, None] * chi[None, :]

    return apply


def apply_h0(state: StateVector) -> StateVector:
    """Free chiral Hamiltonian (momentum multiplication)."""
    grid = state.grid
    out = np.fft.ifft(grid.momenta * np.fft.fft(state.amplitudes, axis=-1),
                      axis=-1)
    return StateVector(grid, out)


def apply_hamiltonian(model: ScatterModel, t: float, state: StateVector) -> StateVector:
    """H(t) = H_0 + f(omega t) V applied to a state."""
    f = float(model.schedule.value(model.omega * t))
    v = coupling_map(model, state.grid, f)(state.amplitudes)
    return StateVector(state.grid, apply_h0(state).amplitudes + v)


# ---------------------------------------------------------------------------
# Clearance bookkeeping
# ---------------------------------------------------------------------------

def _support_bounds(state: StateVector) -> tuple[float, float]:
    mag = np.abs(state.amplitudes).max(axis=0)
    live = state.grid.points[mag > 1e-11 * mag.max()]
    return float(live.min()), float(live.max())


def _delayed_tail(coupling: RankOne, state: StateVector) -> float:
    """Time a rank-one coupling needs to release the state's delayed tail.

    A resonance of width G delays energies near it by up to about 4/G
    and leaves a tail of weight exp(-G t).  So 1/2 ln(1/CLEARANCE_TOL)
    times the largest Wigner delay clears that tail with room to spare
    (a near-resonant two-Gaussian form cleared it after about 5 delays,
    at the couplings 0.6 and 1).  The delay is maximised over the
    state's band (weight above CLEARANCE_TOL of its peak) by
    _band_delay.
    """
    weight = np.sum(np.abs(np.fft.fft(state.amplitudes, axis=-1)) ** 2,
                    axis=0)
    band = state.grid.momenta[weight > CLEARANCE_TOL * weight.max()]
    delay = _band_delay(coupling.form, coupling.schedule, float(band.min()),
                        float(band.max()))
    return 0.5 * math.log(1.0 / CLEARANCE_TOL) * delay


@lru_cache(maxsize=64)
def _band_delay(form: GaussianMix, schedule: Schedule, lo: float,
                hi: float) -> float:
    """Largest Wigner delay of a rank-one coupling, at least 0, over 97
    energies spanning [lo, hi] and over 17 couplings spanning the
    schedule's range, which the window must serve at every base point.

    Labels of one sweep share their band, so the cache keyed on the
    form, the schedule and the band's ends takes one resolvent for all
    of them.
    """
    energies = np.linspace(lo, hi, 97)
    ends = (*schedule.asymptotics(), float(schedule.value(schedule.b)))
    lam = np.linspace(min(ends), max(ends), 17)[:, None, None]
    h = 1e-3  # the energy step of wigner_delay
    g = rankone_resolvent(form, np.concatenate(
        [energies - h, energies, energies + h])).reshape(3, -1)
    denom = 1.0 - lam * g
    amp = np.conj(denom) / denom
    delay = np.real(-1j * (amp[:, 2] - amp[:, 0]) / (2.0 * h)
                    * np.conj(amp[:, 1]))
    return max(float(delay.max()), 0.0)


def clearance_T(model: ScatterModel, state: StateVector) -> float:
    """Asymptotic window length that clears the interaction both ways.

    The returned T satisfies: shifting the state by -T puts it left of
    the interaction (widened by a margin of 2), by +T right of it, and
    neither shift (nor the driven sweep between them) runs into the
    periodic seam.  A rank-one coupling delays the scattered wave, and
    the window grows by the time its tail needs to clear.
    """
    grid = state.grid
    radius = model.interaction_radius() + 2.0
    x_lo, x_hi = _support_bounds(state)
    edge = 0.5 + 8.0 * grid.dx
    t_min = max(x_hi + radius, radius - x_lo)
    if isinstance(model.coupling, RankOne):
        t_min += _delayed_tail(model.coupling, state)
    t_max = min(x_lo - grid.x_min, grid.x_max - x_hi) - edge
    if t_min > t_max:
        need = t_min + edge
        raise ValueError(
            f"window cannot clear the interaction: need T in "
            f"[{t_min:.3g}, {t_max:.3g}]; enlarge the grid so the state "
            f"has at least {need:.3g} of room on both sides")
    t_pick = t_min + 0.1 * (t_max - t_min)
    _, snapped = grid.snap(t_pick)
    return snapped


def _window(model: ScatterModel, state: StateVector,
            T: float | None) -> float:
    """The asymptotic window: clearance_T when T is None, else T snapped
    onto the grid lattice."""
    if T is None:
        return clearance_T(model, state)
    return state.grid.snap(T)[1]


def _check_cleared(state: StateVector, radius: float, side: str,
                   what: str) -> None:
    """Raise unless the state lies on the given side of |x| < radius, up
    to CLEARANCE_TOL of its weight."""
    dens = np.sum(np.abs(state.amplitudes) ** 2, axis=0)
    x = state.grid.points
    behind = x > -radius if side == "left" else x < radius
    mass = float(dens[behind].sum() / dens.sum())
    if mass > CLEARANCE_TOL:
        raise NumericalContractError(
            f"{what}: {mass:.2e} relative weight has not cleared the "
            f"interaction region (|x| < {radius:.3g})")


# ---------------------------------------------------------------------------
# Wave and scattering operators
# ---------------------------------------------------------------------------

def wave_operator(model: ScatterModel, s: float, sign: int,
                  state: StateVector, T: float | None = None) -> StateVector:
    """Finite-window wave operator at base point s.

    sign=-1 prepares from the incoming free asymptote:
    U(t_c, t_c - T) U_0(-T); sign=+1 from the outgoing one:
    U(t_c, t_c + T) U_0(+T), with t_c = s / omega.
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    T = _window(model, state, T)
    t_c = s / model.omega
    radius = model.interaction_radius()
    leg1 = free_shift(state, sign * T)
    _check_cleared(leg1, radius, "left" if sign < 0 else "right",
                   "wave operator asymptote")
    return propagate(model, leg1, t_c + sign * T, t_c)


def _scatter(model: ScatterModel, s: float, state: StateVector,
             T: float | None, direction: int,
             reference: ScatterModel | None = None) -> StateVector:
    """Outer leg, driven leg over [t_c - T, t_c + T], outer leg: run
    forward (direction=+1) or backward (direction=-1), with clearance of
    the interaction region checked at both seams."""
    T = _window(model, state, T)
    if reference is not None:
        if not reference.schedule.is_constant:
            raise ValueError("reference model must be frozen")
        if reference.n_channels != model.n_channels:
            raise ValueError("reference channel count disagrees")

    def outer_leg(psi: StateVector) -> StateVector:
        if reference is None:
            return free_shift(psi, -direction * T)
        return propagate(reference, psi, 0.0, -direction * T)

    t_c = s / model.omega
    radius = model.interaction_radius()
    first, last = ("left", "right") if direction > 0 else ("right", "left")
    leg1 = outer_leg(state)
    _check_cleared(leg1, radius, first, "scattering in-asymptote")
    mid = propagate(model, leg1, t_c - direction * T, t_c + direction * T)
    _check_cleared(mid, radius, last, "scattering out-asymptote")
    return outer_leg(mid)


def dynamical_S(model: ScatterModel, s: float, state: StateVector,
                T: float | None = None,
                reference: ScatterModel | None = None) -> StateVector:
    """Dynamical scattering operator at base point s applied to a state.

    Composition U_past(-T) . U(t_c + T, t_c - T) . U_past(-T) where the
    outer legs are free evolution, or evolution under a frozen reference
    model when one is supplied.  Clearance of the interaction region is
    checked at both seams.
    """
    return _scatter(model, s, state, T, +1, reference)


def dynamical_S_adjoint(model: ScatterModel, s: float, state: StateVector,
                        T: float | None = None) -> StateVector:
    """Adjoint of dynamical_S (free outer legs): its legs run backward."""
    return _scatter(model, s, state, T, -1)


def frozen_S_apply(model: ScatterModel, s: float, state: StateVector,
                   T: float | None = None) -> StateVector:
    """Frozen scattering operator at slow time s applied to a state."""
    return dynamical_S(frozen(model, s), 0.0, state, T=T)


# ---------------------------------------------------------------------------
# On-shell amplitudes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OnShellMatrix:
    matrix: np.ndarray
    s: float
    energy: float

    def unitarity_defect(self) -> float:
        m = self.matrix
        return float(np.linalg.norm(m @ np.conj(m.T) - np.eye(m.shape[0]), 2))


@dataclass(frozen=True)
class HermitianOnShell:
    matrix: np.ndarray
    s: float
    energy: float
    hermiticity_defect: float


def _matrix_transfer(model: ScatterModel, s: float) -> np.ndarray:
    """Frozen on-shell S of a matrix coupling: the characteristic factor
    of one point crossing [-(r+1), r+1], r = support_radius(1e-16).

    The step count is 40 per unit of span and of the largest field norm
    on 9 probes of the span, and at least 64; the field is Hermitian, so
    its norm is its largest |eigenvalue|.  The kernels then sample the
    midpoints of the span; the lattice is the crossing point and its
    neighbour one step on, since the kernels read dx off the grid.  Row
    b of the amplitudes is e_b, which the factor maps to column b of S.
    """
    coupling: MatrixPotential = model.coupling
    schedule = coupling.schedule.frozen_at(s).value
    rmax = coupling.support_radius(1e-16)
    radius = rmax + 1.0
    span = 2.0 * radius
    probes = coupling.value(-radius + np.linspace(0.0, 1.0, 9) * span,
                            schedule(0.0))
    max_norm = float(np.abs(np.linalg.eigvalsh(probes)).max())
    steps = max(64, int(math.ceil(40.0 * span * max_norm)))
    x = np.array([radius, radius + span / steps])
    basis = np.repeat(np.eye(model.n_channels, dtype=np.complex128)[..., None],
                      2, axis=-1)
    return _apply_characteristic(model, x, span, radius, steps, schedule,
                                 basis)[..., 0].T


# the bits of leggauss(800) and leggauss(160): each is a dense n x n
# eigensolve (Golub-Welsch) that every process would otherwise repeat
GAUSS_LEGENDRE_RULES = Path(__file__).with_name("gauss_legendre.npz")


@lru_cache(maxsize=8)
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]: the stored
    rule of GAUSS_LEGENDRE_RULES, read at the first call for each size; a
    size the file lacks raises KeyError."""
    with np.load(GAUSS_LEGENDRE_RULES) as rules:
        return read_only(rules[f"x{nodes}"]), read_only(rules[f"w{nodes}"])


def rankone_resolvent(form: GaussianMix, energies):
    """Boundary value g(E) = <chi|(E - P + i0)^{-1}|chi> by quadrature.

    Principal value via symmetric-window subtraction and 800
    Gauss-Legendre nodes; the imaginary part is the exact -i pi |chi_hat(E)|^2.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    band = form.fourier_band(1e-18)
    half = np.abs(energies) + band + 4.0
    gl_x, gl_w = gauss_legendre(800)
    k = energies[:, None] + half[:, None] * gl_x[None, :]
    rho = np.abs(form.fourier(k)) ** 2
    rho_e = np.abs(form.fourier(energies)) ** 2
    # an even node count puts no node on E: |E - k| >= 4 min|x_i| = 7.8e-3
    integrand = (rho - rho_e[:, None]) / (energies[:, None] - k)
    real_part = np.sum(integrand * (half[:, None] * gl_w[None, :]), axis=1)
    out = real_part - 1j * math.pi * rho_e
    return out if out.size > 1 else complex(out[0])


def rankone_resolvent_exact(form: GaussianMix, energies):
    """Closed form of the resolvent for a single centered Gaussian form.

    Independent reference route for rankone_resolvent, via the Faddeeva
    function: for rho(k) = A exp(-k^2 w^2 / 2) the boundary value is
    A pi [Im w(z) - i Re w(z)] at z = E w / sqrt(2).  On the real axis
    w(z) = exp(-z^2) + 2i D(z) / sqrt(pi), D Dawson's integral.
    """
    if len(form.amps) != 1 or form.centers[0] != 0.0:
        raise ValueError("closed form needs a single centered Gaussian")
    a, w = form.amps[0], form.widths[0]
    amp = a * a * w * w / 2.0
    z = np.asarray(energies, dtype=float) * w / math.sqrt(2.0)
    out = amp * math.pi * (2.0 / math.sqrt(math.pi) * _dawson(z)
                           - 1j * np.exp(-z * z))
    return out if np.ndim(energies) else complex(out)


def rankone_scalar_amplitude(coupling: RankOne, s: float, energies):
    """Unimodular scalar amplitude of the rank-one channel at energy E."""
    lam = float(coupling.schedule.value(s))
    g = rankone_resolvent(coupling.form, energies)
    denom = 1.0 - lam * np.asarray(g)
    return np.conj(denom) / denom


def on_shell_S(model: ScatterModel, s: float,
               energy: float = 0.0) -> OnShellMatrix:
    """Frozen on-shell scattering matrix at slow time s and given energy.

    The matrix backend is energy independent (linear dispersion turns
    the scattering problem into an ordered line integral); the rank-one
    backend carries genuine energy dependence through its resolvent.
    """
    if isinstance(model.coupling, MatrixPotential):
        matrix = _matrix_transfer(model, s)
    else:
        scalar = rankone_scalar_amplitude(model.coupling, s, energy)
        u = model.coupling.vector
        proj = np.outer(u, np.conj(u))
        matrix = np.eye(model.n_channels, dtype=np.complex128) \
            + (scalar - 1.0) * proj
    return OnShellMatrix(matrix, s, float(energy))


def wigner_delay(model: ScatterModel, s: float,
                 energy: float = 0.0) -> HermitianOnShell:
    """Wigner delay matrix -i S'(E) S(E)^dagger, Hermitized with defect;
    S' by central difference with step 1e-3.

    The matrix backend is energy independent (see on_shell_S), so its
    delay is exactly zero and no on-shell matrix is built for it.
    """
    if isinstance(model.coupling, MatrixPotential):
        nc = model.n_channels
        return HermitianOnShell(np.zeros((nc, nc), dtype=np.complex128), s,
                                float(energy), 0.0)
    return _times_adjoint(model, s, energy, -1j,
                          lambda en: on_shell_S(model, s, en).matrix, energy)


def frozen_energy_shift_onshell(model: ScatterModel, s: float,
                                energy: float = 0.0) -> HermitianOnShell:
    """Frozen-family energy shift i dS/ds S^dagger, Hermitized with defect;
    dS/ds by central difference with step 1e-3."""
    return _times_adjoint(model, s, energy, 1j,
                          lambda sv: on_shell_S(model, sv, energy).matrix, s)


def _times_adjoint(model: ScatterModel, s: float, energy: float,
                   factor: complex, sfun, x0: float) -> HermitianOnShell:
    """factor S' S^dagger at (s, energy), Hermitized with defect; S' is
    the central difference of sfun at x0 with step 1e-3."""
    base = on_shell_S(model, s, energy).matrix
    ds = central_derivative(sfun, x0, 1e-3)
    herm, defect = hermitize(factor * ds @ np.conj(base.T))
    return HermitianOnShell(herm, s, float(energy), defect)


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------

def intertwine_residual(model: ScatterModel, s: float,
                        state: StateVector) -> float:
    """Frozen intertwining defect max over both wave operators.

    Measures |H_s Omega psi - Omega H_0 psi| / |psi| for the frozen
    model at s; exact intertwining drives this to the discretization
    floor.
    """
    fmodel = frozen(model, s)
    T = clearance_T(fmodel, state)
    h0state = apply_h0(state)
    worst = 0.0
    for sign in (-1, +1):
        om = wave_operator(fmodel, s, sign, state, T=T)
        lhs = apply_hamiltonian(fmodel, s / model.omega, om)
        rhs = wave_operator(fmodel, s, sign, h0state, T=T)
        diff = StateVector(state.grid, lhs.amplitudes - rhs.amplitudes)
        worst = max(worst, diff.norm() / state.norm())
    return worst


def omega_dot_residual(model: ScatterModel, s: float,
                       state: StateVector) -> float:
    """Base-point equation of motion defect of the incoming dynamical
    wave operator.

    Returns |i omega dOmega/ds psi - (H_s Omega psi - Omega H_0 psi)| /
    |psi| for the time-dependent model, with the s-derivative taken by
    central difference (step 1e-3) over the base point.  The equation is
    exact, so the residual sits at the differencing and grid floor.
    """
    T = clearance_T(model, state)

    def family(sv: float) -> np.ndarray:
        return wave_operator(model, sv, -1, state, T=T).amplitudes

    dom = central_derivative(family, s, 1e-3)
    fmodel = frozen(model, s)
    om = wave_operator(model, s, -1, state, T=T)
    lhs = apply_hamiltonian(fmodel, s / model.omega, om).amplitudes
    rhs = wave_operator(model, s, -1, apply_h0(state), T=T).amplitudes
    resid = 1j * model.omega * dom - (lhs - rhs)
    return StateVector(state.grid, resid).norm() / state.norm()
