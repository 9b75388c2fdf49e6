"""Reproducible experiment drivers behind the command line runner.

Each driver walks its sweep in declared order, emits one schema row per
sweep point, and returns named pass/fail checks for the run summary.
Rows carry raw values; serialization is the runner's job.  Randomized
probes (labels, potential shapes) draw from a generator seeded once per
run, so a fixed seed fixes every row.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .adiabatic import (ErrorReport, adiabatic_tau, combined_report,
                        energy_shift_operator, onshell_vs_frozen,
                        outgoing_state_check, remainder_exact, rho_fermi,
                        rho_gaussian, rho_polynomial,
                        thawed_energy_shift_report)
from .coherent import (CoherentLabel, StateVector, braket, coherent_state,
                       free_shift, identity_resolution_residual, overlap,
                       plane_wave_amplitude)
from .network import (MatrixPotential, RankOne, ScatterModel, clearance_T,
                      dynamical_S, dynamical_S_adjoint, on_shell_S,
                      wigner_delay)
from .numerics import Grid, central_derivative, fit_slope
from .profiles import GaussianMix, Schedule
from .soluble import (dynamical_energy_shift_profile, gauge_phase,
                      soluble_potential, tau_first_order)


@dataclass
class Row:
    """One line of the unified results schema; None prints as empty."""

    experiment: str
    omega: float | None = None
    eps: float | None = None
    s: float | None = None
    e: float | None = None
    j: int | None = None
    jp: int | None = None
    value_exact: complex | None = None
    value_approx: complex | None = None
    predicted_bound: float | None = None
    wall_ms: float | None = None

    @property
    def abs_error(self) -> float | None:
        if self.value_exact is None or self.value_approx is None:
            return None
        return abs(self.value_exact - self.value_approx)


@dataclass
class Check:
    criterion: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class ExperimentResult:
    rows: list[Row]
    checks: list[Check]
    info: dict = field(default_factory=dict)


@dataclass
class Setup:
    """Resolved inputs of a single run.  Drivers that need the closed
    forms check the model with soluble_potential before propagating."""

    model: ScatterModel
    grid: Grid
    omegas: tuple[float, ...]
    epsilons: tuple[float, ...]
    s_values: tuple[float, ...]
    e_values: tuple[float, ...]
    j: int = 0
    jp: int = 0
    seed: int = 0
    timing: bool = False


def _with_omega(model, w: float):
    return dataclasses.replace(model, omega=w)


class _Rows(list):
    """The rows of one driver.  With timing on, each row's wall_ms is the
    time since the previous row was added, or since the recorder was
    made, so the column adds up to the driver's run."""

    def __init__(self, timing: bool):
        super().__init__()
        self._mark = time.perf_counter() if timing else None

    def add(self, experiment: str, exact: complex, approx: complex,
            **fields) -> None:
        wall_ms = None
        if self._mark is not None:
            now = time.perf_counter()
            wall_ms, self._mark = (now - self._mark) * 1e3, now
        self.append(Row(experiment, value_exact=exact, value_approx=approx,
                        wall_ms=wall_ms, **fields))


# ---------------------------------------------------------------------------
# coherent-props
# ---------------------------------------------------------------------------

def run_coherent_props(setup: Setup) -> ExperimentResult:
    """Norm, shift covariance, overlap, resolution and plane-wave checks
    on seeded random labels."""
    rows = _Rows(setup.timing)
    rng = np.random.default_rng(setup.seed)
    grid = setup.grid
    worst = {k: 0.0 for k in "ACDEF"}
    n_labels = 100
    for _ in range(n_labels):
        t = float(rng.uniform(-4.0, 4.0))
        e = float(rng.uniform(-2.5, 2.5))
        eps = float(rng.uniform(0.3, 1.2))
        label = CoherentLabel(t, e, eps)
        state = coherent_state(label, grid)

        norm = state.norm()
        worst["A"] = max(worst["A"], abs(norm - 1.0))
        rows.add("coherent-props/A", complex(norm), 1.0 + 0.0j,
                 eps=eps, s=t, e=e)

        tau = grid.snap(float(rng.uniform(-2.0, 2.0)))[1]
        shifted = free_shift(state, tau)
        predicted = coherent_state(CoherentLabel(t - tau, e, eps), grid)
        phase = complex(np.exp(-0.5j * tau * e))
        dist = float(np.sqrt(grid.dx) * np.linalg.norm(
            shifted.amplitudes - phase * predicted.amplitudes))
        worst["C"] = max(worst["C"], dist)
        rows.add("coherent-props/C", complex(dist), 0.0j, eps=eps, s=t, e=e)

        other = CoherentLabel(t + float(rng.uniform(-1.5, 1.5)),
                              e + float(rng.uniform(-1.0, 1.0)), eps)
        measured = braket(state, coherent_state(other, grid))
        closed = overlap(label, other)
        worst["D"] = max(worst["D"], abs(measured - closed))
        rows.add("coherent-props/D", measured, closed, eps=eps, s=t, e=e)

        res = identity_resolution_residual(state, eps)
        worst["E"] = max(worst["E"], res)
        rows.add("coherent-props/E", complex(res), 0.0j, eps=eps, s=t, e=e)

        en = e + float(rng.uniform(-1.0, 1.0)) * eps
        amp = complex(plane_wave_amplitude(state, np.array([en]))[0, 0])
        pred = complex(np.exp(-0.5j * t * e) * np.exp(1j * t * en)
                       * (math.pi * eps ** 2) ** -0.25
                       * math.exp(-(en - e) ** 2 / (2.0 * eps ** 2)))
        worst["F"] = max(worst["F"], abs(amp - pred))
        rows.add("coherent-props/F", amp, pred, eps=eps, s=t, e=en)

    tols = {"A": 1e-10, "C": 1e-9, "D": 1e-9, "E": 1e-6, "F": 1e-9}
    passed = all(worst[k] <= tols[k] for k in tols)
    checks = [Check("criterion-01", "coherent-properties", passed,
                    details={f"worst_{k}": worst[k] for k in sorted(worst)}
                    | {f"tol_{k}": tols[k] for k in sorted(tols)})]
    return ExperimentResult(rows, checks, info={"labels": n_labels})


# ---------------------------------------------------------------------------
# soluble-exact
# ---------------------------------------------------------------------------

def run_soluble_exact(setup: Setup) -> ExperimentResult:
    """Brute-force propagation against the closed-form scattering phase."""
    soluble_potential(setup.model)
    rows = _Rows(setup.timing)
    grid = setup.grid
    s = setup.s_values[0]
    eps = setup.epsilons[0]
    worst_dist = 0.0
    for w in setup.omegas:
        net = _with_omega(setup.model, w)
        profile = np.exp(-1j * gauge_phase(net, s, grid))
        for t_label in (0.0, -2.0):
            for e in setup.e_values:
                ket = coherent_state(CoherentLabel(t_label, e, eps), grid)
                out = dynamical_S(net, s, ket)
                closed = StateVector(grid, profile * ket.amplitudes)
                dist = float(np.sqrt(grid.dx) * np.linalg.norm(
                    out.amplitudes - closed.amplitudes))
                worst_dist = max(worst_dist, dist)
                rows.add("soluble-exact", braket(ket, out),
                         braket(ket, closed), omega=w, eps=eps, s=s, e=e,
                         j=0, jp=0)
    passed = worst_dist < 1e-6
    checks = [Check("criterion-02", "soluble-oracle-equivalence", passed,
                    details={"worst_state_distance": worst_dist,
                             "tol": 1e-6})]
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# omega-scaling
# ---------------------------------------------------------------------------

def _random_equal_weight_pair(rng) -> tuple[GaussianMix, GaussianMix]:
    a1 = float(rng.uniform(0.5, 1.5))
    c1 = float(rng.uniform(-1.5, 1.5))
    w1 = float(rng.uniform(0.7, 1.3))
    first = GaussianMix.single(a1, c1, w1)
    a2 = float(rng.uniform(0.4, 1.2))
    a3 = float(rng.uniform(0.4, 1.2))
    c2, c3 = (float(rng.uniform(-2.0, 2.0)) for _ in range(2))
    w2, w3 = (float(rng.uniform(0.6, 1.4)) for _ in range(2))
    second = GaussianMix((a2, a3), (c2, c3), (w2, w3))
    scale = first.weight / second.weight
    second = GaussianMix((a2 * scale, a3 * scale), (c2, c3), (w2, w3))
    return first, second


def run_omega_scaling(setup: Setup) -> ExperimentResult:
    """First-order law of the dynamical-minus-frozen remainder, plus the
    frozen-data degeneracy and its failure to see the remainder."""
    potential = soluble_potential(setup.model)
    rows = _Rows(setup.timing)
    grid = setup.grid
    rng = np.random.default_rng(setup.seed)
    checks: list[Check] = []
    s = setup.s_values[0]
    e = setup.e_values[0]
    eps = setup.epsilons[0]

    tau = adiabatic_tau(setup.model, s, e, eps, grid=_tau_grid(setup.grid))
    remainders = []
    for w in setup.omegas:
        rem = remainder_exact(_with_omega(setup.model, w), s, e, eps,
                              grid=grid)
        remainders.append(rem)
        rows.add("omega-scaling", rem, -1j * w * tau, omega=w, eps=eps,
                 s=s, e=e, j=0, jp=0, predicted_bound=w * abs(tau))
    mags = [abs(r) for r in remainders]
    resid = [abs(r + 1j * w * tau) for r, w in zip(remainders, setup.omegas)]
    ratios = [rr / w for rr, w in zip(resid, setup.omegas)]
    rem_fit = fit_slope(setup.omegas, mags)
    res_fit = fit_slope(setup.omegas, resid)
    monotone = all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
    passed = abs(rem_fit.exponent - 1.0) <= 0.1 and monotone
    checks.append(Check("criterion-04", "first-order-law", passed,
                        details={"remainder_slope": rem_fit.exponent,
                                 "residual_slope": res_fit.exponent,
                                 "residual_over_omega": ratios,
                                 "tau": [tau.real, tau.imag]}))

    w_deg = min(setup.omegas, key=lambda v: abs(v - 0.1))
    worst_sf, worst_tw = 0.0, 0.0
    for k in range(5):
        first, second = _random_equal_weight_pair(rng)
        nets = [_one_term(p, setup.model.schedule, w_deg)
                for p in (first, second)]
        sf = [complex(on_shell_S(n, s, e).matrix[0, 0]) for n in nets]
        tw = [float(np.linalg.norm(wigner_delay(n, s, e).matrix))
              for n in nets]
        worst_sf = max(worst_sf, abs(sf[0] - sf[1]))
        worst_tw = max(worst_tw, *tw)
        rows.add("omega-scaling/degeneracy", sf[0], sf[1], omega=w_deg,
                 eps=eps, s=s, e=e, j=0, jp=0)
        rows.add("omega-scaling/wigner", complex(max(tw)), 0.0j,
                 omega=w_deg, eps=eps, s=s, e=e, j=0, jp=0)
    checks.append(Check("criterion-03", "frozen-data-degeneracy",
                        worst_sf < 1e-12 and worst_tw < 1e-10,
                        details={"worst_frozen_gap": worst_sf,
                                 "worst_wigner_delay": worst_tw,
                                 "pairs": 5}))

    mirror = GaussianMix(potential.amps, tuple(-c for c in potential.centers),
                         potential.widths)
    net_a = _with_omega(setup.model, w_deg)
    net_b = _one_term(mirror, setup.model.schedule, w_deg)
    rem_pair = [remainder_exact(n, s, e, eps, grid=grid)
                for n in (net_a, net_b)]
    sf_pair = [complex(on_shell_S(n, s, e).matrix[0, 0])
               for n in (net_a, net_b)]
    gap = abs(rem_pair[0] - rem_pair[1])
    rows.add("omega-scaling/mirror", rem_pair[0], rem_pair[1], omega=w_deg,
             eps=eps, s=s, e=e, j=0, jp=0)
    checks.append(Check("criterion-05", "frozen-data-insufficiency",
                        abs(sf_pair[0] - sf_pair[1]) < 1e-12
                        and gap > 10.0 * 1e-6,
                        details={"frozen_gap": abs(sf_pair[0] - sf_pair[1]),
                                 "remainder_gap": gap,
                                 "threshold": 1e-5}))
    return ExperimentResult(rows, checks,
                            info={"remainder_slope": rem_fit.exponent,
                                  "residual_slope": res_fit.exponent})


def _one_term(potential: GaussianMix, schedule: Schedule,
              w: float) -> ScatterModel:
    """The soluble model of potential: one channel, the matrix [[1.0]]."""
    return ScatterModel(1, MatrixPotential(([[1.0]],), (potential,),
                                           schedule), w)


def _tau_grid(grid: Grid) -> Grid:
    # the response integral walks labels over +-8/eps; give them room
    span = grid.x_max - grid.x_min
    return Grid(grid.x_min - span / 4.0, grid.x_max + span / 4.0,
                int(grid.n * 3 // 2))


# ---------------------------------------------------------------------------
# epsilon-scaling
# ---------------------------------------------------------------------------

def run_epsilon_scaling(setup: Setup) -> ExperimentResult:
    """Smeared on-shell matrix against its center value over an
    energy-width sweep."""
    rows = _Rows(setup.timing)
    net = setup.model
    s = setup.s_values[0]
    e = setup.e_values[0]
    errors = []
    for eps in setup.epsilons:
        report = onshell_vs_frozen(net, s, e, eps, setup.j, setup.jp)
        errors.append(report.abs_error)
        rows.add("epsilon-scaling", report.value_exact, report.value_approx,
                 omega=net.omega, eps=eps, s=s, e=e, j=setup.j, jp=setup.jp,
                 predicted_bound=report.predicted_bound)
    if isinstance(net.coupling, RankOne):
        fit = fit_slope(setup.epsilons, errors)
        passed = abs(fit.exponent - 2.0) <= 0.2
        details = {"slope": fit.exponent, "target": 2.0, "tol": 0.2}
    else:
        fit = None
        passed = max(errors) < 1e-9
        details = {"worst_error": max(errors), "tol": 1e-9,
                   "note": "energy independent backend"}
    checks = [Check("criterion-06", "on-shell-smearing", passed,
                    details=details)]
    info = {"slope": fit.exponent} if fit else {}
    return ExperimentResult(rows, checks, info)


# ---------------------------------------------------------------------------
# energy-shift
# ---------------------------------------------------------------------------

def _joint_sweep(setup: Setup, rows: _Rows, label: str, criterion: str,
                 name: str,
                 report_at: Callable[[float, float, float], ErrorReport]
                 ) -> Check:
    """Shrink both small parameters together, omega = eps^2, on the
    matched label t = 2, adding one row per point; the check passes when
    the error falls monotonically.  report_at(omega, eps, s) gives one
    sweep point."""
    t0 = 2.0
    sweep_eps = setup.epsilons if len(setup.epsilons) >= 3 \
        else (0.4, 0.2, 0.1)
    e = setup.e_values[0]
    errs = []
    for eps_k in sweep_eps:
        w_k = eps_k ** 2
        report = report_at(w_k, eps_k, w_k * t0)
        errs.append(report.abs_error)
        rows.add(label, report.value_exact, report.value_approx, omega=w_k,
                 eps=eps_k, s=w_k * t0, e=e, j=0, jp=0,
                 predicted_bound=report.predicted_bound)
    monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    return Check(criterion, name, monotone,
                 details={"errors": errs, "sweep_eps": list(sweep_eps),
                          "label_t": t0})


def run_energy_shift(setup: Setup) -> ExperimentResult:
    """Algebraic energy shift against s-differencing, the closed profile,
    base-point conjugation, and the thawed-vs-frozen joint sweep."""
    soluble_potential(setup.model)
    rows = _Rows(setup.timing)
    grid = setup.grid
    checks: list[Check] = []
    s = setup.s_values[0]
    e = setup.e_values[0]
    eps = setup.epsilons[0]
    w0 = setup.omegas[0]
    net = _with_omega(setup.model, w0)

    # (a) algebraic operator vs s-differencing of the scattering operator
    probe = coherent_state(CoherentLabel(s / w0, e, eps), grid)
    T = clearance_T(net, probe)
    op = energy_shift_operator(net, 0.0, T=T)
    exact_a = braket(probe, op(probe))
    adj = dynamical_S_adjoint(net, 0.0, probe, T=T)
    T_fix = T + 1.0

    def s_element(sv: float) -> complex:
        return braket(probe, dynamical_S(net, sv, adj, T=T_fix))

    h = 1e-2
    approx_a = 1j * central_derivative(s_element, 0.0, h)
    rows.add("energy-shift/differencing", exact_a, approx_a, omega=w0,
             eps=eps, s=0.0, e=e, j=0, jp=0)
    checks.append(Check("criterion-07a", "algebraic-vs-differencing",
                        abs(exact_a - approx_a) < 1e-6,
                        details={"error": abs(exact_a - approx_a),
                                 "tol": 1e-6, "h": h}))

    # (b) soluble closed profile
    profile = dynamical_energy_shift_profile(net, s, grid)
    op_s = energy_shift_operator(net, s)
    probe_b = coherent_state(CoherentLabel(0.0, e, eps), grid)
    exact_b = braket(probe_b, op_s(probe_b))
    approx_b = complex(grid.dx * np.sum(
        profile * np.abs(probe_b.amplitudes[0]) ** 2))
    rows.add("energy-shift/profile", exact_b, approx_b, omega=w0, eps=eps,
             s=s, e=e, j=0, jp=0)
    checks.append(Check("criterion-07b", "soluble-profile",
                        abs(exact_b - approx_b) < 1e-6,
                        details={"error": abs(exact_b - approx_b),
                                 "tol": 1e-6}))

    # (d) base-point conjugation on elements
    t_label = 1.0
    lhs_state = coherent_state(CoherentLabel(t_label, e, eps), grid)
    lhs = braket(lhs_state, energy_shift_operator(net, s)(lhs_state))
    rhs_state = coherent_state(CoherentLabel(t_label + s / w0, e, eps), grid)
    rhs = braket(rhs_state, energy_shift_operator(net, 0.0)(rhs_state))
    rows.add("energy-shift/conjugation", lhs, rhs, omega=w0, eps=eps, s=s,
             e=e, j=0, jp=0)
    checks.append(Check("criterion-07d", "base-point-conjugation",
                        abs(lhs - rhs) < 1e-7,
                        details={"error": abs(lhs - rhs), "tol": 1e-7}))

    # thawed vs frozen under the joint sweep omega = eps^2
    def thawed(w_k: float, eps_k: float, s_k: float) -> ErrorReport:
        return thawed_energy_shift_report(_with_omega(setup.model, w_k), s_k,
                                          e, eps_k, grid=grid)

    checks.append(_joint_sweep(setup, rows, "energy-shift/thawed",
                               "criterion-08", "thawed-vs-frozen-joint-sweep",
                               thawed))
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# outgoing-state
# ---------------------------------------------------------------------------

def run_outgoing_state(setup: Setup) -> ExperimentResult:
    """Dense functional-calculus transport check for several densities."""
    soluble_potential(setup.model)
    rows = _Rows(setup.timing)
    grid = setup.grid
    if grid.n > 512:
        grid = Grid(grid.x_min, grid.x_max, 512)
    s = setup.s_values[0]
    w0 = setup.omegas[0]
    net = _with_omega(setup.model, w0)
    # the floor keeps the occupation smooth across the momentum band seam
    densities = [("fermi", rho_fermi(mu=0.5, width=0.2, floor=-12.0)),
                 ("gaussian", rho_gaussian(center=0.0, width=1.0)),
                 ("poly", rho_polynomial((0.0, 1.0)))]
    residuals = {}
    for name, rho in densities:
        res = outgoing_state_check(net, s, rho, grid)
        residuals[name] = res
        rows.add(f"outgoing-state/{name}", complex(res), 0.0j, omega=w0, s=s,
                 j=0, jp=0)
    checks = [Check("criterion-07c", "outgoing-state-transport",
                    residuals["fermi"] < 1e-5,
                    details={"residuals": residuals, "tol": 1e-5,
                             "grid_n": grid.n})]
    return ExperimentResult(rows, checks)


# ---------------------------------------------------------------------------
# combined
# ---------------------------------------------------------------------------

def run_combined(setup: Setup) -> ExperimentResult:
    """Dynamical element against the frozen on-shell value with the
    first-order error bound, plus a joint shrink of both small parameters."""
    soluble_potential(setup.model)
    rows = _Rows(setup.timing)
    grid = setup.grid
    checks: list[Check] = []
    s = setup.s_values[0]
    e = setup.e_values[0]
    eps = setup.epsilons[0]
    w0 = setup.omegas[0]

    net = _with_omega(setup.model, w0)
    tau_num = adiabatic_tau(net, s, e, eps, grid=_tau_grid(grid))
    report = combined_report(net, s, e, eps, grid=grid, tau_value=tau_num)
    rows.add("combined", report.value_exact, report.value_approx, omega=w0,
             eps=eps, s=s, e=e, j=0, jp=0,
             predicted_bound=report.predicted_bound)
    checks.append(Check("criterion-04", "combined-bound",
                        report.abs_error <= 3.0 * report.predicted_bound,
                        details={"abs_error": report.abs_error,
                                 "predicted_bound": report.predicted_bound,
                                 "margin": 3.0}))

    def joint(w_k: float, eps_k: float, s_k: float) -> ErrorReport:
        net_k = _with_omega(setup.model, w_k)
        return combined_report(net_k, s_k, e, eps_k, grid=grid,
                               tau_value=tau_first_order(net_k, s_k))

    checks.append(_joint_sweep(setup, rows, "combined/joint", "criterion-04",
                               "joint-monotone", joint))
    return ExperimentResult(rows, checks)


EXPERIMENTS: dict[str, Callable[[Setup], ExperimentResult]] = {
    "coherent-props": run_coherent_props,
    "soluble-exact": run_soluble_exact,
    "omega-scaling": run_omega_scaling,
    "epsilon-scaling": run_epsilon_scaling,
    "energy-shift": run_energy_shift,
    "outgoing-state": run_outgoing_state,
    "combined": run_combined,
}

# experiments that read the soluble closed forms (soluble_potential) of the
# model
CLOSED_FORM_EXPERIMENTS = frozenset({"soluble-exact", "omega-scaling",
                                     "energy-shift", "outgoing-state",
                                     "combined"})
