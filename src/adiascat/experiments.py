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
from .soluble import (dynamical_energy_shift_profile, dynamical_S_profile,
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
    """A gate's outcome.  ratio is the measured value over the gate's
    limit in GATES, the largest over its parts (see gate_ratio), and the
    gate passes exactly when it is below 1."""

    criterion: str
    name: str
    passed: bool = field(init=False)
    ratio: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        self.passed = bool(self.ratio < 1.0)


def gate_ratio(value: float, limit: float) -> float:
    """value / limit, the ratio a gate passes below 1: over a zero limit
    it is inf, or 0 when value is 0 as well, and inf when either is NaN,
    so that a NaN part fails the gate whatever the max over parts sees."""
    if limit == 0.0:
        return 0.0 if value == 0.0 else math.inf
    ratio = value / limit
    return math.inf if math.isnan(ratio) else ratio


def _worst_step(values: list[float]) -> float:
    """The largest ratio of successive values, below 1 exactly when they
    fall at every step (0 for fewer than two)."""
    return max(map(gate_ratio, values[1:], values[:-1]), default=0.0)


@dataclass
class ExperimentResult:
    rows: list[Row]
    checks: list[Check]
    info: dict = field(default_factory=dict)


@dataclass
class Setup:
    """Resolved inputs of a single run; the model is at the first omega."""

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

    @property
    def first(self) -> tuple[ScatterModel, float, float, float]:
        """The model, and the first eps, s and e."""
        return (self.model, self.epsilons[0], self.s_values[0],
                self.e_values[0])


def _with_omega(model, w: float):
    return dataclasses.replace(model, omega=w)


class _Rows(list):
    """The rows of one driver, each with the fields given here unless add
    overrides them.  With timing on, each row's wall_ms is the time since
    the previous row was added, or since the recorder was made, so the
    column adds up to the driver's run."""

    def __init__(self, timing: bool, **fields):
        super().__init__()
        self._fields = fields
        self._mark = time.perf_counter() if timing else None

    def add(self, experiment: str, exact: complex, approx: complex,
            **fields) -> None:
        wall_ms = None
        if self._mark is not None:
            now = time.perf_counter()
            wall_ms, self._mark = (now - self._mark) * 1e3, now
        self.append(Row(experiment, value_exact=exact, value_approx=approx,
                        wall_ms=wall_ms, **(self._fields | fields)))

    def errors(self, experiment: str) -> list[float]:
        """The abs_error of each row of experiment, in order."""
        return [row.abs_error for row in self if row.experiment == experiment]


# Every gate's tolerances, keyed by (criterion, name): the drivers divide
# by them for each Check's ratio, as the acceptance battery does for
# criterion-09, which only it checks.  Monotone sweeps have none.
GATES: dict[tuple[str, str], dict[str, float]] = {
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
         "grid_ratio_min": 3.0, "grid_ratio_max": 5.0, "omega_dot": 1e-5},
}


def run_coherent_props(setup: Setup) -> ExperimentResult:
    """Norm, shift covariance, overlap, resolution and plane-wave checks
    on seeded random labels."""
    rows = _Rows(setup.timing)
    grid = setup.grid
    draws = _coherent_draws(setup)
    for label, tau, other, en in draws:
        t, e, eps = label.t, label.e, label.eps
        state = coherent_state(label, grid)

        rows.add("coherent-props/A", complex(state.norm()), 1.0 + 0.0j,
                 eps=eps, s=t, e=e)

        shifted = free_shift(state, tau)
        predicted = coherent_state(CoherentLabel(t - tau, e, eps), grid)
        phase = complex(np.exp(-0.5j * tau * e))
        dist = float(np.sqrt(grid.dx) * np.linalg.norm(
            shifted.amplitudes - phase * predicted.amplitudes))
        rows.add("coherent-props/C", complex(dist), 0.0j, eps=eps, s=t, e=e)

        measured = braket(state, coherent_state(other, grid))
        closed = overlap(label, other)
        rows.add("coherent-props/D", measured, closed, eps=eps, s=t, e=e)

        res = identity_resolution_residual(state, eps)
        rows.add("coherent-props/E", complex(res), 0.0j, eps=eps, s=t, e=e)

        amp = complex(plane_wave_amplitude(state, np.array([en]))[0, 0])
        pred = complex(np.exp(-0.5j * t * e) * np.exp(1j * t * en)
                       * (math.pi * eps ** 2) ** -0.25
                       * math.exp(-(en - e) ** 2 / (2.0 * eps ** 2)))
        rows.add("coherent-props/F", amp, pred, eps=eps, s=t, e=en)

    # each row's abs_error is its property's error
    worst = {k: max(rows.errors(f"coherent-props/{k}")) for k in "ACDEF"}
    gate = ("criterion-01", "coherent-properties")
    tols = GATES[gate]
    checks = [Check(*gate, max(gate_ratio(worst[k], tols[k]) for k in tols),
                    details={f"worst_{k}": worst[k] for k in sorted(worst)}
                    | {f"tol_{k}": tols[k] for k in sorted(tols)})]
    return ExperimentResult(rows, checks, info={"labels": len(draws)})


def _coherent_draws(setup: Setup) -> list[tuple[CoherentLabel, float,
                                                CoherentLabel, float]]:
    """coherent-props' 100 seeded draws, in the driver's order: each
    label, its free shift tau on the dx lattice, the label its overlap
    is taken with, and the energy of its plane-wave amplitude."""
    rng = np.random.default_rng(setup.seed)
    # per label, one uniform draw each, in this order: t, e, eps, tau, the
    # partner's offsets in t and in e, and the energy offset in units of eps
    low = (-4.0, -2.5, 0.3, -2.0, -1.5, -1.0, -1.0)
    high = (4.0, 2.5, 1.2, 2.0, 1.5, 1.0, 1.0)
    return [(CoherentLabel(t, e, eps), setup.grid.snap(tau)[1],
             CoherentLabel(t + dt, e + de, eps), e + de_n * eps)
            for t, e, eps, tau, dt, de, de_n
            in rng.uniform(low, high, size=(100, 7)).tolist()]


def run_soluble_exact(setup: Setup) -> ExperimentResult:
    """Brute-force propagation against the closed-form scattering phase."""
    soluble_potential(setup.model)
    _, eps, s, _ = setup.first
    rows = _Rows(setup.timing, eps=eps, s=s, j=0, jp=0)
    grid = setup.grid
    worst_dist = 0.0
    for w in setup.omegas:
        net = _with_omega(setup.model, w)
        profile = dynamical_S_profile(net, s, grid)
        for label in _soluble_exact_labels(setup):
            ket = coherent_state(label, grid)
            out = dynamical_S(net, s, ket)
            closed = StateVector(grid, profile * ket.amplitudes)
            dist = float(np.sqrt(grid.dx) * np.linalg.norm(
                out.amplitudes - closed.amplitudes))
            worst_dist = max(worst_dist, dist)
            rows.add("soluble-exact", braket(ket, out), braket(ket, closed),
                     omega=w, e=label.e)
    return ExperimentResult(rows, [_below(
        ("criterion-02", "soluble-oracle-equivalence"), worst_dist,
        "worst_state_distance")])


def _soluble_exact_labels(setup: Setup) -> list[CoherentLabel]:
    """The labels t = 0 and t = -2 at every e and the first eps."""
    return [CoherentLabel(t, e, setup.epsilons[0])
            for t in (0.0, -2.0) for e in setup.e_values]


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
    _, eps, s, e = setup.first
    rows = _Rows(setup.timing, eps=eps, s=s, e=e, j=0, jp=0)
    grid = setup.grid
    rng = np.random.default_rng(setup.seed)

    tau = adiabatic_tau(setup.model, s, e, eps, grid=_tau_grid(setup.grid))
    for w in setup.omegas:
        rows.add("omega-scaling", remainder_exact(_with_omega(setup.model, w),
                                                  s, e, eps, grid=grid),
                 -1j * w * tau, omega=w, predicted_bound=w * abs(tau))
    mags = [abs(row.value_exact) for row in rows]
    resid = rows.errors("omega-scaling")
    ratios = [rr / w for rr, w in zip(resid, setup.omegas)]
    rem_fit = fit_slope(setup.omegas, mags)
    res_fit = fit_slope(setup.omegas, resid)
    gate = ("criterion-04", "first-order-law")
    law = GATES[gate]
    law_check = Check(*gate, max(
        gate_ratio(abs(rem_fit.exponent - law["slope"]), law["slope_tol"]),
        _worst_step(ratios)),
        details={"remainder_slope": rem_fit.exponent,
                 "residual_slope": res_fit.exponent,
                 "residual_over_omega": ratios,
                 "tau": [tau.real, tau.imag]})

    w_deg = min(setup.omegas, key=lambda v: abs(v - 0.1))
    for k in range(5):
        nets = [_one_term(p, setup.model.schedule, w_deg)
                for p in _random_equal_weight_pair(rng)]
        sf = [complex(on_shell_S(n, s, e).matrix[0, 0]) for n in nets]
        tw = [float(np.linalg.norm(wigner_delay(n, s, e).matrix))
              for n in nets]
        rows.add("omega-scaling/degeneracy", sf[0], sf[1], omega=w_deg)
        rows.add("omega-scaling/wigner", complex(max(tw)), 0.0j, omega=w_deg)
    worst_sf = max(rows.errors("omega-scaling/degeneracy"))
    worst_tw = max(rows.errors("omega-scaling/wigner"))
    gate = ("criterion-03", "frozen-data-degeneracy")
    tol = GATES[gate]
    degeneracy = Check(*gate, max(gate_ratio(worst_sf, tol["frozen_gap"]),
                                  gate_ratio(worst_tw, tol["wigner_delay"])),
                       details={"worst_frozen_gap": worst_sf,
                                "worst_wigner_delay": worst_tw, "pairs": 5})

    mirror = GaussianMix(potential.amps, tuple(-c for c in potential.centers),
                         potential.widths)
    net_a = _with_omega(setup.model, w_deg)
    net_b = _one_term(mirror, setup.model.schedule, w_deg)
    # the model itself at w_deg: its remainder is the omega loop's row
    rem_pair = [rows[setup.omegas.index(w_deg)].value_exact,
                remainder_exact(net_b, s, e, eps, grid=grid)]
    sf_pair = [complex(on_shell_S(n, s, e).matrix[0, 0])
               for n in (net_a, net_b)]
    frozen_gap = abs(sf_pair[0] - sf_pair[1])
    gap = abs(rem_pair[0] - rem_pair[1])
    rows.add("omega-scaling/mirror", rem_pair[0], rem_pair[1], omega=w_deg)
    gate = ("criterion-05", "frozen-data-insufficiency")
    tol = GATES[gate]
    insufficiency = Check(*gate, max(
        gate_ratio(frozen_gap, tol["frozen_gap"]),
        gate_ratio(tol["remainder_gap"], gap)),
        details={"frozen_gap": frozen_gap, "remainder_gap": gap,
                 "threshold": tol["remainder_gap"]})
    return ExperimentResult(rows, [law_check, degeneracy, insufficiency],
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


def run_epsilon_scaling(setup: Setup) -> ExperimentResult:
    """Smeared on-shell matrix against its center value over an
    energy-width sweep."""
    net, _, s, e = setup.first
    rows = _Rows(setup.timing, omega=net.omega, s=s, e=e, j=setup.j,
                 jp=setup.jp)
    for eps in setup.epsilons:
        report = onshell_vs_frozen(net, s, e, eps, setup.j, setup.jp)
        rows.add("epsilon-scaling", report.value_exact, report.value_approx,
                 eps=eps, predicted_bound=report.predicted_bound)
    errors = rows.errors("epsilon-scaling")
    gate = ("criterion-06", "on-shell-smearing")
    tol = GATES[gate]
    info = {}
    if isinstance(net.coupling, RankOne):
        info["slope"] = fit_slope(setup.epsilons, errors).exponent
        ratio = gate_ratio(abs(info["slope"] - tol["slope"]),
                           tol["slope_tol"])
        details = {"slope": info["slope"], "target": tol["slope"],
                   "tol": tol["slope_tol"]}
    else:
        ratio = gate_ratio(max(errors), tol["matrix_error"])
        details = {"worst_error": max(errors), "tol": tol["matrix_error"],
                   "note": "energy independent backend"}
    return ExperimentResult(rows, [Check(*gate, ratio, details=details)],
                            info)


def _joint_sweep(setup: Setup, rows: _Rows, label: str, gate: tuple[str, str],
                 report_at: Callable[[ScatterModel, float, float],
                                     ErrorReport]) -> Check:
    """Shrink both small parameters together, omega = eps^2, over the
    joint labels, adding one row per point (its e, j and jp are the rows'
    own); the check passes when the error falls at every step.
    report_at(model, eps, s) gives one sweep point, with the model at its
    omega and s = omega t on the matched label."""
    probes = _joint_labels(setup)
    for probe in probes:
        w_k = probe.eps ** 2
        report = report_at(_with_omega(setup.model, w_k), probe.eps,
                           w_k * probe.t)
        rows.add(label, report.value_exact, report.value_approx, omega=w_k,
                 eps=probe.eps, s=w_k * probe.t,
                 predicted_bound=report.predicted_bound)
    errs = rows.errors(label)
    return Check(*gate, _worst_step(errs),
                 details={"errors": errs,
                          "sweep_eps": [probe.eps for probe in probes],
                          "label_t": probes[0].t})


def _joint_labels(setup: Setup) -> list[CoherentLabel]:
    """The labels of the joint sweep: t = 2 at the first e, at each eps of
    the sweep if it lists three, else at 0.4, 0.2 and 0.1."""
    sweep_eps = setup.epsilons if len(setup.epsilons) >= 3 \
        else (0.4, 0.2, 0.1)
    return [CoherentLabel(2.0, setup.e_values[0], eps) for eps in sweep_eps]


def _below(gate: tuple[str, str], value: float, key: str = "error",
           **details) -> Check:
    """The gate that holds value below its tolerance, with details value
    under key, the tolerance, then the rest."""
    tol = GATES[gate]["tol"]
    return Check(*gate, gate_ratio(value, tol),
                 details={key: value, "tol": tol} | details)


def run_energy_shift(setup: Setup) -> ExperimentResult:
    """Algebraic energy shift against s-differencing, the closed profile,
    base-point conjugation, and the thawed-vs-frozen joint sweep."""
    soluble_potential(setup.model)
    net, eps, s, e = setup.first
    rows = _Rows(setup.timing, omega=net.omega, eps=eps, s=s, e=e, j=0, jp=0)
    grid = setup.grid
    probe, probe_b, lhs_state, rhs_state = (
        coherent_state(label, grid) for label in _energy_shift_probes(setup))

    # (a) algebraic operator vs s-differencing of the scattering operator
    T = clearance_T(net, probe)
    op = energy_shift_operator(net, 0.0, T=T)
    exact_a = braket(probe, op(probe))
    adj = dynamical_S_adjoint(net, 0.0, probe, T=T)
    T_fix = T + 1.0

    def s_element(sv: float) -> complex:
        return braket(probe, dynamical_S(net, sv, adj, T=T_fix))

    h = 1e-2
    approx_a = 1j * central_derivative(s_element, 0.0, h)
    rows.add("energy-shift/differencing", exact_a, approx_a, s=0.0)
    differencing = _below(("criterion-07a", "algebraic-vs-differencing"),
                          abs(exact_a - approx_a), h=h)

    # (b) soluble closed profile
    profile = dynamical_energy_shift_profile(net, s, grid)
    op_s = energy_shift_operator(net, s)
    exact_b = braket(probe_b, op_s(probe_b))
    approx_b = complex(grid.dx * np.sum(
        profile * np.abs(probe_b.amplitudes[0]) ** 2))
    rows.add("energy-shift/profile", exact_b, approx_b)
    closed_profile = _below(("criterion-07b", "soluble-profile"),
                            abs(exact_b - approx_b))

    # (d) base-point conjugation on elements
    lhs = braket(lhs_state, energy_shift_operator(net, s)(lhs_state))
    rhs = braket(rhs_state, energy_shift_operator(net, 0.0)(rhs_state))
    rows.add("energy-shift/conjugation", lhs, rhs)
    conjugation = _below(("criterion-07d", "base-point-conjugation"),
                         abs(lhs - rhs))

    # thawed vs frozen under the joint sweep omega = eps^2
    def thawed(net_k: ScatterModel, eps_k: float, s_k: float) -> ErrorReport:
        return thawed_energy_shift_report(net_k, s_k, e, eps_k, grid=grid)

    return ExperimentResult(rows, [
        differencing, closed_profile, conjugation,
        _joint_sweep(setup, rows, "energy-shift/thawed",
                     ("criterion-08", "thawed-vs-frozen-joint-sweep"),
                     thawed)])


def _energy_shift_probes(setup: Setup) -> list[CoherentLabel]:
    """The probes of energy-shift's (a), (b) and (d) at the first sweep
    point: the matched label t = s / omega, t = 0, and the conjugate pair
    t = 1 and t = 1 + s / omega."""
    net, eps, s, e = setup.first
    t = s / net.omega
    return [CoherentLabel(t_k, e, eps) for t_k in (t, 0.0, 1.0, 1.0 + t)]


# outgoing-state's densities of H0 by name, and the one criterion-07c
# gates, which validate also holds at the two ends of the momentum band;
# the fermi floor opens the occupation softly below the band bottom, so
# it is smooth across the band seam
OUTGOING_DENSITIES = {"fermi": rho_fermi(mu=0.5, width=0.2, floor=-12.0),
                      "gaussian": rho_gaussian(center=0.0, width=1.0),
                      "poly": rho_polynomial((0.0, 1.0))}
OUTGOING_GATED = "fermi"


def run_outgoing_state(setup: Setup) -> ExperimentResult:
    """Dense functional-calculus transport check for several densities."""
    soluble_potential(setup.model)
    net, _, s, _ = setup.first
    rows = _Rows(setup.timing, omega=net.omega, s=s, j=0, jp=0)
    grid = setup.grid
    residuals = {}
    for name, rho in OUTGOING_DENSITIES.items():
        res = outgoing_state_check(net, s, rho, grid)
        residuals[name] = res
        rows.add(f"outgoing-state/{name}", complex(res), 0.0j)
    gate = ("criterion-07c", "outgoing-state-transport")
    tol = GATES[gate]["tol"]
    checks = [Check(*gate, gate_ratio(residuals[OUTGOING_GATED], tol),
                    details={"residuals": residuals, "tol": tol,
                             "grid_n": grid.n})]
    info = {"poly": (
        "not gated: rho(p) = p jumps by 2 pi/dx where the momentum band "
        "wraps, and the residual measures that band-seam jump (about "
        "0.74 pi/dx), so it diverges as dx shrinks")}
    return ExperimentResult(rows, checks, info=info)


def run_combined(setup: Setup) -> ExperimentResult:
    """Dynamical element against the frozen on-shell value with the
    first-order error bound, plus a joint shrink of both small parameters."""
    soluble_potential(setup.model)
    net, eps, s, e = setup.first
    rows = _Rows(setup.timing, omega=net.omega, eps=eps, s=s, e=e, j=0, jp=0)
    grid = setup.grid
    tau_num = adiabatic_tau(net, s, e, eps, grid=_tau_grid(grid))
    report = combined_report(net, s, e, eps, grid=grid, tau_value=tau_num)
    rows.add("combined", report.value_exact, report.value_approx,
             predicted_bound=report.predicted_bound)
    gate = ("criterion-04", "combined-bound")
    margin = GATES[gate]["margin"]
    bound = Check(*gate, gate_ratio(report.abs_error,
                                    margin * report.predicted_bound),
                  details={"abs_error": report.abs_error,
                           "predicted_bound": report.predicted_bound,
                           "margin": margin})

    def joint(net_k: ScatterModel, eps_k: float, s_k: float) -> ErrorReport:
        return combined_report(net_k, s_k, e, eps_k, grid=grid,
                               tau_value=tau_first_order(net_k, s_k))

    return ExperimentResult(rows, [bound, _joint_sweep(
        setup, rows, "combined/joint", ("criterion-04", "joint-monotone"),
        joint)])


@dataclass(frozen=True)
class Declaration:
    """One experiment: its driver, and what the driver asks of its setup,
    which validate checks before a run."""

    run: Callable[[Setup], ExperimentResult]
    closed_forms: bool = False  # it reads soluble_potential(model)
    # the coherent labels it builds from the sweep and propagates
    labels: Callable[[Setup], list[CoherentLabel]] = lambda setup: []
    tau_window: bool = False  # it walks adiabatic_tau's +-8/eps[0] labels
    dense_eigh: bool = False  # it takes one dense eigh of the grid
    on_shell: bool = False  # it reads j, jp and the model's on-shell data
    # the labels it builds without propagating, each with the duration
    # free_shift moves its packet by, or None
    packets: Callable[[Setup], list[tuple[CoherentLabel, float | None]]] = \
        lambda setup: []


def _matched_labels(setup: Setup) -> list[CoherentLabel]:
    """The matched labels t = s / omega at each omega (first s, e, eps)."""
    _, eps, s, e = setup.first
    return [CoherentLabel(s / w, e, eps) for w in setup.omegas]


DECLARATIONS: dict[str, Declaration] = {
    "coherent-props": Declaration(run_coherent_props, packets=lambda setup: [
        packet for label, tau, other, _ in _coherent_draws(setup)
        for packet in ((label, tau), (other, None))]),
    "soluble-exact": Declaration(run_soluble_exact, True,
                                 _soluble_exact_labels),
    "omega-scaling": Declaration(run_omega_scaling, True, _matched_labels,
                                 tau_window=True),
    "epsilon-scaling": Declaration(run_epsilon_scaling, on_shell=True),
    "energy-shift": Declaration(
        run_energy_shift, True,
        lambda setup: _energy_shift_probes(setup) + _joint_labels(setup)),
    "outgoing-state": Declaration(run_outgoing_state, True, dense_eigh=True),
    "combined": Declaration(
        run_combined, True,
        lambda setup: _matched_labels(setup)[:1] + _joint_labels(setup),
        tau_window=True),
}

# the drivers by name, which the command line runner dispatches through
EXPERIMENTS: dict[str, Callable[[Setup], ExperimentResult]] = {
    name: declared.run for name, declared in DECLARATIONS.items()}
