"""Command line runner: declarative configs in, reproducible data out.

``adiascat run --config exp.ini`` executes one experiment and writes
``results.csv`` plus ``summary.json`` into the output directory;
``adiascat validate --config exp.ini`` reports problems without running
anything.  Configs are INI files with [model], [grid], [sweep] and
[output] sections; command line flags override individual values.

Exit codes: 0 run or validation clean, 1 configuration problem (also
one that only shows mid-run), 2 numerical contract violation during a
run.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import logging
import math
import time
from pathlib import Path

import numpy as np

from ..experiments import (DECLARATIONS, EXPERIMENTS, GATES,
                          OUTGOING_DENSITIES, OUTGOING_GATED,
                          ExperimentResult, Row, Setup)
from ..adiabatic import OUTGOING_N_MAX
from ..network import (RankOne, MatrixPotential, ScatterModel, clearance_T,
                      rankone_resolvent)
from ..coherent import (CoherentLabel, coherent_state, free_shift,
                        require_fit)
from ..numerics import Grid, NumericalContractError
from ..profiles import GaussianMix, Schedule
from ..soluble import dynamical_S_profile, soluble_potential

logger = logging.getLogger(__name__)

CSV_HEADER = ("experiment,omega,eps,s,e,j,jp,value_exact_re,value_exact_im,"
              "value_approx_re,value_approx_im,abs_error,predicted_bound,"
              "wall_ms")

_SECTIONS = ("model", "grid", "sweep", "output")

_MATRIX_NAMES = {
    "sx": ((0.0, 1.0), (1.0, 0.0)),
    "sz": ((1.0, 0.0), (0.0, -1.0)),
    "id": ((1.0, 0.0), (0.0, 1.0)),
}


# largest jump |S_d(x_0) - S_d(x_{n-1})| of the closed-form scattering
# profile across the periodic seam that validate passes for a dense_eigh
# experiment: the fermi residual measures 0.365-0.384 times the jump
# (omega 0.05-0.1, s 0.2-0.8, n = 512 and 1024), so a jump below
# criterion-07c's tolerance / 0.4 keeps it under the gate
OUTGOING_SEAM_MAX = (
    GATES["criterion-07c", "outgoing-state-transport"]["tol"] / 0.4)

# largest difference of a gated density between the two ends of the
# momentum band, -pi/dx and pi/dx - dp, that validate passes for a
# dense_eigh experiment: where that jump dominates, the fermi residual
# measures 0.29-2.75 times it (omega 0.1-1, s 0.3-0.8, windows 80-160,
# band edges 10-16.5), so a jump below criterion-07c's tolerance / 3
# keeps it under the gate
OUTGOING_BAND_MAX = (
    GATES["criterion-07c", "outgoing-state-transport"]["tol"] / 3.0)


class ConfigError(Exception):
    """Configuration that cannot be run; message names the field."""


def _finite(value: float, field: str) -> float:
    """The value, unless it is nan or infinite: a ConfigError naming the
    field."""
    if not math.isfinite(value):
        raise ConfigError(f"{field} must be finite, not {value!r}")
    return value


def _floats(text: str, field: str) -> tuple[float, ...]:
    return tuple(_finite(float(tok), field)
                 for tok in text.split(",") if tok.strip())


def _parse_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    return parser


def _model_section(cfg: configparser.ConfigParser) -> dict:
    """The [model] section with every default filled in, as the summary
    records it: ``channel_matrix`` a row-major float list (names looked
    up), ``vector`` a float list."""
    sec = cfg["model"] if cfg.has_section("model") else {}
    if not sec:
        raise ConfigError("missing [model] section")
    kind = sec.get("kind", "soluble")
    if kind not in ("soluble", "matrix", "rankone"):
        raise ConfigError(f"unknown model kind '{kind}'")
    spec = {"kind": kind,
            "omega": _finite(sec.getfloat("omega", 0.1), "model.omega"),
            "schedule": sec.get("schedule", "tanh")}
    for key, default in zip("abcd", (1.0, 0.0, 1.0, 0.0)):
        spec[f"schedule_{key}"] = _finite(
            sec.getfloat(f"schedule_{key}", default), f"model.schedule_{key}")
    for key, default in (("amps", "1.0"), ("centers", "0.0"),
                         ("widths", "1.0")):
        spec[key] = list(_floats(sec.get(key, default), f"model.{key}"))
    if spec["omega"] <= 0:
        raise ConfigError("model omega must be positive")
    if not len(spec["amps"]) == len(spec["centers"]) == len(spec["widths"]):
        raise ConfigError("model amps/centers/widths lengths disagree")
    if kind == "matrix":
        name = sec.get("channel_matrix", "sx")
        vals = [v for row in _MATRIX_NAMES[name] for v in row] \
            if name in _MATRIX_NAMES \
            else list(_floats(name, "model.channel_matrix"))
        if math.isqrt(len(vals)) ** 2 != len(vals):
            raise ConfigError("channel_matrix must name sx/sz/id or "
                              "give a square row-major float list")
        spec["channel_matrix"] = vals
    if kind == "rankone":
        spec["vector"] = list(_floats(sec.get("vector", "1.0"),
                                      "model.vector"))
    return spec


def _build_model(spec: dict) -> ScatterModel:
    """The model of a resolved [model] section; kind = soluble is the
    one-channel, one-term [[1.0]] matrix model."""
    schedule = Schedule(spec["schedule"], a=spec["schedule_a"],
                        b=spec["schedule_b"], c=spec["schedule_c"],
                        d=spec["schedule_d"])
    mix = GaussianMix(spec["amps"], spec["centers"], spec["widths"])
    if spec["kind"] == "rankone":
        return ScatterModel(len(spec["vector"]),
                            RankOne(mix, schedule, spec["vector"]),
                            spec["omega"])
    vals = spec.get("channel_matrix", [1.0])
    mat = np.reshape(vals, (math.isqrt(len(vals)), -1))
    return ScatterModel(len(mat), MatrixPotential((mat,), (mix,), schedule),
                        spec["omega"])


def _build_setup(cfg: configparser.ConfigParser, args) -> tuple[Setup, dict]:
    """The run's inputs, and the resolved config that records them: one
    dict per INI section with every default and command line override
    applied, which reproduces the run when written back as INI."""
    sweep = cfg["sweep"] if cfg.has_section("sweep") else {}
    if not sweep or "experiment" not in sweep:
        raise ConfigError("missing [sweep] experiment")
    experiment = sweep.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment '{experiment}'; choose from "
            + ", ".join(sorted(EXPERIMENTS)))
    model = _model_section(cfg)
    grid = {"x_min": _finite(cfg.getfloat("grid", "x_min", fallback=-40.0),
                             "grid.x_min"),
            "x_max": _finite(cfg.getfloat("grid", "x_max", fallback=40.0),
                             "grid.x_max"),
            "n": cfg.getint("grid", "n", fallback=4096)}
    if args.grid_n is not None:
        grid["n"] = args.grid_n
    if grid["x_max"] <= grid["x_min"]:
        raise ConfigError("grid x_max must exceed x_min")
    if grid["n"] < 16:
        raise ConfigError("grid n must be at least 16")
    omegas = _floats(args.omega or sweep.get("omega", "0.2,0.1,0.05"),
                     "sweep.omega")
    epsilons = _floats(args.eps or sweep.get("eps", "0.5"), "sweep.eps")
    s_values = _floats(sweep.get("s", "0.5"), "sweep.s")
    e_values = _floats(sweep.get("e", "1.0"), "sweep.e")
    for name, values in (("omega", omegas), ("eps", epsilons),
                         ("s", s_values), ("e", e_values)):
        if not values:
            raise ConfigError(f"sweep.{name} needs at least one value")
    if any(w <= 0 for w in omegas):
        raise ConfigError("sweep omega values must be positive")
    if any(ep <= 0 for ep in epsilons):
        raise ConfigError("sweep eps values must be positive")
    j, jp = int(sweep.get("j", "0")), int(sweep.get("jp", "0"))
    seed = args.seed if args.seed is not None \
        else int(sweep.get("seed", "0"))
    if seed < 0:
        raise ConfigError(f"sweep.seed must be non-negative, not {seed}")
    out_dir = args.out or cfg.get("output", "dir", fallback="out")
    timing = bool(args.timing) \
        or cfg.getboolean("output", "timing", fallback=False)
    setup = Setup(model=_build_model(model), grid=Grid(**grid),
                  omegas=omegas, epsilons=epsilons, s_values=s_values,
                  e_values=e_values, j=j, jp=jp, seed=seed, timing=timing)
    config = {
        "model": model,
        "grid": grid,
        "sweep": {"experiment": experiment, "omega": list(omegas),
                  "eps": list(epsilons), "s": list(s_values),
                  "e": list(e_values), "j": j, "jp": jp, "seed": seed},
        "output": {"dir": str(Path(out_dir)), "timing": timing},
    }
    return setup, config


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_setup(experiment: str, setup: Setup) -> list[dict]:
    """All problems a run would hit, without propagating anything: what
    the experiment's declaration (experiments.DECLARATIONS) says its
    driver asks of the setup."""
    declared = DECLARATIONS[experiment]
    diagnostics: list[dict] = []

    def report(field: str, message: str) -> None:
        diagnostics.append({"field": field, "message": message})

    net, grid = setup.model, setup.grid
    soluble = True
    if declared.closed_forms:
        try:
            soluble_potential(net)
        except ValueError as exc:
            soluble = False
            report("model", f"{experiment}: {exc}")
    if declared.dense_eigh and grid.n > OUTGOING_N_MAX:
        report("grid", f"{experiment} takes one dense eigh, so it needs grid "
                       f"n <= {OUTGOING_N_MAX}, not {grid.n}")
    elif declared.dense_eigh and soluble:
        # the run's profile at its first omega and s, O(n * support)
        first, _, s, _ = setup.first
        profile = dynamical_S_profile(first, s, grid)
        jump = float(abs(profile[0] - profile[-1]))
        if jump > OUTGOING_SEAM_MAX:
            report("grid", f"{experiment}: the scattering profile jumps by "
                           f"{jump:.3g} across the periodic seam, above "
                           f"{OUTGOING_SEAM_MAX:.3g}; the transport residual "
                           "is about 0.38 times the jump, so widen the grid "
                           "window or raise omega")
        ends = grid.momenta[[grid.n // 2, grid.n // 2 - 1]]  # -+pi/dx
        rho = OUTGOING_DENSITIES[OUTGOING_GATED]
        jump = float(abs(np.diff(rho(ends))[0]))
        if jump > OUTGOING_BAND_MAX:
            report("grid", f"{experiment}: the {OUTGOING_GATED} density "
                           f"differs by {jump:.3g} between the ends of the "
                           f"momentum band +-{grid.p_max:.3g}, above "
                           f"{OUTGOING_BAND_MAX:.3g}; raise grid n to widen "
                           "the band")
    half_window = 0.5 * (grid.x_max - grid.x_min)
    reach = 8.0 / setup.epsilons[0]
    if declared.tau_window and reach > half_window:
        report("sweep.eps", f"response window 8/eps = {reach:.3g} exceeds "
                            f"the half window {half_window:.3g}; enlarge the "
                            "grid or raise eps")
    for name, index in (("j", setup.j), ("jp", setup.jp)):
        if declared.on_shell and not 0 <= index < net.n_channels:
            report(f"sweep.{name}", f"channel index {name} = {index} is "
                                    f"outside [0, {net.n_channels}) for this "
                                    "model")
    if declared.on_shell and isinstance(net.coupling, RankOne):
        # every listed s and e: the worst gap over the whole sweep
        lam = net.coupling.schedule.value(np.asarray(setup.s_values))
        span = 6.0 * max(setup.epsilons)
        energies = (np.asarray(setup.e_values)[:, None]
                    + np.linspace(-span, span, 97)).ravel()
        g = rankone_resolvent(net.coupling.form, energies)
        gap = np.min(np.abs(1.0 - np.multiply.outer(lam, g)))
        if gap < 5e-2:
            # the delay, and with it the window, has no bound: report only this
            report("model", f"resonance: |1 - lambda g(E)| reaches {gap:.3g} "
                            "inside the smearing window")
            return diagnostics
    for label in declared.labels(setup):
        try:
            clearance_T(net, coherent_state(label, grid,
                                            n_channels=net.n_channels))
        except ValueError as exc:
            report("grid", str(exc))
            break
    for label, tau in declared.packets(setup):
        try:
            if tau is None:
                require_fit(label, grid)
            else:
                # the run's own wrap check, on the packet it shifts
                free_shift(coherent_state(label, grid), tau)
                require_fit(CoherentLabel(label.t - tau, label.e, label.eps),
                            grid)
        except (ValueError, NumericalContractError) as exc:
            report("grid", f"{experiment}: {exc}; widen the grid window")
            break
    return diagnostics


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _row_line(row: Row) -> str:
    exact = row.value_exact
    approx = row.value_approx
    cells = [
        row.experiment,
        _fmt(row.omega), _fmt(row.eps), _fmt(row.s), _fmt(row.e),
        _fmt(row.j), _fmt(row.jp),
        _fmt(exact.real if exact is not None else None),
        _fmt(exact.imag if exact is not None else None),
        _fmt(approx.real if approx is not None else None),
        _fmt(approx.imag if approx is not None else None),
        _fmt(row.abs_error), _fmt(row.predicted_bound), _fmt(row.wall_ms),
    ]
    return ",".join(cells)


def write_results(out_dir: Path, config: dict, result: ExperimentResult,
                  wall_s: float) -> None:
    """results.csv, and summary.json with the resolved config of the run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER] + [_row_line(r) for r in result.rows]
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n",
                                         encoding="ascii")
    summary = {
        "experiment": config["sweep"]["experiment"],
        "status": "ok",
        "rows": len(result.rows),
        "seed": config["sweep"]["seed"],
        "wall_s": wall_s,
        "checks": [dataclasses.asdict(c) for c in result.checks],
        "info": result.info,
        "config": config,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, default=float) + "\n",
        encoding="ascii")


def _write_failure(out_dir: Path, status: str, diagnostics: list[dict]) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "summary.json").write_text(
            json.dumps({"status": status, "diagnostics": diagnostics},
                       indent=2) + "\n", encoding="ascii")
    except OSError:
        logger.error("could not write failure summary to %s", out_dir)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiascat",
        description="adiabatic scattering experiments on chiral channels")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--omega", default=None,
                       help="comma list, overrides the sweep")
        p.add_argument("--eps", default=None,
                       help="comma list, overrides the sweep")
        p.add_argument("--grid-n", type=int, default=None, dest="grid_n")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--timing", action="store_true",
                       help="fill the wall_ms column with the time since "
                            "the previous row, so that it adds up to the "
                            "run (breaks byte reproducibility)")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        cfg = _parse_ini(args.config)
        setup, config = _build_setup(cfg, args)
    except (ConfigError, ValueError) as exc:
        logger.error("%s", exc)
        if args.command == "run":
            _write_failure(Path(args.out or "out"), "config-error",
                           [{"field": "config", "message": str(exc)}])
        else:
            print(json.dumps([{"field": "config", "message": str(exc)}],
                             indent=2))
        return 1

    experiment = config["sweep"]["experiment"]
    out_dir = Path(config["output"]["dir"])
    diagnostics = validate_setup(experiment, setup)
    if args.command == "validate":
        print(json.dumps(diagnostics, indent=2))
        return 1 if diagnostics else 0
    if diagnostics:
        logger.error("validation failed with %d diagnostic(s)",
                     len(diagnostics))
        _write_failure(out_dir, "validation-error", diagnostics)
        return 1

    for section, values in config.items():
        logger.info("[%s] %s", section,
                    " ".join(f"{k}={v}" for k, v in values.items()))
    start = time.perf_counter()
    try:
        result = EXPERIMENTS[experiment](setup)
    except NumericalContractError as exc:
        # norm drift, clearance or wrap violated mid-run: a run failure
        logger.error("numerical contract violated: %s", exc)
        _write_failure(out_dir, "numerical-contract",
                       [{"field": "run", "message": str(exc)}])
        return 2
    except ValueError as exc:
        # a setting validation could not see, such as a sweep point whose
        # window cannot clear the interaction: a configuration problem
        logger.error("configuration rejected mid-run: %s", exc)
        _write_failure(out_dir, "config-error",
                       [{"field": "run", "message": str(exc)}])
        return 1
    wall_s = time.perf_counter() - start
    write_results(out_dir, config, result, wall_s)
    for check in result.checks:
        logger.info("%s %s: %s (ratio %.3g)", check.criterion, check.name,
                    "pass" if check.passed else "FAIL", check.ratio)
    logger.info("wrote %d rows to %s in %.2fs", len(result.rows),
                out_dir, wall_s)
    return 0
