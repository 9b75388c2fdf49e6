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
import sys
import time
from pathlib import Path

import numpy as np

from .experiments import EXPERIMENTS, ExperimentResult, Row, Setup
from .network import (RankOne, MatrixPotential, ScatterModel, clearance_T,
                      from_soluble, rankone_resolvent)
from .coherent import CoherentLabel, coherent_state
from .numerics import Grid, NumericalContractError
from .profiles import GaussianMix, Schedule
from .soluble import SolubleModel

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


class ConfigError(Exception):
    """Configuration that cannot be run; message names the field."""


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    return parser


def _build_schedule(sec) -> Schedule:
    kind = sec.get("schedule", "tanh")
    return Schedule(kind,
                    a=sec.getfloat("schedule_a", 1.0),
                    b=sec.getfloat("schedule_b", 0.0),
                    c=sec.getfloat("schedule_c", 1.0),
                    d=sec.getfloat("schedule_d", 0.0))


def _build_mix(sec) -> GaussianMix:
    amps = _floats(sec.get("amps", "1.0"))
    centers = _floats(sec.get("centers", "0.0"))
    widths = _floats(sec.get("widths", "1.0"))
    if not (len(amps) == len(centers) == len(widths)):
        raise ConfigError("model amps/centers/widths lengths disagree")
    return GaussianMix(amps, centers, widths)


def _build_model(cfg: configparser.ConfigParser):
    sec = cfg["model"] if cfg.has_section("model") else {}
    if not sec:
        raise ConfigError("missing [model] section")
    kind = sec.get("kind", "soluble")
    omega = sec.getfloat("omega", 0.1)
    if omega <= 0:
        raise ConfigError("model omega must be positive")
    schedule = _build_schedule(sec)
    mix = _build_mix(sec)
    if kind == "soluble":
        return SolubleModel(mix, schedule, omega)
    if kind == "matrix":
        name = sec.get("channel_matrix", "sx")
        if name in _MATRIX_NAMES:
            mat = np.array(_MATRIX_NAMES[name], dtype=np.complex128)
        else:
            vals = _floats(name)
            n = int(round(len(vals) ** 0.5))
            if n * n != len(vals):
                raise ConfigError("channel_matrix must name sx/sz/id or "
                                  "give a square row-major float list")
            mat = np.array(vals, dtype=np.complex128).reshape(n, n)
        coupling = MatrixPotential((mat,), (mix,), schedule)
        return ScatterModel(mat.shape[0], coupling, omega)
    if kind == "rankone":
        vec = _floats(sec.get("vector", "1.0"))
        coupling = RankOne(mix, schedule, np.array(vec, dtype=np.complex128))
        return ScatterModel(len(vec), coupling, omega)
    raise ConfigError(f"unknown model kind '{kind}'")


def _build_grid(cfg: configparser.ConfigParser) -> Grid:
    sec = cfg["grid"] if cfg.has_section("grid") else {}
    x_min = float(sec.get("x_min", -40.0)) if sec else -40.0
    x_max = float(sec.get("x_max", 40.0)) if sec else 40.0
    n = int(sec.get("n", 4096)) if sec else 4096
    if x_max <= x_min:
        raise ConfigError("grid x_max must exceed x_min")
    if n < 16:
        raise ConfigError("grid n must be at least 16")
    return Grid(x_min, x_max, n)


def _build_setup(cfg: configparser.ConfigParser, args) -> tuple[str, Setup, str]:
    sweep = cfg["sweep"] if cfg.has_section("sweep") else {}
    if not sweep or "experiment" not in sweep:
        raise ConfigError("missing [sweep] experiment")
    experiment = sweep.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment '{experiment}'; choose from "
            + ", ".join(sorted(EXPERIMENTS)))
    model = _build_model(cfg)
    grid = _build_grid(cfg)
    if args.grid_n is not None:
        grid = Grid(grid.x_min, grid.x_max, args.grid_n)
    omegas = _floats(args.omega) if args.omega \
        else _floats(sweep.get("omega", "0.2,0.1,0.05"))
    epsilons = _floats(args.eps) if args.eps \
        else _floats(sweep.get("eps", "0.5"))
    s_values = _floats(sweep.get("s", "0.5"))
    e_values = _floats(sweep.get("e", "1.0"))
    if any(w <= 0 for w in omegas):
        raise ConfigError("sweep omega values must be positive")
    if any(ep <= 0 for ep in epsilons):
        raise ConfigError("sweep eps values must be positive")
    seed = args.seed if args.seed is not None \
        else int(sweep.get("seed", "0"))
    out_sec = cfg["output"] if cfg.has_section("output") else {}
    out_dir = args.out or (out_sec.get("dir", "out") if out_sec else "out")
    timing = bool(args.timing) or (
        out_sec.getboolean("timing", fallback=False) if out_sec else False)
    setup = Setup(model=model, grid=grid, omegas=omegas, epsilons=epsilons,
                  s_values=s_values, e_values=e_values,
                  j=int(sweep.get("j", "0")), jp=int(sweep.get("jp", "0")),
                  seed=seed, timing=timing)
    return experiment, setup, out_dir


def _resolved_config(experiment: str, setup: Setup, out_dir: str) -> dict:
    model = setup.model
    coupling = {}
    if isinstance(model, SolubleModel):
        pot, schedule = model.potential, model.schedule
        kind = "soluble"
    elif isinstance(model.coupling, RankOne):
        pot, schedule = model.coupling.form, model.coupling.schedule
        kind = "rankone"
        coupling["vector"] = [float(v.real) for v in model.coupling.vector]
    else:
        pot, schedule = model.coupling.profiles[0], model.coupling.schedule
        kind = "matrix"
        coupling["channel_matrix"] = [
            float(v.real) for v in model.coupling.matrices[0].ravel()]
    return {
        "model": {"kind": kind, "omega": model.omega,
                  "schedule": schedule.kind,
                  "schedule_a": schedule.a, "schedule_b": schedule.b,
                  "schedule_c": schedule.c, "schedule_d": schedule.d,
                  "amps": list(pot.amps), "centers": list(pot.centers),
                  "widths": list(pot.widths), **coupling},
        "grid": {"x_min": setup.grid.x_min, "x_max": setup.grid.x_max,
                 "n": setup.grid.n},
        "sweep": {"experiment": experiment, "omega": list(setup.omegas),
                  "eps": list(setup.epsilons), "s": list(setup.s_values),
                  "e": list(setup.e_values), "j": setup.j, "jp": setup.jp,
                  "seed": setup.seed},
        "output": {"dir": out_dir, "timing": setup.timing},
    }


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_setup(experiment: str, setup: Setup) -> list[dict]:
    """All problems a run would hit, without propagating anything."""
    diagnostics: list[dict] = []
    grid = setup.grid
    half_window = 0.5 * (grid.x_max - grid.x_min)
    eps_min = min(setup.epsilons)
    if 8.0 / eps_min > half_window:
        diagnostics.append({
            "field": "sweep.eps",
            "message": (f"response window 8/eps = {8.0 / eps_min:.3g} "
                        f"exceeds the half window {half_window:.3g}; "
                        "enlarge the grid or raise eps")})
    net = from_soluble(setup.model) \
        if isinstance(setup.model, SolubleModel) else setup.model
    for name, index in (("j", setup.j), ("jp", setup.jp)):
        if not 0 <= index < net.n_channels:
            diagnostics.append({
                "field": f"sweep.{name}",
                "message": (f"channel index {name} = {index} is outside "
                            f"[0, {net.n_channels}) for this model")})
    for e in setup.e_values:
        for eps in setup.epsilons:
            try:
                coherent_state(CoherentLabel(max(setup.s_values, key=abs)
                                             / max(setup.omegas), e, eps),
                               grid, n_channels=net.n_channels)
            except ValueError as exc:
                diagnostics.append({"field": "sweep",
                                    "message": str(exc)})
    try:
        probe = coherent_state(
            CoherentLabel(0.0, setup.e_values[0], max(setup.epsilons)),
            grid, n_channels=net.n_channels)
        clearance_T(net, probe)
    except ValueError as exc:
        diagnostics.append({"field": "grid", "message": str(exc)})
    if isinstance(net.coupling, RankOne):
        lam = float(net.coupling.schedule.value(max(setup.s_values)))
        e0 = setup.e_values[0]
        span = 6.0 * max(setup.epsilons)
        energies = np.linspace(e0 - span, e0 + span, 97)
        g = rankone_resolvent(net.coupling.form, energies)
        gap = np.min(np.abs(1.0 - lam * g))
        if gap < 5e-2:
            diagnostics.append({
                "field": "model",
                "message": (f"resonance: |1 - lambda g(E)| reaches "
                            f"{gap:.3g} inside the smearing window")})
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


def write_results(out_dir: Path, experiment: str, setup: Setup,
                  result: ExperimentResult, wall_s: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER] + [_row_line(r) for r in result.rows]
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n",
                                         encoding="ascii")
    summary = {
        "experiment": experiment,
        "status": "ok",
        "rows": len(result.rows),
        "seed": setup.seed,
        "wall_s": wall_s,
        "checks": [dataclasses.asdict(c) for c in result.checks],
        "info": result.info,
        "config": _resolved_config(experiment, setup, str(out_dir)),
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
                       help="fill the wall_ms column (breaks byte "
                            "reproducibility)")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        cfg = _parse_ini(args.config)
        experiment, setup, out_dir = _build_setup(cfg, args)
    except (ConfigError, ValueError) as exc:
        logger.error("%s", exc)
        if args.command == "run":
            _write_failure(Path(args.out or "out"), "config-error",
                           [{"field": "config", "message": str(exc)}])
        else:
            print(json.dumps([{"field": "config", "message": str(exc)}],
                             indent=2))
        return 1

    diagnostics = validate_setup(experiment, setup)
    if args.command == "validate":
        print(json.dumps(diagnostics, indent=2))
        return 1 if diagnostics else 0
    if diagnostics:
        logger.error("validation failed with %d diagnostic(s)",
                     len(diagnostics))
        _write_failure(Path(out_dir), "validation-error", diagnostics)
        return 1

    for section, values in _resolved_config(experiment, setup,
                                            out_dir).items():
        logger.info("[%s] %s", section,
                    " ".join(f"{k}={v}" for k, v in values.items()))
    start = time.perf_counter()
    try:
        result = EXPERIMENTS[experiment](setup)
    except NumericalContractError as exc:
        # norm drift, clearance or wrap violated mid-run: a run failure
        logger.error("numerical contract violated: %s", exc)
        _write_failure(Path(out_dir), "numerical-contract",
                       [{"field": "run", "message": str(exc)}])
        return 2
    except ValueError as exc:
        # a setting validation could not see, such as a sweep point whose
        # window cannot clear the interaction: a configuration problem
        logger.error("configuration rejected mid-run: %s", exc)
        _write_failure(Path(out_dir), "config-error",
                       [{"field": "run", "message": str(exc)}])
        return 1
    wall_s = time.perf_counter() - start
    write_results(Path(out_dir), experiment, setup, result, wall_s)
    for check in result.checks:
        logger.info("%s %s: %s", check.criterion, check.name,
                    "pass" if check.passed else "FAIL")
    logger.info("wrote %d rows to %s in %.2fs", len(result.rows),
                out_dir, wall_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
