"""Command line runner: declarative configs in, reproducible data out.

``adiascat run --config exp.ini`` executes one experiment and writes
``results.csv`` plus ``summary.json`` into the output directory;
``adiascat validate --config exp.ini`` reports problems without running
anything.  Configs are INI files whose keys are those of _KEYS, in the
[model], [grid], [sweep] and [output] sections; flags override a few.

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

from ..experiments import (DECLARATIONS, EXPERIMENTS, ExperimentResult, Row,
                           Setup)
from ..network import RankOne, MatrixPotential, ScatterModel
from ..numerics import Grid, NumericalContractError
from ..profiles import SCHEDULE_KINDS, GaussianMix, Schedule

logger = logging.getLogger(__name__)

CSV_HEADER = ("experiment,omega,eps,s,e,j,jp,value_exact_re,value_exact_im,"
              "value_approx_re,value_approx_im,abs_error,predicted_bound,"
              "wall_ms")

_MATRIX_NAMES = {"sx": (0.0, 1.0, 1.0, 0.0), "sz": (1.0, 0.0, 0.0, -1.0),
                 "id": (1.0, 0.0, 0.0, 1.0)}


class ConfigError(Exception):
    """Configuration that cannot be run; message names the field."""


def _parser_of(convert, what: str):
    """The parser of a config value: convert(text), or a ConfigError that
    says the field must be what."""
    def parse(text: str, field: str):
        try:
            return convert(text)
        except (ValueError, KeyError):
            raise ConfigError(f"{field} must be {what}, not {text!r}")
    return parse


def _numbers(text: str, low: float = -math.inf) -> tuple[float, ...]:
    """One or more comma-separated finite numbers, each above low."""
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values or not all(low < value < math.inf for value in values):
        raise ValueError(text)
    return values


def _number(text: str) -> float:
    [value] = _numbers(text)
    return value


def _matrix(text: str) -> tuple[float, ...]:
    values = _MATRIX_NAMES.get(text) or _numbers(text)
    if math.isqrt(len(values)) ** 2 != len(values):
        raise ValueError(text)
    return values


def _one_of(*options: str):
    return _parser_of({option: option for option in options}.__getitem__,
                      "one of " + ", ".join(options))


_FLOATS = _parser_of(_numbers, "finite numbers, one or more, comma separated")
_FLOAT = _parser_of(_number, "finite and a single number")
_POSITIVE = _parser_of(lambda text: _numbers(text, 0.0), "finite and "
                       "positive numbers, one or more, comma separated")
_INT = _parser_of(int, "an integer")

# Every config key, in the order the summary records them: (section, key)
# -> (parser, default as INI text); a None default marks a required key.
# The command line flag whose dest is "<section>_<key>" overrides the key.
_KEYS = {
    ("model", "kind"): (_one_of("soluble", "matrix", "rankone"), None),
    ("model", "schedule"): (_one_of(*SCHEDULE_KINDS), "tanh"),
    ("model", "schedule_a"): (_FLOAT, "1.0"),
    ("model", "schedule_b"): (_FLOAT, "0.0"),
    ("model", "schedule_c"): (_FLOAT, "1.0"),
    ("model", "schedule_d"): (_FLOAT, "0.0"),
    ("model", "amps"): (_FLOATS, "1.0"),
    ("model", "centers"): (_FLOATS, "0.0"),
    ("model", "widths"): (_FLOATS, "1.0"),
    ("model", "channel_matrix"): (_parser_of(
        _matrix, "sx, sz, id or a square row-major float list"), "sx"),
    ("model", "vector"): (_FLOATS, "1.0"),
    ("grid", "x_min"): (_FLOAT, "-40.0"),
    ("grid", "x_max"): (_FLOAT, "40.0"),
    ("grid", "n"): (_INT, "4096"),
    ("sweep", "experiment"): (_one_of(*EXPERIMENTS), None),
    ("sweep", "omega"): (_POSITIVE, "0.2, 0.1, 0.05"),
    ("sweep", "eps"): (_POSITIVE, "0.5"),
    ("sweep", "s"): (_FLOAT, "0.5"),
    ("sweep", "e"): (_FLOATS, "1.0"),
    ("sweep", "j"): (_INT, "0"),
    ("sweep", "jp"): (_INT, "0"),
    ("sweep", "seed"): (_INT, "0"),
    ("output", "dir"): (lambda text, field: str(Path(text)), "out"),
    ("output", "timing"): (_parser_of(
        lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
        "true or false"), "false"),
}

# the [model] keys that one kind alone reads
_KIND_KEYS = {"channel_matrix": "matrix", "vector": "rankone"}


def _parse_ini(path: str) -> dict[str, dict[str, str]]:
    """The raw values of an INI config by section; a malformed file, and a
    section or key that _KEYS lacks, [DEFAULT] included, is a ConfigError."""
    # no header can be empty, so naming the defaults section "" leaves
    # [DEFAULT] an ordinary, and so unknown, section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in {known for known, _ in _KEYS}:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown config key {section}.{key}")
    return {section: dict(parser[section]) for section in parser.sections()}


def _build_setup(cfg: dict, args) -> tuple[Setup, dict]:
    """The run's inputs, and the resolved config that records them: each
    key of _KEYS that the model's kind reads, parsed, with its default or
    command line override applied, which reproduces the run when written
    back as INI.  The model is at the sweep's first omega."""
    config: dict[str, dict] = {}
    for (section, key), (parse, default) in _KEYS.items():
        given = cfg.get(section, {})
        kind = config.get("model", {}).get("kind")
        if _KIND_KEYS.get(key, kind) != kind:
            if key in given:
                raise ConfigError(f"{section}.{key} is read only by kind = "
                                  f"{_KIND_KEYS[key]}, not {kind}")
            continue
        flag = getattr(args, f"{section}_{key}", None)
        text = given.get(key, default) if flag is None else str(flag)
        if text is None:
            raise ConfigError(f"missing required key {section}.{key}")
        config.setdefault(section, {})[key] = parse(text, f"{section}.{key}")
    model, grid, sweep = config["model"], config["grid"], config["sweep"]
    if grid["n"] < 16:
        raise ConfigError("grid n must be at least 16")
    if sweep["seed"] < 0:
        raise ConfigError(
            f"sweep.seed must be non-negative, not {sweep['seed']}")
    schedule = Schedule(model["schedule"],
                        *(model[f"schedule_{k}"] for k in "abcd"))
    mix = GaussianMix(model["amps"], model["centers"], model["widths"])
    if model["kind"] == "rankone":
        coupling = RankOne(mix, schedule, model["vector"])
    else:
        values = model.get("channel_matrix", (1.0,))
        coupling = MatrixPotential(
            (np.reshape(values, (math.isqrt(len(values)), -1)),), (mix,),
            schedule)
    net = ScatterModel(coupling.n_channels, coupling, sweep["omega"][0])
    return Setup(net, Grid(**grid), sweep["omega"], sweep["eps"], sweep["s"],
                 sweep["e"], sweep["j"], sweep["jp"], sweep["seed"],
                 config["output"]["timing"]), config


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_setup(experiment: str, setup: Setup) -> list[dict]:
    """All problems a run would hit, without propagating anything: what
    each check of the experiment's declaration (experiments.DECLARATIONS)
    finds, in order."""
    return [{"field": field, "message": message}
            for check in DECLARATIONS[experiment].checks
            for field, message in check(experiment, setup)]


def _output_problems(out_dir: Path) -> list[dict]:
    """The output.dir diagnostic if out_dir cannot be made, found without
    making anything: its nearest existing path must be a directory."""
    path = out_dir.absolute()
    path = next(p for p in (path, *path.parents) if p.exists())
    return [] if path.is_dir() else [{"field": "output.dir", "message":
        f"cannot make {out_dir}: {path} is not a directory"}]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if value is None else "%.17g" % float(value)


def _row_line(row: Row) -> str:
    values = (row.omega, row.eps, row.s, row.e, row.j, row.jp,
              *(getattr(value, part, None)
                for value in (row.value_exact, row.value_approx)
                for part in ("real", "imag")),
              row.abs_error, row.predicted_bound, row.wall_ms)
    return ",".join([row.experiment, *map(_fmt, values)])


def write_results(out_dir: Path, config: dict, result: ExperimentResult,
                  wall_s: float, validate_s: float) -> None:
    """results.csv, and summary.json with the resolved config of the run
    and the wall times of its driver and of validate_setup before it, in
    out_dir, which main has made before the run."""
    lines = [CSV_HEADER] + [_row_line(r) for r in result.rows]
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n",
                                         encoding="ascii")
    summary = {"experiment": config["sweep"]["experiment"], "status": "ok",
               "rows": len(result.rows), "seed": config["sweep"]["seed"],
               "wall_s": wall_s, "validate_s": validate_s,
               "checks": [dataclasses.asdict(c) for c in result.checks],
               "info": result.info, "config": config}
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
        # each dest names the config key that the flag overrides
        p.add_argument("--config", required=True)
        p.add_argument("--out", dest="output_dir")
        p.add_argument("--omega", dest="sweep_omega",
                       help="comma list, overrides the sweep")
        p.add_argument("--eps", dest="sweep_eps",
                       help="comma list, overrides the sweep")
        p.add_argument("--grid-n", dest="grid_n")
        p.add_argument("--seed", dest="sweep_seed")
        p.add_argument("--timing", action="store_true", default=None,
                       dest="output_timing",
                       help="fill the wall_ms column with the time since "
                            "the previous row, so that it adds up to the "
                            "run (breaks byte reproducibility)")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    cfg = {}
    try:
        cfg = _parse_ini(args.config)
        setup, config = _build_setup(cfg, args)
    except (ConfigError, ValueError) as exc:
        logger.error("%s", exc)
        diagnostics = [{"field": "config", "message": str(exc)}]
        if args.command == "validate":
            print(json.dumps(diagnostics, indent=2))
        else:
            # the flag, else the config's own dir as written if it parsed
            out_dir = args.output_dir
            if out_dir is None:
                out_dir = cfg.get("output", {}).get(
                    "dir", _KEYS["output", "dir"][1])
            _write_failure(Path(out_dir), "config-error", diagnostics)
        return 1

    experiment = config["sweep"]["experiment"]
    out_dir = Path(config["output"]["dir"])
    start = time.perf_counter()
    diagnostics = validate_setup(experiment, setup)
    validate_s = time.perf_counter() - start
    if args.command == "validate":
        diagnostics += _output_problems(out_dir)
        print(json.dumps(diagnostics, indent=2))
        return 1 if diagnostics else 0
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        logger.error("output.dir: cannot make %s: %s", out_dir, exc)
        return 1
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
    write_results(out_dir, config, result, wall_s, validate_s)
    for check in result.checks:
        logger.info("%s %s: %s (ratio %.3g)", check.criterion, check.name,
                    "pass" if check.passed else "FAIL", check.ratio)
    logger.info("wrote %d rows to %s in %.2fs", len(result.rows),
                out_dir, wall_s)
    return 0
