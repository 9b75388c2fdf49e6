"""One benchmark pass of one workload, in a fresh interpreter.

Run by ``perfbench/run.py``; not meant to be called by hand.  The pass
imports adiascat from the checkout's ``src``, builds its inputs from the
seed, stamps the moment inputs are ready (set-up ends there), runs every
leg of the workload, scores each output, and writes one JSON record.

Legs and their checks:

* config legs run a shipped config through ``cli.main`` into a scratch
  directory, exactly as ``adiascat run`` does.  Each summary gate and
  each ``results.csv`` row is one operation; rows must be finite and,
  where a stored reference applies, match it to 1e-12 relative with a
  1e-12 absolute floor.
* direct legs call the transport layers of the criterion-09 two-channel
  models and score each output against an independent oracle at its
  published tolerance and, where it applies, a stored reference.

A stored reference applies when the leg draws no randomness, or when
the pass runs on the seed the reference was recorded with.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"

CSV_RTOL = 1e-12
MATRIX_RTOL = 1e-10        # arithmetic-level agreement of exact transport
TRANSPORT_RTOL = 1e-6      # transport-contract level (propagate norm_tol)
UNITARITY_TOL = 1e-8       # criterion-09
RESOLVENT_TOL = 1e-8       # quadrature route against the Faddeeva form
RANKONE_T_SPAN = 6.0       # time units of the rank-one propagate leg
MATRIX_T = 24.0            # clears the interaction for every drawn probe


class Pass:
    """Scores of one pass: operations attempted and failed, per leg."""

    def __init__(self, seed: int, inject: str | None, recording: bool):
        self.seed = seed
        self.inject = inject
        self.recording = recording
        self.meta = json.loads((REFS / "meta.json").read_text())
        self.legs: dict[str, dict] = {}
        self.digests: dict[str, str] = {}
        self.outputs: dict[str, dict] = {}
        self._leg = ""

    def start(self, leg: str) -> None:
        self._leg = leg
        self.legs[leg] = {"attempted": 0, "failed": 0, "failures": []}

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        rec = self.legs[self._leg]
        rec["attempted"] += 1
        if not ok:
            rec["failed"] += 1
            if len(rec["failures"]) < 10:
                rec["failures"].append(f"{name}: {detail}")

    def crashed(self, leg: str, exc: BaseException) -> None:
        """A leg that raised fails every operation it would have made."""
        rec = self.legs[leg]
        lost = max(self.meta["ops"].get(leg, 1) - rec["attempted"], 1)
        rec["attempted"] += lost
        rec["failed"] += lost
        rec["failures"].append(
            "raised: " + "".join(traceback.format_exception_only(
                type(exc), exc)).strip())

    def reference_applies(self, leg: str) -> bool:
        if self.recording:
            return False
        return leg not in self.meta["seeded"] or self.seed == self.meta["seed"]

    def reference_csv(self, leg: str) -> list[list[str]]:
        rows = list(csv.reader(io.StringIO(
            (REFS / f"{leg}.csv").read_text(encoding="ascii"))))
        if self.inject == f"perturb:{leg}":
            rows[1][7] = repr(float(rows[1][7]) * (1.0 + 1e-6) + 1e-6)
        return rows

    def reference_arrays(self, leg: str) -> dict:
        import numpy as np
        with np.load(REFS / f"{leg}.npz") as data:
            return {k: data[k] for k in data.files}


# ---------------------------------------------------------------------------
# Config legs
# ---------------------------------------------------------------------------

def _cell_ok(got: str, ref: str) -> bool:
    try:
        r = float(ref)
    except ValueError:
        return got == ref
    try:
        g = float(got)
    except ValueError:
        return False
    return abs(g - r) <= CSV_RTOL * max(abs(r), 1.0)


def _finite_row(cells: list[str]) -> bool:
    for cell in cells[1:]:
        if cell and not math.isfinite(float(cell)):
            return False
    return True


def config_leg(leg: str, config: str):
    def run(p: Pass, work: Path) -> None:
        from adiascat import cli
        out = work / leg
        rc = cli.main(["run", "--config", str(ROOT / "configs" / config),
                       "--out", str(out), "--seed", str(p.seed)])
        if rc != 0:
            raise RuntimeError(f"adiascat run exited {rc}")
        summary = json.loads((out / "summary.json").read_text())
        for check in summary["checks"]:
            p.op(f"gate {check['criterion']} {check['name']}",
                 bool(check["passed"]), json.dumps(check["details"],
                                                   default=str)[:200])
        raw = (out / "results.csv").read_bytes()
        p.digests[leg] = hashlib.sha256(raw).hexdigest()
        rows = list(csv.reader(io.StringIO(raw.decode("ascii"))))
        header, body = rows[0], rows[1:]
        ref = p.reference_csv(leg) if p.reference_applies(leg) else None
        if ref is not None and (header != ref[0] or len(body) != len(ref) - 1):
            raise RuntimeError(f"results.csv shape {len(body)} rows differs "
                               f"from the reference's {len(ref) - 1}")
        for i, cells in enumerate(body):
            ok = len(cells) == len(header) and _finite_row(cells)
            bad = []
            if ok and ref is not None:
                bad = [header[k] for k, (g, r) in enumerate(zip(cells,
                                                                ref[i + 1]))
                       if not _cell_ok(g, r)]
            p.op(f"row {i + 1}", ok and not bad,
                 f"differs from the reference in {bad}" if bad
                 else "malformed or non-finite")
    return run


# ---------------------------------------------------------------------------
# Direct legs (criterion-09 two-channel models)
# ---------------------------------------------------------------------------

def _rel_distance(a, b) -> float:
    import numpy as np
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _direct_inputs(seed: int) -> dict:
    """Criterion-09 two-channel models and seeded probes."""
    import numpy as np
    from adiascat import (CoherentLabel, GaussianMix, Grid, MatrixPotential,
                          RankOne, ScatterModel, Schedule, coherent_state)
    rng = np.random.default_rng(seed)
    bump = Schedule("bump", 1.0, 0.0, 1.0)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    mix = GaussianMix((0.8,), (0.35,), (1.0,))
    form = GaussianMix((0.4,), (0.0,), (1.0,))
    matrix = ScatterModel(2, MatrixPotential((sx,), (mix,), bump), 0.2)
    rankone = ScatterModel(2, RankOne(form, bump, (0.8, 0.6)), 0.2)
    # fixed windows, and a probe band inside the form's band (which sets
    # the RK4 step), keep every leg's work independent of the seed
    s = float(rng.uniform(0.2, 0.6))
    grid = Grid(-64.0, 64.0, 2048)
    label = CoherentLabel(float(rng.uniform(-1.0, 1.0)),
                          float(rng.uniform(0.8, 1.2)),
                          float(rng.uniform(0.6, 0.8)))
    ro_grid = Grid(-40.0, 40.0, 512)
    ro_label = CoherentLabel(
        0.5 * RANKONE_T_SPAN + float(rng.uniform(-0.25, 0.25)),
        float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.6, 0.8)))
    return {
        "s": s, "matrix": matrix, "rankone": rankone, "form": form,
        "state": coherent_state(label, grid, channel=0, n_channels=2),
        "ro_state": coherent_state(ro_label, ro_grid, channel=0,
                                   n_channels=2),
        "onshell_energies": rng.uniform(0.5, 1.5, 3),
        "resolvent_energies": np.sort(rng.uniform(-3.0, 3.0, 13)),
    }


def matrix_leg(p: Pass, work: Path, x: dict) -> None:
    from adiascat import network
    model, state, s = x["matrix"], x["state"], x["s"]
    outs = {"dynamical_S": network.dynamical_S(model, s, state, T=MATRIX_T),
            "frozen_S_apply": network.frozen_S_apply(model, s, state,
                                                     T=MATRIX_T)}
    ref = p.reference_arrays("matrix") if p.reference_applies("matrix") \
        else None
    for name, out in outs.items():
        defect = abs(out.norm() - state.norm())
        dist = _rel_distance(out.amplitudes, ref[name]) if ref else 0.0
        p.op(name, defect < UNITARITY_TOL and dist <= MATRIX_RTOL,
             f"unitarity defect {defect:.3g}, reference distance {dist:.3g}")
    p.outputs["matrix"] = {k: v.amplitudes for k, v in outs.items()}


def onshell_leg(p: Pass, work: Path, x: dict) -> None:
    from adiascat import network
    for energy in x["onshell_energies"]:
        defect = network.on_shell_S(x["rankone"], x["s"],
                                    float(energy)).unitarity_defect()
        p.op(f"on_shell_S at E={energy:.4g}", defect < UNITARITY_TOL,
             f"unitarity defect {defect:.3g}")


def resolvent_leg(p: Pass, work: Path, x: dict) -> None:
    import numpy as np
    from adiascat import network
    energies = x["resolvent_energies"]
    quad = network.rankone_resolvent(x["form"], energies)
    exact = network.rankone_resolvent_exact(x["form"], energies)
    gap = float(np.max(np.abs(quad - exact)))
    dist = 0.0
    if p.reference_applies("resolvent"):
        ref = p.reference_arrays("resolvent")["g"]
        dist = float(np.max(np.abs(quad - ref) / np.maximum(np.abs(ref), 1.0)))
    p.op("rankone_resolvent", gap < RESOLVENT_TOL and dist <= CSV_RTOL,
         f"Faddeeva gap {gap:.3g}, reference distance {dist:.3g}")
    p.outputs["resolvent"] = {"g": quad}


def propagate_leg(p: Pass, work: Path, x: dict) -> None:
    from adiascat import network
    model, state = x["rankone"], x["ro_state"]
    t0 = x["s"] / model.omega - 0.5 * RANKONE_T_SPAN
    out = network.propagate(model, state, t0, t0 + RANKONE_T_SPAN)
    drift = abs(out.norm() - state.norm()) / state.norm()
    dist = 0.0
    if p.reference_applies("propagate"):
        dist = _rel_distance(out.amplitudes,
                             p.reference_arrays("propagate")["out"])
    p.op("rankone propagate", drift <= TRANSPORT_RTOL
         and dist <= TRANSPORT_RTOL,
         f"norm drift {drift:.3g}, reference distance {dist:.3g}")
    p.outputs["propagate"] = {"out": out.amplitudes}


def build_workload(name: str, seed: int) -> list[tuple[str, object]]:
    """Legs of a workload, with every direct-call input already built."""
    if name == "drive-sweep":
        return [("combined", config_leg("combined", "combined.ini"))]
    if name == "coherent-probes":
        return [("coherent-props",
                 config_leg("coherent-props", "coherent-props.ini")),
                ("outgoing-state",
                 config_leg("outgoing-state", "outgoing-state.ini"))]
    if name == "multichannel":
        x = _direct_inputs(seed)

        def bind(fn):
            return lambda p, work: fn(p, work, x)
        return [("epsilon-scaling-rankone",
                 config_leg("epsilon-scaling-rankone",
                            "epsilon-scaling-rankone.ini")),
                ("matrix", bind(matrix_leg)),
                ("onshell", bind(onshell_leg)),
                ("resolvent", bind(resolvent_leg)),
                ("propagate", bind(propagate_leg))]
    raise SystemExit(f"unknown workload {name!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn", type=float, required=True,
                    help="parent's perf_counter stamp just before spawn")
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--inject", default=None,
                    help="perturb:<leg> or raise:<leg>, for the self-check")
    ap.add_argument("--record", action="store_true",
                    help="store this pass's outputs as the references")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import adiascat  # noqa: F401  (set-up cost users pay on every run)
    legs = build_workload(args.workload, args.seed)
    ready = time.perf_counter()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    work = Path(args.work)
    p = Pass(args.seed, args.inject, args.record)
    for leg, run in legs:
        p.start(leg)
        try:
            if args.inject == f"raise:{leg}":
                raise RuntimeError("injected fault")
            run(p, work)
        except Exception as exc:  # a failing leg is scored, not fatal
            p.crashed(leg, exc)
    if args.record:
        record(args.workload, args.seed, p, work)
    result = {"setup_s": ready - args.spawn, "legs": p.legs,
              "digests": p.digests}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    (work / "pass.json").write_text(json.dumps(result))
    return 0


def record(workload: str, seed: int, p: Pass, work: Path) -> None:
    """Store this pass's outputs as the workload's references."""
    import shutil

    import numpy as np
    meta = p.meta
    meta["seed"] = seed
    for leg, rec in p.legs.items():
        if rec["failed"]:
            raise SystemExit(f"not recording: leg {leg} failed {rec}")
        meta["ops"][leg] = rec["attempted"]
        if leg in p.digests:
            shutil.copyfile(work / leg / "results.csv", REFS / f"{leg}.csv")
        if leg in p.outputs:
            np.savez(REFS / f"{leg}.npz", **p.outputs[leg])
    (REFS / "meta.json").write_text(json.dumps(meta, indent=1,
                                               sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
