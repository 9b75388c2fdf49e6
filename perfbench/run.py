"""adiascat benchmark: three workloads, timed cold, traced from outside.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

runs workload W for about S seconds from the root of a checkout and
prints one JSON object as its last line of output.  Each pass is a fresh
child interpreter (``perfbench/child.py``), one at a time (a closed
loop), because ``adiascat run`` is a fresh process for its users: import,
quadrature nodes and FFT plans are paid again on every pass and no cache
carries over between passes.  BLAS threads stay at the library default.

With ``--trace 0`` the parent times each pass from spawn to exit and
reads its CPU time and peak memory from ``wait4``; it reports medians of
the passes as the end-to-end metrics.  With ``--trace 1`` it runs one
untraced and two traced passes and reports the per-layer metrics of
the traced ones (see ``tracing.py``); the two traced passes must repeat
every count exactly and write ``results.csv`` byte for byte like the
untraced pass, and each of those comparisons is one more operation.

Other modes:

    --report     run every workload untraced and traced, print every
                 metric by name with its unit (one row per workload) and
                 write perfbench/report.json with the environment, each
                 workload's reason and the expected layer-to-metric map
    --selfcheck  inject a perturbed reference and a raising leg; both
                 must be counted as failures without crashing the run
    --record     store the outputs of --seed (default 0) as the references
                 in perfbench/refs
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import is_count, layer_metrics, per_layer_names  # noqa: E402

WORKLOADS = ("drive-sweep", "multichannel", "coherent-probes")
MIN_PASSES = 3
PASS_LIMIT_S = 170.0

# Which end-to-end metric each layer should move, and on which workload.
MOVES = {
    "kernels.phase": ("wall_s", ["drive-sweep"]),
    "kernels.unitary": ("wall_s", ["multichannel"]),
    "kernels.product": ("wall_s", ["drive-sweep"]),
    "numerics.ordered_exponential": ("wall_s", ["drive-sweep"]),
    "network.propagate.matrix1": ("wall_s", ["drive-sweep"]),
    "network.propagate.matrixN": ("wall_s", ["multichannel"]),
    "network.propagate.rankone": ("wall_s", ["multichannel"]),
    "network.propagate.lattice_steps": ("wall_s",
                                        ["drive-sweep", "multichannel"]),
    "numpy.fft.calls": ("wall_s", ["multichannel"]),
    "network.contract_errors": ("ok_frac", list(WORKLOADS)),
    "network.dynamical_S": ("wall_s peak_rss_mb", ["drive-sweep"]),
    "network.wave_operator": ("wall_s peak_rss_mb", ["drive-sweep"]),
    "network.dynamical_S_adjoint": ("wall_s peak_rss_mb", ["drive-sweep"]),
    "network.frozen_S_apply": ("wall_s peak_rss_mb", ["drive-sweep"]),
    "network.clearance_T": ("wall_s peak_rss_mb", ["drive-sweep"]),
    "network.on_shell_S": ("wall_s", ["drive-sweep"]),
    "network.wigner_delay": ("wall_s", ["drive-sweep"]),
    "network.rankone_resolvent": ("wall_s", ["multichannel"]),
    "network.leggauss": ("wall_s", ["multichannel"]),
    "coherent": ("wall_s", ["coherent-probes"]),
    "adiabatic.adiabatic_tau": ("wall_s", ["drive-sweep"]),
    "adiabatic.combined_report": ("wall_s", ["drive-sweep"]),
    "adiabatic.onshell_vs_frozen": ("wall_s", ["multichannel"]),
    "adiabatic.outgoing_state_check": ("wall_s cpu_s", ["coherent-probes"]),
    "experiments": ("wall_s", list(WORKLOADS)),
    "cli": ("wall_s", list(WORKLOADS)),
}


@contextlib.contextmanager
def _work_root():
    """Scratch directory for pass outputs, inside the checkout."""
    root = ROOT / ".perfbench_work"
    root.mkdir(exist_ok=True)
    try:
        yield root
    finally:
        with contextlib.suppress(OSError):
            root.rmdir()


def _median(values):
    return statistics.median(values) if values else 0.0


def run_pass(workload: str, seed: int, trace: int, work_root: Path,
             extra: tuple = ()) -> dict:
    """One pass in a fresh child; returns its timings and its record."""
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=work_root))
    try:
        log = open(work / "child.log", "wb")
        with log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--spawn", repr(start), "--work", str(work),
                 "--trace", str(trace), *extra],
                stdout=log, stderr=log)
            timer = threading.Timer(PASS_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        out = {"trace": trace, "wall_s": wall,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "rc": proc.returncode}
        record = work / "pass.json"
        if proc.returncode == 0 and record.exists():
            out["record"] = json.loads(record.read_text())
        else:
            tail = (work / "child.log").read_text(errors="replace")[-2000:]
            print(f"pass failed (exit {proc.returncode}):\n{tail}",
                  file=sys.stderr)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _score(p: dict, expected: int) -> tuple[int, int, list]:
    """(attempted, failed, failure notes) of one pass."""
    rec = p.get("record")
    if rec is None:
        return expected, expected, [f"child exited {p['rc']}"]
    legs = rec["legs"].values()
    notes = [f for leg in legs for f in leg["failures"]]
    return (sum(leg["attempted"] for leg in legs),
            sum(leg["failed"] for leg in legs), notes)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the passes of one benchmark run and aggregate them."""
    plan = [0, 1, 1] if trace else [0] * MIN_PASSES
    passes: list[dict] = []
    begin = time.perf_counter()
    with _work_root() as work_root:
        while True:
            if not plan:
                elapsed = time.perf_counter() - begin
                per_pass = elapsed / len(passes)
                if trace or elapsed + per_pass > seconds:
                    break
                plan = [0]
            passes.append(run_pass(workload, seed, plan.pop(0), work_root))
            p = passes[-1]
            print(f"pass {len(passes)} trace={p['trace']} "
                  f"wall_s={p['wall_s']:.4f} cpu_s={p['cpu_s']:.4f} "
                  f"peak_rss_mb={p['peak_rss_mb']:.1f}", flush=True)

    expected = max((_score(p, 1)[0] for p in passes if "record" in p),
                   default=1)
    attempted = failed = 0
    notes: list[str] = []
    for p in passes:
        a, f, n = _score(p, expected)
        attempted, failed, notes = attempted + a, failed + f, notes + n
    plain = [p for p in passes if p["trace"] == 0 and "record" in p]
    traced = [p for p in passes if p["trace"] == 1 and "record" in p]

    if trace:
        metrics, checks = _traced_metrics(plain, traced)
        attempted += len(checks)
        failed += sum(not ok for ok, _ in checks)
        notes += [note for ok, note in checks if not ok]
    else:
        walls = sorted(p["wall_s"] for p in plain) or [0.0]
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        print(f"wall_s median={_median(walls):.4f} q1={q[0]:.4f} "
              f"q3={q[2]:.4f} over {len(walls)} passes", flush=True)
        metrics = {
            "wall_s": _median(walls),
            "cpu_s": _median([p["cpu_s"] for p in plain]),
            "setup_s": _median([p["record"]["setup_s"] for p in plain]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
            "ok_frac": 1.0 - failed / attempted,
        }
    for note in notes[:20]:
        print("FAILED", note, file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if not trace:
        result["wall_s_quartiles"] = [q[0], q[2]]
    return result


def _traced_metrics(plain: list, traced: list):
    """Per-layer metrics (medians of the traced passes) and the
    determinism checks, each an (ok, note) pair."""
    checks = []
    if not traced:
        return {}, [(False, "no traced pass completed")]
    per_pass = []
    for p in traced:
        rec = p["record"]
        values = layer_metrics(rec["spans"], rec["counts"])
        layer_s = sum(v for k, v in values.items() if k.endswith(".self_s"))
        values["trace.setup_s"] = rec["setup_s"]
        values["trace.wall_s"] = p["wall_s"]
        values["trace.accounted_frac"] = (layer_s + rec["setup_s"]) / p["wall_s"]
        per_pass.append(values)
    counts = [{k: v for k, v in values.items() if is_count(k)}
              for values in per_pass]
    for i, c in enumerate(counts[1:], start=2):
        diff = sorted(k for k in c if c[k] != counts[0][k])
        checks.append((not diff, f"traced pass {i} counts differ: {diff}"))
    for p in plain:
        for i, t in enumerate(traced, start=1):
            same = t["record"]["digests"] == p["record"]["digests"]
            checks.append((same, f"traced pass {i} results.csv differs "
                                 "from the untraced pass"))
    metrics = {name: _median([v[name] for v in per_pass])
               for name in per_layer_names() if name != "trace.overhead_frac"}
    plain_wall = _median([p["wall_s"] for p in plain])
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"] / plain_wall
                                      - 1.0 if plain_wall else 0.0)
    return metrics, checks


# ---------------------------------------------------------------------------
# Report, self-check and reference recording
# ---------------------------------------------------------------------------

def _blas_info() -> dict:
    import ctypes

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None}
    libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text()
            .splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                info["threads"] = int(getattr(handle, sym)())
                return info
    return info


def _cpu_info() -> dict:
    model = None
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    return {"model": model, "caches": caches}


def environment() -> dict:
    import numpy
    import scipy
    sys.path.insert(0, str(ROOT / "src"))
    import adiascat
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "backend": adiascat.backend_name(),
            "blas": _blas_info(), "nproc": os.cpu_count(),
            "cpu": _cpu_info()}


def _units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(seed: int, seconds: float) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = _units()
    if [m["name"] for m in spec["per_layer"]] != per_layer_names():
        print("BENCHMARK.json per_layer disagrees with tracing.py",
              file=sys.stderr)
        return 1
    out = {"environment": environment(), "seed": seed, "seconds": seconds,
           "moves": MOVES, "workloads": {}}
    for w in spec["workloads"]:
        plain = measure(w["name"], seed, seconds, 0)
        traced = measure(w["name"], seed, seconds, 1)
        metrics = plain["metrics"] | traced["metrics"]
        out["workloads"][w["name"]] = {
            "why": w["why"], "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "wall_s_quartiles": plain["wall_s_quartiles"], "metrics": metrics}
        cells = [f"{k}={v:.6g} {units[k]}" for k, v in metrics.items()]
        print(f"{w['name']}: " + " ".join(cells), flush=True)
    (BENCH / "report.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(w["correct"] for w in out["workloads"].values()) else 1


def selfcheck(seed: int) -> int:
    """Injected faults must be counted, not crash the benchmark."""
    ok = True
    for inject in ("perturb:outgoing-state", "raise:outgoing-state"):
        with _work_root() as work_root:
            p = run_pass("coherent-probes", seed, 0, work_root,
                         ("--inject", inject))
        attempted, failed, notes = _score(p, 1)
        good = p["rc"] == 0 and failed > 0
        ok &= good
        print(f"{inject}: exit {p['rc']}, failed {failed} of {attempted} "
              f"-> {'PASS' if good else 'FAIL'}; {notes[:1]}")
    return 0 if ok else 1


def record(seed: int) -> int:
    with _work_root() as work_root:
        for workload in WORKLOADS:
            if run_pass(workload, seed, 0, work_root, ("--record",))["rc"]:
                return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--selfcheck", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    # a terminated run unwinds, so the child in flight is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "adiascat" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"no adiascat sources or configs under {ROOT}; run from the "
              "root of an adiascat checkout", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.seconds)
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.record:
        return record(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    units = _units()
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
