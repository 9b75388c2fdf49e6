"""Span tracing of adiascat's layers from outside the package.

The tracer wraps every binding of the named public functions in every
loaded ``adiascat`` module (``from .network import ...`` copies a
function into other modules, so patching one binding would miss calls
made through the others), plus the ``EXPERIMENTS`` table the command
line runner dispatches through.  Each wrapped call records one span
(name, start, end, parent index) in memory; counters record work done
at the same boundaries.  Nothing is written until the pass ends.

Self time is derived by the benchmark parent from the raw spans: a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer catalogue: module, attribute, span name.  Span names are the
# per-layer metric prefixes in BENCHMARK.json.
SPANS = (
    ("adiascat._kernels", "characteristic_phase", "kernels.phase"),
    ("adiascat._kernels", "characteristic_unitary", "kernels.unitary"),
    ("adiascat._kernels", "unitary_product", "kernels.product"),
    ("adiascat.numerics", "ordered_exponential",
     "numerics.ordered_exponential"),
    ("adiascat.network", "propagate", "network.propagate"),
    ("adiascat.network", "dynamical_S", "network.dynamical_S"),
    ("adiascat.network", "wave_operator", "network.wave_operator"),
    ("adiascat.network", "dynamical_S_adjoint", "network.dynamical_S_adjoint"),
    ("adiascat.network", "frozen_S_apply", "network.frozen_S_apply"),
    ("adiascat.network", "clearance_T", "network.clearance_T"),
    ("adiascat.network", "on_shell_S", "network.on_shell_S"),
    ("adiascat.network", "wigner_delay", "network.wigner_delay"),
    ("adiascat.network", "rankone_resolvent", "network.rankone_resolvent"),
    ("adiascat.network", "leggauss", "network.leggauss"),
    ("adiascat.coherent", "coherent_state", "coherent.coherent_state"),
    ("adiascat.coherent", "free_shift", "coherent.free_shift"),
    ("adiascat.coherent", "identity_resolution_residual",
     "coherent.identity_resolution_residual"),
    ("adiascat.coherent", "plane_wave_amplitude",
     "coherent.plane_wave_amplitude"),
    ("adiascat.adiabatic", "adiabatic_tau", "adiabatic.adiabatic_tau"),
    ("adiascat.adiabatic", "combined_report", "adiabatic.combined_report"),
    ("adiascat.adiabatic", "onshell_vs_frozen", "adiabatic.onshell_vs_frozen"),
    ("adiascat.adiabatic", "outgoing_state_check",
     "adiabatic.outgoing_state_check"),
    ("adiascat.experiments", "run_combined", "experiments.combined"),
    ("adiascat.experiments", "run_epsilon_scaling",
     "experiments.epsilon-scaling"),
    ("adiascat.experiments", "run_coherent_props",
     "experiments.coherent-props"),
    ("adiascat.experiments", "run_outgoing_state",
     "experiments.outgoing-state"),
    ("adiascat.cli", "_build_setup", "cli.build_setup"),
    ("adiascat.cli", "validate_setup", "cli.validate_setup"),
    ("adiascat.cli", "write_results", "cli.write_results"),
)

PROPAGATE_BACKENDS = ("matrix1", "matrixN", "rankone")

# Counters that must repeat exactly between two traced passes.
COUNT_SUFFIXES = (".calls", ".steps", ".lattice_steps", ".energies",
                  ".unique_frac", ".zero_frac")
COUNT_NAMES = ("numpy.fft.calls", "network.contract_errors")


class Tracer:
    """In-memory span and counter recorder for one pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._onshell_keys: set = set()
        self._seen_errors: set[int] = set()
        self._contract_error = None

    def add(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def install(self) -> None:
        """Wrap every adiascat binding of the catalogued functions."""
        import numpy as np

        from adiascat import experiments, numerics
        self._contract_error = numerics.NumericalContractError
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "adiascat" or n.startswith("adiascat.")]
        for module_name, attr, span in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
            for key, value in list(experiments.EXPERIMENTS.items()):
                if value is original:
                    experiments.EXPERIMENTS[key] = wrapper
        for attr in ("fft", "ifft"):
            setattr(np.fft, attr, self._counted(getattr(np.fft, attr),
                                                "numpy.fft.calls"))

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, fn, span):
        before = getattr(self, "_before_" + span.replace(".", "_")
                         .replace("-", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_")
                        .replace("-", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span
            if before is not None:
                name, args, kwargs = before(span, args, kwargs)
            self.add(name + ".calls")
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except self._contract_error as exc:
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.add("network.contract_errors")
                raise
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- per-layer work counters -------------------------------------------

    def _before_kernels_phase(self, span, args, kwargs):
        self.add(span + ".steps", int(args[3]))
        return span, args, kwargs

    _before_kernels_unitary = _before_kernels_phase

    def _before_kernels_product(self, span, args, kwargs):
        self.add(span + ".steps", int(args[0].shape[0]))
        return span, args, kwargs

    def _before_numerics_ordered_exponential(self, span, args, kwargs):
        generator = args[0]

        def counted(u):
            self.add(span + ".steps")
            return generator(u)
        return span, (counted,) + tuple(args[1:]), kwargs

    def _before_network_propagate(self, span, args, kwargs):
        from adiascat.network import MatrixPotential
        model, state, t0, t1 = args[:4]
        if isinstance(model.coupling, MatrixPotential):
            tag = "matrix1" if model.n_channels == 1 else "matrixN"
        else:
            tag = "rankone"
        steps, _ = state.grid.snap(t1 - t0)
        self.add(span + ".lattice_steps", abs(steps))
        return f"{span}.{tag}", args, kwargs

    def _after_network_on_shell_S(self, args, kwargs, result):
        self._onshell_keys.add((repr(args[0]), float(result.s),
                                float(result.energy)))
        self.counts["network.on_shell_S.unique"] = len(self._onshell_keys)

    def _after_network_wigner_delay(self, args, kwargs, result):
        if not result.matrix.any():
            self.add("network.wigner_delay.zero")

    def _before_network_rankone_resolvent(self, span, args, kwargs):
        import numpy as np
        energies = args[1] if len(args) > 1 else kwargs["energies"]
        self.add(span + ".energies", int(np.size(energies)))
        return span, args, kwargs


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in BENCHMARK.json order."""
    names = []
    for _, _, span in SPANS:
        if span == "network.propagate":
            for tag in PROPAGATE_BACKENDS:
                names += [f"{span}.{tag}.calls", f"{span}.{tag}.self_s"]
            names.append(span + ".lattice_steps")
            names += ["numpy.fft.calls", "network.contract_errors"]
            continue
        if span.startswith(("experiments.", "cli.")):
            names.append(span + ".self_s")
            continue
        names += [span + ".calls", span + ".self_s"]
        if span.startswith(("kernels.", "numerics.")):
            names.append(span + ".steps")
        elif span == "network.on_shell_S":
            names.append(span + ".unique_frac")
        elif span == "network.wigner_delay":
            names.append(span + ".zero_frac")
        elif span == "network.rankone_resolvent":
            names.append(span + ".energies")
    names += ["trace.setup_s", "trace.wall_s", "trace.accounted_frac",
              "trace.overhead_frac"]
    return names


def layer_metrics(spans: list, counts: dict) -> dict[str, float]:
    """Per-layer values of one traced pass from its raw spans and counters.

    Self time is a span's duration minus the time covered by its direct
    children; children nest strictly because a pass is single threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        key = name + ".self_s"
        out[key] = out.get(key, 0.0) + (end - start) - covered
    for name in per_layer_names():
        if name.endswith(".self_s"):
            out.setdefault(name, 0.0)
        elif name.endswith(".unique_frac"):
            calls = counts.get("network.on_shell_S.calls", 0)
            out[name] = (counts.get("network.on_shell_S.unique", 0) / calls
                         if calls else 0.0)
        elif name.endswith(".zero_frac"):
            calls = counts.get("network.wigner_delay.calls", 0)
            out[name] = (counts.get("network.wigner_delay.zero", 0) / calls
                         if calls else 0.0)
        elif not name.startswith("trace."):
            out[name] = counts.get(name, 0)
    return out


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES
