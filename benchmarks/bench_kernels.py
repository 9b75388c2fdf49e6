"""Time the transport kernels, the matrix on-shell S, matrix and rank-one
transport, the rank-one Faddeeva form, the 800-node Gauss-Legendre rule
and diagnostics on run-sized inputs.

    python3 benchmarks/bench_kernels.py [--repeats 3] [--sizes 1024,4096]

``--sizes`` sets the kernel grids; the sigma_x transport runs on the
grid of the multichannel benchmark's matrix leg (n = 2048), the rank-one
leg at the size of criterion-09 (n = 512), the label build at that of
combined.ini (n = 4096) and the diagnostics at the sizes of the shipped
coherent-props (n = 2048) and outgoing-state (n = 512) configs;
adiabatic_tau runs on combined.ini's response grid (n = 6144) and on a
two-channel grid (n = 1024).
Throwaway complex GEMMs run before any timing (see ``_warm_blas``):
best-of-N cannot filter a slow BLAS state that lasts across all of its
repeats.
"""

import argparse
import time

import numpy as np

from adiascat import _kernels as K
from adiascat import adiabatic
from adiascat.coherent import (CoherentLabel, coherent_state, free_shift,
                               identity_resolution_residual)
from adiascat.experiments import _tau_grid
from adiascat.network import (MatrixPotential, RankOne, ScatterModel,
                              gauss_legendre, on_shell_S, propagate,
                              rankone_resolvent_exact)
from adiascat.numerics import Grid
from adiascat.profiles import GaussianMix, Schedule

BUMP = Schedule("bump", 1.0)
# the soluble model of combined.ini and outgoing-state.ini: one channel,
# one matrix term
SOLUBLE = ScatterModel(1, MatrixPotential(
    (1.0,), (GaussianMix((0.8,), (0.35,), (1.0,)),), BUMP), 0.1)


def _warm_blas():
    """Throwaway (64 x 2048) by (2048 x 64) complex GEMMs, until one runs
    at 1 GFLOP/s or 3 s have passed.

    In some fresh interpreters under multi-threaded OpenBLAS the first
    second of large complex GEMMs runs at ~130 ms each instead of ~1 ms;
    a single throwaway product does not outlast that state.
    """
    a = np.ones((64, 2048), dtype=np.complex128)
    flops = 8.0 * 64 * 64 * 2048
    budget_s = 3.0
    start = time.perf_counter()
    while time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        a @ a.T
        if flops / (time.perf_counter() - t0) >= 1e9:
            return
    print(f"warning: BLAS still slow after {budget_s:.0f}s of warm-up")


def _best_of(fn, args, repeats):
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _lattice(n, duration=40.0):
    """Grid points, duration and step count on the grid lattice, as
    ``propagate`` snaps them: tau = m dx and nsteps = m."""
    x = np.linspace(-96.0, 96.0, n, endpoint=False)
    m = round(duration / (x[1] - x[0]))
    return x, m * (x[1] - x[0]), m


def _phase_case(n):
    x, tau, nsteps = _lattice(n)
    profile = GaussianMix((0.8, 0.3), (0.35, -1.0), (1.0, 0.7))
    return (x, tau, 4.0, nsteps, profile, BUMP.value, 0.1, 8.0)


def _unitary_case(n, nc=2):
    """Two noncommuting terms: 0.7 sx + 0.5 sz for two channels, the
    spin-1 Jx and Jz for three."""
    x, tau, nsteps = _lattice(n)
    if nc == 2:
        jx = np.array([[0.0, 1.0], [1.0, 0.0]])
        jz = np.diag([1.0, -1.0])
    else:
        jx = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        jx = jx / np.sqrt(2.0)
        jz = np.diag([1.0, 0.0, -1.0])
    coupling = MatrixPotential((0.7 * jx, 0.5 * jz),
                               (GaussianMix.single(1.0, -0.4, 0.9),
                                GaussianMix.single(1.0, 0.5, 1.1)), BUMP)
    return (x, tau, 4.0, nsteps, coupling.value, BUMP.value, 0.1, 8.0)


def _product_case(steps):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(steps, 4, 4)) + 1j * rng.normal(size=(steps, 4, 4))
    ks = 0.5 * (a + np.conj(np.transpose(a, (0, 2, 1))))
    return (ks, 1e-3)


def _on_shell_case(kind):
    """The frozen on-shell S of combined.ini's soluble model (one channel,
    the phase kernel) or of epsilon-scaling-matrix.ini's sx model (two
    channels, the channel unitaries), each at its config's s."""
    if kind == "soluble":
        return (SOLUBLE, 0.70710678)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (ScatterModel(2, MatrixPotential(
        (sx,), (GaussianMix((1.0,), (0.0,), (1.0,)),), BUMP), 0.1), 0.5)


def _sx_transport_case():
    """The driven leg of the multichannel benchmark's matrix leg: one
    sigma_x term on Grid(-64, 64, 2048), s = 0.4 and the window T = 24,
    snapped onto the lattice as dynamical_S snaps it."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = ScatterModel(2, MatrixPotential(
        (sx,), SOLUBLE.coupling.profiles, BUMP), 0.2)
    grid = Grid(-64.0, 64.0, 2048)
    ket = coherent_state(CoherentLabel(0.0, 1.0, 0.7), grid, channel=0,
                         n_channels=2)
    T = grid.snap(24.0)[1]
    t_c = 0.4 / model.omega
    return (model, free_shift(ket, -T), t_c - T, t_c + T)


def _rankone_case():
    """Criterion-09's driven rank-one leg: two channels, about 48 time
    units."""
    model = ScatterModel(2, RankOne(GaussianMix((0.4,), (0.0,), (1.0,)),
                                    Schedule("bump", 1.0, 0.0, 1.0),
                                    (0.8, 0.6)), 0.2)
    grid = Grid(-40.0, 40.0, 512)
    ket = coherent_state(CoherentLabel(0.0, 1.0, 0.7), grid, channel=0,
                         n_channels=2)
    # criterion-09's ket after the incoming free leg, s = 0.4 and T = 24,
    # which dynamical_S snaps onto the lattice
    T = grid.snap(24.0)[1]
    return (model, free_shift(ket, -T), 2.0 - T, 2.0 + T)


def _residual_case(eps):
    """One coherent-props label; eps = 0.3 and 1.2 give the narrowest and
    widest momentum band of its labels."""
    state = coherent_state(CoherentLabel(0.3, 1.0, eps),
                           Grid(-64.0, 64.0, 2048))
    return (state, eps)


def _label_case(n):
    """Drive-sweep's matched label on the combined.ini grid; repeated
    transforms on one grid reuse its cached phases."""
    return (CoherentLabel(0.70710678 / 0.1, 1.0, 0.5),
            Grid(-160.0, 160.0, n))


def _outgoing_run(model, grid, densities, cold):
    """One outgoing-state run: three densities sharing one spectrum,
    which a cold run computes afresh (its eigh) and a warm one reuses."""
    if cold:
        adiabatic._shifted_spectrum.cache_clear()
    for rho in densities:
        adiabatic.outgoing_state_check(model, 0.5, rho, grid)


def _outgoing_case(cold):
    densities = (adiabatic.rho_fermi(mu=0.5, width=0.2, floor=-12.0),
                 adiabatic.rho_gaussian(center=0.0, width=1.0),
                 adiabatic.rho_polynomial((0.0, 1.0)))
    return (SOLUBLE, Grid(-40.0, 40.0, 512), densities, cold)


def _tau(model, s, e, eps, j, jp, grid):
    return adiabatic.adiabatic_tau(model, s, e, eps, j, jp, grid=grid)


def _tau_case(kind):
    """combined.ini's response coefficient (its soluble model on the
    widened grid run_combined gives it), or the (0, 1) element of a
    two-channel coupling with non-commuting terms."""
    if kind == "soluble":
        return (SOLUBLE, 0.70710678, 1.0, 0.5, 0, 0,
                _tau_grid(Grid(-160.0, 160.0, 4096)))
    sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    model = ScatterModel(2, MatrixPotential(
        (0.8 * sz, 0.6 * sx),
        (GaussianMix.single(1.0, -0.7, 1.0),
         GaussianMix.single(1.0, 0.9, 0.8)),
        BUMP), 0.1)
    return (model, 0.5, 1.0, 1.0, 0, 1, Grid(-48.0, 48.0, 1024))


def _cases(sizes, product_steps):
    """(name, callable, arguments) for every timed case."""
    cases = []
    for n in sizes:
        cases.append((f"characteristic_phase   n={n}",
                      K.characteristic_phase, _phase_case(n)))
        for nc in (2, 3):
            cases.append((f"characteristic_unitary n={n} nc={nc}",
                          K.characteristic_unitary, _unitary_case(n, nc)))
    cases.append((f"unitary_product     steps={product_steps}",
                  K.unitary_product, _product_case(product_steps)))
    for kind in ("soluble", "sx"):
        cases.append((f"on_shell_S {kind}", on_shell_S, _on_shell_case(kind)))
    cases.append(("sx propagate n=2048 48 units",
                  propagate, _sx_transport_case()))
    cases.append(("rank-one propagate n=512 48 units",
                  propagate, _rankone_case()))
    # the multichannel benchmark's Faddeeva check: its form, 13 energies
    cases.append(("rankone_resolvent_exact 13 energies",
                  rankone_resolvent_exact,
                  (GaussianMix((0.4,), (0.0,), (1.0,)),
                   np.linspace(-3.0, 3.0, 13))))
    # rankone_resolvent's rule, read once per process from the stored rules
    cases.append(("Gauss-Legendre 800: stored-rule load",
                  gauss_legendre.__wrapped__, (800,)))
    for eps in (0.3, 1.2):
        cases.append((f"identity_resolution_residual eps={eps}",
                      identity_resolution_residual, _residual_case(eps)))
    cases.append(("coherent_state n=4096",
                  coherent_state, _label_case(4096)))
    cases.append(("adiabatic_tau soluble n=6144", _tau, _tau_case("soluble")))
    cases.append(("adiabatic_tau two-channel n=1024 (0,1)",
                  _tau, _tau_case("two-channel")))
    cases.append(("outgoing_state_check n=512 x3 rho",
                  _outgoing_run, _outgoing_case(True)))
    cases.append(("outgoing_state_check n=512 x3 rho, cached eigh",
                  _outgoing_run, _outgoing_case(False)))
    return cases


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--sizes", default="1024,4096",
                    help="comma-separated grid sizes")
    ap.add_argument("--product-steps", type=int, default=4096)
    args = ap.parse_args()
    cases = _cases([int(v) for v in args.sizes.split(",")],
                   args.product_steps)

    _warm_blas()
    header = f"{'kernel':48s} {'best':>11s}"
    print(header)
    print("-" * len(header))
    for name, fn, case in cases:
        print(f"{name:48s} {_best_of(fn, case, args.repeats):9.2f}ms")


if __name__ == "__main__":
    main()
