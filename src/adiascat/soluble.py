"""Exactly solvable driven single-channel model.

With H(t) = P + f(omega t) v(x) on one chiral channel, every object the
package cares about has a closed form.  The dynamical scattering
operator at base point s is multiplication by exp(-i Phi_s(x)) with

    Phi_s(x) = integral of f(s - omega (x - u)) v(u) du,

the frozen operator is the scalar exp(-i f(s) W) with W the potential
weight, the Wigner delay vanishes identically, and the dynamical energy
shift is the multiplication profile

    E_s(x) = integral of f'(s - omega (x - u)) v(u) du = -Phi_s'(x)/omega.

The model is the one-channel, one-term matrix ``ScatterModel`` c v0(x)
with v = c v0 (see soluble_potential).  These closed forms are the
reference answers the generic propagation machinery is tested against.
"""

from __future__ import annotations

import numpy as np

from .network import RankOne, ScatterModel
from .numerics import Grid
from .profiles import GaussianMix


def soluble_potential(model: ScatterModel) -> GaussianMix:
    """The potential v of a one-channel, one-term matrix model, with the
    matrix entry folded into the amplitudes; any other model is a
    ValueError saying why."""
    coupling = model.coupling
    if isinstance(coupling, RankOne) or model.n_channels != 1 \
            or len(coupling.matrices) != 1:
        terms = ("a rank-one coupling" if isinstance(coupling, RankOne)
                 else f"{len(coupling.matrices)} matrix term(s)")
        raise ValueError(
            "the soluble closed forms need one channel and one matrix "
            f"term; this model has {model.n_channels} channel(s) and {terms}")
    scale = float(coupling.matrices[0][0, 0].real)
    mix = coupling.profiles[0]
    return GaussianMix(tuple(scale * a for a in mix.amps), mix.centers,
                       mix.widths)


def _swept(potential: GaussianMix, g, omega: float, s: float,
           grid: Grid) -> np.ndarray:
    """dx sum_u g(s - omega (x - u)) v(u) at every grid point x, with v
    the potential sampled where it lives."""
    u = grid.points[np.abs(grid.points) <= potential.support_radius(1e-18)]
    args = s - omega * (grid.points[:, None] - u[None, :])
    return grid.dx * (g(args) @ potential(u))


def gauge_phase(model: ScatterModel, s: float, grid: Grid) -> np.ndarray:
    """Accumulated phase profile Phi_s on the grid."""
    return _swept(soluble_potential(model), model.schedule.value,
                  model.omega, s, grid)


def dynamical_S_profile(model: ScatterModel, s: float,
                        grid: Grid) -> np.ndarray:
    """Multiplication profile of the dynamical scattering operator."""
    return np.exp(-1j * gauge_phase(model, s, grid))


def dynamical_energy_shift_profile(model: ScatterModel, s: float,
                                   grid: Grid) -> np.ndarray:
    """Multiplication profile of the dynamical energy shift operator."""
    return _swept(soluble_potential(model), model.schedule.derivative,
                  model.omega, s, grid)


def frozen_S_value(model: ScatterModel, s: float) -> complex:
    """Frozen scattering amplitude exp(-i f(s) W), W the closed-form
    potential weight."""
    w = soluble_potential(model).weight
    return complex(np.exp(-1j * model.schedule.value(s) * w))


def tau_first_order(model: ScatterModel, s: float) -> complex:
    """First-order adiabatic response coefficient f'(s) m1 S_f(s).

    m1 is the first moment of the potential.  The leading correction to
    the frozen amplitude on matched coherent labels is -i omega times
    this number.
    """
    return (float(model.schedule.derivative(s))
            * soluble_potential(model).first_moment
            * frozen_S_value(model, s))
