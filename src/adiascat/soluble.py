"""Exactly solvable driven single-channel model.

With H(t) = P + f(omega t) v(x) on one chiral channel, every object the
package cares about has a closed form.  The dynamical scattering
operator at base point s is multiplication by exp(-i Phi_s(x)) with

    Phi_s(x) = integral of f(s - omega (x - u)) v(u) du,

the frozen operator is the scalar exp(-i f(s) W) with W the potential
weight, the Wigner delay vanishes identically, and the dynamical energy
shift is the multiplication profile

    E_s(x) = integral of f'(s - omega (x - u)) v(u) du = -Phi_s'(x)/omega.

These closed forms are the reference answers the generic propagation
machinery is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Grid
from .profiles import GaussianMix, Schedule


@dataclass(frozen=True)
class SolubleModel:
    potential: GaussianMix
    schedule: Schedule
    omega: float

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")


def _support_samples(model: SolubleModel, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    radius = model.potential.support_radius(1e-18)
    x = grid.points
    mask = np.abs(x) <= radius
    u = x[mask]
    return u, model.potential(u)


def gauge_phase(model: SolubleModel, s: float, grid: Grid) -> np.ndarray:
    """Accumulated phase profile Phi_s on the grid."""
    u, v = _support_samples(model, grid)
    args = s - model.omega * (grid.points[:, None] - u[None, :])
    return grid.dx * (model.schedule.value(args) @ v)


def dynamical_S_profile(model: SolubleModel, s: float, grid: Grid) -> np.ndarray:
    """Multiplication profile of the dynamical scattering operator."""
    return np.exp(-1j * gauge_phase(model, s, grid))


def dynamical_energy_shift_profile(model: SolubleModel, s: float,
                                   grid: Grid) -> np.ndarray:
    """Multiplication profile of the dynamical energy shift operator."""
    u, v = _support_samples(model, grid)
    args = s - model.omega * (grid.points[:, None] - u[None, :])
    return grid.dx * (model.schedule.derivative(args) @ v)


def frozen_S_value(model: SolubleModel, s: float, grid: Grid | None = None) -> complex:
    """Frozen scattering amplitude exp(-i f(s) W).

    W is the potential weight, by grid quadrature when a grid is given
    and in closed form otherwise.
    """
    if grid is None:
        w = model.potential.weight
    else:
        w = float(grid.quadrature(model.potential(grid.points)))
    return complex(np.exp(-1j * model.schedule.value(s) * w))


def tau_first_order(model: SolubleModel, s: float) -> complex:
    """First-order adiabatic response coefficient f'(s) m1 S_f(s).

    m1 is the first moment of the potential.  The leading correction to
    the frozen amplitude on matched coherent labels is -i omega times
    this number.
    """
    return (float(model.schedule.derivative(s)) * model.potential.first_moment
            * frozen_S_value(model, s))
