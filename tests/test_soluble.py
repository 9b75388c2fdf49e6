"""Closed forms of the scalar commuting model against direct quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from adiascat.numerics import Grid
from adiascat.profiles import GaussianMix, Schedule
from adiascat.soluble import (SolubleModel, dynamical_S_profile,
                              dynamical_energy_shift_profile,
                              frozen_S_value, gauge_phase, tau_first_order)

GRID = Grid(-40.0, 40.0, 2048)
MODEL = SolubleModel(GaussianMix((0.8, 0.4), (0.35, -1.1), (1.0, 0.7)),
                     Schedule("tanh", 1.0, 0.0, 1.3), 0.2)


def _phase_oracle(model, s, x):
    # Phi_s(x) = integral f(s - omega (x - u)) v(u) du, by adaptive quadrature
    def integrand(u):
        return (model.schedule.value(s - model.omega * (x - u))
                * model.potential(np.array([u]))[0])
    val, err = quad(integrand, -12.0, 12.0, limit=200)
    assert err < 1e-9
    return val


@pytest.mark.parametrize("x", [-6.0, -1.0, 0.0, 2.5, 7.0])
def test_gauge_phase_matches_quadrature(x):
    s = 0.6
    profile = gauge_phase(MODEL, s, GRID)
    j = int(round((x - GRID.x_min) / GRID.dx))
    assert profile[j] == pytest.approx(_phase_oracle(MODEL, s, GRID.points[j]),
                                       abs=1e-8)


def test_dynamical_profile_is_phase_of_gauge():
    s = -0.3
    prof = dynamical_S_profile(MODEL, s, GRID)
    np.testing.assert_allclose(prof, np.exp(-1j * gauge_phase(MODEL, s, GRID)),
                               atol=1e-15)
    np.testing.assert_allclose(np.abs(prof), 1.0, atol=1e-15)


def test_energy_shift_profile_matches_quadrature():
    s = 0.4
    prof = dynamical_energy_shift_profile(MODEL, s, GRID)
    x = 1.5
    j = int(round((x - GRID.x_min) / GRID.dx))

    def integrand(u):
        return (MODEL.schedule.derivative(s - MODEL.omega * (GRID.points[j] - u))
                * MODEL.potential(np.array([u]))[0])
    val, err = quad(integrand, -12.0, 12.0, limit=200)
    assert prof[j] == pytest.approx(val, abs=1e-8)


def test_energy_shift_profile_is_s_derivative_of_phase():
    # omega-scaled transport: d/ds Phi_s = E_s
    s, h = 0.2, 1e-4
    dphi = (gauge_phase(MODEL, s + h, GRID)
            - gauge_phase(MODEL, s - h, GRID)) / (2 * h)
    np.testing.assert_allclose(
        dphi, dynamical_energy_shift_profile(MODEL, s, GRID), atol=1e-7)


def test_frozen_value_closed_form():
    s = 0.7
    w = MODEL.potential.weight
    expected = np.exp(-1j * MODEL.schedule.value(s) * w)
    assert frozen_S_value(MODEL, s) == pytest.approx(expected)
    assert abs(frozen_S_value(MODEL, s)) == pytest.approx(1.0)
    # grid quadrature route agrees with the closed-form weight
    assert frozen_S_value(MODEL, s, GRID) == pytest.approx(expected, abs=1e-12)


def test_gaussian_mix_moments():
    mix = GaussianMix((0.8, 0.4), (0.35, -1.1), (1.0, 0.7))
    w_ref = 0.8 * math.sqrt(math.pi) * 1.0 + 0.4 * math.sqrt(math.pi) * 0.7
    m1_ref = (0.8 * math.sqrt(math.pi) * 1.0 * 0.35
              + 0.4 * math.sqrt(math.pi) * 0.7 * -1.1)
    assert mix.weight == pytest.approx(w_ref, rel=1e-14)
    assert mix.first_moment == pytest.approx(m1_ref, rel=1e-14)
    # grid quadrature cross-check
    x = GRID.points
    assert GRID.quadrature(mix(x)) == pytest.approx(w_ref, abs=1e-12)
    assert GRID.quadrature(x * mix(x)) == pytest.approx(m1_ref, abs=1e-12)


def test_tau_first_order_formula():
    s = 0.5
    expected = (MODEL.schedule.derivative(s) * MODEL.potential.first_moment
                * frozen_S_value(MODEL, s))
    assert tau_first_order(MODEL, s) == pytest.approx(expected)


def test_soluble_model_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        SolubleModel(MODEL.potential, MODEL.schedule, -0.1)
