"""Closed forms of the scalar commuting model against direct quadrature.

The soluble model is the one-channel, one-term matrix ScatterModel; its
potential is the profile times the matrix entry."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from adiascat.adiabatic import outgoing_state_check, rho_fermi
from adiascat.network import MatrixPotential, ScatterModel
from adiascat.numerics import Grid
from adiascat.profiles import GaussianMix, Schedule
from adiascat.soluble import (dynamical_S_profile,
                              dynamical_energy_shift_profile,
                              frozen_S_value, gauge_phase, tau_first_order)

GRID = Grid(-40.0, 40.0, 2048)
MIX = GaussianMix((0.8, 0.4), (0.35, -1.1), (1.0, 0.7))
TANH = Schedule("tanh", 1.0, 0.0, 1.3)


def one_term(entry: float, mix: GaussianMix, omega: float = 0.2):
    """The one-channel model mix times the matrix [[entry]]."""
    return ScatterModel(1, MatrixPotential(([[entry]],), (mix,), TANH), omega)


MODEL = one_term(1.0, MIX)


def _phase_oracle(model, s, x):
    # Phi_s(x) = integral f(s - omega (x - u)) v(u) du, by adaptive quadrature
    def integrand(u):
        return (model.schedule.value(s - model.omega * (x - u))
                * MIX(np.array([u]))[0])
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
                * MIX(np.array([u]))[0])
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
    w = MIX.weight
    expected = np.exp(-1j * MODEL.schedule.value(s) * w)
    assert frozen_S_value(MODEL, s) == pytest.approx(expected)
    assert abs(frozen_S_value(MODEL, s)) == pytest.approx(1.0)


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
    expected = (MODEL.schedule.derivative(s) * MIX.first_moment
                * frozen_S_value(MODEL, s))
    assert tau_first_order(MODEL, s) == pytest.approx(expected)


CLOSED_FORMS = {
    "gauge_phase": lambda m: gauge_phase(m, 0.3, GRID),
    "dynamical_S_profile": lambda m: dynamical_S_profile(m, 0.3, GRID),
    "dynamical_energy_shift_profile":
        lambda m: dynamical_energy_shift_profile(m, 0.3, GRID),
    "frozen_S_value": lambda m: frozen_S_value(m, 0.3),
    "tau_first_order": lambda m: tau_first_order(m, 0.3),
}


@pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
def test_closed_forms_fold_the_matrix_entry_into_the_potential(form):
    # c MIX on the matrix [[c]] is the [[1.0]] model of the scaled MIX
    c = -0.7
    prescaled = GaussianMix(tuple(c * a for a in MIX.amps), MIX.centers,
                            MIX.widths)
    got = CLOSED_FORMS[form](one_term(c, MIX))
    want = CLOSED_FORMS[form](one_term(1.0, prescaled))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


SOLUBLE_ONLY = CLOSED_FORMS | {
    "outgoing_state_check": lambda m: outgoing_state_check(
        m, 0.3, rho_fermi(), Grid(-20.0, 20.0, 256)),
}


@pytest.mark.parametrize("form", sorted(SOLUBLE_ONLY))
def test_closed_forms_reject_two_matrix_terms(form):
    model = ScatterModel(1, MatrixPotential(([[1.0]], [[0.5]]), (MIX, MIX),
                                            TANH), 0.2)
    with pytest.raises(ValueError, match="one channel and one matrix term"):
        SOLUBLE_ONLY[form](model)
