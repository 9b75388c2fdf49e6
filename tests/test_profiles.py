"""Drive schedules against their closed forms."""

import math
import warnings

import numpy as np
import pytest

from adiascat.numerics import central_derivative
from adiascat.profiles import GaussianMix, Schedule

A, B, C, D = 0.8, 0.1, 1.3, -0.2

CLOSED_FORMS = {
    "constant": lambda z: A,
    "tanh": lambda z: A * math.tanh(z) + D,
    "bump": lambda z: A * math.exp(-z * z) + D,
    "smoothstep": lambda z: A / (1.0 + math.exp(-z)) + D,
}


@pytest.mark.parametrize("kind", sorted(CLOSED_FORMS))
def test_schedule_matches_closed_forms(kind):
    sched = Schedule(kind, A, B, C, D)
    s = np.linspace(-4.0, 4.0, 33)
    want = [CLOSED_FORMS[kind]((v - B) / C) for v in s]
    np.testing.assert_allclose(sched.value(s), want, rtol=1e-15, atol=1e-15)
    for v in s[::4]:
        got = sched.derivative(float(v))
        assert type(got) is float and type(sched.value(float(v))) is float
        assert got == pytest.approx(
            central_derivative(sched.value, float(v), 1e-3), abs=1e-10)
    far = np.array([B - 800.0 * C, B + 800.0 * C])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sched.value(far)
        slopes = sched.derivative(far)
    np.testing.assert_allclose(values, sched.asymptotics(), atol=1e-15)
    np.testing.assert_array_equal(slopes, 0.0)


@pytest.mark.parametrize("make, message", [
    (lambda: GaussianMix((1.0,), (0.0,), (0.0,)), "widths must be positive"),
    (lambda: Schedule("ramp", A), "unknown schedule kind"),
    (lambda: Schedule("bump", A, B, 0.0), "width must be positive"),
], ids=["width", "kind", "c"])
def test_profiles_and_schedules_refuse_bad_parameters(make, message):
    with pytest.raises(ValueError, match=message):
        make()


POWER_FORMS = {
    "centred one-term": GaussianMix((0.9,), (0.0,), (1.2,)),
    "centred three-term": GaussianMix((0.8, -0.3, 0.5), (0.0, 0.0, -0.0),
                                      (1.0, 0.4, 2.5)),
    "off-centre": GaussianMix((0.4, 0.3), (-0.6, 1.1), (0.7, 1.2)),
}


@pytest.mark.parametrize("form", POWER_FORMS.values(), ids=POWER_FORMS.keys())
def test_power_is_the_squared_fourier_magnitude_bit_for_bit(form):
    # the centred route drops phases that are exactly 1 +- 0j, so every
    # bit agrees, at the rank-one resolvent's node shape and at scalars
    k = np.random.default_rng(3).uniform(-12.0, 12.0, (32, 800))
    k[0, :3] = (0.0, -0.0, 40.0)
    assert np.array_equal(form.power(k), np.abs(form.fourier(k)) ** 2)
    for x in (0.0, -1.5, 7.25):
        assert form.power(x) == np.abs(form.fourier(x)) ** 2
