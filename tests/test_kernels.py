"""Transport kernels against per-point references and unitarity."""

import numpy as np
import pytest

from adiascat import _kernels


def _phase_inputs():
    x = np.linspace(-12.0, 12.0, 257)
    amps = np.array([0.8, -0.3])
    centers = np.array([0.4, -1.1])
    widths = np.array([1.0, 0.7])
    return x, amps, centers, widths


@pytest.mark.parametrize("m", [64, -64, 3, -3])
@pytest.mark.parametrize("sub", [1, 4])
@pytest.mark.parametrize("kind", [_kernels.KIND_TANH, _kernels.KIND_BUMP])
def test_characteristic_phase_numpy_matches_per_point_loop(m, sub, kind):
    # _char_phase_py is the plain-Python per-point reference loop;
    # lattice-aligned inputs as propagate makes them
    x, amps, centers, widths = _phase_inputs()
    dx = (x[-1] - x[0]) / (x.shape[0] - 1)
    args = (x, m * dx, 2.0, abs(m) * sub, amps, centers, widths,
            kind, 1.0, 0.1, 1.3, 0.2, 0.25, 9.0)
    got = _kernels.characteristic_phase(*args)
    want = _kernels._char_phase_py(*args)
    assert np.max(np.abs(want)) > 1e-2
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("tau,nsteps", [(40.0, 192), (6.0, 100)])
def test_characteristic_phase_numpy_rejects_off_lattice(tau, nsteps):
    x, amps, centers, widths = _phase_inputs()
    with pytest.raises(ValueError, match="tau = m dx"):
        _kernels.characteristic_phase(
            x, tau, 2.0, nsteps, amps, centers, widths,
            _kernels.KIND_TANH, 1.0, 0.0, 1.0, 0.0, 0.25, 9.0)


def _unitary_inputs(nc):
    rng = np.random.default_rng(17)
    x = np.linspace(-10.0, 10.0, 129)
    mats = rng.normal(size=(2, nc, nc)) + 1j * rng.normal(size=(2, nc, nc))
    mats = 0.5 * (mats + np.conj(mats.transpose(0, 2, 1)))
    centers = np.array([0.3, -0.6])
    widths = np.array([0.9, 1.2])
    return x, mats, centers, widths


@pytest.mark.parametrize("nc", [2, 3])
def test_characteristic_unitary_is_unitary(nc):
    x, mats, centers, widths = _unitary_inputs(nc)
    u = _kernels.characteristic_unitary(
        x, 5.0, 1.0, 160, mats, centers, widths,
        _kernels.KIND_BUMP, 0.7, 0.0, 1.0, 0.0, 0.3, 8.0)
    assert np.max(np.abs(u - np.eye(nc))) > 1e-2
    prod = u @ np.conj(u.transpose(0, 2, 1))
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(nc), prod.shape),
                               atol=1e-12)


def test_unitary_product_is_unitary():
    rng = np.random.default_rng(23)
    ks = rng.normal(size=(37, 4, 4)) + 1j * rng.normal(size=(37, 4, 4))
    ks = 0.5 * (ks + np.conj(ks.transpose(0, 2, 1)))
    u = _kernels.unitary_product(ks, 0.05)
    np.testing.assert_allclose(u @ np.conj(u.T), np.eye(4), atol=1e-13)


def test_unitary_product_empty_is_identity():
    ks = np.zeros((0, 3, 3), dtype=complex)
    np.testing.assert_allclose(_kernels.unitary_product(ks, 0.1),
                               np.eye(3))


def test_schedule_value_scalar_vs_vec():
    s = np.linspace(-3.0, 3.0, 41)
    for kind in (_kernels.KIND_CONSTANT, _kernels.KIND_TANH,
                 _kernels.KIND_BUMP, _kernels.KIND_SMOOTHSTEP):
        vec = _kernels._schedule_value_vec(kind, 0.8, 0.1, 1.3, -0.2, s)
        scal = np.array([_kernels._schedule_value(kind, 0.8, 0.1, 1.3, -0.2,
                                                  float(v)) for v in s])
        np.testing.assert_allclose(vec, scal, atol=1e-15)


def test_backend_is_numpy():
    assert _kernels.backend_name() == "numpy"
