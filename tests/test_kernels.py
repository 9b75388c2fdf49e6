"""Transport kernels against per-point references and unitarity."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from adiascat import _kernels
from adiascat.network import MatrixPotential, on_shell_S, propagate
from adiascat.numerics import ordered_exponential
from adiascat.profiles import GaussianMix, Schedule


def _active_range(c0, dt, rmax, nsteps):
    """Index range of steps whose characteristic point lies in |u| <= rmax.

    u_k = c0 + k*dt; returns (klo, khi) inclusive, possibly empty (khi < klo).
    """
    if dt > 0.0:
        lo = (-rmax - c0) / dt
        hi = (rmax - c0) / dt
    else:
        lo = (rmax - c0) / dt
        hi = (-rmax - c0) / dt
    klo = int(math.ceil(lo))
    khi = int(math.floor(hi))
    if klo < 0:
        klo = 0
    if khi > nsteps - 1:
        khi = nsteps - 1
    return klo, khi


def _char_phase_py(x, tau, t1, nsteps, profile, schedule, omega, rmax):
    """Plain-Python per-point reference loop for characteristic_phase."""
    n = x.shape[0]
    dt = tau / nsteps
    t0 = t1 - tau
    out = np.zeros(n)
    for j in range(n):
        c0 = x[j] - tau + 0.5 * dt
        klo, khi = _active_range(c0, dt, rmax, nsteps)
        k = np.arange(klo, khi + 1)
        acc = 0.0
        for f, v in zip(schedule(omega * (t0 + (k + 0.5) * dt)),
                        profile(c0 + k * dt)):
            acc += f * v
        out[j] = acc * dt
    return out


def _phase_inputs():
    x = np.linspace(-12.0, 12.0, 257)
    return x, GaussianMix((0.8, -0.3), (0.4, -1.1), (1.0, 0.7))


@pytest.mark.parametrize("m", [64, -64, 3, -3])
@pytest.mark.parametrize("sub", [1, 4])
# fixed ids keep the test names stable
@pytest.mark.parametrize("kind", ["tanh", "bump"], ids=["1", "2"])
def test_characteristic_phase_numpy_matches_per_point_loop(m, sub, kind):
    # lattice-aligned inputs as propagate makes them; sub > 1 asks for
    # sub-steps of a grid cell, which the kernel refuses
    x, profile = _phase_inputs()
    dx = (x[-1] - x[0]) / (x.shape[0] - 1)
    args = (x, m * dx, 2.0, abs(m) * sub, profile,
            Schedule(kind, 1.0, 0.1, 1.3, 0.2).value, 0.25, 9.0)
    if sub > 1:
        with pytest.raises(ValueError, match=r"nsteps = \|m\|"):
            _kernels.characteristic_phase(*args)
        return
    got = _kernels.characteristic_phase(*args)
    want = _char_phase_py(*args)
    assert np.max(np.abs(want)) > 1e-2
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("tau,nsteps", [(40.0, 192), (6.0, 100)])
def test_characteristic_phase_numpy_rejects_off_lattice(tau, nsteps):
    x, profile = _phase_inputs()
    with pytest.raises(ValueError, match="tau = m dx"):
        _kernels.characteristic_phase(
            x, tau, 2.0, nsteps, profile,
            Schedule("tanh", 1.0).value, 0.25, 9.0)


def _unitary_inputs(nc):
    rng = np.random.default_rng(17)
    x = np.linspace(-10.0, 10.0, 129)
    mats = rng.normal(size=(2, nc, nc)) + 1j * rng.normal(size=(2, nc, nc))
    mats = 0.5 * (mats + np.conj(mats.transpose(0, 2, 1)))
    profiles = (GaussianMix.single(1.0, 0.3, 0.9),
                GaussianMix.single(1.0, -0.6, 1.2))
    return x, MatrixPotential(tuple(mats), profiles, Schedule("bump", 0.7))


@pytest.mark.parametrize("nc", [2, 3])
def test_characteristic_unitary_is_unitary(nc):
    x, coupling = _unitary_inputs(nc)
    u = _kernels.characteristic_unitary(
        x, 5.0, 1.0, 32, coupling.value, coupling.schedule.value, 0.3, 8.0)
    assert np.max(np.abs(u - np.eye(nc))) > 1e-2
    prod = u @ np.conj(u.transpose(0, 2, 1))
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(nc), prod.shape),
                               atol=1e-12)


@pytest.mark.parametrize("tau,nsteps", [(40.0, 192), (6.0, 100)])
def test_characteristic_unitary_rejects_off_lattice(tau, nsteps):
    x, coupling = _unitary_inputs(2)
    with pytest.raises(ValueError, match="tau = m dx"):
        _kernels.characteristic_unitary(
            x, tau, 1.0, nsteps, coupling.value, coupling.schedule.value,
            0.3, 8.0)


def _assert_matches_ordered_exponential(matrices, tau, sub):
    # the factor at x_j is the ordered product along its characteristic
    # [x_j - tau, x_j], later points on the left, with the same midpoint
    # samples; sub > 1 asks for sub-steps of a grid cell, which the
    # kernel refuses
    x = np.linspace(-8.0, 8.0, 65)
    dx = x[1] - x[0]
    coupling = MatrixPotential(
        matrices,
        (GaussianMix.single(1.0, -0.5, 0.8), GaussianMix.single(1.0, 0.6, 1.1)),
        Schedule("tanh", 0.8, 0.2, 1.5, 0.4))
    nc = coupling.n_channels
    t1, omega, rmax = 1.5, 0.3, 9.0
    m = round(tau / dx)
    nsteps = abs(m) * sub
    args = (x, m * dx, t1, nsteps, coupling.value, coupling.schedule.value,
            omega, rmax)
    if sub > 1:
        with pytest.raises(ValueError, match=r"nsteps = \|m\|"):
            _kernels.characteristic_unitary(*args)
        return
    got = _kernels.characteristic_unitary(*args)
    t0 = t1 - m * dx
    # the grid ends show a factor window clipped by one point
    for j in (0, 28, 30, 32, 33, 34, x.shape[0] - 1):
        def generator(u, xj=x[j]):
            f = coupling.schedule.value(omega * (t0 + u - xj + m * dx))
            return -1j * coupling.value(np.array([u]), f)[0]
        want = ordered_exponential(generator, x[j] - m * dx, x[j], nsteps)
        if 0 < j < x.shape[0] - 1:
            assert np.max(np.abs(want - np.eye(nc))) > 1e-2
        np.testing.assert_allclose(got[j], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("tau", [4.0, -4.0])
@pytest.mark.parametrize("sub", [1, 2])
def test_characteristic_unitary_matches_ordered_exponential(tau, sub):
    # sx and sz terms do not commute, so the order shows
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    _assert_matches_ordered_exponential((0.9 * sx, 0.6 * sz), tau, sub)


def _rotated(diagonal, seed):
    # a fixed unitary makes the eigenbasis of every sample nontrivial
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return q @ np.diag(diagonal) @ np.conj(q.T)


@pytest.mark.parametrize("tau", [4.0, -4.0])
@pytest.mark.parametrize("sub", [1, 3])
@pytest.mark.parametrize("field", ["three-channel", "degenerate"])
def test_characteristic_unitary_three_channels_match_ordered_exponential(
        field, tau, sub):
    # three noncommuting channels, and a field whose spectrum is
    # degenerate at every point, where eigh picks an arbitrary basis
    if field == "three-channel":
        matrices = (_rotated([1.0, 0.2, -0.7], 3), _rotated([0.5, -0.4, 0.9], 4))
    else:
        matrices = (_rotated([1.0, 1.0, -0.5], 5), 0.3 * np.eye(3))
    _assert_matches_ordered_exponential(matrices, tau, sub)


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


def test_bench_kernels_cases_call_the_kernels():
    # the timing script builds its arguments by hand; calling each of its
    # cases once keeps it in step with the signatures it times
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for kernel, case, shape in (
            (_kernels.characteristic_phase, bench._phase_case(64), (64,)),
            (_kernels.characteristic_unitary, bench._unitary_case(64),
             (64, 2, 2)),
            (_kernels.characteristic_unitary, bench._unitary_case(64, 3),
             (64, 3, 3)),
            (_kernels.unitary_product, bench._product_case(16), (4, 4))):
        out = kernel(*case)
        assert out.shape == shape and np.all(np.isfinite(out))
    for kind, nc in (("soluble", 1), ("sx", 2)):
        onshell = on_shell_S(*bench._on_shell_case(kind))
        assert onshell.matrix.shape == (nc, nc)
        assert onshell.unitarity_defect() < 1e-12
    moved = propagate(*bench._sx_transport_case())
    assert moved.amplitudes.shape == (2, 2048)
    assert abs(moved.norm() - 1.0) < 1e-12
    for _, fn, case in bench._cases([64], 16):
        fn(*case)


def test_backend_is_numpy():
    assert _kernels.backend_name() == "numpy"
