"""Grid, transform, quadrature and fitting infrastructure."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import dawsn

from adiascat._pcg64 import UniformStream
from adiascat.experiments import COHERENT_BOUNDS, _random_equal_weight_pair
from adiascat.numerics import (Grid, NumericalContractError, _dawson,
                               central_derivative, fit_slope, hermitize,
                               ordered_exponential)


def test_grid_basic_geometry():
    grid = Grid(-8.0, 8.0, 64)
    assert grid.dx == pytest.approx(0.25)
    assert grid.points[0] == pytest.approx(-8.0)
    assert grid.points[-1] == pytest.approx(8.0 - 0.25)
    assert grid.p_max == pytest.approx(math.pi / 0.25)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 64)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 4)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 63)


def test_snap_rounds_to_lattice():
    grid = Grid(-8.0, 8.0, 64)
    m, snapped = grid.snap(1.01 * grid.dx)
    assert m == 1
    assert snapped == pytest.approx(grid.dx)
    m, snapped = grid.snap(-3.4 * grid.dx)
    assert m == -3
    assert snapped == pytest.approx(-3.0 * grid.dx)


def test_momentum_roundtrip_is_identity():
    grid = Grid(-10.0, 10.0, 128)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    back = grid.from_momentum(grid.to_momentum(psi))
    np.testing.assert_allclose(back, psi, atol=1e-12)


def test_grid_arrays_are_read_only():
    grid = Grid(-10.0, 10.0, 128)
    rng = np.random.default_rng(4)
    psi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    phat = grid.to_momentum(psi)
    back = grid.from_momentum(phat)
    for arr in (grid.points, grid.momenta, grid._phases[0],
                grid._phases[1]):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0
    np.testing.assert_array_equal(grid.to_momentum(psi), phat)
    np.testing.assert_array_equal(grid.from_momentum(phat), back)


def test_to_momentum_continuum_normalization():
    # Gaussian pair: exp(-x^2/2) <-> exp(-p^2/2), fixed point of the
    # unitary transform in the continuum convention
    grid = Grid(-20.0, 20.0, 512)
    psi = np.exp(-grid.points ** 2 / 2.0).astype(complex)
    phat = grid.to_momentum(psi)
    expected = np.exp(-grid.momenta ** 2 / 2.0)
    np.testing.assert_allclose(phat, expected, atol=1e-12)


def test_quadrature_matches_closed_form():
    grid = Grid(-30.0, 30.0, 1024)
    vals = np.exp(-grid.points ** 2)
    assert grid.quadrature(vals) == pytest.approx(math.sqrt(math.pi), abs=1e-12)


def test_edge_mass_flags_wrapped_weight():
    grid = Grid(-8.0, 8.0, 64)
    centered = np.exp(-grid.points ** 2)
    assert grid.edge_mass(centered) < 1e-20
    edge = np.zeros(grid.n)
    edge[0] = 1.0
    assert grid.edge_mass(edge) == pytest.approx(1.0)


def test_central_derivative_fourth_order():
    d = central_derivative(np.sin, 0.3, 1e-2)
    assert d == pytest.approx(math.cos(0.3), abs=1e-9)
    with pytest.raises(ValueError):
        central_derivative(np.sin, 0.0, 0.0)


def test_central_derivative_vector_valued():
    f = lambda x: np.array([x ** 2, np.exp(x)])
    d = central_derivative(f, 1.0, 1e-3)
    np.testing.assert_allclose(d, [2.0, math.e], atol=1e-10)


def test_fit_slope_recovers_power_law():
    xs = np.array([0.4, 0.2, 0.1, 0.05])
    ys = 3.7 * xs ** 1.8
    assert fit_slope(xs, ys) == pytest.approx(1.8, abs=1e-12)


def test_fit_slope_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_slope([1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_slope([1.0], [1.0])


def test_fit_slope_needs_two_distinct_x_values():
    # lstsq would return a minimum-norm "slope" through one repeated x
    with pytest.raises(ValueError, match="two distinct x values"):
        fit_slope([0.1, 0.1], [1.0, 2.0])


def test_hermitize_projection_and_defect():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm, defect = hermitize(m)
    np.testing.assert_allclose(herm, np.conj(herm.T))
    anti = 0.5 * (m - np.conj(m.T))
    assert defect == pytest.approx(np.linalg.norm(anti, 2))
    herm2, defect2 = hermitize(herm)
    np.testing.assert_allclose(herm2, herm)
    assert defect2 < 1e-14


def test_ordered_exponential_constant_generator():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = 0.5 * (h + np.conj(h.T))
    a = -1j * h
    u = ordered_exponential(lambda t: a, 0.0, 1.7)
    np.testing.assert_allclose(u, expm(1.7 * a), atol=1e-8)


def test_ordered_exponential_noncommuting_vs_brute_force():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

    def gen(t):
        return -1j * (math.cos(t) * sx + t * sz)

    u = ordered_exponential(gen, 0.0, 2.0, steps=4096)
    ref = np.eye(2, dtype=complex)
    nfine = 65536
    dt = 2.0 / nfine
    for k in range(nfine):
        ref = expm(gen((k + 0.5) * dt) * dt) @ ref
    np.testing.assert_allclose(u, ref, atol=1e-6)
    # unitary to tight tolerance regardless of step count
    np.testing.assert_allclose(u @ np.conj(u.T), np.eye(2), atol=1e-12)


def test_ordered_exponential_rejects_nonantihermitian():
    with pytest.raises(ValueError):
        ordered_exponential(lambda t: np.eye(2, dtype=complex), 0.0, 1.0)


def test_contract_error_is_runtime_error():
    assert issubclass(NumericalContractError, RuntimeError)


def test_dawson_matches_scipy_dawsn():
    # both sides of the Taylor/Rybicki switch at |x| = 0.2, tiny and large x
    edge = 0.2 + np.arange(-4, 5) * np.spacing(0.2)
    tail = np.geomspace(1e-300, 1e3, 2000)
    x = np.concatenate([np.linspace(-60.0, 60.0, 20001), tail, -tail,
                        edge, -edge, [0.0]])
    ref = dawsn(x)
    got = _dawson(x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
    assert np.array_equal(_dawson(-x), -got)
    scalar = _dawson(0.5)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(dawsn(0.5), rel=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_slope_rejects_a_non_finite_x(bad, capfd):
    # lstsq raised LinAlgError ("SVD did not converge") and LAPACK wrote
    # DLASCL errors to stderr
    with pytest.raises(ValueError, match="x values must be finite"):
        fit_slope([0.1, 0.2, bad], [1.0, 2.0, 3.0])
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_slope_gives_nan_for_a_non_finite_y(bad):
    # a NaN slope fails its gate through gate_ratio; raising here would
    # stop the run with a config error instead
    assert math.isnan(fit_slope([0.1, 0.2, 0.4], [1.0, bad, 3.0]))


# past 2^128 the seed's entropy runs beyond SeedSequence's 4-word pool
STREAM_SEEDS = [*range(64), 2**32 - 1, 2**32, 2**64, 2**128, 2**200 + 7]


def test_uniform_stream_fills_coherent_props_draws_as_numpy_does():
    # the 7 bounds of coherent-props' labels, broadcast over (100, 7)
    for seed in STREAM_SEEDS:
        want = np.random.default_rng(seed).uniform(*COHERENT_BOUNDS,
                                                   size=(100, 7))
        got = UniformStream(seed).uniform(*COHERENT_BOUNDS, size=(100, 7))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), seed


def test_uniform_stream_scalar_calls_follow_numpys_stream():
    # omega-scaling's five potential pairs, each nine interleaved scalar
    # calls over six different bounds
    for seed in STREAM_SEEDS:
        want, got = np.random.default_rng(seed), UniformStream(seed)
        for _ in range(5):
            assert (_random_equal_weight_pair(got)
                    == _random_equal_weight_pair(want)), seed
        assert got.uniform(-2.0, 2.0) == want.uniform(-2.0, 2.0), seed


def test_uniform_stream_rejects_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        UniformStream(-1)
