"""Jitted kernels against their pure-numpy twins.

Both flavours are importable side by side when numba is present, so
most checks compare them in-process; one subprocess check covers the
ADIASCAT_NO_NUMBA=1 selection path end to end.
"""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from adiascat import _kernels


needs_numba = pytest.mark.skipif(not _kernels.HAS_NUMBA,
                                 reason="numba not available")

PHASE_ARGS = dict(tau=6.0, t1=2.0, nsteps=192,
                  kind=_kernels.KIND_TANH, p0=1.0, p1=0.0, p2=1.0, p3=0.0,
                  omega=0.25, rmax=9.0)


def _phase_inputs():
    x = np.linspace(-12.0, 12.0, 257)
    amps = np.array([0.8, -0.3])
    centers = np.array([0.4, -1.1])
    widths = np.array([1.0, 0.7])
    return x, amps, centers, widths


@needs_numba
def test_characteristic_phase_backends_agree():
    x, amps, centers, widths = _phase_inputs()
    a = _kernels.characteristic_phase_numba(x, PHASE_ARGS["tau"],
                                            PHASE_ARGS["t1"],
                                            PHASE_ARGS["nsteps"],
                                            amps, centers, widths,
                                            PHASE_ARGS["kind"],
                                            PHASE_ARGS["p0"], PHASE_ARGS["p1"],
                                            PHASE_ARGS["p2"], PHASE_ARGS["p3"],
                                            PHASE_ARGS["omega"],
                                            PHASE_ARGS["rmax"])
    b = _kernels.characteristic_phase_numpy(x, PHASE_ARGS["tau"],
                                            PHASE_ARGS["t1"],
                                            PHASE_ARGS["nsteps"],
                                            amps, centers, widths,
                                            PHASE_ARGS["kind"],
                                            PHASE_ARGS["p0"], PHASE_ARGS["p1"],
                                            PHASE_ARGS["p2"], PHASE_ARGS["p3"],
                                            PHASE_ARGS["omega"],
                                            PHASE_ARGS["rmax"])
    np.testing.assert_allclose(a, b, atol=1e-13)


@pytest.mark.parametrize("m", [64, -64, 3, -3])
@pytest.mark.parametrize("sub", [1, 4])
@pytest.mark.parametrize("kind", [_kernels.KIND_TANH, _kernels.KIND_BUMP])
def test_characteristic_phase_numpy_matches_per_point_loop(m, sub, kind):
    # _char_phase_py is the per-point reference loop, plain Python here
    # when numba is absent; lattice-aligned inputs as propagate makes them
    x, amps, centers, widths = _phase_inputs()
    dx = (x[-1] - x[0]) / (x.shape[0] - 1)
    args = (x, m * dx, 2.0, abs(m) * sub, amps, centers, widths,
            kind, 1.0, 0.1, 1.3, 0.2, 0.25, PHASE_ARGS["rmax"])
    got = _kernels.characteristic_phase_numpy(*args)
    want = _kernels._char_phase_py(*args)
    assert np.max(np.abs(want)) > 1e-2
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("tau,nsteps", [(40.0, 192), (6.0, 100)])
def test_characteristic_phase_numpy_rejects_off_lattice(tau, nsteps):
    x, amps, centers, widths = _phase_inputs()
    with pytest.raises(ValueError, match="tau = m dx"):
        _kernels.characteristic_phase_numpy(
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


@needs_numba
@pytest.mark.parametrize("nc", [2, 3])
def test_characteristic_unitary_backends_agree(nc):
    x, mats, centers, widths = _unitary_inputs(nc)
    args = (x, 5.0, 1.0, 160, mats, centers, widths,
            _kernels.KIND_BUMP, 0.7, 0.0, 1.0, 0.0, 0.3, 8.0)
    a = _kernels.characteristic_unitary_numba(*args)
    b = _kernels.characteristic_unitary_numpy(*args)
    np.testing.assert_allclose(a, b, atol=1e-12)
    eye = np.eye(nc)
    prod = a @ np.conj(a.transpose(0, 2, 1))
    np.testing.assert_allclose(prod, np.broadcast_to(eye, prod.shape),
                               atol=1e-12)


@needs_numba
def test_unitary_product_backends_agree():
    rng = np.random.default_rng(23)
    ks = rng.normal(size=(37, 4, 4)) + 1j * rng.normal(size=(37, 4, 4))
    ks = 0.5 * (ks + np.conj(ks.transpose(0, 2, 1)))
    a = _kernels.unitary_product_numba(ks, 0.05)
    b = _kernels.unitary_product_numpy(ks, 0.05)
    np.testing.assert_allclose(a, b, atol=1e-13)
    np.testing.assert_allclose(a @ np.conj(a.T), np.eye(4), atol=1e-13)


def test_unitary_product_empty_is_identity():
    ks = np.zeros((0, 3, 3), dtype=complex)
    np.testing.assert_allclose(_kernels.unitary_product_numpy(ks, 0.1),
                               np.eye(3))


def test_schedule_value_scalar_vs_vec():
    s = np.linspace(-3.0, 3.0, 41)
    for kind in (_kernels.KIND_CONSTANT, _kernels.KIND_TANH,
                 _kernels.KIND_BUMP, _kernels.KIND_SMOOTHSTEP):
        vec = _kernels._schedule_value_vec(kind, 0.8, 0.1, 1.3, -0.2, s)
        scal = np.array([_kernels._schedule_value(kind, 0.8, 0.1, 1.3, -0.2,
                                                  float(v)) for v in s])
        np.testing.assert_allclose(vec, scal, atol=1e-15)


def test_env_flag_selects_numpy_backend(subprocess_env):
    code = textwrap.dedent("""
        from adiascat import backend_name
        from adiascat import (Grid, SolubleModel, GaussianMix, Schedule,
                              CoherentLabel, coherent_state, from_soluble,
                              dynamical_S)
        from adiascat.coherent import braket
        assert backend_name() == "numpy"
        grid = Grid(-40.0, 40.0, 1024)
        model = SolubleModel(GaussianMix((1.0,), (0.0,), (1.0,)),
                             Schedule("bump", 1.0, 0.0, 1.0), 0.2)
        ket = coherent_state(CoherentLabel(0.0, 1.0, 0.7), grid)
        out = dynamical_S(from_soluble(model), 0.4, ket)
        val = braket(ket, out)
        print(repr(complex(val)))
    """)
    env = dict(subprocess_env, ADIASCAT_NO_NUMBA="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    numpy_val = complex(proc.stdout.strip())

    # same element through whichever backend this process carries
    from adiascat import (CoherentLabel, GaussianMix, Grid, Schedule,
                          SolubleModel, dynamical_S, from_soluble,
                          coherent_state)
    from adiascat.coherent import braket
    grid = Grid(-40.0, 40.0, 1024)
    model = SolubleModel(GaussianMix((1.0,), (0.0,), (1.0,)),
                         Schedule("bump", 1.0, 0.0, 1.0), 0.2)
    ket = coherent_state(CoherentLabel(0.0, 1.0, 0.7), grid)
    here = complex(braket(ket, dynamical_S(from_soluble(model), 0.4, ket)))
    assert abs(here - numpy_val) < 1e-12
