"""Shared numerical infrastructure: grids, transforms, quadrature, fits.

The position grid is periodic and uniform.  All propagation in the
package reduces to index rolls plus local factors on this grid, so the
grid object is the single source of truth for spacings, momenta and
unitary Fourier transforms (continuum normalization, so discrete norms
approximate the L2 norm with weight dx).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import _kernels

logger = logging.getLogger(__name__)


class NumericalContractError(RuntimeError):
    """A numerical invariant (norm drift, clearance, wrap) was violated."""


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform periodic position grid on [x_min, x_max), n points."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("grid needs x_max > x_min")
        if self.n < 8:
            raise ValueError("grid needs at least 8 points")
        if self.n % 2 != 0:
            raise ValueError("grid size must be even")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def points(self) -> np.ndarray:
        return read_only(self.x_min + self.dx * np.arange(self.n))

    @cached_property
    def momenta(self) -> np.ndarray:
        """Momentum samples in FFT order."""
        return read_only(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx))

    @cached_property
    def _phases(self) -> np.ndarray:
        """Rows exp(-i p x_min) and exp(i p x_min) of the transforms."""
        return read_only(np.stack([np.exp(-1j * self.momenta * self.x_min),
                                    np.exp(1j * self.momenta * self.x_min)]))

    @property
    def p_max(self) -> float:
        return np.pi / self.dx

    def quadrature(self, values: np.ndarray):
        """Periodic trapezoid rule: dx times the plain sum."""
        return self.dx * np.sum(values, axis=-1)

    def to_momentum(self, psi: np.ndarray) -> np.ndarray:
        """Unitary transform to momentum amplitudes (FFT order).

        Continuum convention: psi_hat(p) = (2 pi)^{-1/2} integral of
        psi(x) exp(-i p x) dx realized on the grid.
        """
        return ((self.dx / math.sqrt(2.0 * math.pi)) * self._phases[0]
                * np.fft.fft(psi, axis=-1))

    def from_momentum(self, phat: np.ndarray) -> np.ndarray:
        return ((math.sqrt(2.0 * math.pi) / self.dx)
                * np.fft.ifft(self._phases[1] * phat, axis=-1))

    def snap(self, tau: float) -> tuple[int, float]:
        """Round a duration onto the dx lattice; returns (steps, snapped)."""
        m = round(tau / self.dx)
        snapped = m * self.dx
        if abs(snapped - tau) > 1e-9 * max(1.0, abs(tau)):
            logger.debug("duration %.6g snapped to %.6g (%d steps)", tau, snapped, m)
        return m, snapped

    def edge_mass(self, psi: np.ndarray) -> float:
        """Relative |psi|^2 weight in the 8 outermost points at each end."""
        dens = np.abs(psi) ** 2
        if dens.ndim > 1:
            dens = dens.sum(axis=0)
        total = dens.sum()
        if total == 0.0:
            return 0.0
        return (dens[:8].sum() + dens[-8:].sum()) / total


def central_derivative(f: Callable, x0: float, h: float):
    """Fourth-order Richardson central difference; f may return arrays."""
    if not h > 0.0:
        raise ValueError("step must be positive")
    d1 = (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    d2 = (f(x0 + 0.5 * h) - f(x0 - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


_DAWSON_H = 0.2
_DAWSON_M = np.arange(-31, 32, 2)  # odd; the first dropped (|m| = 33) < e^-40
# Taylor coefficients (-2)^k / (2k+1)!! in x^2, k = 11 down to 0
_DAWSON_TAYLOR = ((-2.0) ** np.arange(12)
                  / np.cumprod(np.arange(1.0, 24.0, 2.0)))[::-1]


def _dawson(x):
    """Dawson's integral D(x) = exp(-x^2) int_0^x exp(t^2) dt.

    Rybicki's sum (Computers in Physics 3 (1989) 85) with h = 0.2,
    shifted to the nearest even multiple n0 h of |x| and cut at |m| <= 31;
    the Taylor series below |x| = 0.2, where the sum cancels.  Odd in x.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).ravel()
    out = np.empty_like(ax)
    small = ax < _DAWSON_H
    out[small] = ax[small] * np.polyval(_DAWSON_TAYLOR, ax[small] ** 2)
    big = ax[~small]
    n0 = 2.0 * np.round(big / (2.0 * _DAWSON_H))
    xp = big - n0 * _DAWSON_H
    terms = (np.exp(-(xp[:, None] - _DAWSON_M * _DAWSON_H) ** 2)
             / (n0[:, None] + _DAWSON_M))
    out[~small] = terms.sum(axis=1) / math.sqrt(math.pi)
    out = np.copysign(out.reshape(x.shape), x)
    return out if x.ndim else float(out)


def fit_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x).

    A non-finite x raises ValueError (LAPACK's SVD would not converge);
    a non-finite y gives a NaN slope, which fails any gate on it.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("need two 1-d arrays of equal length")
    if not np.isfinite(xs).all():
        raise ValueError("x values must be finite")
    # min < max, not np.unique: np.unique imports numpy.ma (1.2 MB)
    if xs.size < 2 or not xs.min() < xs.max():
        raise ValueError("need at least two distinct x values")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit needs strictly positive data")
    lx = np.log(xs)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(ys), rcond=None)
    return float(coef[0])


def hermitize(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Project onto the Hermitian part; returns (projection, defect norm)."""
    m = np.asarray(m)
    herm = 0.5 * (m + np.conj(m.T))
    defect = float(np.linalg.norm(m - np.conj(m.T), 2)) * 0.5
    return herm, defect


def ordered_exponential(generator: Callable[[float], np.ndarray],
                        u0: float, u1: float,
                        steps: int | None = None) -> np.ndarray:
    """Ordered product solution of U' = A(u) U, U(u0) = 1, evaluated at u1.

    A(u) must be anti-Hermitian (checked on probe samples to 1e-10).  Uses the
    midpoint exponential-product rule; factors at larger u multiply on
    the left.  The default step count scales with the integrated
    generator norm.

    Nothing in the package calls this any more: the matrix on-shell S
    comes from the characteristic kernels.  It stays as the reference
    the tests hold those kernels against, and because the benchmark's
    tracer (perfbench/tracing.py) lists it and unitary_product; both
    move to tests/ once the tracer drops them.
    """
    if u1 == u0:
        a0 = np.atleast_2d(np.asarray(generator(u0), dtype=np.complex128))
        return np.eye(a0.shape[0], dtype=np.complex128)
    span = u1 - u0
    probes = [np.atleast_2d(np.asarray(generator(u0 + frac * span), dtype=np.complex128))
              for frac in np.linspace(0.0, 1.0, 9)]
    max_norm = 0.0
    for a in probes:
        norm = float(np.linalg.norm(a, 2))
        max_norm = max(max_norm, norm)
        defect = float(np.linalg.norm(a + np.conj(a.T), 2))
        if defect > 1e-10 * max(1.0, norm):
            raise ValueError("generator is not anti-Hermitian on the path")
    if steps is None:
        steps = max(64, int(math.ceil(40.0 * abs(span) * max_norm)))
    dim = probes[0].shape[0]
    du = span / steps
    ks = np.empty((steps, dim, dim), dtype=np.complex128)
    for k in range(steps):
        u = u0 + (k + 0.5) * du
        ks[k] = 1j * np.atleast_2d(np.asarray(generator(u), dtype=np.complex128))
    return _kernels.unitary_product(ks, du)
