"""Spatial profiles and drive schedules.

Potentials are mixtures of Gaussians, which keeps every integral the
package needs (weight, moments, Fourier transform) in closed form and
makes support radii easy to bound.  Schedules are smooth switching
functions of the slow variable with analytic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
SCHEDULE_KINDS = ("constant", "tanh", "bump", "smoothstep")


@dataclass(frozen=True)
class GaussianMix:
    """Sum of real Gaussians a_g * exp(-((x - c_g)/w_g)^2)."""

    amps: tuple[float, ...]
    centers: tuple[float, ...]
    widths: tuple[float, ...]

    def __post_init__(self):
        amps = tuple(float(a) for a in self.amps)
        centers = tuple(float(c) for c in self.centers)
        widths = tuple(float(w) for w in self.widths)
        if not (len(amps) == len(centers) == len(widths)) or not amps:
            raise ValueError("amps, centers, widths need equal nonzero length")
        if not all(w > 0.0 for w in widths):
            raise ValueError("widths must be positive")
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)

    @classmethod
    def single(cls, amp: float = 1.0, center: float = 0.0, width: float = 1.0):
        return cls((amp,), (center,), (width,))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.array(self.amps), np.array(self.centers), np.array(self.widths))

    def __call__(self, x):
        a, c, w = self._arrays
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - c) / w
        return np.sum(a * np.exp(-z * z), axis=-1)

    @property
    def weight(self) -> float:
        """Integral over the line."""
        return _SQRT_PI * sum(a * w for a, w in zip(self.amps, self.widths))

    @property
    def first_moment(self) -> float:
        """Integral of x times the profile."""
        return _SQRT_PI * sum(a * w * c for a, c, w
                              in zip(self.amps, self.centers, self.widths))

    def fourier(self, k):
        """Unitary-convention transform (2 pi)^{-1/2} int v(x) e^{-ikx} dx."""
        k = np.asarray(k, dtype=float)
        phases = np.exp(-1j * k[..., None] * self._arrays[1])
        return np.sum(self._envelopes(k) * phases, axis=-1)

    def power(self, k):
        """|fourier(k)|^2, bit for bit.

        With every centre at 0 each phase e^{-ik 0} is exactly 1 +- 0j and
        |x +- 0j| = |x|, so the sum stays real and the complex exponential
        is skipped.
        """
        if any(self.centers):
            return np.abs(self.fourier(k)) ** 2
        return np.sum(self._envelopes(np.asarray(k, dtype=float)),
                      axis=-1) ** 2

    def _envelopes(self, k: np.ndarray) -> np.ndarray:
        """fourier's terms at k without their phases, along a new last axis."""
        a, _, w = self._arrays
        return a * w / math.sqrt(2.0) * np.exp(-0.25 * (k[..., None] * w) ** 2)

    def support_radius(self, tol: float = 1e-14) -> float:
        """Radius beyond which the profile is below tol in absolute value."""
        nterms = len(self.amps)
        r = 0.0
        for a, c, w in zip(self.amps, self.centers, self.widths):
            level = abs(a) * nterms / tol
            if level <= 1.0:
                r = max(r, abs(c))
            else:
                r = max(r, abs(c) + w * math.sqrt(math.log(level)))
        return r

    def fourier_band(self, tol: float = 1e-14) -> float:
        """k radius beyond which the Fourier magnitude stays below tol."""
        nterms = len(self.amps)
        r = 0.0
        for a, w in zip(self.amps, self.widths):
            level = abs(a) * w / math.sqrt(2.0) * nterms / tol
            if level > 1.0:
                r = max(r, (2.0 / w) * math.sqrt(math.log(level)))
        return r


@dataclass(frozen=True)
class Schedule:
    """Smooth schedule f(s) with analytic derivative.

    Kinds: constant -> a; tanh -> a*tanh((s-b)/c) + d;
    bump -> a*exp(-((s-b)/c)^2) + d; smoothstep -> logistic step of
    height a centered at b with width c, offset d.
    """

    kind: str
    a: float
    b: float = 0.0
    c: float = 1.0
    d: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.c > 0.0:
            raise ValueError("schedule width must be positive")

    @classmethod
    def constant(cls, value: float):
        return cls("constant", float(value))

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def value(self, s):
        s = np.asarray(s, dtype=float)
        z = (s - self.b) / self.c
        if self.kind == "constant":
            out = np.full_like(s, self.a)
        elif self.kind == "tanh":
            out = self.a * np.tanh(z) + self.d
        elif self.kind == "bump":
            out = self.a * np.exp(-z * z) + self.d
        else:
            out = self.a * _logistic(z) + self.d
        return out if out.ndim else float(out)

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        z = (s - self.b) / self.c
        if self.kind == "constant":
            out = np.zeros_like(s)
        elif self.kind == "tanh":
            with np.errstate(over="ignore"):  # cosh -> inf gives sech^2 = 0
                out = (self.a / self.c) / np.cosh(z) ** 2
        elif self.kind == "bump":
            out = -2.0 * self.a * z / self.c * np.exp(-z * z)
        else:
            sig = _logistic(z)
            out = (self.a / self.c) * sig * (1.0 - sig)
        return out if out.ndim else float(out)

    def asymptotics(self) -> tuple[float, float]:
        """Limits at s -> -inf and s -> +inf."""
        if self.kind == "constant":
            return self.a, self.a
        if self.kind == "tanh":
            return self.d - self.a, self.d + self.a
        if self.kind == "bump":
            return self.d, self.d
        return self.d, self.d + self.a

    def frozen_at(self, s: float) -> "Schedule":
        return Schedule.constant(float(self.value(s)))


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), with no exp of a positive argument."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
