"""Hot transport kernels, vectorized with numpy.

Kernels are deliberately dumb: they take flat arrays and scalars,
return arrays, and never touch package dataclasses.  Callers own the
snapping of durations to the grid lattice and the application of the
returned factors to state amplitudes.  The characteristic phase relies
on that snapping: it needs tau = m dx and nsteps = |m| S for integers
m != 0 and S >= 1, and raises ValueError otherwise.

_char_phase_py and its per-point helpers (_mix_value, _active_range)
are the plain-Python reference the tests hold the vectorized phase
kernel against.
"""

from __future__ import annotations

import math

import numpy as np

# Schedule kind ids shared with profiles.Schedule.
KIND_CONSTANT = 0
KIND_TANH = 1
KIND_BUMP = 2
KIND_SMOOTHSTEP = 3


def _schedule_value(kind, a, b, c, d, s):
    if kind == KIND_CONSTANT:
        return a
    z = (s - b) / c
    if kind == KIND_TANH:
        return a * math.tanh(z) + d
    if kind == KIND_BUMP:
        return a * math.exp(-z * z) + d
    # smoothstep (logistic)
    if z >= 0.0:
        sig = 1.0 / (1.0 + math.exp(-z))
    else:
        ez = math.exp(z)
        sig = ez / (1.0 + ez)
    return a * sig + d


def _schedule_value_vec(kind, a, b, c, d, s):
    """_schedule_value for ndarray s."""
    if kind == KIND_CONSTANT:
        return np.full_like(np.asarray(s, dtype=float), a)
    z = (np.asarray(s, dtype=float) - b) / c
    if kind == KIND_TANH:
        return a * np.tanh(z) + d
    if kind == KIND_BUMP:
        return a * np.exp(-z * z) + d
    sig = np.empty_like(z)
    pos = z >= 0.0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    return a * sig + d


def _mix_value(amps, centers, widths, x):
    acc = 0.0
    for g in range(amps.shape[0]):
        z = (x - centers[g]) / widths[g]
        acc += amps[g] * math.exp(-z * z)
    return acc


def _mix_value_vec(amps, centers, widths, x):
    acc = np.zeros_like(x)
    for g in range(amps.shape[0]):
        z = (x - centers[g]) / widths[g]
        acc += amps[g] * np.exp(-z * z)
    return acc


def _active_range(c0, dt, rmax, nsteps):
    """Index range of substeps whose characteristic point lies in |u| <= rmax.

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


# ---------------------------------------------------------------------------
# Single-channel characteristic phase
# ---------------------------------------------------------------------------

def _char_phase_py(x, tau, t1, nsteps, amps, centers, widths,
                   kind, p0, p1, p2, p3, omega, rmax):
    """Per-point reference loop for characteristic_phase."""
    n = x.shape[0]
    dt = tau / nsteps
    t0 = t1 - tau
    out = np.zeros(n)
    for j in range(n):
        c0 = x[j] - tau + 0.5 * dt
        klo, khi = _active_range(c0, dt, rmax, nsteps)
        acc = 0.0
        for k in range(klo, khi + 1):
            u = c0 + k * dt
            tk = t0 + (k + 0.5) * dt
            f = _schedule_value(kind, p0, p1, p2, p3, omega * tk)
            acc += f * _mix_value(amps, centers, widths, u)
        out[j] = acc * dt
    return out


def characteristic_phase(x, tau, t1, nsteps, amps, centers, widths,
                         kind, p0, p1, p2, p3, omega, rmax):
    """Characteristic phase as one 1-D correlation.

    Needs lattice-aligned inputs, as ``propagate`` and ``frozen_one_step``
    produce them: tau = m dx and nsteps = |m| S, so |dt| = dx/S.  Then
    every sample point x_j - tau + (k + 1/2) dt lies on the fine lattice
    y_i = x_0 + (i + 1/2) dx/S, at i = jS - nsteps + k for tau > 0 and
    at i = jS + nsteps - 1 - k for tau < 0.  The schedule is sampled once
    on its nsteps midpoints, the profile once on the fine-lattice window
    |y| <= rmax, and phase_j is every S-th output of their correlation.
    Each output is a dot product over exactly the active substeps, taken
    in the order of k, as the per-point loop of _char_phase_py takes it.
    """
    n = x.shape[0]
    dx = (x[-1] - x[0]) / (n - 1)
    m = int(round(tau / dx))
    if m == 0 or abs(tau - m * dx) > 1e-9 * abs(tau) or nsteps % abs(m):
        raise ValueError(f"characteristic phase needs tau = m dx and nsteps "
                         f"= |m| S; got tau={tau!r}, dx={dx!r}, "
                         f"nsteps={nsteps!r}")
    sub = nsteps // abs(m)
    dt = tau / nsteps
    h = abs(dt)
    out = np.zeros(n)
    # fine-lattice indices |y_i| <= rmax, clipped to the indices in use
    imin = -nsteps if tau > 0.0 else 0
    imax = imin + (n - 1) * sub + nsteps - 1
    ilo = max(int(math.floor((-rmax - x[0]) / h - 0.5)), imin)
    ihi = min(int(math.ceil((rmax - x[0]) / h - 0.5)), imax)
    y = x[0] + (np.arange(ilo, ihi + 1) + 0.5) * h
    inside = np.flatnonzero(np.abs(y) <= rmax)
    if inside.size == 0:
        return out
    ilo, ihi = ilo + inside[0], ilo + inside[-1]
    y = y[inside[0]:inside[-1] + 1]
    if tau < 0.0:
        y = y[::-1].copy()  # k ascending walks i descending
    tk = (t1 - tau) + (np.arange(nsteps) + 0.5) * dt
    f = _schedule_value_vec(kind, p0, p1, p2, p3, omega * tk)
    full = np.correlate(_mix_value_vec(amps, centers, widths, y), f, "full")
    if tau > 0.0:
        idx = np.arange(n) * sub - 1 - ilo
    else:
        idx = ihi - np.arange(n) * sub
    live = (idx >= 0) & (idx < full.shape[0])
    out[live] = dt * full[idx[live]]
    return out


# ---------------------------------------------------------------------------
# Multi-channel characteristic unitaries
# ---------------------------------------------------------------------------

def characteristic_unitary(x, tau, t1, nsteps, mats, centers, widths,
                           kind, p0, p1, p2, p3, omega, rmax):
    """Ordered characteristic unitaries, one nc x nc factor per grid point."""
    n = x.shape[0]
    nc = mats.shape[1]
    dt = tau / nsteps
    t0 = t1 - tau
    dx = x[1] - x[0] if n > 1 else 1.0
    x0 = x[0]
    out = np.broadcast_to(np.eye(nc, dtype=np.complex128), (n, nc, nc)).copy()
    for k in range(nsteps):
        off = -tau + (k + 0.5) * dt
        # active j: |x_j + off| <= rmax
        jlo = int(math.ceil((-rmax - off - x0) / dx))
        jhi = int(math.floor((rmax - off - x0) / dx))
        jlo = max(jlo, 0)
        jhi = min(jhi, n - 1)
        if jhi < jlo:
            continue
        u = x[jlo:jhi + 1] + off
        tk = t0 + (k + 0.5) * dt
        f = _schedule_value(kind, p0, p1, p2, p3, omega * tk)
        scale = f * dt
        weights = np.exp(-((u[:, None] - centers[None, :])
                           / widths[None, :]) ** 2) * scale
        H = np.tensordot(weights, mats, axes=(1, 0))
        evals, evecs = np.linalg.eigh(H)
        phase = np.exp(-1j * evals)
        F = np.einsum("jab,jb,jcb->jac", evecs, phase, np.conj(evecs))
        out[jlo:jhi + 1] = F @ out[jlo:jhi + 1]
    return out


# ---------------------------------------------------------------------------
# Ordered product of sampled Hermitian generators
# ---------------------------------------------------------------------------

def unitary_product(ks, dt):
    """exp(-i ks[-1] dt) ... exp(-i ks[0] dt), by pairwise reduction."""
    steps = ks.shape[0]
    m = ks.shape[1]
    if steps == 0:
        return np.eye(m, dtype=np.complex128)
    evals, evecs = np.linalg.eigh(ks * dt)
    phase = np.exp(-1j * evals)
    fs = np.einsum("kab,kb,kcb->kac", evecs, phase, np.conj(evecs))
    # pairwise tree reduction; later factors stay on the left
    while fs.shape[0] > 1:
        if fs.shape[0] % 2 == 1:
            pad = np.broadcast_to(np.eye(m, dtype=np.complex128), (1, m, m))
            fs = np.concatenate([fs, pad])
        fs = fs[1::2] @ fs[0::2]
    return fs[0]


def backend_name() -> str:
    """The kernel implementation, always "numpy"."""
    return "numpy"
