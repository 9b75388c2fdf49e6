"""Hot transport kernels, vectorized with numpy.

The characteristic kernels take the coupling as callables: a real
profile y -> v(y) for the single-channel phase, a matrix field
(u, scale) -> scale * V(u) such as MatrixPotential.value for the
channel unitaries, and for both the drive schedule s -> f(s) such as
Schedule.value, sampled once on the nsteps midpoints.  Callers own the
snapping of durations to the grid lattice and the application of the
returned factors to state amplitudes.  The characteristic phase relies
on that snapping: it needs tau = m dx and nsteps = |m| S for integers
m != 0 and S >= 1, and raises ValueError otherwise.

_char_phase_py and its helper _active_range are the per-point
reference the tests hold the vectorized phase kernel against.
"""

from __future__ import annotations

import math

import numpy as np


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


# ---------------------------------------------------------------------------
# Single-channel characteristic phase
# ---------------------------------------------------------------------------

def _char_phase_py(x, tau, t1, nsteps, profile, schedule, omega, rmax):
    """Per-point reference loop for characteristic_phase."""
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


def characteristic_phase(x, tau, t1, nsteps, profile, schedule, omega, rmax):
    """Characteristic phase as one 1-D correlation.

    Needs lattice-aligned inputs: tau = m dx and nsteps = |m| S, so
    |dt| = dx/S (``propagate`` and ``frozen_one_step`` pass S = 1).  Then
    every sample point x_j - tau + (k + 1/2) dt lies on the fine lattice
    y_i = x_0 + (i + 1/2) dx/S, at i = jS - nsteps + k for tau > 0 and
    at i = jS + nsteps - 1 - k for tau < 0.  The schedule is sampled once
    on its nsteps midpoints, the profile once on the fine-lattice window
    |y| <= rmax, and phase_j is every S-th output of their correlation.
    Each output is a dot product over exactly the active steps, taken
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
    full = np.correlate(profile(y), schedule(omega * tk), "full")
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

def characteristic_unitary(x, tau, t1, nsteps, field, schedule, omega, rmax):
    """Ordered characteristic unitaries, one nc x nc factor per grid point.

    The factor at x_j is the midpoint product of exp(-i dt f(omega t_k)
    V(u_k)) over u_k = x_j - tau + (k + 1/2) dt, later k on the left,
    with t_k = t1 - tau + (k + 1/2) dt; points |u_k| > rmax contribute 1.
    """
    n = x.shape[0]
    dt = tau / nsteps
    tk = (t1 - tau) + (np.arange(nsteps) + 0.5) * dt
    scales = schedule(omega * tk) * dt
    nc = field(x[:1], 1.0).shape[-1]
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
        H = field(x[jlo:jhi + 1] + off, scales[k])
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
