"""Hot transport kernels, vectorized with numpy.

The characteristic kernels take the coupling as callables: a real
profile y -> v(y) for the single-channel phase, a matrix field
(u, scale) -> scale * V(u) such as MatrixPotential.value for the
channel unitaries, and for both the drive schedule s -> f(s) such as
Schedule.value, sampled once on the nsteps midpoints.  Callers own the
snapping of durations to the grid lattice and the application of the
returned factors to state amplitudes.  Both characteristic kernels rely
on that snapping: they need tau = m dx and nsteps = |m|, one step per
grid cell, for an integer m != 0, and raise ValueError otherwise.  Every
sample point then lies on one half-step lattice of spacing dx, so each
kernel samples the coupling once on its window |y| <= rmax.  The matrix
field must be linear in its scale: the channel unitaries diagonalise
V(y) once per window point and reuse the eigenvectors at every step.

network._apply_characteristic picks the kernel: one phase call per
eigen-channel where the terms commute trivially (one term, or one
channel), the channel unitaries for several terms on several channels.
The matrix on-shell S (network._matrix_transfer) is that choice for one
point crossing the interaction: the lattice is that point and its
neighbour one step on, tau is the whole span, and the frozen schedule is
constant.

No package code calls unitary_product.  It is the ordered product,
through numerics.ordered_exponential, that the tests hold the channel
unitaries and the on-shell S against; the per-point reference loop for
the phase kernel lives in the tests.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Single-channel characteristic phase
# ---------------------------------------------------------------------------

def _fine_window(x, tau, nsteps, rmax):
    """Lattice check and sample window shared by both kernels.

    Needs tau = m dx and nsteps = |m| for an integer m != 0, and raises
    ValueError otherwise.  Then |dt| = dx and every sample point
    x_j - tau + (k + 1/2) dt lies on the half-step lattice
    y_i = x_0 + (i + 1/2) dx, at i = j - nsteps + k for tau > 0 and at
    i = j + nsteps - 1 - k for tau < 0.  Returns (ilo, y): the points
    y_i, i = ilo, ilo + 1, ..., with |y_i| <= rmax, clipped to the
    indices in use (y is empty when none is).
    """
    n = x.shape[0]
    dx = (x[-1] - x[0]) / (n - 1)
    m = int(round(tau / dx))
    if m == 0 or abs(tau - m * dx) > 1e-9 * abs(tau) or nsteps != abs(m):
        raise ValueError(f"characteristic kernels need tau = m dx and "
                         f"nsteps = |m|; got tau={tau!r}, dx={dx!r}, "
                         f"nsteps={nsteps!r}")
    # |tau| / nsteps, not the dx above: the two can differ in the last bit
    h = abs(tau / nsteps)
    imin = -nsteps if tau > 0.0 else 0
    imax = imin + n + nsteps - 2
    ilo = max(int(math.floor((-rmax - x[0]) / h - 0.5)), imin)
    ihi = min(int(math.ceil((rmax - x[0]) / h - 0.5)), imax)
    y = x[0] + (np.arange(ilo, ihi + 1) + 0.5) * h
    inside = np.flatnonzero(np.abs(y) <= rmax)
    if inside.size == 0:
        return ilo, y[:0]
    return ilo + inside[0], y[inside[0]:inside[-1] + 1]


def characteristic_phase(x, tau, t1, nsteps, profile, schedule, omega, rmax):
    """Characteristic phase as one 1-D correlation.

    On the lattice of _fine_window, the schedule is sampled once on its
    nsteps midpoints, the profile once on the window |y| <= rmax, and
    phase_j is one output of their correlation, consecutive in j.  Each
    output is a dot product over exactly the active steps, taken in the
    order of k, as a per-point loop over the steps takes it.
    """
    n = x.shape[0]
    ilo, y = _fine_window(x, tau, nsteps, rmax)
    out = np.zeros(n)
    if y.size == 0:
        return out
    ihi = ilo + y.size - 1
    dt = tau / nsteps
    if tau < 0.0:
        y = y[::-1].copy()  # k ascending walks i descending
    tk = (t1 - tau) + (np.arange(nsteps) + 0.5) * dt
    full = np.correlate(profile(y), schedule(omega * tk), "full")
    if tau > 0.0:
        idx = np.arange(n) - 1 - ilo
    else:
        idx = ihi - np.arange(n)
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
    On the lattice of _fine_window every u_k is a window point, and
    the field is linear in its scale, so V(y) = W diag(lam) W^dagger is
    diagonalised once per window point and step k's factor there is
    W diag(exp(-i s_k lam)) W^dagger with s_k = f(omega t_k) dt.
    """
    n = x.shape[0]
    ilo, y = _fine_window(x, tau, nsteps, rmax)
    nc = field(x[:1], 1.0).shape[-1]
    # channel-major (nc, nc, n): the point axis is contiguous
    out = np.zeros((nc, nc, n), dtype=np.complex128)
    out[np.arange(nc), np.arange(nc)] = 1.0
    if y.size == 0:
        return out.transpose(2, 0, 1)
    ihi = ilo + y.size - 1
    dt = tau / nsteps
    tk = (t1 - tau) + (np.arange(nsteps) + 0.5) * dt
    scales = schedule(omega * tk) * dt
    lam, vec = np.linalg.eigh(field(y, 1.0))
    lam = np.ascontiguousarray(lam.T)
    vec = np.ascontiguousarray(vec.transpose(1, 2, 0))
    vech = np.ascontiguousarray(np.conj(vec.transpose(1, 0, 2)))
    for k in range(nsteps):
        # step k samples lattice index i = j + c at grid point j
        c = k - nsteps if tau > 0.0 else nsteps - 1 - k
        jlo, jhi = max(ilo - c, 0), min(ihi - c, n - 1)
        if jhi < jlo:
            continue
        w = slice(jlo + c - ilo, jhi + c - ilo + 1)
        acc = out[:, :, jlo:jhi + 1]
        rot = np.einsum("abj,bcj->acj", vech[:, :, w], acc)
        rot *= np.exp(-1j * scales[k] * lam[:, w])[:, None, :]
        out[:, :, jlo:jhi + 1] = np.einsum("abj,bcj->acj", vec[:, :, w], rot)
    return out.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# Ordered product of sampled Hermitian generators
# ---------------------------------------------------------------------------

def unitary_product(ks, dt):
    """exp(-i ks[-1] dt) ... exp(-i ks[0] dt), by pairwise reduction.

    Only numerics.ordered_exponential calls this: a reference for the
    tests and the benchmark, not a transport path of the package.
    """
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
