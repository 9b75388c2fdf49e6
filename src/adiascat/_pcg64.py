"""Seeded uniform draws, bit for bit those of numpy's default_rng, in
Python integers: no run loads numpy.random.

Only coherent-props and omega-scaling draw, so the drivers import this
module when they run; every other run neither imports nor compiles it.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix, its running constant kept in the closure."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


class UniformStream:
    """``np.random.default_rng(seed).uniform`` bit for bit, without
    importing ``numpy.random`` (which loads ``secrets``, ``hashlib`` and
    OpenSSL): numpy's SeedSequence pool and ``generate_state(4, uint64)``
    seed PCG64, the 128-bit LCG with XSL-RR output (M. E. O'Neill,
    HMC-CS-2014-0905), as ``pcg64_srandom_r`` does.  Each double is
    (next64 >> 11) 2^-53, scaled as low + (high - low) u in C order.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        entropy = [seed & _M32]
        while seed := seed >> 32:
            entropy.append(seed & _M32)
        # SeedSequence: the seed's 32-bit words hashed into a 4-word pool
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(entropy[i] if i < len(entropy) else 0)
                for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        # generate_state(4, uint64), then pcg64_srandom_r: step, add, step
        hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
        words = [hashmix(pool[i % 4]) for i in range(8)]
        w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT
                       + self._inc) & _M128

    def _next_double(self) -> float:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0 ** -53

    def uniform(self, low, high, size=None):
        low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        if size is None:
            size = np.broadcast_shapes(low.shape, high.shape)
        u = [self._next_double() for _ in range(int(np.prod(size)))]
        out = low + (high - low) * np.reshape(u, size)
        return float(out) if out.ndim == 0 else out
