"""The seeded stream of ``numpy.random.default_rng(seed)``, in pure Python.

``Stream(seed)`` draws the same numbers as ``default_rng(seed)`` for the
two calls the random blobs make, ``integers(low, high)`` and
``uniform(low, high, size)``, without importing ``numpy.random``: that
package loads nine extension modules and, through ``secrets``, OpenSSL.

The state comes from numpy's ``SeedSequence`` (a pool of four 32-bit words
filled by its hash mix, then four 64-bit words drawn from the pool), which
seeds PCG64: a 128-bit LCG whose output is the XSL-RR permutation of the
state after each step.  A Python int holds the 128-bit state, so a draw
costs a few big-int operations; a blob takes a few dozen.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# PCG64's default 128-bit multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(seed: int) -> list:
    """The little-endian 32-bit words of a nonnegative seed ([0] for 0)."""
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _pool(words: list) -> list:
    """SeedSequence's entropy pool: each word hashed in, every pool word
    mixed with every other, then the words beyond the pool mixed in."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool: list) -> list:
    """SeedSequence.generate_state(4, uint64): eight 32-bit words cycled
    out of the pool and hashed, paired little-endian into 64-bit words."""
    const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL] ^ const
        const = (const * _MULT_B) & _M32
        value = (value * const) & _M32
        out.append(value ^ (value >> 16))
    return [out[i] | (out[i + 1] << 32) for i in range(0, 8, 2)]


class Stream:
    """``numpy.random.default_rng(seed)`` for ``integers`` and ``uniform``.

    A negative seed raises ``ParameterError``; numpy raises ValueError."""

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        s0, s1, i0, i1 = _state_words(_pool(_seed_words(seed)))
        self._inc = (((i0 << 64) | i1) << 1 | 1) & _M128
        self._state = 0
        self._next64()
        self._state = (self._state + ((s0 << 64) | s1)) & _M128
        self._next64()
        # the high half of a 64-bit draw split for 32 bits, kept for the
        # next 32-bit draw as numpy's has_uint32 buffer; 64-bit draws skip it
        self._half = None

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128
        state = self._state
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high) by Lemire's bounded draw on 32-bit
        halves, as numpy draws any range below 2^32."""
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ParameterError(f"integers needs 0 < high - low <= 2^32, got [{low}, {high})")
        if span == 1:
            return low
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (1 << 32) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Doubles low + (high - low) u with u = (next64 >> 11) 2^-53,
        filled in C order into an array of shape ``size``."""
        low, high = float(low), float(high)
        width = high - low
        count = int(np.prod(size))
        values = [low + width * ((self._next64() >> 11) * 2.0 ** -53) for _ in range(count)]
        return np.array(values, dtype=float).reshape(size)
