"""Seeded PRNG with a fixed, documented algorithm.

Synthetic traces must be reproducible bit-for-bit by any implementation,
so the generator is pinned rather than delegated to a library default:

* state setup: splitmix64 applied four times to the seed
* stream: xoshiro256** (Blackman & Vigna)
* uniforms: top 53 bits of each output, scaled to [0, 1) (or (0, 1])
* normals: Box-Muller pairs over (0, 1] x [0, 1) uniforms

All arithmetic is modulo 2**64.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256:
    """xoshiro256** stream seeded via splitmix64."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, value = _splitmix64(state)
            s.append(value)
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller, consuming 2*ceil(n/2) u64s."""
        pairs = (n + 1) // 2
        out = np.empty(2 * pairs, dtype=np.float64)
        for i in range(pairs):
            # u1 in (0, 1] so log(u1) is finite
            u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
            u2 = (self.next_u64() >> 11) * 2.0**-53
            r = math.sqrt(-2.0 * math.log(u1))
            theta = 2.0 * math.pi * u2
            out[2 * i] = r * math.cos(theta)
            out[2 * i + 1] = r * math.sin(theta)
        return out[:n]
