"""Seeded PRNG with a fixed, documented algorithm.

Synthetic traces must be reproducible bit-for-bit by any implementation,
so the generator is pinned rather than delegated to a library default:

* state setup: splitmix64 applied four times to the seed
* stream: xoshiro256** (Blackman & Vigna)
* uniforms: top 53 bits of each output, scaled to [0, 1) (or (0, 1])
* normals: Box-Muller pairs over (0, 1] x [0, 1) uniforms

All arithmetic is modulo 2**64. ``next_u64`` is the reference stream.

``normals`` computes the same stream, and the same bits, in numpy lanes.
The xoshiro256** update is linear over GF(2): as a row vector of 256 state
bits, a state steps to ``state @ T``. T is derived by stepping the 256 unit
states with the lane kernel, and T^(2^k) by squaring; each entry of a
float32 product of 0/1 matrices is an exact integer <= 256, so its parity
is taken with integer ops. The stream is cut into chunks of 2^c outputs;
lane i starts at the start state times T^(i * 2^c), the lanes step
together, and the chunks are read back in stream order. Output u of the
stream is step ((u - 1) mod 2^c) + 1 of lane (u - 1) >> c, so the state
left afterwards is read off that lane there, and the next draw continues
the scalar stream. The log goes through ``math.log`` and the pair
``(r cos theta, r sin theta)`` through ``cmath.rect(r, theta)``, which
rounds the same two libm products, one Python call per pair.
"""

import cmath
import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
# u64 outputs per transform block
_BLOCK = 4096


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


# shift counts as uint64 scalars: a Python int is converted on every call
_S17, _S19, _S45 = np.uint64(17), np.uint64(19), np.uint64(45)


def _steps(s: np.ndarray, block: np.ndarray) -> None:
    """Advance the xoshiro256** states in the columns of the (4, L) uint64
    array ``s`` ``len(block)`` steps, in place; row t of the (rows, L)
    ``block`` receives the s1 word that step t's outputs are made from."""
    s0, s1, s2, s3 = s
    t = np.empty_like(s1)
    for row in block:
        row[...] = s1
        np.left_shift(s1, _S17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, _S45, out=t)
        s3 >>= _S19
        s3 |= t


def _to_bits(s: np.ndarray) -> np.ndarray:
    """(4, L) uint64 states as an (L, 256) float32 0/1 array; bit b of word
    w is column 64 * w + b."""
    octets = np.ascontiguousarray(s.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").astype(np.float32)


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """The inverse of ``_to_bits``."""
    octets = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(octets.view("<u8").T, dtype=np.uint64)


def _parity(product: np.ndarray) -> np.ndarray:
    """Each entry mod 2 of a float32 product of 0/1 matrices over 256 bits:
    its entries are exact integers <= 256, so they convert to uint16 as
    they are."""
    return product.astype(np.uint16) & 1


@functools.cache
def _jump_bits(k: int) -> bytes:
    """T^(2^k) as packed bits."""
    if k == 0:
        units = _from_bits(np.eye(256, dtype=np.float32))
        _steps(units, np.empty((1, 256), np.uint64))
        power = _to_bits(units)
    else:
        half = _jump_matrix(k - 1)
        power = _parity(half @ half)
    return np.packbits(power.astype(np.uint8)).tobytes()


def _jump_matrix(k: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(_jump_bits(k), np.uint8))
    return bits.reshape(256, 256).astype(np.float32)


def _jump(s: np.ndarray, k: int) -> np.ndarray:
    """The (4, L) states ``s`` advanced 2^k steps, as a new array."""
    return _from_bits(_parity(_to_bits(s) @ _jump_matrix(k)))


def _advance(s: np.ndarray, d: int) -> np.ndarray:
    """The (4, L) states ``s`` advanced ``d`` steps, from the bits of d."""
    for k in range(d.bit_length()):
        if d >> k & 1:
            s = _jump(s, k)
    return s


def _fmap(f, a: np.ndarray) -> np.ndarray:
    """``f`` from ``math`` over the entries of ``a``; numpy's own
    transcendentals can round differently."""
    return np.fromiter(map(f, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


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
        """n standard normal draws via Box-Muller, consuming 2*ceil(n/2) u64s:
        the pair of u64s at 2i and 2i + 1 gives draws 2i and 2i + 1."""
        u = 2 * ((n + 1) // 2)
        c = max(6, u.bit_length() // 2)
        lanes = np.array(self._s, dtype=np.uint64)[:, None]
        for k in range(c, (u - 1).bit_length()):  # lane i starts i * 2^c steps on
            lanes = np.hstack([lanes, _jump(lanes, k)])
        lanes = lanes[:, :-(-u >> c)]
        steps = min(1 << c, u)
        # the state after output u: lane (u - 1) >> c after this many steps
        last, end = (u - 1) >> c, ((u - 1) & ((1 << c) - 1)) + 1
        out = np.empty((lanes.shape[1], steps))  # out[i, t]: draw i * 2^c + t
        rows = max(2, _BLOCK // max(1, lanes.shape[1]) & ~1)
        block = np.empty((rows, lanes.shape[1]), np.uint64)
        for t0 in range(0, steps, rows):
            x = block[:min(rows, steps - t0)]
            if t0 < end <= t0 + len(x):
                _steps(lanes, x[:end - t0])
                self._s = lanes[:, last].tolist()
                _steps(lanes, x[end - t0:])
            else:
                _steps(lanes, x)
            x = x * 5
            x = ((x << 7 | x >> 57) * 9 >> 11).T  # x[i, t]: top 53 bits of an output
            # u1 in (0, 1] so log(u1) is finite
            u1 = (x[:, 0::2] + 1) * 2.0**-53
            u2 = x[:, 1::2] * 2.0**-53
            r = np.sqrt(-2.0 * _fmap(math.log, u1))
            theta = 2.0 * math.pi * u2
            pairs = map(cmath.rect, r.ravel().tolist(), theta.ravel().tolist())
            # pair j of lane i gives out[i, t0 + 2j] and out[i, t0 + 2j + 1]
            out[:, t0:t0 + x.shape[1]] = np.fromiter(
                pairs, np.complex128, r.size).view(np.float64).reshape(x.shape)
        return out.reshape(-1)[:n]
