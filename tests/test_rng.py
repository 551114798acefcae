"""The lane-parallel ``Xoshiro256.normals`` against the scalar stream."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtreduce.rng import Xoshiro256, _advance, _jump

SEEDS = [0, 1, 2**64 - 1]
# at and beside multiples of the 64-output chunk of small draws, and 160
# lanes of 256 outputs with a partial last one
SIZES = [0, 1, 2, 3] + [2**c + d for c in (6, 7, 8) for d in (-1, 0, 1)] + [40705]


def reference_normals(rng: Xoshiro256, n: int) -> np.ndarray:
    """Box-Muller over ``next_u64``, one pair at a time."""
    pairs = (n + 1) // 2
    out = np.empty(2 * pairs, dtype=np.float64)
    for i in range(pairs):
        u1 = ((rng.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (rng.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out[2 * i] = r * math.cos(theta)
        out[2 * i + 1] = r * math.sin(theta)
    return out[:n]


def assert_same_stream(seed: int, n: int) -> None:
    lanes, scalar = Xoshiro256(seed), Xoshiro256(seed)
    got = lanes.normals(n)
    assert got.shape == (n,)
    assert got.tobytes() == reference_normals(scalar, n).tobytes()
    assert lanes.next_u64() == scalar.next_u64()
    assert lanes.normals(7).tobytes() == reference_normals(scalar, 7).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_normals_match_scalar_stream(seed, n):
    assert_same_stream(seed, n)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 5000))
def test_normals_match_scalar_stream_hypothesis(seed, n):
    assert_same_stream(seed, n)


def state_of(rng: Xoshiro256) -> np.ndarray:
    return np.array(rng._s, dtype=np.uint64)[:, None]


@pytest.mark.parametrize("k", range(13))
def test_jump_matrix_equals_steps(k):
    rng = Xoshiro256(12345)
    jumped = _jump(state_of(rng), k)
    for _ in range(2**k):
        rng.next_u64()
    assert jumped[:, 0].tolist() == rng._s


def test_jump_by_arbitrary_distance():
    rng = Xoshiro256(7)
    jumped = _advance(state_of(rng), 123457)
    for _ in range(123457):
        rng.next_u64()
    assert jumped[:, 0].tolist() == rng._s


def test_normals_working_memory_is_bounded():
    n = 2**20
    tracemalloc.start()
    try:
        Xoshiro256(3).normals(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n
