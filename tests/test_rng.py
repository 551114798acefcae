"""The lane-parallel ``Xoshiro256.normals`` against the scalar stream."""

import cmath
import decimal
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


# ---------------------------------------------------------------------------
# The lane kernel's paths: many-lane jumps, the end state read off a lane,
# and cos/sin through cmath.rect.

MASK = 2**64 - 1


@pytest.mark.parametrize("k", [0, 5, 12])
def test_jump_of_many_lanes_equals_stepping_each(k):
    rngs = [Xoshiro256(seed) for seed in range(300)]
    lanes = np.array([rng._s for rng in rngs], dtype=np.uint64).T
    jumped = _jump(lanes, k)
    assert jumped.shape == (4, 300)
    for rng in rngs:
        for _ in range(2**k):
            rng.next_u64()
    assert jumped.T.tolist() == [rng._s for rng in rngs]


# the op's three draw sizes, and sizes beside a power of two, where the
# last lane's share is nearly empty or nearly full
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n", [9216, 27648, 40704] + [2**k + d for k in range(14, 18) for d in (-2, 2)])
def test_normals_match_scalar_stream_at_lane_edges(seed, n):
    assert_same_stream(seed, n)


def s1_for(output: int) -> int:
    """The s1 word whose xoshiro256** output is ``output``: the inverse of
    rotl(5 * s1, 7) * 9 modulo 2**64."""
    x = output * pow(9, -1, 2**64) & MASK
    x = (x >> 7 | x << 57) & MASK
    return x * pow(5, -1, 2**64) & MASK


def rng_with_outputs(first: int, second: int) -> Xoshiro256:
    """A stream whose first two outputs are ``first`` and ``second``."""
    rng = Xoshiro256(0)
    s0, s1, s3 = 0x0123456789ABCDEF, s1_for(first), 0xFEDCBA9876543210
    # the next s1 is s1 ^ s2 ^ s0
    rng._s = [s0, s1, s1_for(second) ^ s1 ^ s0, s3]
    return rng


@pytest.mark.parametrize("first, second, expected", [
    (MASK, 0, (-0.0, -0.0)),  # u1 == 1, so r == -0.0, and theta == 0
    (MASK, 2**63, None),  # r == -0.0, theta == pi
    (MASK, 2**62 + 2**40, None),  # r == -0.0, theta a little past pi / 2
    (2**60, 2**11 - 1, None),  # theta == 0: its top 53 bits are 0
])
def test_rect_pairs_equal_the_two_map_path(first, second, expected):
    probe = rng_with_outputs(first, second)
    assert [probe.next_u64(), probe.next_u64()] == [first, second]
    lanes, scalar = rng_with_outputs(first, second), rng_with_outputs(first, second)
    got = lanes.normals(130)
    assert got.tobytes() == reference_normals(scalar, 130).tobytes()
    assert lanes.next_u64() == scalar.next_u64()
    if expected is not None:
        assert np.signbit(got[:2]).tolist() == np.signbit(expected).tolist()
        assert got[:2].tolist() == list(expected)


def test_rect_equals_the_two_products():
    rng = np.random.default_rng(5)
    u1 = np.concatenate([[1.0, 1.0, 2.0**-53], 1.0 - rng.random(20000)])
    u2 = np.concatenate([[0.0, 0.5, 0.0], rng.random(20000)])
    r = [math.sqrt(-2.0 * math.log(v)) for v in u1.tolist()]
    theta = (2.0 * math.pi * u2).tolist()
    assert math.copysign(1.0, r[0]) == -1.0  # sqrt(-0.0)
    pairs = np.fromiter(map(cmath.rect, r, theta), np.complex128, len(r))
    products = [(a * math.cos(t), a * math.sin(t)) for a, t in zip(r, theta)]
    assert pairs.view(np.float64).tobytes() == np.array(products).tobytes()


# x and glibc's math.log(x) where glibc 2.36 (x86-64) differs from the
# correctly rounded log, by one ulp: 0.609318456248674, and the first three
# u1 draws of seed 1's Box-Muller pairs where the two differ
LIBM_LOGS = [
    (0.609318456248674, -0.495414231281026),
    (0.9221421721647468, -0.08105586756825715),
    (0.32810396512923556, -1.1144247539639498),
    (0.8788628756649532, -0.12912639384745325),
]


@pytest.mark.parametrize("x, pinned", LIBM_LOGS)
def test_libm_log_as_pinned(x, pinned):
    # the pinned bundle bytes take every log from libm, not from a correctly
    # rounded log; these cases tell a different libm from a broken generator
    with decimal.localcontext(prec=50):
        assert pinned != float(decimal.Decimal(x).ln())  # not the correct rounding
    got = math.log(x)
    assert got == pinned, (
        f"math.log({x!r}) is {got!r}, glibc 2.36 on x86-64 gives {pinned!r}: this "
        "host's libm differs, so the pinned bundle digests will not match")
