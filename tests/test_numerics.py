import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import topk_oracle
from vtreduce import (
    BudgetError,
    DegenerateInputError,
    ShapeError,
    cosine_similarity,
    round_half_up,
    scaled_attention,
    softmax_rows,
    top_k_indices,
)
from vtreduce.numerics import unit_rows

finite_floats = st.floats(min_value=-50, max_value=50)


class TestSoftmaxRows:
    def test_uniform_logits(self):
        out = softmax_rows([[0.0, 0.0, 0.0]])
        assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)

    @pytest.mark.parametrize("c", [-7.5, 0.0, 3.0, 1e6])
    def test_two_to_one_ratio(self, c):
        # shift invariance: [c, c + ln 2] always gives [1/3, 2/3]
        out = softmax_rows([[c, c + math.log(2)]])
        assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)

    def test_constant_rows_match(self):
        assert np.array_equal(
            softmax_rows([[5.0, 5.0, 5.0, 5.0]]), softmax_rows([[0.0, 0.0, 0.0, 0.0]])
        )

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            softmax_rows([1.0, 2.0])
        with pytest.raises(ShapeError):
            softmax_rows(np.zeros((2, 2, 2)))

    @given(
        st.lists(
            st.lists(finite_floats, min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(rows)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @given(
        st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=1, max_size=5),
        finite_floats,
    )
    def test_shift_invariance(self, rows, c):
        base = softmax_rows(rows)
        shifted = softmax_rows(np.asarray(rows) + c)
        assert np.allclose(base, shifted, atol=1e-12)


class TestScaledAttention:
    def test_single_zero_key(self):
        out = scaled_attention(np.zeros((1, 4)), np.zeros((1, 4)))
        assert out.shape == (1, 1)
        assert out[0, 0] == 1.0

    def test_identical_keys_uniform(self):
        keys = np.tile([1.0, -2.0, 0.5], (5, 1))
        out = scaled_attention([[0.3, 0.1, -0.7]], keys)
        assert np.allclose(out, 0.2, atol=1e-12)

    def test_two_to_one_logit_gap(self):
        # query 2, keys 0 and ln2/2, D=1: logits 0 and ln2
        out = scaled_attention([[2.0]], [[0.0], [math.log(2) / 2]])
        assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            scaled_attention(np.zeros((1, 3)), np.zeros((2, 4)))

    def test_rows_normalized(self):
        rng = np.random.default_rng(0)
        out = scaled_attention(rng.normal(size=(4, 6)), rng.normal(size=(9, 6)))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestTopK:
    def test_tie_keeps_both(self):
        assert top_k_indices([0.1, 0.5, 0.5, 0.2], 2) == [1, 2]

    def test_full_retention(self):
        assert top_k_indices([3.0, -1.0, 2.0, 2.0], 4) == [0, 1, 2, 3]

    def test_all_tied_lowest_index(self):
        assert top_k_indices([0.5, 0.5, 0.5], 1) == [0]

    def test_budget_over_n(self):
        with pytest.raises(BudgetError):
            top_k_indices([1.0, 2.0], 3)

    def test_matches_oracle_small_n(self):
        rng = np.random.default_rng(42)
        for n in range(1, 13):
            for _ in range(30):
                # coarse values force ties
                scores = rng.integers(0, 4, size=n) / 4.0
                for k in range(n + 1):
                    assert top_k_indices(scores, k) == topk_oracle(scores.tolist(), k)


class TestCosine:
    def test_identical_direction(self):
        assert cosine_similarity([3.0, 4.0], [3.0, 4.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_half_overlap(self):
        got = cosine_similarity([1.0, 1.0], [1.0, 0.0])
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("tiny", [4.9e-158, 1e-170, 5e-320])
    def test_tiny_vectors_keep_their_angle(self, tiny):
        # the squared norm of a vector this small underflows
        assert cosine_similarity([tiny, 0.0], [1.0, 0.0]) == 1.0
        assert cosine_similarity([tiny, tiny], [1.0, 0.0]) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )

    def test_huge_vectors_keep_their_angle(self):
        assert cosine_similarity([1e300, 1e300], [1.0, 0.0]) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    @given(
        st.lists(finite_floats, min_size=2, max_size=6),
        st.lists(finite_floats, min_size=2, max_size=6),
        st.floats(min_value=0.01, max_value=100),
    )
    @settings(max_examples=200)
    def test_symmetry_and_scale_invariance(self, a, b, scale):
        size = min(len(a), len(b))
        va, vb = np.asarray(a[:size]), np.asarray(b[:size])
        if np.linalg.norm(va) == 0 or np.linalg.norm(vb) == 0:
            return
        ab = cosine_similarity(va, vb)
        assert ab == pytest.approx(cosine_similarity(vb, va), abs=1e-12)
        assert ab == pytest.approx(cosine_similarity(va * scale, vb), abs=1e-12)
        assert -1.0 <= ab <= 1.0


class TestUnitRows:
    @pytest.mark.parametrize("exp", [-1070, -600, -539, -512, -511, 0, 500])
    def test_scale_free_and_row_by_row(self, exp):
        # power-of-two scaling keeps every bit, also for rows whose squares
        # are subnormal; and a row comes out the same alone or in a stack
        rows = np.array([[-3.25, -3.25, -3.25], [-0.0, -3.25, -3.25], [1.0, 0.5, 7.0]])
        want = unit_rows(rows.copy())
        scaled = np.ldexp(rows, exp)
        assert unit_rows(scaled.copy()).tobytes() == want.tobytes()
        for row, w in zip(scaled, want):
            assert unit_rows(row[None].copy())[0].tobytes() == w.tobytes()


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.4999) == 2
    assert round_half_up(0.35 * 10) == 4  # float dust just below 3.5
    assert round_half_up(288.0) == 288
