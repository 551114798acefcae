import numpy as np
import pytest

from conftest import uniform_decoder_trace
from vtreduce import (
    ConfigError,
    DecoderTrace,
    LayoutError,
    PruneConfig,
    attention_sum_per_layer,
    generate_synthetic_decoder,
    position_bias_histogram,
    prune_at_layer,
    text_attention_scores,
)
from vtreduce.analysis import write_attention_sums_csv, write_bias_histogram_csv


class TestBiasHistogram:
    def test_full_retention_all_ones(self):
        trace = uniform_decoder_trace(2, 1, 3, 12, 3)
        hist = position_bias_histogram(trace, 1, 1.0, 3, 4)
        assert np.array_equal(hist.counts, np.ones((3, 4), dtype=int))
        assert hist.retained == list(range(12))

    def test_empty_budget_gives_int_zeros(self):
        trace = uniform_decoder_trace(2, 1, 3, 12, 3)
        hist = position_bias_histogram(trace, 1, 0.01, 3, 4)  # 0.12 tokens rounds to 0
        assert hist.retained == []
        assert hist.counts.dtype == np.int64
        assert np.array_equal(hist.counts, np.zeros((3, 4)))

    def test_counts_sum_to_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            trace = generate_synthetic_decoder(
                int(rng.integers(1e6)), 4, 2, 2, 24, 5, position_bias_strength=2.0
            )
            retention = float(rng.uniform(0.05, 1.0))
            hist = position_bias_histogram(trace, 2, retention, 4, 6)
            from vtreduce import round_half_up

            assert hist.counts.sum() == round_half_up(retention * 24)

    def test_strong_recency_concentrates_bottom_rows(self):
        trace = generate_synthetic_decoder(7, 8, 4, 4, 36, 8, position_bias_strength=5.0)
        hist = position_bias_histogram(trace, 1, 0.5, 6, 6)
        bottom_share = hist.counts[3:].sum() / hist.counts.sum()
        assert bottom_share > 0.6
        mean_row = np.mean([i // 6 for i in hist.retained])
        assert mean_row > 2.5  # past the mid-row of the 6-row grid

    def test_unbiased_rows_balanced_over_seeds(self):
        shares = np.zeros(6)
        for seed in range(20):
            trace = generate_synthetic_decoder(seed, 8, 4, 4, 36, 8)
            hist = position_bias_histogram(trace, 1, 0.5, 6, 6)
            shares += hist.counts.sum(axis=1) / hist.counts.sum()
        shares /= 20
        assert shares.max() < 1 / 6 + 0.15

    def test_same_tokens_as_pruning_stage(self):
        trace = generate_synthetic_decoder(3, 6, 2, 2, 20, 4, position_bias_strength=1.0)
        hist = position_bias_histogram(trace, 4, 0.35, 4, 5)
        scores = text_attention_scores(trace, 4)
        profile = prune_at_layer(scores, PruneConfig(4, 0.35, 6), 20)
        assert hist.retained == profile.retained

    def test_grid_must_cover_visual_block(self):
        trace = uniform_decoder_trace(2, 1, 3, 12, 3)
        with pytest.raises(LayoutError):
            position_bias_histogram(trace, 1, 0.5, 3, 5)
        with pytest.raises(ConfigError):
            position_bias_histogram(trace, 1, 0.0, 3, 4)


    @pytest.mark.parametrize("grid", [(-2, -3), (-1, -6), (0, 6), (6, 0)])
    def test_grid_dims_must_be_positive(self, grid):
        trace = generate_synthetic_decoder(3, 4, 2, 4, 6, 8)
        with pytest.raises(ConfigError, match=r"^grid: must be >= 1x1, got ") as info:
            position_bias_histogram(trace, 1, 0.5, *grid)
        assert info.value.field == "grid"


class TestAttentionSums:
    def test_uniform_rows(self):
        trace = uniform_decoder_trace(3, 2, 4, 6, 10)
        curve = attention_sum_per_layer(trace)
        assert curve.per_head.shape == (3, 2)
        assert np.allclose(curve.per_head, 6 / 20)
        assert np.allclose(curve.head_mean, 6 / 20)

    def test_mass_on_final_token_gives_zero(self):
        attn = np.zeros((2, 2, 8))
        attn[:, :, -1] = 1.0
        trace = DecoderTrace(2, 4, 2, attn)
        curve = attention_sum_per_layer(trace)
        assert np.array_equal(curve.per_head, np.zeros((2, 2)))

    def test_sums_bounded_by_one(self):
        for seed in range(5):
            trace = generate_synthetic_decoder(
                seed, 5, 3, 2, 10, 4, position_bias_strength=3.0, visual_boost_strength=2.0
            )
            curve = attention_sum_per_layer(trace)
            assert np.all(curve.per_head >= 0)
            assert np.all(curve.per_head <= 1 + 1e-12)

    def test_boosted_band_holds_argmax(self):
        trace = generate_synthetic_decoder(5, 12, 4, 4, 36, 8, visual_boost_strength=4.0)
        curve = attention_sum_per_layer(trace)
        assert 4 <= int(curve.head_mean.argmax()) < 8


class TestCsvOutput:
    def test_bias_histogram_schema(self, tmp_path):
        trace = uniform_decoder_trace(2, 1, 3, 6, 3)
        hist = position_bias_histogram(trace, 2, 1.0, 2, 3)
        path = tmp_path / "bias_histogram.csv"
        write_bias_histogram_csv(hist, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "layer,row,col,count"
        assert lines[1] == "2,0,0,1"
        assert len(lines) == 7

    def test_attention_sums_schema(self, tmp_path):
        trace = uniform_decoder_trace(2, 2, 2, 5, 3)
        curve = attention_sum_per_layer(trace)
        path = tmp_path / "attention_sums.csv"
        write_attention_sums_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "layer,head,sum"
        assert lines[1] == "1,0,0.5"
        assert len(lines) == 5

    def test_deterministic_bytes(self, tmp_path):
        trace = generate_synthetic_decoder(9, 3, 2, 2, 12, 4, position_bias_strength=1.0)
        curve = attention_sum_per_layer(trace)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_attention_sums_csv(curve, a)
        write_attention_sums_csv(curve, b)
        assert a.read_bytes() == b.read_bytes()
