import itertools

import numpy as np
import pytest

from conftest import uniform_decoder_trace
from vtreduce import (
    ConfigError,
    DecoderTrace,
    DegenerateInputError,
    LayoutError,
    PruneConfig,
    ShapeError,
    kv_cache_entries,
    prune_at_layer,
    round_half_up,
    text_attention_scores,
)
from vtreduce.decoder_prune import LayerTokenProfile


def subset_oracle(scores, m):
    """Max total score among size-m subsets, lowest-lexicographic tie-break."""
    best = None
    best_sum = -np.inf
    for combo in itertools.combinations(range(len(scores)), m):
        s = sum(scores[i] for i in combo)
        if s > best_sum + 1e-12:
            best, best_sum = combo, s
    return list(best)


class TestTextAttentionScores:
    def test_uniform_row(self):
        trace = uniform_decoder_trace(2, 1, 3, 4, 3)
        assert np.allclose(text_attention_scores(trace, 1), [0.1, 0.1, 0.1, 0.1])

    def test_head_average(self):
        attn = np.zeros((1, 2, 4))
        attn[0, 0] = [0.0, 1.0, 0.0, 0.0]  # visual span is positions 1..2
        attn[0, 1] = [0.0, 0.0, 1.0, 0.0]
        trace = DecoderTrace(1, 2, 1, attn)
        assert np.allclose(text_attention_scores(trace, 1), [0.5, 0.5])

    def test_layer_out_of_range(self):
        trace = uniform_decoder_trace(2, 1, 3, 4, 3)
        with pytest.raises(LayoutError):
            text_attention_scores(trace, 3)


class TestPruneAtLayer:
    def test_paper_scale_counts(self):
        scores = np.linspace(0, 1, 288)
        profile = prune_at_layer(scores, PruneConfig(16, 0.5, 32), 288)
        assert len(profile.retained) == 144
        assert profile.counts[:16] == [288] * 16
        assert profile.counts[16:] == [144] * 16

    def test_identity(self):
        scores = np.array([0.2, 0.5, 0.3])
        profile = prune_at_layer(scores, PruneConfig(2, 1.0, 4), 3)
        assert profile.retained == [0, 1, 2]
        assert profile.counts == [3, 3, 3, 3]

    def test_top_half_by_score(self):
        profile = prune_at_layer(
            np.array([0.4, 0.1, 0.3, 0.2]), PruneConfig(1, 0.5, 2), 4
        )
        assert profile.retained == [0, 2]

    def test_zero_retention_drops_all(self):
        profile = prune_at_layer(np.ones(5) / 5, PruneConfig(2, 0.0, 4), 5)
        assert profile.retained == []
        assert profile.counts == [5, 5, 0, 0]

    def test_score_length_checked(self):
        with pytest.raises(ShapeError):
            prune_at_layer(np.ones(3), PruneConfig(1, 0.5, 2), 4)

    def test_single_step_profile(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            layers = int(rng.integers(2, 12))
            cut = int(rng.integers(1, layers + 1))
            r = float(rng.uniform(0.05, 0.95))
            kept = round_half_up(r * n)
            profile = prune_at_layer(rng.uniform(size=n), PruneConfig(cut, r, layers), n)
            diffs = np.diff(profile.counts)
            assert np.all(diffs <= 0)
            steps = np.flatnonzero(diffs)
            if 0 < kept < n and cut < layers:
                # one drop, between the pruning layer and its successor
                assert list(steps) == [cut - 1]
            elif cut == layers:
                assert list(steps) == []  # no layer runs after the pruning point

    def test_rank_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=12)
        cfg = PruneConfig(3, 0.4, 8)
        base = prune_at_layer(scores, cfg, 12).retained
        for transform in (lambda s: 10 * s - 2, np.exp, lambda s: s ** 3):
            assert prune_at_layer(transform(scores), cfg, 12).retained == base

    def test_matches_subset_oracle(self):
        rng = np.random.default_rng(2)
        for n in range(1, 13):
            for _ in range(5):
                scores = rng.integers(0, 4, size=n) / 4.0
                for m in range(n + 1):
                    cfg = PruneConfig(1, m / n if n else 0.0, 2)
                    got = prune_at_layer(scores, cfg, n)
                    if len(got.retained) != m:
                        continue  # retention rounding picked another size
                    assert got.retained == subset_oracle(scores.tolist(), m)


class TestKvCache:
    def test_no_pruning_fraction_one(self):
        profile = LayerTokenProfile([10] * 4, list(range(10)), 10, 2)
        per_layer, fraction = kv_cache_entries(profile, 5, 10)
        assert per_layer == [15, 15, 15, 15]
        assert fraction == 1.0

    def test_published_op_points(self):
        # 576 visual tokens, 63 text tokens, prune layer 16 of 32,
        # decoder retention 1/3 on the merged count
        for enc_keep, want in [(0.167, 0.199), (0.5, 0.399)]:
            n_merged = round_half_up(enc_keep * 576)
            kept = round_half_up(0.333 * n_merged)
            profile = LayerTokenProfile(
                [n_merged] * 16 + [kept] * 16, list(range(kept)), n_merged, 16
            )
            _, fraction = kv_cache_entries(profile, 63, 576)
            assert fraction == pytest.approx(want, abs=5e-3)

    def test_text_tokens_in_both_sides(self):
        profile = LayerTokenProfile([4, 4, 2, 2], [0, 1], 4, 2)
        per_layer, fraction = kv_cache_entries(profile, 6, 8)
        assert per_layer == [10, 10, 8, 8]
        assert fraction == pytest.approx(36 / (4 * 14))

    def test_bad_inputs(self):
        profile = LayerTokenProfile([2, 2], [0, 1], 2, 1)
        with pytest.raises(ConfigError):
            kv_cache_entries(profile, -1, 4)
        with pytest.raises(ConfigError):
            kv_cache_entries(profile, 3, 0)


class TestPruneConfig:
    def test_layer_bounds(self):
        with pytest.raises(ConfigError):
            PruneConfig(0, 0.5, 4)
        with pytest.raises(ConfigError):
            PruneConfig(5, 0.5, 4)
        with pytest.raises(ConfigError):
            PruneConfig(2, 1.5, 4)

    def test_depth_stays_inside_float64_integers(self):
        assert PruneConfig(1, 0.5, 2**53).n_layers == 2**53
        with pytest.raises(ConfigError, match=r"^n_layers: must be <= 2\*\*53, got ") as info:
            PruneConfig(1, 0.5, 2**53 + 1)
        assert info.value.field == "n_layers"


def test_recency_bias_spearman_from_generator():
    # generated traces with strong recency bias score later tokens higher
    from vtreduce import generate_synthetic_decoder

    trace = generate_synthetic_decoder(11, 8, 4, 4, 36, 8, position_bias_strength=5.0)
    scores = text_attention_scores(trace, 1)
    positions = np.arange(36)
    ranks_s = np.argsort(np.argsort(scores))
    rho = np.corrcoef(ranks_s, positions)[0, 1]
    assert rho > 0


def test_prune_scans_its_scores_once(monkeypatch):
    from vtreduce import numerics
    calls = []
    real = numerics.as_tensor

    def counting(values, ndim=None):
        calls.append(ndim)
        return real(values, ndim)
    monkeypatch.setattr(numerics, "as_tensor", counting)
    scores = np.random.default_rng(1).random(40)
    assert len(prune_at_layer(scores, PruneConfig(2, 0.5, 4), 40).retained) == 20
    assert calls == [1]


@pytest.mark.parametrize("scores, n_merged, error, message", [
    (np.array([0.5, np.nan, 0.1]), 3, DegenerateInputError, "array contains NaN or Inf"),
    ([0.5, np.inf], 2, DegenerateInputError, "array contains NaN or Inf"),
    (np.ones((2, 2)), 2, ShapeError, "expected a 1-D array, got shape (2, 2)"),
    (np.ones(0), 0, ShapeError, "dimensions must all be >= 1, got shape (0,)"),
    (np.ones(3), 4, ShapeError, "got 3 scores for 4 merged tokens"),
    # the length is checked before the one NaN/Inf scan
    (np.array([np.nan, 1.0]), 3, ShapeError, "got 2 scores for 3 merged tokens"),
])
def test_prune_score_errors(scores, n_merged, error, message):
    with pytest.raises(error) as info:
        prune_at_layer(scores, PruneConfig(1, 0.5, 2), n_merged)
    assert str(info.value) == message
