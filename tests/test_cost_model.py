import numpy as np
import pytest

from vtreduce import (
    BudgetError,
    ConfigError,
    ModelDims,
    TokenSelection,
    average_retention,
    build_report,
    flops_total,
    round_half_up,
    solve_encoder_retention,
)
from vtreduce.cost_model import (
    MODEL_PRESETS,
    write_report_csv,
    write_report_summary,
)
from vtreduce.decoder_prune import LayerTokenProfile

LLAVA_DIMS = ModelDims(32, 4096, 11008)


def stub_selection(n_tokens, n_selected):
    selected = list(range(n_selected))
    return TokenSelection(
        n_tokens=n_tokens,
        global_indices=selected,
        local_indices=[],
        selected=selected,
        merge_assignment={i: 0 for i in range(n_selected, n_tokens)},
    )


def stepped_profile(n_merged, decoder_retention, prune_layer, n_layers):
    kept = round_half_up(decoder_retention * n_merged)
    return LayerTokenProfile(
        counts=[n_merged] * prune_layer + [kept] * (n_layers - prune_layer),
        retained=list(range(kept)),
        n_merged=n_merged,
        prune_layer=prune_layer,
    )


class TestFlopsTotal:
    @pytest.mark.parametrize(
        "tokens,tera",
        [(576, 3.817), (192, 1.253), (128, 0.833), (64, 0.415)],
    )
    def test_published_uniform_counts(self, tokens, tera):
        got = flops_total([tokens] * 32, LLAVA_DIMS)
        assert got == pytest.approx(tera * 1e12, rel=5e-3)

    @pytest.mark.parametrize("tokens,tera", [(2880, 20.825), (320, 2.099)])
    def test_high_resolution_counts(self, tokens, tera):
        got = flops_total([tokens] * 32, LLAVA_DIMS)
        assert got == pytest.approx(tera * 1e12, rel=5e-3)

    def test_zero_tokens(self):
        assert flops_total([0] * 32, LLAVA_DIMS) == 0.0

    def test_length_checked(self):
        with pytest.raises(ConfigError):
            flops_total([1] * 31, LLAVA_DIMS)

    @pytest.mark.parametrize("count", [-1, float("nan"), float("inf")])
    def test_count_must_be_finite_and_non_negative(self, count):
        with pytest.raises(ConfigError, match="must be finite and >= 0") as exc:
            flops_total([1] * 31 + [count], LLAVA_DIMS)
        assert exc.value.field == "tokens_per_layer"

    @pytest.mark.parametrize("field", ["n_layers", "hidden_size", "ffn_size"])
    def test_dims_stay_inside_float64_integers(self, field):
        ModelDims(2**53, 2**53, 2**53)
        sizes = {"n_layers": 1, "hidden_size": 1, "ffn_size": 1, field: 2**53 + 1}
        with pytest.raises(ConfigError, match=r"must be <= 2\*\*53") as info:
            ModelDims(**sizes)
        assert info.value.field == field

    def test_overflowing_total_refused(self):
        with pytest.raises(ConfigError, match="overflow float64") as info:
            flops_total([1e200] * 32, LLAVA_DIMS)
        assert info.value.field == "tokens_per_layer"

    def test_term_structure(self):
        # per layer: linear terms (4 n d^2, 3 n d m) plus quadratic 2 n^2 d,
        # so doubling n scales the quadratic part by exactly 4
        dims = ModelDims(1, 16, 48)
        d, m = 16.0, 48.0
        for n in (3, 7, 20):
            linear = 4 * n * d * d + 3 * n * d * m
            quad = 2 * n * n * d
            assert flops_total([n], dims) == linear + quad
            assert flops_total([2 * n], dims) == 2 * linear + 4 * quad


class TestAverageRetention:
    def test_reference_operating_point(self):
        got = average_retention(0.167, 0.333, 16, 32)
        assert got == pytest.approx(0.111, abs=2e-3)

    @pytest.mark.parametrize(
        "prune_layer,retention",
        [(2, 0.733), (8, 0.667), (12, 0.60), (16, 0.50), (20, 0.333), (24, 0.0)],
    )
    def test_decode_only_schedules_hold_three_quarters(self, prune_layer, retention):
        got = average_retention(1.0, retention, prune_layer, 32)
        assert got == pytest.approx(0.75, abs=0.01)

    def test_schedule_checked_as_prune_config(self):
        with pytest.raises(ConfigError, match=r"^n_layers: must be >= 1, got 0$"):
            average_retention(1.0, 0.5, 1, 0)
        with pytest.raises(ConfigError, match=r"^prune_layer: must be in \[1, 4\], got 5$"):
            average_retention(1.0, 0.5, 5, 4)

    def test_no_decode_pruning(self):
        for keep in (0.1, 0.33, 1.0):
            assert average_retention(keep, 1.0, 7, 32) == pytest.approx(keep)

    def test_solve_is_exact_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            layers = int(rng.integers(2, 48))
            cut = int(rng.integers(1, layers + 1))
            dec_keep = float(rng.uniform(0, 1))
            target = float(rng.uniform(0.01, (cut + (layers - cut) * dec_keep) / layers))
            enc_keep = solve_encoder_retention(target, dec_keep, cut, layers)
            assert average_retention(enc_keep, dec_keep, cut, layers) == pytest.approx(
                target, abs=1e-12
            )

    def test_solve_reference_points(self):
        assert solve_encoder_retention(0.111, 0.333, 16, 32) == pytest.approx(
            0.1665, abs=1e-3
        )
        assert solve_encoder_retention(0.4, 1.0, 10, 32) == pytest.approx(0.4)
        assert solve_encoder_retention(0.75, 0.5, 16, 32) == pytest.approx(1.0)

    def test_smallest_schedule_weight_still_solves(self):
        # PruneConfig's bounds keep the weight at least 1 / 2**53
        value = solve_encoder_retention(1e-20, 0.0, 1, 2**53)
        assert 0.0 < value < 1.0

    def test_infeasible_target(self):
        with pytest.raises(BudgetError):
            solve_encoder_retention(0.9, 0.0, 16, 32)


class TestBuildReport:
    def test_identity_pipeline(self):
        sel = stub_selection(64, 64)
        profile = stepped_profile(64, 1.0, 4, 8)
        report = build_report(sel, profile, ModelDims(8, 32, 64), n_text_total=10)
        assert report.prefill_speedup_estimate == pytest.approx(1.0)
        assert report.kv_fraction == pytest.approx(1.0)
        assert report.avg_retention_overall == pytest.approx(1.0)
        assert report.total_flops == report.flops_baseline

    def test_uniform_convention_reference_point(self):
        # merged 96 of 576, a third kept after layer 16: layer-average 64
        sel = stub_selection(576, 96)
        profile = stepped_profile(96, 0.333, 16, 32)
        report = build_report(sel, profile, LLAVA_DIMS, n_text_total=63)
        assert report.total_flops_uniform == pytest.approx(0.415e12, rel=5e-3)
        assert report.avg_retention_overall == pytest.approx(64 / 576)
        assert report.kv_fraction == pytest.approx(0.199, abs=5e-3)

    def test_high_resolution_reference_point(self):
        sel = stub_selection(2880, 480)
        profile = stepped_profile(480, 0.333, 16, 32)
        report = build_report(sel, profile, LLAVA_DIMS, n_text_total=63)
        assert report.flops_baseline == pytest.approx(20.825e12, rel=5e-3)
        assert report.total_flops_uniform == pytest.approx(2.099e12, rel=5e-3)

    def test_consistency_checks(self):
        sel = stub_selection(64, 10)
        profile = stepped_profile(12, 0.5, 4, 8)
        with pytest.raises(ConfigError):
            build_report(sel, profile, ModelDims(8, 32, 64), 5)
        profile = stepped_profile(10, 0.5, 4, 6)
        with pytest.raises(ConfigError):
            build_report(sel, profile, ModelDims(8, 32, 64), 5)

    def test_csv_and_summary(self, tmp_path):
        sel = stub_selection(36, 18)
        profile = stepped_profile(18, 0.5, 2, 4)
        report = build_report(sel, profile, ModelDims(4, 16, 32), n_text_total=6)
        csv_path = tmp_path / "report.csv"
        write_report_csv(report, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "layer,visual_tokens,kv_tokens"
        assert lines[1] == "1,18,24"
        assert len(lines) == 5
        summary_path = tmp_path / "summary.json"
        write_report_summary(report, summary_path)
        import json

        summary = json.loads(summary_path.read_text())
        assert summary["n_visual_original"] == 36
        assert summary["kv_fraction"] == report.kv_fraction


class TestCrossModuleConsistency:
    def test_profile_mean_matches_closed_form(self):
        from vtreduce import PruneConfig, prune_at_layer

        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(8, 400))
            layers = int(rng.integers(2, 40))
            cut = int(rng.integers(1, layers + 1))
            enc_keep = float(rng.uniform(0.5 / n + 1e-6, 1.0))
            dec_keep = float(rng.uniform(0.0, 1.0))
            n_merged = round_half_up(enc_keep * n)
            profile = prune_at_layer(
                rng.uniform(size=n_merged), PruneConfig(cut, dec_keep, layers), n_merged
            )
            measured = sum(profile.counts) / layers / n
            assert measured == pytest.approx(
                average_retention(enc_keep, dec_keep, cut, layers), abs=1.0 / n
            )


def test_presets_cover_reference_models():
    assert MODEL_PRESETS["llava15"].dims == LLAVA_DIMS
    assert MODEL_PRESETS["llava15"].prune_layer == 16
    assert MODEL_PRESETS["llava15"].local_layer == 6
    assert MODEL_PRESETS["qwen25-vl-7b"].prune_layer == 14
    assert MODEL_PRESETS["qwen25-vl-7b"].local_layer == 8
    # middle-layer rule for the 28-layer decoder
    assert MODEL_PRESETS["qwen25-vl-7b"].dims.n_layers == 28
