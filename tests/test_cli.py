import json
import shutil
from pathlib import Path

import pytest

from conftest import uniform_decoder_trace
from vtreduce import write_decoder_bundle
from vtreduce.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def bundle_bytes(path):
    return {
        f.name: f.read_bytes() for f in sorted(Path(path).iterdir()) if f.is_file()
    }


class TestGen:
    def test_encoder_deterministic(self, capsys, tmp_path):
        args = ["gen", "--kind", "encoder", "--seed", "7", "--grid", "4x4",
                "--layers", "3", "--heads", "2", "--embed-dim", "8",
                "--locality", "2.5"]
        code_a, out_a, _ = run(capsys, *args, "--out", tmp_path / "a")
        code_b, out_b, _ = run(capsys, *args, "--out", tmp_path / "b")
        assert code_a == code_b == 0
        assert out_a.strip().endswith("manifest.json")
        assert bundle_bytes(tmp_path / "a") == bundle_bytes(tmp_path / "b")

    def test_decoder_layer_file_count(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "--kind", "decoder", "--seed", "1", "--layers", "8",
            "--heads", "2", "--visual", "12", "--out", tmp_path / "d",
        )
        assert code == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert len(manifest["files"]["last_instr_attention"]) == 8

    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "encoder", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_bad_grid_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--kind", "encoder", "--seed", "1",
                           "--grid", "banana", "--out", tmp_path / "x")
        assert code == 1
        assert "grid" in err


@pytest.fixture
def small_world(tmp_path):
    """6x6 encoder trace and a matching 18-visual-token decoder trace."""
    assert main(["gen", "--kind", "encoder", "--seed", "3", "--grid", "6x6",
                 "--layers", "4", "--heads", "2", "--embed-dim", "8",
                 "--cls-only", "--out", str(tmp_path / "enc")]) == 0
    assert main(["gen", "--kind", "decoder", "--seed", "4", "--layers", "4",
                 "--heads", "2", "--pre-text", "3", "--visual", "18",
                 "--post-text", "5", "--out", str(tmp_path / "dec")]) == 0
    return tmp_path


class TestPipeline:
    def test_half_retention_selection_counts(self, capsys, small_world):
        out_dir = small_world / "run"
        code, out, _ = run(
            capsys, "pipeline",
            "--encoder-trace", small_world / "enc",
            "--decoder-trace", small_world / "dec",
            "--retention", "0.5", "--local-layer", "1",
            "--window-rows", "2", "--window-cols", "2",
            "--decoder-retention", "0.5", "--prune-layer", "2",
            "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64",
            "--out", out_dir,
        )
        assert code == 0
        assert "selected 18/36 tokens (9 global + 9 local)" in out
        selection = json.loads((out_dir / "selection.json").read_text())
        assert len(selection["selected"]) == 18
        assert len(selection["global_indices"]) == 9
        assert len(selection["local_indices"]) == 9
        assert (out_dir / "merged_embeddings.vscn").exists()
        assert (out_dir / "cost_report.csv").exists()

    def test_identity_pipeline(self, capsys, tmp_path):
        assert main(["gen", "--kind", "encoder", "--seed", "5", "--grid", "4x4",
                     "--layers", "3", "--heads", "1", "--embed-dim", "4",
                     "--cls-only", "--out", str(tmp_path / "enc")]) == 0
        assert main(["gen", "--kind", "decoder", "--seed", "6", "--layers", "4",
                     "--heads", "1", "--visual", "16",
                     "--out", str(tmp_path / "dec")]) == 0
        out_dir = tmp_path / "run"
        code, _, _ = run(
            capsys, "pipeline",
            "--encoder-trace", tmp_path / "enc", "--decoder-trace", tmp_path / "dec",
            "--retention", "1.0", "--local-layer", "1",
            "--window-rows", "2", "--window-cols", "2",
            "--decoder-retention", "1.0", "--prune-layer", "2",
            "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64",
            "--out", out_dir,
        )
        assert code == 0
        summary = json.loads((out_dir / "cost_summary.json").read_text())
        assert summary["prefill_speedup_estimate"] == pytest.approx(1.0)
        assert summary["kv_fraction"] == pytest.approx(1.0)
        profile = json.loads((out_dir / "profile.json").read_text())
        assert profile["retained"] == list(range(16))

    def test_zero_global_budget_with_every_token_local(self, capsys, tmp_path):
        assert main(["gen", "--kind", "encoder", "--seed", "5", "--grid", "4x4",
                     "--layers", "3", "--heads", "1", "--embed-dim", "4",
                     "--cls-only", "--out", str(tmp_path / "enc")]) == 0
        assert main(["gen", "--kind", "decoder", "--seed", "6", "--layers", "4",
                     "--heads", "1", "--visual", "16",
                     "--out", str(tmp_path / "dec")]) == 0
        code, out, err = run(
            capsys, "pipeline",
            "--encoder-trace", tmp_path / "enc", "--decoder-trace", tmp_path / "dec",
            "--retention", "1.0", "--global-fraction", "0", "--local-layer", "1",
            "--decoder-retention", "1.0", "--prune-layer", "2",
            "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64",
            "--out", tmp_path / "run",
        )
        assert code == 0, err
        assert "selected 16/16 tokens (0 global + 16 local)" in out

    def test_config_file_with_flag_override(self, capsys, small_world):
        cfg = {
            "encoder_trace": str(small_world / "enc"),
            "decoder_trace": str(small_world / "dec"),
            "retention": 0.25,
            "local_layer": 1,
            "window_rows": 2,
            "window_cols": 2,
            "decoder_retention": 0.5,
            "prune_layer": 2,
            "n_layers": 4,
            "hidden_size": 32,
            "ffn_size": 64,
            "out_dir": str(small_world / "from_file"),
        }
        cfg_path = small_world / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # flag overrides the file's retention (0.25 would keep 9, not 18)
        code, out, _ = run(capsys, "pipeline", "--config", cfg_path,
                           "--retention", "0.5")
        assert code == 0
        assert "selected 18/36" in out
        assert (small_world / "from_file" / "selection.json").exists()

    def test_empty_preset_is_unknown(self, capsys, small_world):
        cfg_path = small_world / "cfg.json"
        cfg_path.write_text(json.dumps({
            "preset": "", "encoder_trace": str(small_world / "enc"),
            "decoder_trace": str(small_world / "dec"), "retention": 0.5,
            "local_layer": 1, "window_rows": 2, "window_cols": 2,
            "n_layers": 4, "hidden_size": 32, "ffn_size": 64,
        }))
        code, _, err = run(capsys, "pipeline", "--config", cfg_path,
                           "--out", small_world / "run")
        assert code == 1
        assert "unknown preset ''" in err
        assert not (small_world / "run").exists()

    def test_unknown_config_key_named(self, capsys, small_world):
        cfg_path = small_world / "cfg.json"
        cfg_path.write_text(json.dumps({"retntion": 0.5}))
        code, _, err = run(capsys, "pipeline", "--config", cfg_path)
        assert code == 1
        assert "retntion" in err

    @pytest.mark.parametrize("key, value", [
        ("n_layers", "4"),
        ("n_layers", 4.0),
        ("retention", True),
        ("retention", "0.5"),
        ("window_rows", None),
    ])
    def test_mistyped_config_value_named(self, capsys, small_world, key, value):
        cfg = {"encoder_trace": str(small_world / "enc"),
               "decoder_trace": str(small_world / "dec"),
               "retention": 0.5, "local_layer": 1, "window_rows": 2,
               "window_cols": 2, "n_layers": 4, "hidden_size": 32, "ffn_size": 64,
               "out_dir": str(small_world / "run"), key: value}
        cfg_path = small_world / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "pipeline", "--config", cfg_path)
        assert code == 1
        assert key in err and "Traceback" not in err
        assert not (small_world / "run").exists()

    @pytest.mark.parametrize("budget", [("retention", 0.5), ("target_average", 0.375)])
    def test_config_file_equals_flags(self, capsys, small_world, budget):
        # every field but the other of retention/target_average, which exclude
        # each other; output_layer null reads as unset, like an absent flag
        fields = {"preset": "llava15",
                  "encoder_trace": str(small_world / "enc"),
                  "decoder_trace": str(small_world / "dec"),
                  budget[0]: budget[1], "global_fraction": 0.5, "local_layer": 1,
                  "window_rows": 2, "window_cols": 2, "score_source": "cls",
                  "decoder_retention": 0.5, "prune_layer": 2, "n_layers": 4,
                  "hidden_size": 32, "ffn_size": 64, "n_text_total": 10}
        cfg_path = small_world / "cfg.json"
        cfg_path.write_text(json.dumps(
            {**fields, "output_layer": None, "out_dir": str(small_world / "file")}
        ))
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in fields.items()]
        capsys.readouterr()  # drop the fixture's gen output
        code_a, out_a, _ = run(capsys, "pipeline", "--config", cfg_path)
        code_b, out_b, _ = run(capsys, "pipeline", *flags,
                               "--out", small_world / "flag")
        assert code_a == code_b == 0
        assert out_a.splitlines()[:2] == out_b.splitlines()[:2]
        assert bundle_bytes(small_world / "file") == bundle_bytes(small_world / "flag")

    def test_embeddings_outside_bundle_rejected(self, capsys, small_world):
        shutil.copytree(small_world / "enc", small_world / "encX")
        manifest_path = small_world / "enc" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["embeddings"] = "../encX/embeddings.vscn"
        manifest_path.write_text(json.dumps(manifest))
        code, _, err = run(
            capsys, "pipeline", "--encoder-trace", small_world / "enc",
            "--decoder-trace", small_world / "dec", "--retention", "0.5",
            "--local-layer", "1", "--window-rows", "2", "--window-cols", "2",
            "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64",
            "--out", small_world / "run",
        )
        assert code == 1
        assert "embeddings" in err and "Traceback" not in err

    def test_decoder_file_entry_not_a_name_rejected(self, capsys, small_world):
        manifest_path = small_world / "dec" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["last_instr_attention"] = [1, 2]
        manifest_path.write_text(json.dumps(manifest))
        code, _, err = run(
            capsys, "pipeline", "--encoder-trace", small_world / "enc",
            "--decoder-trace", small_world / "dec", "--retention", "0.5",
            "--local-layer", "1", "--window-rows", "2", "--window-cols", "2",
            "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64",
            "--out", small_world / "run",
        )
        assert code == 1
        assert "last_instr_attention" in err and "Traceback" not in err

    def test_visual_count_mismatch_named(self, capsys, small_world):
        code, _, err = run(
            capsys, "pipeline",
            "--encoder-trace", small_world / "enc",
            "--decoder-trace", small_world / "dec",
            "--retention", "0.25", "--local-layer", "1",
            "--window-rows", "2", "--window-cols", "2",
            "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64",
            "--out", small_world / "bad",
        )
        assert code == 1
        assert "decoder_trace" in err and "stage 'merge'" in err

    def test_llava_preset_reference_point(self, capsys, tmp_path):
        # 576-token encoder trace, target average retention 11.1%: the scan
        # keeps 96 tokens, a third survive layer 16, layer-average 64 tokens
        assert main(["gen", "--kind", "encoder", "--seed", "7", "--grid", "24x24",
                     "--layers", "12", "--heads", "4", "--embed-dim", "16",
                     "--cls-only", "--out", str(tmp_path / "enc")]) == 0
        assert main(["gen", "--kind", "decoder", "--seed", "9", "--layers", "32",
                     "--heads", "8", "--pre-text", "20", "--visual", "96",
                     "--post-text", "43", "--out", str(tmp_path / "dec")]) == 0
        out_dir = tmp_path / "run"
        code, _, _ = run(
            capsys, "pipeline", "--preset", "llava15",
            "--encoder-trace", tmp_path / "enc", "--decoder-trace", tmp_path / "dec",
            "--target-average", "0.111", "--out", out_dir,
        )
        assert code == 0
        summary = json.loads((out_dir / "cost_summary.json").read_text())
        assert summary["total_flops_uniform"] == pytest.approx(0.415e12, rel=5e-3)
        assert summary["avg_retention_overall"] == pytest.approx(0.111, abs=2e-3)
        # 20 + 43 text tokens match the inferred prompt length
        assert summary["kv_fraction"] == pytest.approx(0.199, abs=5e-3)

    def test_deterministic_artifacts(self, capsys, small_world):
        argv = ["pipeline",
                "--encoder-trace", small_world / "enc",
                "--decoder-trace", small_world / "dec",
                "--retention", "0.5", "--local-layer", "1",
                "--window-rows", "2", "--window-cols", "2",
                "--decoder-retention", "0.5", "--prune-layer", "2",
                "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64"]
        assert run(capsys, *argv, "--out", small_world / "r1")[0] == 0
        assert run(capsys, *argv, "--out", small_world / "r2")[0] == 0
        assert bundle_bytes(small_world / "r1") == bundle_bytes(small_world / "r2")


class TestFlopsAndBudget:
    def test_flops_preset(self, capsys):
        code, out, _ = run(capsys, "flops", "--preset", "llava15", "--tokens", "576")
        assert code == 0
        assert float(out.strip()) == pytest.approx(3.817e12, rel=5e-3)

    def test_flops_explicit_dims(self, capsys):
        code, out, _ = run(capsys, "flops", "--n-layers", "2", "--hidden-size", "4",
                           "--ffn-size", "8", "--tokens", "3")
        assert code == 0
        # 2 * (4*3*16 + 2*9*4 + 3*3*4*8) = 2 * (192 + 72 + 288)
        assert float(out.strip()) == pytest.approx(1104.0)

    def test_flops_unknown_preset(self, capsys):
        code, _, err = run(capsys, "flops", "--preset", "nope", "--tokens", "1")
        assert code == 1
        assert "preset" in err

    def test_flops_empty_preset_is_unknown(self, capsys):
        code, out, err = run(capsys, "flops", "--preset", "", "--n-layers", "32",
                             "--hidden-size", "4096", "--ffn-size", "11008",
                             "--tokens", "576")
        assert code == 1
        assert out == ""
        assert "unknown preset ''" in err

    def test_budget(self, capsys):
        code, out, _ = run(capsys, "budget", "--target", "0.111",
                           "--decoder-retention", "0.333",
                           "--prune-layer", "16", "--n-layers", "32")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.167, abs=1e-3)

    def test_budget_infeasible(self, capsys):
        code, _, err = run(capsys, "budget", "--target", "0.9",
                           "--decoder-retention", "0.0",
                           "--prune-layer", "16", "--n-layers", "32")
        assert code == 1
        assert err

    def test_budget_prune_layer_out_of_range_named(self, capsys):
        code, out, err = run(capsys, "budget", "--target", "0.5",
                             "--decoder-retention", "0.3",
                             "--prune-layer", "40", "--n-layers", "32")
        assert code == 1
        assert out == ""
        assert "prune_layer" in err


class TestAnalyze:
    def test_attention_sum_uniform_constant_column(self, capsys, tmp_path):
        trace = uniform_decoder_trace(3, 2, 2, 8, 4)
        write_decoder_bundle(trace, tmp_path / "dec")
        code, out, _ = run(capsys, "analyze", "attention-sum",
                           "--trace", tmp_path / "dec")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "layer,head,sum"
        values = {line.split(",")[2] for line in lines[1:]}
        assert len(values) == 1  # constant column

    def test_bias_histogram_file_output(self, capsys, tmp_path):
        assert main(["gen", "--kind", "decoder", "--seed", "2", "--layers", "4",
                     "--heads", "2", "--visual", "12", "--bias", "5",
                     "--out", str(tmp_path / "dec")]) == 0
        out_file = tmp_path / "hist.csv"
        code, out, _ = run(capsys, "analyze", "bias-histogram",
                           "--trace", tmp_path / "dec", "--layer", "1",
                           "--retention", "0.5", "--grid", "3x4",
                           "--out", out_file)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "layer,row,col,count"
        total = sum(int(line.split(",")[3]) for line in lines[1:])
        assert total == 6

    def test_corrupt_bundle_is_domain_error(self, capsys, tmp_path):
        trace = uniform_decoder_trace(2, 1, 1, 4, 1)
        write_decoder_bundle(trace, tmp_path / "dec")
        layer0 = tmp_path / "dec" / "layer_00.vscn"
        data = bytearray(layer0.read_bytes())
        data[:4] = b"XXXX"
        layer0.write_bytes(bytes(data))
        code, _, err = run(capsys, "analyze", "attention-sum",
                           "--trace", tmp_path / "dec")
        assert code == 1
        assert "magic" in err

    def test_manifest_files_not_an_object(self, capsys, tmp_path):
        trace = uniform_decoder_trace(2, 1, 1, 4, 1)
        manifest_path = write_decoder_bundle(trace, tmp_path / "dec")
        manifest = json.loads(manifest_path.read_text())
        manifest["files"] = []
        manifest_path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "analyze", "attention-sum",
                           "--trace", tmp_path / "dec")
        assert code == 1
        assert "files" in err
        assert "Traceback" not in err


def test_out_dir_env_override(capsys, tmp_path, monkeypatch):
    target = tmp_path / "via_env"
    monkeypatch.setenv("VTREDUCE_OUT_DIR", str(target))
    code, out, _ = run(capsys, "gen", "--kind", "decoder", "--seed", "1",
                       "--layers", "2", "--heads", "1", "--visual", "4")
    assert code == 0
    assert (target / "manifest.json").exists()
