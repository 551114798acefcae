import hashlib
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import uniform_decoder_trace
from vtreduce import cost_model, write_decoder_bundle, write_tensor
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

    @pytest.mark.parametrize("flags, digests", [
        (["--kind", "encoder", "--seed", "7", "--grid", "2x3", "--layers", "2",
          "--heads", "2", "--embed-dim", "4", "--locality", "1.5"], {
            "cls_00.vscn": "7990aadf1c021e00cbc4b7734f05b0000d7ece5f5462a6d96b5a132290abf218",
            "cls_01.vscn": "4ad3de4a977749c4ab92f4092ae6633929484ca9db9379e33adebec1ef1d2648",
            "embeddings.vscn": "99fc4b16722f12b01852befcdfe84260d1df7d4d1cdf070622a3bcf3a58c44d6",
            "manifest.json": "f605c0282d5f49efc7c8f070642e8c0b3078fefb83d4961684162db718d73123",
            "self_00.vscn": "b07fa0384e3ab3053f7287abecf2073d86b6a5a555c8194652738de01a4aca5a",
            "self_01.vscn": "c5956254d48df59549b6504d9a0eeeae899ebf7cc384983563ff5c99017a42fb",
        }),
        (["--kind", "encoder", "--seed", "8", "--grid", "3x2", "--layers", "2",
          "--heads", "1", "--embed-dim", "3", "--cls-only"], {
            "cls_00.vscn": "c5b65c8518ef0c062e43efc3323511f4ca711bb7f08aec8dd7ba4a302f5e51ca",
            "cls_01.vscn": "de6efcbc777ea56911e3055c04c513a9c193244e0d1481a0280cb01a677a1669",
            "embeddings.vscn": "6546c8f8cf6c99b088a47deb6b050bd6d5fa14573e87f1ccfefea5de61449ba5",
            "manifest.json": "a0923fe5c656e48a5aea84b2ddb4d0326206303bc9e42020d15df90a0b9b2429",
        }),
        (["--kind", "decoder", "--seed", "9", "--layers", "3", "--heads", "2",
          "--pre-text", "2", "--visual", "6", "--post-text", "3", "--bias", "2",
          "--visual-boost", "1"], {
            "layer_00.vscn": "8801b446b677dc9eae1a47777160959cee6b87931e4aeb8d23679e07e4de4f24",
            "layer_01.vscn": "f249ee6ffe9dd87e96a543d5f0529e085c105d266e772e460763de73679c2368",
            "layer_02.vscn": "c9e6f1491c442aaf8bae8cdffc52ff3a3660b11835943695eae225ee12743fb9",
            "manifest.json": "879bfef33a4bc84a3c7c696d5dd2f6f952caca9815cc93917c321089e5d48cc3",
        }),
    ], ids=["encoder", "encoder-cls-only", "decoder"])
    def test_bundle_bytes_pinned(self, capsys, tmp_path, flags, digests):
        # the bundle format is a contract: these bytes must never change
        assert run(capsys, "gen", *flags, "--out", tmp_path / "b")[0] == 0
        got = {name: hashlib.sha256(blob).hexdigest()
               for name, blob in bundle_bytes(tmp_path / "b").items()}
        assert got == digests

    def test_rewrite_leaves_only_the_new_bundle(self, capsys, tmp_path):
        gen = ["gen", "--kind", "encoder", "--seed", "7", "--grid", "4x4",
               "--heads", "2", "--out", tmp_path / "b"]
        assert run(capsys, *gen, "--layers", "4")[0] == 0
        assert run(capsys, *gen, "--layers", "2", "--cls-only")[0] == 0
        assert sorted(bundle_bytes(tmp_path / "b")) == [
            "cls_00.vscn", "cls_01.vscn", "embeddings.vscn", "manifest.json"]
        assert [p for p in (tmp_path / "b").iterdir() if p.is_dir()] == []

    @pytest.mark.parametrize("kind, flag, value, field", [
        ("decoder", "--bias", "inf", "bias"),
        ("decoder", "--visual-boost", "nan", "visual_boost"),
        ("encoder", "--locality", "-inf", "locality"),
    ])
    def test_non_finite_strength_named(self, capsys, tmp_path, kind, flag, value, field):
        # checked before any draw, so numpy never warns (a warning fails the test)
        code, _, err = run(capsys, "gen", "--kind", kind, "--seed", "1",
                           f"{flag}={value}", "--out", tmp_path / "b")
        assert code == 1
        assert err == f"error[gen]: {field}: must be finite, got {value}\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("grid", ["4x4", "1x1"])
    def test_overflowing_locality_named(self, capsys, tmp_path, grid):
        # finite, but the layer weight times the grid distance overflows
        code, _, err = run(capsys, "gen", "--kind", "encoder", "--seed", "1", "--grid",
                           grid, "--layers", "3", "--locality", "1e308", "--out", tmp_path / "b")
        assert code == 1
        assert err == ("error[gen]: locality: too large: a layer's weight times the "
                       "grid distance overflows, got 1e+308\n")
        assert not (tmp_path / "b").exists()

    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "encoder", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_bad_grid_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--kind", "encoder", "--seed", "1",
                           "--grid", "banana", "--out", tmp_path / "x")
        assert code == 1
        assert "grid" in err

    def test_out_is_a_file(self, capsys, tmp_path):
        (tmp_path / "taken").write_text("x")
        code, _, err = run(capsys, "gen", "--kind", "decoder", "--seed", "1",
                           "--out", tmp_path / "taken")
        assert code == 1
        assert err.startswith("error[gen]: out: ") and "Traceback" not in err


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

    @pytest.mark.parametrize("content", [
        b'{"retention": "\xff"}',  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested past the recursion limit
        b'{"n_text_total": ' + b"1" * 5000 + b"}",  # past the int digit limit
    ], ids=["not-utf8", "too-deep", "too-many-digits"])
    def test_unreadable_config_file_named(self, capsys, tmp_path, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        code, out, err = run(capsys, "pipeline", "--config", cfg_path)
        assert (code, out) == (1, "")
        assert err.startswith(
            f"pipeline failed at stage 'config': config: cannot read {cfg_path}: "
        )

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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_merge_named(self, capsys, small_world):
        # finite embeddings whose group sums overflow; every token ties, so
        # all merge into the lowest selected token
        (small_world / "enc" / "embeddings.vscn").unlink()
        write_tensor(small_world / "enc" / "embeddings.vscn", np.full((36, 8), 1e308))
        code, _, err = run(
            capsys, "pipeline",
            "--encoder-trace", small_world / "enc",
            "--decoder-trace", small_world / "dec",
            "--retention", "0.5", "--local-layer", "1",
            "--window-rows", "2", "--window-cols", "2",
            "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64",
            "--out", small_world / "run",
        )
        assert code == 1
        assert re.fullmatch(r"pipeline failed at stage 'merge': "
                            r"merged embedding of anchor token \d+ overflows\n", err)

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

    @pytest.mark.parametrize("reused", [False, True])
    @pytest.mark.parametrize("fail_at", ["write_report_csv", "third os.replace"])
    def test_failed_write_leaves_whole_artifacts(
        self, capsys, small_world, monkeypatch, reused, fail_at
    ):
        argv = ["pipeline", "--encoder-trace", small_world / "enc",
                "--decoder-trace", small_world / "dec", "--retention", "0.5",
                "--local-layer", "1", "--window-rows", "2", "--window-cols", "2",
                "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64"]
        assert run(capsys, *argv, "--out", small_world / "good")[0] == 0
        good = bundle_bytes(small_world / "good")
        out_dir = small_world / "run"
        if reused:
            shutil.copytree(small_world / "good", out_dir)
        if fail_at == "write_report_csv":
            def fail(*args):
                raise OSError("disk full")
            monkeypatch.setattr(cost_model, "write_report_csv", fail)
        else:
            calls, real_replace = [], os.replace

            def fail(src, dst):
                calls.append(dst)
                if len(calls) == 3:
                    raise OSError("disk full")
                real_replace(src, dst)
            monkeypatch.setattr(os, "replace", fail)
        code, out, err = run(capsys, *argv, "--out", out_dir)
        assert code == 1 and out == ""
        assert err == "pipeline failed at stage 'write': out_dir: disk full\n"
        left = bundle_bytes(out_dir)
        assert left == {k: good[k] for k in left}
        assert len(left) == (2 if fail_at == "third os.replace" else 5 if reused else 0)
        assert [p.name for p in out_dir.iterdir() if p.is_dir()] == []

    def test_out_is_a_file(self, capsys, small_world):
        (small_world / "taken").write_text("x")
        code, _, err = run(
            capsys, "pipeline", "--encoder-trace", small_world / "enc",
            "--decoder-trace", small_world / "dec", "--retention", "0.5",
            "--local-layer", "1", "--window-rows", "2", "--window-cols", "2",
            "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64",
            "--out", small_world / "taken",
        )
        assert code == 1
        assert err.startswith("pipeline failed at stage 'write': out_dir: ")
        assert "Traceback" not in err

    def test_decoder_retention_named(self, capsys, small_world):
        code, _, err = run(
            capsys, "pipeline", "--encoder-trace", small_world / "enc",
            "--decoder-trace", small_world / "dec", "--retention", "0.5",
            "--local-layer", "1", "--window-rows", "2", "--window-cols", "2",
            "--n-layers", "4", "--hidden-size", "32", "--ffn-size", "64",
            "--decoder-retention", "1.5", "--out", small_world / "run",
        )
        assert code == 1
        assert err == ("pipeline failed at stage 'config': "
                       "decoder_retention: must be in [0, 1], got 1.5\n")


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

    def test_flops_flags_override_preset(self, capsys):
        code_a, out_a, _ = run(capsys, "flops", "--preset", "llava15",
                               "--n-layers", "10", "--tokens", "576")
        code_b, out_b, _ = run(capsys, "flops", "--n-layers", "10", "--hidden-size",
                               "4096", "--ffn-size", "11008", "--tokens", "576")
        assert code_a == code_b == 0
        assert out_a == out_b != run(capsys, "flops", "--preset", "llava15",
                                     "--tokens", "576")[1]

    def test_flops_zero_dim_named(self, capsys):
        code, _, err = run(capsys, "flops", "--n-layers", "2", "--hidden-size", "4",
                           "--ffn-size", "0", "--tokens", "3")
        assert code == 1
        assert err == "error[flops]: ffn_size: must be >= 1, got 0\n"

    def test_flops_missing_dim_named(self, capsys):
        code, out, err = run(capsys, "flops", "--tokens", "576", "--n-layers", "32")
        assert (code, out) == (1, "")
        assert err == "error[flops]: hidden_size: required unless a preset supplies it\n"

    @pytest.mark.parametrize("tokens", ["-1", "nan", "inf"])
    def test_flops_token_count_must_be_finite(self, capsys, tokens):
        code, out, err = run(capsys, "flops", "--preset", "llava15", "--tokens", tokens)
        assert (code, out) == (1, "")
        assert err == ("error[flops]: tokens_per_layer: must be finite and >= 0, "
                       f"got {float(tokens)}\n")

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

    @pytest.mark.parametrize("value", ["5", "-0.5"])
    def test_budget_decoder_retention_out_of_range_named(self, capsys, value):
        code, out, err = run(capsys, "budget", "--target", "0.1",
                             "--decoder-retention", value,
                             "--prune-layer", "16", "--n-layers", "32")
        assert code == 1
        assert out == ""
        assert err.startswith("error[budget]: decoder_retention: must be in [0, 1]")


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

    def test_linked_layer_file_refused(self, capsys, tmp_path):
        for name in ("dec", "other"):
            write_decoder_bundle(uniform_decoder_trace(2, 1, 1, 4, 1), tmp_path / name)
        (tmp_path / "dec" / "layer_00.vscn").unlink()
        (tmp_path / "dec" / "layer_00.vscn").symlink_to(Path("..", "other", "layer_00.vscn"))
        code, out, err = run(capsys, "analyze", "attention-sum", "--trace", tmp_path / "dec")
        assert (code, out) == (1, "")
        assert err.startswith("error[analyze]: cannot read tensor file: ")
        assert "layer_00.vscn" in err

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

    def test_unreadable_manifest(self, capsys, tmp_path):
        (tmp_path / "dec" / "manifest.json").mkdir(parents=True)
        code, out, err = run(capsys, "analyze", "attention-sum", "--trace", tmp_path / "dec")
        assert (code, out) == (1, "")
        assert err.startswith("error[analyze]: cannot read manifest: ")
        assert "Traceback" not in err

    def test_out_in_missing_directory(self, capsys, tmp_path):
        write_decoder_bundle(uniform_decoder_trace(2, 1, 1, 4, 1), tmp_path / "dec")
        code, out, err = run(capsys, "analyze", "attention-sum",
                             "--trace", tmp_path / "dec",
                             "--out", tmp_path / "missing" / "sums.csv")
        assert code == 1
        assert out == ""
        assert err.startswith("error[analyze]: out: ") and "Traceback" not in err


def test_out_dir_env_override(capsys, tmp_path, monkeypatch):
    target = tmp_path / "via_env"
    monkeypatch.setenv("VTREDUCE_OUT_DIR", str(target))
    code, out, _ = run(capsys, "gen", "--kind", "decoder", "--seed", "1",
                       "--layers", "2", "--heads", "1", "--visual", "4")
    assert code == 0
    assert (target / "manifest.json").exists()
