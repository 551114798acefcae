import importlib
import os
from pathlib import Path

import numpy as np
import pytest

from vtreduce import ConfigError, FormatError, read_encoder_bundle, run_pipeline
from vtreduce.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def small_cfg(world, **overrides):
    cfg = {"encoder_trace": str(world / "enc"), "decoder_trace": str(world / "dec"),
           "retention": 0.5, "local_layer": 1, "window_rows": 2, "window_cols": 2,
           "decoder_retention": 0.5, "prune_layer": 2, "n_layers": 4,
           "hidden_size": 32, "ffn_size": 64, "out_dir": str(world / "run")}
    return {**cfg, **overrides}


def artifact_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(Path(path).iterdir())}


def test_library_run_matches_cli(capsys, small_world):
    cfg = small_cfg(small_world)
    given = dict(cfg)
    selection, profile, report, out_dir = run_pipeline(cfg)
    assert cfg == given  # the caller's dict is not changed
    assert out_dir == small_world / "run"
    assert (len(selection.selected), len(profile.retained)) == (18, 9)
    assert report.n_visual_original == 36
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in cfg.items() if k != "out_dir"]
    assert main(["pipeline", *flags, "--out", str(small_world / "cli")]) == 0
    assert artifact_bytes(out_dir) == artifact_bytes(small_world / "cli")


@pytest.mark.parametrize("stage, overrides, error", [
    ("config", {"preset": "nope"}, ConfigError),
    ("config", {"decoder_trace": None}, ConfigError),
    ("load-traces", {"encoder_trace": "missing"}, FormatError),
    ("merge", {"retention": 0.25}, ConfigError),
    ("write", {"out_dir": "taken"}, ConfigError),
    ("load-traces", {"decoder_trace": "unreadable"}, FormatError),
    ("config", {"n_layers": None}, ConfigError),
    ("config", {"retention": 0.0}, ConfigError),
    ("config", {"retention": 1.5}, ConfigError),
    ("config", {"global_fraction": -0.1}, ConfigError),
    ("config", {"global_fraction": 1.1}, ConfigError),
    ("config", {"local_layer": 0}, ConfigError),
    ("config", {"output_layer": 0}, ConfigError),
    ("config", {"window_rows": 0}, ConfigError),
    ("config", {"window_cols": 0}, ConfigError),
    ("config", {"score_source": "bogus"}, ConfigError),
    ("config", {"target_average": 0.2}, ConfigError),  # beside retention 0.5
])
def test_errors_name_their_stage(small_world, monkeypatch, stage, overrides, error):
    monkeypatch.chdir(small_world)
    (small_world / "taken").write_text("x")
    (small_world / "unreadable" / "manifest.json").mkdir(parents=True)
    cfg = {k: v for k, v in small_cfg(small_world, **overrides).items()
           if v is not None}
    with pytest.raises(error) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == stage
    if stage == "config":
        assert exc.value.field in overrides


@pytest.mark.parametrize("key, value", [
    ("retention", "0.5"),
    ("local_layer", "1"),
    ("n_layers", "4"),
    ("window_rows", 2.0),
    ("window_rows", True),
    ("decoder_retention", None),
    ("prune_layer", 2.0),
    ("output_layer", 3.0),
    ("prune_layer", np.int64(2)),
    ("retention", Path("0.5")),
    ("preset", Path("llava15")),
    ("bogus_key", 1),
])
def test_mistyped_value_is_a_config_error(small_world, key, value):
    cfg = small_cfg(small_world, **{key: value})
    message = f"^{key}: (expected|unknown config field)"
    with pytest.raises(ConfigError, match=message) as exc:
        run_pipeline(cfg)
    assert (exc.value.field, exc.value.stage) == (key, "config")
    assert not (small_world / "run").exists()


def test_path_values_give_the_same_artifacts(small_world):
    run_pipeline(small_cfg(small_world))
    paths = {"encoder_trace": small_world / "enc", "decoder_trace": small_world / "dec",
             "out_dir": small_world / "p"}
    assert run_pipeline(small_cfg(small_world, **paths))[3] == small_world / "p"
    assert artifact_bytes(small_world / "p") == artifact_bytes(small_world / "run")


def test_benchmark_tracer_sees_every_stage(small_world, monkeypatch):
    # perfbench records spans by rebinding module attributes, so every stage
    # function must be called through its module at call time
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in small_cfg(small_world).items()
             if k != "out_dir"]
    gen = ["gen", "--seed", "5", "--layers", "2", "--heads", "1", "--grid", "2x2",
           "--visual", "4"]
    chains = [  # (commands run in turn, spans they must record)
        ([["pipeline", *flags, "--out", str(small_world / "traced")]], {
            "trace_io.read_encoder_bundle", "trace_io.read_decoder_bundle",
            "encoder_scan.select_tokens", "encoder_scan.merge_tokens",
            "encoder_scan.write_selection", "decoder_prune.text_attention_scores",
            "decoder_prune.prune_at_layer", "cost_model.build_report",
            "cost_model.write_report",
        }),
        ([[*gen, "--kind", "encoder", "--out", str(small_world / "gen-enc")],
          [*gen, "--kind", "decoder", "--out", str(small_world / "gen-dec")],
          ["analyze", "attention-sum", "--trace", str(small_world / "gen-dec"),
           "--out", str(small_world / "sums.csv")]], {
            "trace_io.write_encoder_bundle", "trace_io.write_decoder_bundle",
            "trace_io.read_decoder_bundle", "analysis.write_csv",
        }),
    ]
    try:
        for op, (commands, _) in enumerate(chains):
            tracer.install(op)
            for argv in commands:
                assert main(argv) == 0
    finally:
        tracer.uninstall()
    for op, (_, expected) in enumerate(chains):
        assert expected <= {span[0] for span in tracer.spans if span[4] == op}


def test_failed_write_leaves_no_file_of_an_earlier_run(small_world, monkeypatch):
    # the earlier run in "run" kept 18 visual tokens; this config keeps 9
    assert main(["gen", "--kind", "decoder", "--seed", "4", "--layers", "4",
                 "--heads", "2", "--pre-text", "3", "--visual", "9",
                 "--post-text", "5", "--out", str(small_world / "dec9")]) == 0
    cfg = small_cfg(small_world, retention=0.25, decoder_trace=str(small_world / "dec9"))
    run_pipeline(small_cfg(small_world))
    run_pipeline({**cfg, "out_dir": str(small_world / "good")})
    good = artifact_bytes(small_world / "good")
    calls, real_replace = [], os.replace

    def fail(src, dst):
        calls.append(dst)
        if len(calls) == 3:
            raise OSError("disk full")
        real_replace(src, dst)
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(ConfigError, match="out_dir: disk full") as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "write"
    left = artifact_bytes(small_world / "run")
    assert len(left) == 2 and left == {k: good[k] for k in left}


def test_run_into_a_bundle_keeps_the_bundle(small_world):
    bundle = artifact_bytes(small_world / "enc")
    trace = read_encoder_bundle(small_world / "enc")
    run_pipeline(small_cfg(small_world, out_dir=str(small_world / "enc")))
    left = artifact_bytes(small_world / "enc")
    assert set(left) == set(bundle) | {"cost_report.csv", "cost_summary.json",
                                       "merged_embeddings.vscn", "profile.json",
                                       "selection.json"}
    assert {k: left[k] for k in bundle} == bundle
    back = read_encoder_bundle(small_world / "enc")
    assert np.array_equal(back.cls_attention, trace.cls_attention)


def test_gen_into_a_run_keeps_the_run(small_world):
    run_pipeline(small_cfg(small_world))
    run = artifact_bytes(small_world / "run")
    gen = ["gen", "--kind", "encoder", "--seed", "7", "--grid", "4x4", "--heads", "2",
           "--out", str(small_world / "run")]
    assert main([*gen, "--layers", "4"]) == 0
    assert main([*gen, "--layers", "2", "--cls-only"]) == 0  # a rewrite too
    left = artifact_bytes(small_world / "run")
    assert set(left) == set(run) | {"cls_00.vscn", "cls_01.vscn", "embeddings.vscn",
                                    "manifest.json"}
    assert {k: left[k] for k in run} == run
    assert read_encoder_bundle(small_world / "run").n_layers == 2
