"""Command line entry point.

Subcommands:
    gen        write a synthetic encoder or decoder trace bundle
    pipeline   run scan -> merge -> prune -> cost report on trace bundles
    flops      prefill FLOPs at a uniform visual-token count
    budget     encoder retention needed for a target average retention
    analyze    bias-histogram / attention-sum CSVs from a decoder trace

Exit codes: 0 ok, 1 domain error (bad trace, infeasible budget, bad
config), 2 usage error. The environment variable VTREDUCE_OUT_DIR
overrides output directories that were not set explicitly on the command
line.
"""

import argparse
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

from . import analysis, cost_model, decoder_prune, encoder_scan, trace_io
from .errors import ConfigError, VtReduceError

OUT_DIR_ENV = "VTREDUCE_OUT_DIR"

# The pipeline fields, in flag order: config key -> (type, flag help). Each
# row gives the flag --key-with-dashes (out_dir is --out) and the type a
# config-file value must have. ``T | None`` fields also take JSON null,
# read as unset. Defaults live in ScanConfig, the preset and
# _load_pipeline_config, not here.
_PIPELINE_FIELDS = {
    "preset": (str | None, "model preset name"),
    "encoder_trace": (str, None),
    "decoder_trace": (str, None),
    "retention": (float, "encoder-stage retention"),
    "target_average": (float, "solve the encoder retention for this average"),
    "global_fraction": (float, None),
    "local_layer": (int, None),
    "output_layer": (int | None, None),
    "window_rows": (int, None),
    "window_cols": (int, None),
    "score_source": (str, None),
    "decoder_retention": (float, None),
    "prune_layer": (int, None),
    "n_layers": (int, None),
    "hidden_size": (int, None),
    "ffn_size": (int, None),
    "n_text_total": (int, None),
    "out_dir": (str, "artifact directory"),
}


def _add_fields(parser, keys, **kwargs) -> None:
    """Add the flags of the table rows ``keys`` to ``parser``."""
    for key in keys:
        kind, help_text = _PIPELINE_FIELDS[key]
        parser.add_argument(
            "--out" if key == "out_dir" else "--" + key.replace("_", "-"),
            dest=key,
            type=(typing.get_args(kind) or (kind,))[0],
            choices=encoder_scan.SCORE_SOURCES if key == "score_source" else None,
            help=help_text,
            **kwargs,
        )


def _check_type(key: str, value) -> None:
    """A config value must have its row's type; a bool is never a number."""
    kind = _PIPELINE_FIELDS[key][0]
    accepted = int | float if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        name = getattr(kind, "__name__", kind)  # "int", or "int | None"
        raise ConfigError(key, f"expected {name}, got {json.dumps(value)}")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ConfigError("grid", f"expected HxW, got {text!r}") from None


def _resolve_out(flag_value, fallback=None):
    if flag_value is not None:
        return Path(flag_value)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    if fallback is not None:
        return Path(fallback)
    raise ConfigError("out", "no output directory given")


def _cmd_gen(args) -> int:
    out = _resolve_out(args.out)
    if args.kind == "encoder":
        grid_h, grid_w = _parse_grid(args.grid)
        trace = trace_io.generate_synthetic_encoder(
            seed=args.seed, grid_h=grid_h, grid_w=grid_w, n_layers=args.layers,
            n_heads=args.heads, embed_dim=args.embed_dim,
            locality_strength=args.locality, include_self_attention=not args.cls_only,
        )
        manifest = trace_io.write_encoder_bundle(trace, out)
    else:
        trace = trace_io.generate_synthetic_decoder(
            seed=args.seed, n_layers=args.layers, n_heads=args.heads,
            n_pre_text=args.pre_text, n_visual=args.visual, n_post_text=args.post_text,
            position_bias_strength=args.bias, visual_boost_strength=args.visual_boost,
        )
        manifest = trace_io.write_decoder_bundle(trace, out)
    print(manifest)
    return 0


def _preset(name: str) -> cost_model.ModelPreset:
    if name not in cost_model.MODEL_PRESETS:
        have = sorted(cost_model.MODEL_PRESETS)
        raise ConfigError("preset", f"unknown preset {name!r}, have {have}")
    return cost_model.MODEL_PRESETS[name]


def _load_pipeline_config(args) -> dict:
    cfg: dict = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top level must be a JSON object")
        for key, value in loaded.items():
            if key not in _PIPELINE_FIELDS:
                raise ConfigError(key, "unknown config field")
            _check_type(key, value)
        cfg.update(loaded)
    flags = {key: getattr(args, key) for key in _PIPELINE_FIELDS}
    cfg.update({k: v for k, v in flags.items() if v is not None})

    if cfg.get("preset") is not None:
        # the preset's dims, local_layer and prune_layer fill what cfg leaves unset
        preset = dataclasses.asdict(_preset(cfg["preset"]))
        cfg = {**preset.pop("dims"), **preset, **cfg}

    for key in ("encoder_trace", "decoder_trace"):
        if key not in cfg:
            raise ConfigError(key, "required (config file or flag)")
    for key in ("n_layers", "hidden_size", "ffn_size"):
        if key not in cfg:
            raise ConfigError(key, "required unless a preset supplies it")
    if "retention" in cfg and "target_average" in cfg:
        raise ConfigError(
            "target_average", "give either retention or target_average, not both"
        )
    cfg.setdefault("decoder_retention", 0.333)
    cfg.setdefault("prune_layer", max(1, cfg["n_layers"] // 2))
    return cfg


def _cmd_pipeline(args) -> int:
    stage = "config"
    try:
        cfg = _load_pipeline_config(args)
        dims = cost_model.ModelDims(
            cfg["n_layers"], cfg["hidden_size"], cfg["ffn_size"]
        )
        prune_cfg = decoder_prune.PruneConfig(
            cfg["prune_layer"], cfg["decoder_retention"], cfg["n_layers"]
        )
        retention = cfg.get("retention", 1.0)
        if "target_average" in cfg:
            retention = cost_model.solve_encoder_retention(
                cfg["target_average"], cfg["decoder_retention"],
                cfg["prune_layer"], cfg["n_layers"],
            )
        # every other ScanConfig field takes its default unless cfg sets it
        scan_keys = {f.name for f in dataclasses.fields(encoder_scan.ScanConfig)}
        scan_cfg = encoder_scan.ScanConfig(
            retention=retention,
            **{k: cfg[k] for k in scan_keys - {"retention"} if k in cfg},
        )
        out_dir = _resolve_out(args.out_dir, fallback=cfg.get("out_dir", "."))

        stage = "load-traces"
        encoder = trace_io.read_encoder_bundle(cfg["encoder_trace"])
        decoder = trace_io.read_decoder_bundle(cfg["decoder_trace"])
        if decoder.n_layers != dims.n_layers:
            raise ConfigError(
                "decoder_trace",
                f"trace has {decoder.n_layers} layers, n_layers says {dims.n_layers}",
            )

        stage = "encoder-scan"
        selection = encoder_scan.select_tokens(encoder, scan_cfg)

        stage = "merge"
        selection = encoder_scan.merge_tokens(encoder.embeddings, selection)
        n_merged = len(selection.selected)
        if decoder.n_visual != n_merged:
            raise ConfigError(
                "decoder_trace",
                f"trace carries {decoder.n_visual} visual tokens but the scan "
                f"kept {n_merged}; regenerate with --visual {n_merged}",
            )

        stage = "decoder-scores"
        scores = decoder_prune.text_attention_scores(decoder, cfg["prune_layer"])

        stage = "prune"
        profile = decoder_prune.prune_at_layer(scores, prune_cfg, n_merged)

        stage = "report"
        n_text = cfg.get("n_text_total", decoder.n_pre_text + decoder.n_post_text)
        report = cost_model.build_report(selection, profile, dims, n_text)

        stage = "write"
        out_dir.mkdir(parents=True, exist_ok=True)
        encoder_scan.write_selection(selection, out_dir)
        trace_io.write_json(out_dir / "profile.json", dataclasses.asdict(profile))
        cost_model.write_report_csv(report, out_dir / "cost_report.csv")
        cost_model.write_report_summary(report, out_dir / "cost_summary.json")
    except VtReduceError as exc:
        print(f"pipeline failed at stage {stage!r}: {exc}", file=sys.stderr)
        return 1

    print(f"selected {len(selection.selected)}/{selection.n_tokens} tokens "
          f"({len(selection.global_indices)} global + "
          f"{len(selection.local_indices)} local), "
          f"{len(profile.retained)} retained after layer {profile.prune_layer}")
    print(f"total FLOPs {report.total_flops:.6e} "
          f"(uniform convention {report.total_flops_uniform:.6e}), "
          f"speedup {report.prefill_speedup_estimate:.3f}, "
          f"KV fraction {report.kv_fraction:.4f}")
    print(out_dir / "cost_summary.json")
    return 0


def _dims_from_args(args) -> cost_model.ModelDims:
    if args.preset is not None:
        return _preset(args.preset).dims
    if None in (args.n_layers, args.hidden_size, args.ffn_size):
        raise ConfigError(
            "preset", "need --preset or all of --n-layers/--hidden-size/--ffn-size"
        )
    return cost_model.ModelDims(args.n_layers, args.hidden_size, args.ffn_size)


def _cmd_flops(args) -> int:
    dims = _dims_from_args(args)
    total = cost_model.flops_total([args.tokens] * dims.n_layers, dims)
    print(f"{total:.6e}")
    return 0


def _cmd_budget(args) -> int:
    value = cost_model.solve_encoder_retention(
        args.target, args.decoder_retention, args.prune_layer, args.n_layers
    )
    print(f"{value:.6g}")
    return 0


def _cmd_analyze(args) -> int:
    trace = trace_io.read_decoder_bundle(args.trace)
    if args.what == "attention-sum":
        result = analysis.attention_sum_per_layer(trace)
        write = analysis.write_attention_sums_csv
    else:
        grid_h, grid_w = _parse_grid(args.grid)
        result = analysis.position_bias_histogram(
            trace, args.layer, args.retention, grid_h, grid_w
        )
        write = analysis.write_bias_histogram_csv
    write(result, sys.stdout if args.out is None else args.out)
    if args.out is not None:
        print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtreduce",
        description="Two-stage visual token reduction over attention traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic trace bundle")
    gen.add_argument("--kind", choices=["encoder", "decoder"], required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", help="bundle directory")
    gen.add_argument("--layers", type=int, default=12)
    gen.add_argument("--heads", type=int, default=4)
    gen.add_argument("--grid", default="6x6", help="encoder patch grid, HxW")
    gen.add_argument("--embed-dim", type=int, default=32)
    gen.add_argument("--locality", type=float, default=0.0,
                     help="encoder distance-decay strength at layer 1")
    gen.add_argument("--cls-only", action="store_true",
                     help="skip self-attention arrays (smaller bundles)")
    gen.add_argument("--pre-text", type=int, default=4)
    gen.add_argument("--visual", type=int, default=36)
    gen.add_argument("--post-text", type=int, default=8)
    gen.add_argument("--bias", type=float, default=0.0,
                     help="decoder early-layer recency strength")
    gen.add_argument("--visual-boost", type=float, default=0.0,
                     help="decoder mid-layer visual logit bonus")
    gen.set_defaults(func=_cmd_gen)

    pipe = sub.add_parser("pipeline", help="run the full reduction pipeline")
    pipe.add_argument("--config", help="JSON config file")
    _add_fields(pipe, _PIPELINE_FIELDS)
    pipe.set_defaults(func=_cmd_pipeline)

    flops = sub.add_parser("flops", help="prefill FLOPs at a uniform token count")
    _add_fields(flops, ("preset", "n_layers", "hidden_size", "ffn_size"))
    flops.add_argument("--tokens", type=float, required=True)
    flops.set_defaults(func=_cmd_flops)

    budget = sub.add_parser("budget", help="solve the encoder retention")
    budget.add_argument("--target", type=float, required=True)
    _add_fields(budget, ("decoder_retention", "prune_layer", "n_layers"), required=True)
    budget.set_defaults(func=_cmd_budget)

    analyze = sub.add_parser("analyze", help="decoder-trace measurements")
    analyze.add_argument("what", choices=["attention-sum", "bias-histogram"])
    analyze.add_argument("--trace", required=True)
    analyze.add_argument("--out", help="CSV path (stdout when omitted)")
    analyze.add_argument("--layer", type=int, default=1)
    analyze.add_argument("--retention", type=float, default=0.5)
    analyze.add_argument("--grid", default="6x6")
    analyze.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VtReduceError as exc:
        print(f"error[{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
