"""Command line entry point.

Subcommands:
    gen        write a synthetic encoder or decoder trace bundle
    pipeline   run scan -> merge -> prune -> cost report on trace bundles
    flops      prefill FLOPs at a uniform visual-token count
    budget     encoder retention needed for a target average retention
    analyze    bias-histogram / attention-sum CSVs from a decoder trace

Exit codes: 0 ok, 1 domain error (bad trace, infeasible budget, bad
config), 2 usage error. The environment variable VTREDUCE_OUT_DIR, read
at each ``main`` call, sets the output directory of ``gen`` and
``pipeline`` when ``--out`` does not; for ``pipeline`` it overrides the
config file's ``out_dir``.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing
from pathlib import Path

from . import analysis, cost_model, encoder_scan, pipeline, trace_io
from .errors import ConfigError, VtReduceError, os_error_as

OUT_DIR_ENV = "VTREDUCE_OUT_DIR"


def _add_fields(parser, keys, **kwargs) -> None:
    """Add the flags of the table rows ``keys`` to ``parser``."""
    for key in keys:
        kind, help_text = pipeline.FIELDS[key]
        parser.add_argument(
            "--out" if key == "out_dir" else "--" + key.replace("_", "-"),
            dest=key,
            type=(typing.get_args(kind) or (kind,))[0],
            choices=encoder_scan.SCORE_SOURCES if key == "score_source" else None,
            help=help_text,
            **kwargs,
        )


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ConfigError("grid", f"expected HxW, got {text!r}") from None


def _cmd_gen(args) -> int:
    if args.out_dir is None:  # neither --out nor VTREDUCE_OUT_DIR
        raise ConfigError("out", "no output directory given")
    if args.kind == "encoder":
        grid_h, grid_w = _parse_grid(args.grid)
        trace = trace_io.generate_synthetic_encoder(
            seed=args.seed, grid_h=grid_h, grid_w=grid_w, n_layers=args.layers,
            n_heads=args.heads, embed_dim=args.embed_dim,
            locality_strength=args.locality, include_self_attention=not args.cls_only,
        )
        write = trace_io.write_encoder_bundle
    else:
        trace = trace_io.generate_synthetic_decoder(
            seed=args.seed, n_layers=args.layers, n_heads=args.heads,
            n_pre_text=args.pre_text, n_visual=args.visual, n_post_text=args.post_text,
            position_bias_strength=args.bias, visual_boost_strength=args.visual_boost,
        )
        write = trace_io.write_decoder_bundle
    with os_error_as("out"):
        manifest = write(trace, args.out_dir)
    print(manifest)
    return 0


def _load_pipeline_config(args) -> dict:
    """The config file's fields under the flags that are set, unchecked."""
    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        # ValueError also covers bad UTF-8 and integers past Python's digit limit
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config", "top level must be a JSON object")
    cfg.update({k: v for k in pipeline.FIELDS if (v := getattr(args, k)) is not None})
    return cfg


def _cmd_pipeline(args) -> int:
    try:
        cfg = _load_pipeline_config(args)
        selection, profile, report, out_dir = pipeline.run_pipeline(cfg)
    except VtReduceError as exc:  # no exc.stage: reading the config file
        print(f"pipeline failed at stage {getattr(exc, 'stage', 'config')!r}: {exc}",
              file=sys.stderr)
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


def _cmd_flops(args) -> int:
    # flags > preset, as for pipeline
    cfg = cost_model.fill_preset({k: v for k, v in vars(args).items() if v is not None})
    dims = cost_model.config_dims(cfg)
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
    if args.what == "attention-sum":
        result = analysis.attention_sum_per_layer(trace_io.read_decoder_bundle(args.trace))
        write = analysis.write_attention_sums_csv
    else:
        # only the scored layer is read, so a --layer past the bundle's
        # depth fails the read, before any other check
        trace = trace_io.read_decoder_bundle(
            args.trace, layers=lambda stack, depth: (args.layer,))
        grid_h, grid_w = _parse_grid(args.grid)
        result = analysis.position_bias_histogram(trace, 1, args.retention, grid_h, grid_w)
        result = dataclasses.replace(result, layer=args.layer)
        write = analysis.write_bias_histogram_csv
    with os_error_as("out"):
        write(result, sys.stdout if args.out is None else args.out)
    if args.out is not None:
        print(args.out)
    return 0


@functools.cache  # built once per process; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtreduce",
        description="Two-stage visual token reduction over attention traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic trace bundle")
    gen.add_argument("--kind", choices=["encoder", "decoder"], required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", dest="out_dir", help="bundle directory")
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
    _add_fields(pipe, pipeline.FIELDS)
    pipe.set_defaults(func=_cmd_pipeline)

    flops = sub.add_parser("flops", help="prefill FLOPs at a uniform token count")
    dims = [f.name for f in dataclasses.fields(cost_model.ModelDims)]
    _add_fields(flops, ("preset", *dims))
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
    if args.command in ("gen", "pipeline") and args.out_dir is None:
        args.out_dir = os.environ.get(OUT_DIR_ENV) or None
    try:
        return args.func(args)
    except VtReduceError as exc:
        print(f"error[{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
