"""The reduction pipeline as named stages, in order: ``config``,
``load-traces``, ``encoder-scan``, ``merge``, ``decoder-scores``, ``prune``,
``report`` and ``write``. A ``VtReduceError`` leaves ``run_pipeline`` with
the name of the stage that raised it in ``exc.stage``. Config keys are checked
by ``FIELDS`` for CLI and Python callers alike."""

import contextlib
import dataclasses
import json
import os
from pathlib import Path

from . import cost_model, decoder_prune, encoder_scan, trace_io
from .errors import ConfigError, VtReduceError, os_error_as

__all__ = ["FIELDS", "run_pipeline"]

# The pipeline fields, in flag order: config key -> (type, flag help); the
# ScanConfig and ModelDims fields take their types from those classes. The CLI
# makes each row the flag --key-with-dashes (out_dir is --out), and a value
# must have the row's type. ``T | None`` fields also take None, read as unset.
_HELP = {"preset": "model preset name", "retention": "encoder-stage retention",
         "target_average": "solve the encoder retention for this average",
         "out_dir": "artifact directory"}
FIELDS = {key: (kind, _HELP.get(key)) for key, kind in {
    "preset": str | None,
    "encoder_trace": str | os.PathLike,
    "decoder_trace": str | os.PathLike,
    **{f.name: f.type for f in dataclasses.fields(encoder_scan.ScanConfig)},
    "target_average": float,
    "decoder_retention": float,
    "prune_layer": int,
    **{f.name: f.type for f in dataclasses.fields(cost_model.ModelDims)},
    "n_text_total": int,
    "out_dir": str | os.PathLike,
}.items()}


@contextlib.contextmanager
def _stage(name: str):
    """Tag a ``VtReduceError`` leaving the block with ``exc.stage`` (innermost wins)."""
    try:
        yield
    except VtReduceError as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise


def _check_type(key, value) -> None:
    """A config value must have its row's type; a bool is never a number."""
    if key not in FIELDS:
        raise ConfigError(key, "unknown config field")
    kind = FIELDS[key][0]
    accepted = int | float if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        name = getattr(kind, "__name__", kind)  # "int", or "str | os.PathLike"
        try:
            shown = json.dumps(value)
        except (TypeError, ValueError):  # not a JSON value, e.g. a numpy scalar
            shown = repr(value)
        raise ConfigError(key, f"expected {name}, got {shown}")


def run_pipeline(cfg: dict):
    """Run every stage on ``cfg``, a dict keyed as ``FIELDS``; it is not changed.

    Returns ``(selection, profile, report, out_dir)``. The artifacts are
    written by ``trace_io.publish``: so an artifact in ``out_dir`` is either
    absent or complete, and never sits beside one of an earlier run.
    """
    with _stage("config"):
        for key, value in cfg.items():
            _check_type(key, value)
        cfg = cost_model.fill_preset(cfg)
        for key in ("encoder_trace", "decoder_trace"):
            if key not in cfg:
                raise ConfigError(key, "required (config file or flag)")
        dims = cost_model.config_dims(cfg)
        if "retention" in cfg and "target_average" in cfg:
            raise ConfigError(
                "target_average", "give either retention or target_average, not both"
            )
        cfg.setdefault("decoder_retention", 0.333)
        cfg.setdefault("prune_layer", max(1, dims.n_layers // 2))
        prune_cfg = decoder_prune.PruneConfig(
            cfg["prune_layer"], cfg["decoder_retention"], cfg["n_layers"]
        )
        if "target_average" in cfg:
            cfg["retention"] = cost_model.solve_encoder_retention(
                cfg["target_average"], cfg["decoder_retention"],
                cfg["prune_layer"], cfg["n_layers"],
            )
        cfg.setdefault("retention", 1.0)
        # a ScanConfig field that cfg leaves unset takes its ScanConfig default
        scan_keys = {f.name for f in dataclasses.fields(encoder_scan.ScanConfig)}
        scan_cfg = encoder_scan.ScanConfig(**{k: cfg[k] for k in scan_keys if k in cfg})
        out_dir = Path(cfg.get("out_dir", "."))

    with _stage("load-traces"):
        # only the layers the scan scores are read, and it runs on them
        encoder = trace_io.read_encoder_bundle(
            cfg["encoder_trace"], layers=scan_cfg.read_layers
        )
        scan_cfg = scan_cfg.on_read_layers(encoder)

        def prune_layer_only(stack, n_layers):
            if n_layers != dims.n_layers:
                raise ConfigError(
                    "decoder_trace",
                    f"trace has {n_layers} layers, n_layers says {dims.n_layers}",
                )
            return (cfg["prune_layer"],)
        # and of the decoder only the pruning layer, which scores as layer 1
        decoder = trace_io.read_decoder_bundle(cfg["decoder_trace"], layers=prune_layer_only)

    with _stage("encoder-scan"):
        selection = encoder_scan.select_tokens(encoder, scan_cfg)

    with _stage("merge"):
        selection = encoder_scan.merge_tokens(encoder.embeddings, selection)
        n_merged = len(selection.selected)
        if decoder.n_visual != n_merged:
            raise ConfigError(
                "decoder_trace",
                f"trace carries {decoder.n_visual} visual tokens but the scan "
                f"kept {n_merged}; regenerate with --visual {n_merged}",
            )

    with _stage("decoder-scores"):
        scores = decoder_prune.text_attention_scores(decoder, 1)

    with _stage("prune"):
        profile = decoder_prune.prune_at_layer(scores, prune_cfg, n_merged)

    with _stage("report"):
        n_text = cfg.get("n_text_total", decoder.n_pre_text + decoder.n_post_text)
        report = cost_model.build_report(selection, profile, dims, n_text)

    with _stage("write"), os_error_as("out_dir"), trace_io.publish(out_dir) as staging:
        encoder_scan.write_selection(selection, staging)
        trace_io.write_json(staging / "profile.json", dataclasses.asdict(profile))
        cost_model.write_report_csv(report, staging / "cost_report.csv")
        cost_model.write_report_summary(report, staging / "cost_summary.json")
    return selection, profile, report, out_dir
