"""The reduction pipeline as named stages, in order: ``config``,
``load-traces``, ``encoder-scan``, ``merge``, ``decoder-scores``, ``prune``,
``report`` and ``write``. A ``VtReduceError`` leaves ``run_pipeline`` with
the name of the stage that raised it in ``exc.stage``."""

import contextlib
import dataclasses
from pathlib import Path

from . import cost_model, decoder_prune, encoder_scan, trace_io
from .errors import ConfigError, VtReduceError, os_error_as

__all__ = ["run_pipeline"]


@contextlib.contextmanager
def _stage(name: str):
    """Tag a ``VtReduceError`` leaving the block with ``exc.stage`` (innermost wins)."""
    try:
        yield
    except VtReduceError as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise


def run_pipeline(cfg: dict):
    """Run every stage on ``cfg``, a dict keyed like a pipeline config file
    whose values the caller has type-checked; ``cfg`` itself is not changed.

    Returns ``(selection, profile, report, out_dir)``. The artifacts are
    written by ``trace_io.publish``: so an artifact in ``out_dir`` is either
    absent or complete, and never sits beside one of an earlier run.
    """
    with _stage("config"):
        cfg = cost_model.fill_preset(cfg)
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
        dims = cost_model.ModelDims(cfg["n_layers"], cfg["hidden_size"], cfg["ffn_size"])
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
        out_dir = Path(cfg.get("out_dir", "."))

    with _stage("load-traces"):
        encoder = trace_io.read_encoder_bundle(cfg["encoder_trace"])
        decoder = trace_io.read_decoder_bundle(cfg["decoder_trace"])
        if decoder.n_layers != dims.n_layers:
            raise ConfigError(
                "decoder_trace",
                f"trace has {decoder.n_layers} layers, n_layers says {dims.n_layers}",
            )

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
        scores = decoder_prune.text_attention_scores(decoder, cfg["prune_layer"])

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
