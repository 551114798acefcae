"""Measurements over decoder traces: position-bias histograms and per-layer
visual attention sums, with fixed-schema CSV output to a path or an open
text stream.

CSV schemas (column order is part of the interface):
    bias_histogram.csv   layer,row,col,count
    attention_sums.csv   layer,head,sum
"""

from dataclasses import dataclass

import numpy as np

from .decoder_prune import text_attention_scores
from .errors import ConfigError, LayoutError
from .numerics import round_half_up, top_k_indices
from .trace_io import DecoderTrace, write_csv

__all__ = [
    "BiasHistogram",
    "AttentionSumCurve",
    "position_bias_histogram",
    "attention_sum_per_layer",
    "write_bias_histogram_csv",
    "write_attention_sums_csv",
]


@dataclass
class BiasHistogram:
    """Grid counts of the tokens a given layer's attention would retain."""

    layer: int
    retention: float
    counts: np.ndarray  # (grid_h, grid_w) integer counts
    retained: list[int]  # ascending visual-token indices


@dataclass
class AttentionSumCurve:
    """Visual attention mass of the last instruction token, per layer."""

    per_head: np.ndarray  # (n_layers, n_heads)
    head_mean: np.ndarray  # (n_layers,)


def position_bias_histogram(
    trace: DecoderTrace,
    layer: int,
    retention: float,
    grid_h: int,
    grid_w: int,
) -> BiasHistogram:
    """Bin the top-``retention`` tokens at a 1-based layer by grid cell.

    Selection uses the same head-averaged score and top-k path as the
    pruning stage, so at equal retention the two retain identical sets.
    """
    if not 0.0 < retention <= 1.0:
        raise ConfigError("retention", f"must be in (0, 1], got {retention}")
    if grid_h * grid_w != trace.n_visual:
        raise LayoutError(
            f"grid {grid_h}x{grid_w} does not cover {trace.n_visual} visual tokens"
        )
    scores = text_attention_scores(trace, layer)
    budget = round_half_up(retention * trace.n_visual)
    retained = top_k_indices(scores, budget)
    counts = np.bincount(retained, minlength=grid_h * grid_w).reshape(grid_h, grid_w)
    return BiasHistogram(
        layer=layer, retention=retention, counts=counts, retained=retained
    )


def attention_sum_per_layer(trace: DecoderTrace) -> AttentionSumCurve:
    """Sum the last-instruction row over the visual span, per layer and head."""
    start, stop = trace.visual_span
    per_head = trace.last_instr_attention[:, :, start:stop].sum(axis=2)
    return AttentionSumCurve(per_head=per_head, head_mean=per_head.mean(axis=1))


def write_bias_histogram_csv(hist: BiasHistogram, path) -> None:
    rows = [[hist.layer, r, c, int(n)] for (r, c), n in np.ndenumerate(hist.counts)]
    write_csv(path, ["layer", "row", "col", "count"], rows)


def write_attention_sums_csv(curve: AttentionSumCurve, path) -> None:
    rows = [[i + 1, h, f"{v:.12g}"] for (i, h), v in np.ndenumerate(curve.per_head)]
    write_csv(path, ["layer", "head", "sum"], rows)
