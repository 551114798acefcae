"""Stage 2: text-aware pruning of merged visual tokens at a middle layer.

The attention row of the last instruction token is sliced to the visual
span and head-averaged; the top tokens by that score survive from the
pruning layer on. The per-layer token counts feed the cost model: the
pruning layer itself still attends over the full merged set (its attention
is what the scores are read from), so counts drop strictly after it. A
direct consequence is that the layer-weighted average retention equals
``(k + (K - k) * R) / K`` of the merged count for pruning layer k of K and
retention R, which is what the budget arithmetic in the cost model assumes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LayoutError, ShapeError
from .numerics import as_array, round_half_up, top_k_indices
from .trace_io import DecoderTrace

__all__ = [
    "PruneConfig",
    "LayerTokenProfile",
    "text_attention_scores",
    "prune_at_layer",
    "kv_cache_entries",
]


@dataclass(frozen=True)
class PruneConfig:
    """``prune_layer`` is 1-based; ``retention`` is the kept fraction of
    merged visual tokens; ``n_layers`` is the decoder depth."""

    prune_layer: int
    retention: float
    n_layers: int

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigError("n_layers", f"must be >= 1, got {self.n_layers}")
        if self.n_layers > 2**53:  # see ModelDims
            raise ConfigError("n_layers", f"must be <= 2**53, got {self.n_layers}")
        if not 1 <= self.prune_layer <= self.n_layers:
            raise ConfigError(
                "prune_layer", f"must be in [1, {self.n_layers}], got {self.prune_layer}"
            )
        if not 0.0 <= self.retention <= 1.0:
            raise ConfigError("decoder_retention", f"must be in [0, 1], got {self.retention}")


@dataclass
class LayerTokenProfile:
    """Visual-token count per decoder layer plus the surviving indices.

    ``counts[j]`` is the visual tokens attended at 1-based layer j+1:
    the full merged count through the pruning layer, the retained count
    after it.
    """

    counts: list[int]
    retained: list[int]
    n_merged: int
    prune_layer: int

    @property
    def n_layers(self) -> int:
        return len(self.counts)


def text_attention_scores(trace: DecoderTrace, layer: int) -> np.ndarray:
    """Head-averaged last-instruction attention over the trace's visual
    block; ``layer`` is 1-based."""
    if not 1 <= layer <= trace.n_layers:
        raise LayoutError(f"layer {layer} outside [1, {trace.n_layers}]")
    start, stop = trace.visual_span
    return trace.last_instr_attention[layer - 1, :, start:stop].mean(axis=0)


def prune_at_layer(scores, cfg: PruneConfig, n_merged: int) -> LayerTokenProfile:
    """Keep the top ``retention`` fraction of tokens from the pruning layer on."""
    arr = as_array(scores, 1)
    if arr.shape[0] != n_merged:
        raise ShapeError(f"got {arr.shape[0]} scores for {n_merged} merged tokens")
    kept = round_half_up(cfg.retention * n_merged)
    retained = top_k_indices(arr, kept)  # also the NaN/Inf check
    counts = [n_merged] * cfg.prune_layer + [kept] * (cfg.n_layers - cfg.prune_layer)
    return LayerTokenProfile(
        counts=counts,
        retained=retained,
        n_merged=n_merged,
        prune_layer=cfg.prune_layer,
    )


def kv_cache_entries(
    profile: LayerTokenProfile, n_text_total: int, n_visual_original: int
) -> tuple[list[int], float]:
    """Per-layer KV token counts and the total fraction vs. no reduction.

    Text tokens appear in both numerator and denominator; the baseline is
    the original (pre-merge) visual token count at every layer.
    """
    if n_text_total < 0:
        raise ConfigError("n_text_total", f"must be >= 0, got {n_text_total}")
    if n_visual_original < 1:
        raise ConfigError(
            "n_visual_original", f"must be >= 1, got {n_visual_original}"
        )
    per_layer = [n + n_text_total for n in profile.counts]
    baseline = profile.n_layers * (n_visual_original + n_text_total)
    return per_layer, sum(per_layer) / baseline
