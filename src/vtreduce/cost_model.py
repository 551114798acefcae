"""Prefill FLOPs estimation, retention budget arithmetic, report assembly.

Per decoder layer with n visual tokens, hidden size d and FFN intermediate
size m, the prefill cost is 4*n*d^2 (QKV/output projections) + 2*n^2*d
(attention scores and values) + 3*n*d*m (gated FFN); the total sums over
layers. Text tokens are excluded from the counts: published per-setting
figures match the visual-only reading.

Headline figures for reduced settings follow a uniform convention, costing
every layer at the layer-averaged token count, rather than the stepped
per-layer profile. Reports carry both numbers; the uniform one is the
comparable headline.
"""

import dataclasses
from dataclasses import dataclass

from .decoder_prune import LayerTokenProfile, check_prune_layer, kv_cache_entries
from .encoder_scan import TokenSelection
from .errors import BudgetError, ConfigError
from .trace_io import write_csv, write_json

__all__ = [
    "ModelDims",
    "MODEL_PRESETS",
    "flops_total",
    "average_retention",
    "solve_encoder_retention",
    "CostReport",
    "build_report",
    "write_report_csv",
    "write_report_summary",
]


@dataclass(frozen=True)
class ModelDims:
    """Decoder depth, hidden size, and FFN intermediate size."""

    n_layers: int
    hidden_size: int
    ffn_size: int

    def __post_init__(self):
        if min(self.n_layers, self.hidden_size, self.ffn_size) < 1:
            raise ConfigError("dims", f"all dims must be >= 1, got {self}")


@dataclass(frozen=True)
class ModelPreset:
    dims: ModelDims
    local_layer: int
    prune_layer: int


MODEL_PRESETS = {
    "llava15": ModelPreset(ModelDims(32, 4096, 11008), local_layer=6, prune_layer=16),
    "llava-next": ModelPreset(
        ModelDims(32, 4096, 11008), local_layer=6, prune_layer=16
    ),
    "qwen25-vl-7b": ModelPreset(
        ModelDims(28, 3584, 18944), local_layer=8, prune_layer=14
    ),
}


def flops_total(tokens_per_layer, dims: ModelDims) -> float:
    """Sum over layers of 4*n*d^2 + 2*n^2*d + 3*n*d*m, in float64."""
    if len(tokens_per_layer) != dims.n_layers:
        raise ConfigError(
            "tokens_per_layer",
            f"got {len(tokens_per_layer)} counts for {dims.n_layers} layers",
        )
    d = float(dims.hidden_size)
    m = float(dims.ffn_size)
    total = 0.0
    for n in tokens_per_layer:
        n = float(n)
        if n < 0:
            raise ConfigError("tokens_per_layer", f"negative token count {n}")
        total += 4.0 * n * d * d + 2.0 * n * n * d + 3.0 * n * d * m
    return total


def average_retention(
    encoder_retention: float,
    decoder_retention: float,
    prune_layer: int,
    n_layers: int,
) -> float:
    """Layer-weighted mean retention over the decoder.

    The first ``prune_layer`` layers run at the encoder-stage retention,
    the remaining layers at its product with the decoder-stage retention.
    """
    check_prune_layer(prune_layer, n_layers)
    full = prune_layer
    pruned = n_layers - prune_layer
    return encoder_retention * (full + pruned * decoder_retention) / n_layers


def solve_encoder_retention(
    target_average: float,
    decoder_retention: float,
    prune_layer: int,
    n_layers: int,
) -> float:
    """Encoder-stage retention that hits a target average retention."""
    if not 0.0 < target_average <= 1.0:
        raise ConfigError(
            "target_average", f"must be in (0, 1], got {target_average}"
        )
    weight = average_retention(1.0, decoder_retention, prune_layer, n_layers)
    if weight <= 0.0:
        raise BudgetError("decoder schedule retains nothing; target unreachable")
    result = target_average / weight
    if result > 1.0 + 1e-12:
        raise BudgetError(
            f"target average {target_average} needs encoder retention {result:.4f} > 1"
        )
    return min(result, 1.0)


@dataclass
class CostReport:
    """Token, FLOPs, and KV accounting for one reduction run.

    ``total_flops`` costs the stepped per-layer profile; ``total_flops_uniform``
    costs every layer at the average count (the headline convention).
    ``kv_fraction`` compares KV entries, text included, against the
    unreduced baseline.
    """

    n_visual_original: int
    tokens_per_layer: list[int]
    kv_tokens_per_layer: list[int]
    total_flops: float
    total_flops_uniform: float
    flops_baseline: float
    avg_retention_overall: float
    kv_fraction: float
    prefill_speedup_estimate: float


def build_report(
    selection: TokenSelection,
    profile: LayerTokenProfile,
    dims: ModelDims,
    n_text_total: int,
) -> CostReport:
    if profile.n_merged != len(selection.selected):
        raise ConfigError(
            "profile",
            f"profile covers {profile.n_merged} tokens but the selection kept "
            f"{len(selection.selected)}",
        )
    if profile.n_layers != dims.n_layers:
        raise ConfigError(
            "dims",
            f"profile has {profile.n_layers} layers, dims expect {dims.n_layers}",
        )
    n_original = selection.n_tokens
    counts = profile.counts
    avg_tokens = sum(counts) / len(counts)
    kv_per_layer, kv_fraction = kv_cache_entries(profile, n_text_total, n_original)
    total = flops_total(counts, dims)
    baseline = flops_total([n_original] * dims.n_layers, dims)
    return CostReport(
        n_visual_original=n_original,
        tokens_per_layer=list(counts),
        kv_tokens_per_layer=kv_per_layer,
        total_flops=total,
        total_flops_uniform=flops_total([avg_tokens] * dims.n_layers, dims),
        flops_baseline=baseline,
        avg_retention_overall=avg_tokens / n_original,
        kv_fraction=kv_fraction,
        prefill_speedup_estimate=baseline / total,
    )


def write_report_csv(report: CostReport, path) -> None:
    """One row per decoder layer: layer, visual_tokens, kv_tokens."""
    rows = zip(report.tokens_per_layer, report.kv_tokens_per_layer)
    write_csv(path, ["layer", "visual_tokens", "kv_tokens"],
              [[i, tok, kv] for i, (tok, kv) in enumerate(rows, start=1)])


def write_report_summary(report: CostReport, path) -> None:
    """The scalar fields of ``report``; the per-layer lists go to the CSV."""
    fields = dataclasses.asdict(report)
    write_json(path, {k: v for k, v in fields.items() if not isinstance(v, list)})
