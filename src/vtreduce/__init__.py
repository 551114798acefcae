"""Two-stage visual token reduction over attention traces.

Stage 1 scans encoder attention globally and locally, unions the picks,
and merges everything else into its nearest selected token. Stage 2 prunes
the merged tokens at a middle decoder layer by last-instruction-token
attention. The cost model turns the resulting per-layer token counts into
prefill FLOPs, average retention, and KV-cache figures.
"""

from .analysis import (
    AttentionSumCurve,
    BiasHistogram,
    attention_sum_per_layer,
    position_bias_histogram,
)
from .cost_model import (
    MODEL_PRESETS,
    CostReport,
    ModelDims,
    average_retention,
    build_report,
    flops_total,
    solve_encoder_retention,
)
from .decoder_prune import (
    LayerTokenProfile,
    PruneConfig,
    kv_cache_entries,
    prune_at_layer,
    text_attention_scores,
)
from .encoder_scan import (
    ScanConfig,
    TokenSelection,
    global_scan,
    head_averaged_scores,
    local_scan,
    merge_tokens,
    partition_windows,
    select_tokens,
)
from .errors import (
    BudgetError,
    ConfigError,
    DegenerateInputError,
    FormatError,
    LayoutError,
    ShapeError,
    TraceError,
    VtReduceError,
)
from .numerics import (
    cosine_similarity,
    round_half_up,
    scaled_attention,
    softmax_rows,
    top_k_indices,
)
from .pipeline import run_pipeline
from .trace_io import (
    DecoderTrace,
    EncoderTrace,
    generate_synthetic_decoder,
    generate_synthetic_encoder,
    read_decoder_bundle,
    read_encoder_bundle,
    read_tensor,
    write_decoder_bundle,
    write_encoder_bundle,
    write_tensor,
)

__version__ = "0.1.0"
