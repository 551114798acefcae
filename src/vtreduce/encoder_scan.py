"""Stage 1: global scan, local scan, local-priority union, token merging.

The global scan keeps the tokens with the highest head-averaged attention
at the encoder output layer; the local scan splits the patch grid into
non-overlapping windows and keeps the locally strongest tokens at a shallow
layer. Local tokens take priority: they are excluded from the global pick
so the union is duplicate-free. Unselected tokens are then merged into
their most cosine-similar selected token by unweighted group averaging.
"""

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BudgetError, ConfigError, DegenerateInputError, TraceError
from .numerics import (
    as_tensor, check_shape, round_half_up, row_peaks, top_k_indices, unit_rows,
)
from .trace_io import EncoderTrace, write_json, write_tensor

SCORE_SOURCES = ("cls", "self_avg")

__all__ = [
    "ScanConfig",
    "TokenSelection",
    "head_averaged_scores",
    "global_scan",
    "partition_windows",
    "local_scan",
    "select_tokens",
    "merge_tokens",
    "selection_report",
    "write_selection",
]


@dataclass(frozen=True)
class ScanConfig:
    """Stage-1 parameters.

    ``retention`` is the kept fraction of visual tokens; ``global_fraction``
    is the share of that budget given to the global scan (the global side
    receives the odd extra token). ``local_layer`` and ``output_layer`` are
    1-based encoder layers; ``output_layer=None`` resolves to the
    penultimate layer. ``window_rows`` x ``window_cols`` is the window grid
    of the local scan.
    """

    retention: float
    global_fraction: float = 0.5
    local_layer: int = 6
    output_layer: int | None = None
    window_rows: int = 4
    window_cols: int = 4
    score_source: str = "cls"

    def __post_init__(self):
        if not 0.0 < self.retention <= 1.0:
            raise ConfigError("retention", f"must be in (0, 1], got {self.retention}")
        if not 0.0 <= self.global_fraction <= 1.0:
            raise ConfigError(
                "global_fraction", f"must be in [0, 1], got {self.global_fraction}"
            )
        if self.local_layer < 1:
            raise ConfigError("local_layer", f"must be >= 1, got {self.local_layer}")
        if self.output_layer is not None and self.output_layer < self.local_layer:
            raise ConfigError(
                "output_layer",
                f"must be >= local_layer {self.local_layer}, got {self.output_layer}",
            )
        for key in ("window_rows", "window_cols"):
            if getattr(self, key) < 1:
                raise ConfigError(key, f"must be >= 1, got {getattr(self, key)}")
        if self.score_source not in SCORE_SOURCES:
            raise ConfigError(
                "score_source",
                f"must be one of {SCORE_SOURCES}, got {self.score_source!r}",
            )

    def resolve_output_layer(self, n_layers: int) -> int:
        """Penultimate layer by default, the only layer for depth-1 traces."""
        if self.output_layer is not None:
            return self.output_layer
        return n_layers - 1 if n_layers >= 2 else 1


@dataclass
class TokenSelection:
    """Stage-1 outcome over ``n_tokens`` visual tokens.

    ``merge_assignment`` maps each unselected token index to the selected
    token it was merged into; it and ``merged_embeddings`` are None until
    ``merge_tokens`` runs.
    """

    n_tokens: int
    global_indices: list[int]
    local_indices: list[int]
    selected: list[int]
    merge_assignment: dict[int, int] | None = None
    merged_embeddings: np.ndarray | None = None

    def unselected(self) -> list[int]:
        return sorted(set(range(self.n_tokens)) - set(self.selected))


def head_averaged_scores(trace: EncoderTrace, layer: int, source: str) -> np.ndarray:
    """Per-token significance scores at a 1-based encoder layer.

    ``cls``: mean over heads of the classification-token attention row.
    ``self_avg``: mean attention each token receives from the other tokens,
    averaged over heads, diagonal excluded.
    """
    if source not in SCORE_SOURCES:
        raise TraceError(f"unknown score source {source!r}")
    if not 1 <= layer <= trace.n_layers:
        raise TraceError(f"layer {layer} outside [1, {trace.n_layers}]")
    if source == "cls":
        if trace.cls_attention is None:
            raise TraceError(f"no cls_attention in trace at layer {layer}")
        return trace.cls_attention[layer - 1].mean(axis=0)
    if trace.self_attention is None:
        raise TraceError(f"no self_attention in trace at layer {layer}")
    attn = trace.self_attention[layer - 1]  # (H, n, n)
    n = attn.shape[1]
    if n == 1:
        return np.zeros(1)
    received = attn.sum(axis=1) - np.einsum("hii->hi", attn)  # drop self-attention
    return received.mean(axis=0) / (n - 1)


def global_scan(scores, budget: int, excluded=()) -> list[int]:
    """Top-``budget`` indices by score, skipping ``excluded``, ascending."""
    arr = as_tensor(scores, ndim=1)
    excluded = set(excluded)
    candidates = [i for i in range(arr.shape[0]) if i not in excluded]
    if budget > len(candidates):
        raise BudgetError(
            f"global budget {budget} exceeds {len(candidates)} available tokens"
        )
    picked = top_k_indices(arr[candidates], budget) if budget else []
    return sorted(candidates[i] for i in picked)


def _split_extent(extent: int, parts: int) -> list[int]:
    base, rem = divmod(extent, parts)
    return [base + 1] * rem + [base] * (parts - rem)


def partition_windows(
    grid_h: int, grid_w: int, window_rows: int, window_cols: int
) -> list[list[int]]:
    """Tile the patch grid into a window_rows x window_cols grid of windows.

    Row and column extents are near-equal integer splits (sizes differ by
    at most one, larger blocks first). Windows are returned row-major, each
    as an ascending list of row-major token indices.
    """
    if not 1 <= window_rows <= grid_h:
        raise ConfigError(
            "window_rows", f"must be in [1, {grid_h}], got {window_rows}"
        )
    if not 1 <= window_cols <= grid_w:
        raise ConfigError(
            "window_cols", f"must be in [1, {grid_w}], got {window_cols}"
        )
    row_sizes = _split_extent(grid_h, window_rows)
    col_sizes = _split_extent(grid_w, window_cols)
    row_starts = np.concatenate([[0], np.cumsum(row_sizes)])
    col_starts = np.concatenate([[0], np.cumsum(col_sizes)])
    windows = []
    for wr in range(window_rows):
        for wc in range(window_cols):
            tokens = [
                r * grid_w + c
                for r in range(row_starts[wr], row_starts[wr + 1])
                for c in range(col_starts[wc], col_starts[wc + 1])
            ]
            windows.append(tokens)
    return windows


def _window_budgets(caps: list[int], budget: int) -> list[int]:
    """Uniform budgets with row-major remainder, surplus cascading forward.

    A window whose budget exceeds its token count passes the surplus to the
    following windows in order, wrapping once past the end; with
    ``budget <= sum(caps)``, which ``local_scan`` checks, it places it all.
    """
    w = len(caps)
    base, rem = divmod(budget, w)
    alloc = [0] * w
    surplus = 0
    for i in range(w):
        desired = base + (1 if i < rem else 0) + surplus
        alloc[i] = min(desired, caps[i])
        surplus = desired - alloc[i]
    i = 0
    while surplus > 0 and i < w:
        extra = min(surplus, caps[i] - alloc[i])
        alloc[i] += extra
        surplus -= extra
        i += 1
    return alloc


def local_scan(scores, windows: list[list[int]], budget: int) -> list[int]:
    """Per-window top-k at uniform window budgets; ascending union."""
    arr = as_tensor(scores, ndim=1)
    total = sum(len(w) for w in windows)
    if budget > total:
        raise BudgetError(f"local budget {budget} exceeds {total} tokens")
    budgets = _window_budgets([len(w) for w in windows], budget)
    picked: list[int] = []
    for tokens, m in zip(windows, budgets):
        idx = np.asarray(tokens)
        for t in top_k_indices(arr[idx], m):
            picked.append(int(idx[t]))
    return sorted(picked)


def _ceil_guarded(x: float) -> int:
    # tolerate float dust just above an integer (T * 1/3 style products)
    return int(math.ceil(x - 1e-9))


def stage1_budgets(n_tokens: int, retention: float, global_fraction: float):
    """(total, global, local) budgets for n_tokens at the given retention."""
    total = round_half_up(retention * n_tokens)
    if total < 1:
        raise BudgetError(
            f"retention {retention} of {n_tokens} tokens rounds to an empty budget"
        )
    budget_g = min(total, _ceil_guarded(total * global_fraction))
    return total, budget_g, total - budget_g


def select_tokens(trace: EncoderTrace, cfg: ScanConfig) -> TokenSelection:
    """Run the local scan, then the global scan with local tokens excluded."""
    n = trace.n_tokens
    output_layer = cfg.resolve_output_layer(trace.n_layers)
    if not cfg.local_layer <= output_layer <= trace.n_layers:
        raise ConfigError(
            "output_layer",
            f"need local_layer {cfg.local_layer} <= output_layer {output_layer}"
            f" <= {trace.n_layers} encoder layers",
        )
    windows = partition_windows(
        trace.grid_h, trace.grid_w, cfg.window_rows, cfg.window_cols
    )
    total, budget_g, budget_l = stage1_budgets(n, cfg.retention, cfg.global_fraction)
    local_scores = head_averaged_scores(trace, cfg.local_layer, cfg.score_source)
    local = local_scan(local_scores, windows, budget_l)
    global_scores = head_averaged_scores(trace, output_layer, cfg.score_source)
    global_ = global_scan(global_scores, budget_g, excluded=local)
    return TokenSelection(
        n_tokens=n,
        global_indices=global_,
        local_indices=local,
        selected=sorted(global_ + local),
    )


def merge_tokens(embeddings, selection: TokenSelection) -> TokenSelection:
    """Merge every unselected token into its most similar selected token.

    Each unselected token is assigned to the selected token with the
    highest cosine similarity (ties go to the lower selected index); each
    group is then averaged, unweighted, anchor included. The mean is
    bit-exact: the anchor first, then its unselected tokens in ascending
    order, summed from +0.0, then divided by the group size; a group of
    one is a copy of the anchor's row. Returns a new selection with
    ``merge_assignment`` and ``merged_embeddings`` filled; output rows
    follow ascending selected index.
    """
    emb = np.ascontiguousarray(embeddings, dtype=np.float64)
    check_shape(emb, 2)
    peaks = row_peaks(emb)
    if emb.shape[0] != selection.n_tokens:
        raise TraceError(
            f"embeddings rows {emb.shape[0]} != selection n_tokens {selection.n_tokens}"
        )
    if not selection.selected:
        raise BudgetError("cannot merge into an empty selection")
    sel = np.asarray(selection.selected)
    unsel = np.asarray(selection.unselected(), dtype=int)

    if unsel.size == 0:
        return dataclasses.replace(
            selection, merge_assignment={}, merged_embeddings=emb[sel].copy()
        )

    zero = np.flatnonzero(peaks == 0.0)
    if zero.size:
        raise DegenerateInputError(f"zero-norm embedding at token {int(zero[0])}")
    # emb[...] gathers copies, which unit_rows may normalise in place
    sims = unit_rows(emb[unsel]) @ unit_rows(emb[sel]).T
    nearest = sims.argmax(axis=1)  # first max = lowest selected index
    del sims  # so the grouping's buffers do not raise the peak
    assignment = dict(zip(unsel.tolist(), sel[nearest].tolist()))
    return dataclasses.replace(
        selection,
        merge_assignment=assignment,
        merged_embeddings=_group_means(emb, sel, unsel, nearest),
    )


def _group_means(emb, sel, unsel, nearest) -> np.ndarray:
    """Row r: mean of ``emb[sel[r]]`` and every ``emb[unsel[i]]`` with
    ``nearest[i] == r``, in the order ``merge_tokens`` documents.

    Members are added one level at a time (level j holds the j-th member of
    every group), so each group is summed in member order from +0.0 while
    the Python loop runs once per level, not per token or group.
    """
    rows = np.concatenate([np.arange(sel.size), nearest])
    members = np.concatenate([sel, unsel])
    order = np.argsort(rows, kind="stable")  # anchor first, then ascending
    rows, members = rows[order], members[order]
    counts = np.bincount(rows)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    sums = np.zeros((sel.size, emb.shape[1]))
    for j in range(counts.max()):
        level = rank == j
        sums[rows[level]] += emb[members[level]]
    sums /= counts[:, None]
    single = counts == 1
    sums[single] = emb[sel[single]]  # a copy keeps -0.0, which 0.0 + x loses
    return sums


def selection_report(selection: TokenSelection) -> dict:
    """JSON-ready view of a selection (assignment pairs sorted by source)."""
    report = {
        "n_tokens": selection.n_tokens,
        "global_indices": list(selection.global_indices),
        "local_indices": list(selection.local_indices),
        "selected": list(selection.selected),
    }
    if selection.merge_assignment is not None:
        report["merge_assignment"] = [
            [u, selection.merge_assignment[u]]
            for u in sorted(selection.merge_assignment)
        ]
    return report


def write_selection(selection: TokenSelection, out_dir) -> Path:
    """Write selection.json (+ merged_embeddings.vscn when merged)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_json(out / "selection.json", selection_report(selection), sort_keys=False)
    if selection.merged_embeddings is not None:
        write_tensor(out / "merged_embeddings.vscn", selection.merged_embeddings)
    return path
