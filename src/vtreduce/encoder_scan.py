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
    _unit_peaks, as_array, as_tensor, round_half_up, row_peaks, top_k_indices,
    unit_rows,
)
from .trace_io import EncoderTrace, write_tensor

# score source -> the attention stack it scores from
_SCORE_STACKS = {"cls": "cls_attention", "self_avg": "self_attention"}
SCORE_SOURCES = tuple(_SCORE_STACKS)

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

    def layers(self, n_layers: int) -> tuple[int, int]:
        """``(local_layer, output_layer)`` on an encoder of ``n_layers``
        layers; the output layer defaults to the penultimate one, or to the
        only one of a depth-1 encoder."""
        output = self.output_layer
        if output is None:
            output = n_layers - 1 if n_layers >= 2 else 1
        if not self.local_layer <= output <= n_layers:
            raise ConfigError(
                "output_layer",
                f"need local_layer {self.local_layer} <= output_layer {output}"
                f" <= {n_layers} encoder layers",
            )
        return self.local_layer, output

    def read_layers(self, stack: str, n_layers: int) -> tuple[int, ...]:
        """The ``layers`` argument of ``read_encoder_bundle`` for this scan:
        in the stack ``score_source`` names, of ``n_layers`` layers (0 when
        the bundle has none), its ``layers``; in another stack, none.
        ``on_read_layers`` maps the scan onto the trace read."""
        if stack != _SCORE_STACKS[self.score_source]:
            return ()
        if not n_layers:
            raise TraceError(f"no {stack} in trace at layer {self.local_layer}")
        return self.layers(n_layers)

    def on_read_layers(self, trace: EncoderTrace) -> "ScanConfig":
        """This scan on a trace that holds only its ``read_layers``, ascending
        and without repeats: the local layer first, the output layer last."""
        return dataclasses.replace(self, local_layer=1, output_layer=trace.n_layers)


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
    name = _SCORE_STACKS[source]
    if getattr(trace, name) is None:
        raise TraceError(f"no {name} in trace at layer {layer}")
    attn = getattr(trace, name)[layer - 1]  # cls: (H, n); self_avg: (H, n, n)
    if source == "cls":
        return attn.mean(axis=0)
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


def partition_windows(
    grid_h: int, grid_w: int, window_rows: int, window_cols: int
) -> list[list[int]]:
    """Tile the patch grid into a window_rows x window_cols grid of windows.

    Row and column extents are near-equal integer splits (sizes differ by
    at most one, larger blocks first). Windows are returned row-major, each
    as an ascending list of row-major token indices.
    """
    if not 1 <= window_rows <= grid_h:
        raise ConfigError("window_rows", f"must be in [1, {grid_h}], got {window_rows}")
    if not 1 <= window_cols <= grid_w:
        raise ConfigError("window_cols", f"must be in [1, {grid_w}], got {window_cols}")
    return [
        (r[:, None] * grid_w + c).ravel().tolist()
        for r in np.array_split(np.arange(grid_h), window_rows)
        for c in np.array_split(np.arange(grid_w), window_cols)
    ]


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
    for j in range(2 * w):  # round two places what is left, from window 0
        i = j % w
        share = base + (i < rem) if j < w else 0
        take = min(share + surplus, caps[i] - alloc[i])
        alloc[i] += take
        surplus += share - take
    return alloc


def local_scan(scores, windows: list[list[int]], budget: int) -> list[int]:
    """Per-window top-k at uniform window budgets; ascending union."""
    arr = as_tensor(scores, ndim=1)
    total = sum(len(w) for w in windows)
    if budget > total:
        raise BudgetError(f"local budget {budget} exceeds {total} tokens")
    budgets = _window_budgets([len(w) for w in windows], budget)
    return sorted(int(tokens[t]) for tokens, m in zip(windows, budgets)
                  for t in top_k_indices(arr[tokens], m))


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
    local_layer, output_layer = cfg.layers(trace.n_layers)
    windows = partition_windows(trace.grid_h, trace.grid_w, cfg.window_rows, cfg.window_cols)
    _, budget_g, budget_l = stage1_budgets(n, cfg.retention, cfg.global_fraction)
    local_scores = head_averaged_scores(trace, local_layer, cfg.score_source)
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

    Each unselected token is assigned to the selected token whose
    ``unit_rows`` vector has the largest exact dot product with its own,
    ties going to the lower selected index: the pick does not depend on
    the BLAS build, its kernels or which other tokens are merged. Each
    group is then averaged, unweighted, anchor included. The mean is
    bit-exact: the anchor first, then its unselected tokens in ascending
    order, summed from +0.0, then divided by the group size; a group of
    one is a copy of the anchor's row. Returns a new selection with
    ``merge_assignment`` and ``merged_embeddings`` filled; output rows
    follow ascending selected index.
    """
    emb = as_array(embeddings, 2)
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
    nearest = _nearest_anchors(emb, unsel, sel, peaks)
    means = _group_means(emb, sel, unsel, nearest)
    # scan only when unsel.size + 1 peaks, doubled for rounding, can overflow
    if peaks.max() > np.finfo(np.float64).max / (2 * unsel.size + 2):
        over = sel[np.isinf(means).any(axis=1)]  # ascending
        if over.size:
            raise DegenerateInputError(f"merged embedding of anchor token {over[0]} overflows")
    assignment = dict(zip(unsel.tolist(), sel[nearest].tolist()))
    return dataclasses.replace(
        selection, merge_assignment=assignment, merged_embeddings=means
    )


def _nearest_anchors(emb, unsel, sel, peaks) -> np.ndarray:
    """For each row of ``emb[unsel]``, the position in ``sel`` of the row of
    ``emb[sel]`` with the largest exact dot product of ``unit_rows``
    vectors, the first on ties; ``peaks`` are ``row_peaks(emb)``.

    A float32 product screens every pair. A row with more than one anchor
    near its maximum is screened again over those candidates in float64,
    and decided exactly if that leaves more than one.
    """
    k = emb.shape[1]
    near = _near_max(_unit_f32(emb, unsel, peaks) @ _unit_f32(emb, sel, peaks).T,
                     _screen_error(k, np.float32))
    nearest = near.argmax(axis=1)  # a row's first candidate; rows with more below
    rows = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
    if rows.size:
        near = near[rows]
        cols = np.flatnonzero(near.any(axis=0))
        # emb[...] gathers copies, which unit_rows normalises in place
        us, vs = unit_rows(emb[unsel[rows]]), unit_rows(emb[sel[cols]])
        # an anchor equal to an earlier one ties with it exactly, and every
        # exact maximum is a candidate: so only the first of equal anchors
        # stays one
        first = {}
        own = np.array([first.setdefault(v.tobytes(), j) == j for j, v in enumerate(vs)])
        sims = np.where(near[:, cols] & own, us @ vs.T, -np.inf)
        near = _near_max(sims, _screen_error(k, np.float64))
        nearest[rows] = cols[near.argmax(axis=1)]
        for i in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
            cand = np.flatnonzero(near[i])
            nearest[rows[i]] = cols[cand[_exact_argmax(us[i], vs[cand])]]
    return nearest


# the peaks _unit_f32 casts unscaled; _screen_error's underflow term rests
# on them
_F32_PEAKS = 2.0**-32, 2.0**32


def _unit_f32(emb, idx, peaks) -> np.ndarray:
    """The rows ``emb[idx]`` cast to float32 and divided there by their L2
    norms, each summed in float64 and rounded to float32; ``peaks`` are
    ``row_peaks(emb)``. A row whose peak lies outside ``_F32_PEAKS`` is
    first put through ``_unit_peaks``, so that its cast neither overflows
    nor vanishes. The rows are gathered 128 at a time, so no float64 copy
    of them all is made. ``_screen_error`` bounds how far these rows' dots
    are from the exact dots of ``unit_rows`` rows."""
    out = np.empty((idx.size, emb.shape[1]), dtype=np.float32)
    squares = np.empty(idx.size)
    lo, hi = _F32_PEAKS
    for i in range(0, idx.size, 128):
        rows, p = emb[idx[i:i + 128]], peaks[idx[i:i + 128]]
        far = (p < lo) | (p >= hi)
        if far.any():
            rows[far] = _unit_peaks(rows[far], p[far])
        squares[i:i + 128] = np.einsum("ij,ij->i", rows, rows)
        out[i:i + 128] = rows
    out /= np.sqrt(squares).astype(np.float32)[:, None]
    return out


def _near_max(sims: np.ndarray, e: float) -> np.ndarray:
    """Where ``sims`` is within 2e of its maximum along the last axis. If
    each value is within e of an exact dot, every exact maximum is there."""
    top = sims.max(axis=-1, keepdims=True).astype(np.float64)
    return sims >= top - 2.0 * e  # float32 values compare as float64, exactly


# The screen's error. Let x and y be rows of emb of length K, a = x / |x|
# and b = y / |y| their exact unit vectors, and a', b' their unit_rows rows:
# the pick maximises the exact dot s = a'.b'. Let u be the unit roundoff of
# the screen's dtype (2**-24 for float32, 2**-53 for float64), l its
# smallest normal and gamma_n = n u / (1 - n u) (Higham, "Accuracy and
# Stability of Numerical Algorithms", ch. 3). A dot of K terms, summed in
# any order, with or without FMA, is within gamma_K sum|p_i| of the exact
# sum of its products p_i. Underflow adds at most u l to a rounded cast,
# product or quotient, and nothing to an addition.
#
# float64 screen of a', b': within gamma_K |a'| |b'| of s, where a unit_rows
# norm is 1 to within (K + 3) 2**-53 < 2**-28: gamma_{K+3} covers that. One
# more u covers the float64 rounding of the threshold max - 2e. Underflow
# adds under 8 K l.
#
# float32 screen of _unit_f32 rows a~, b~ (u = 2**-24 from here on). An
# entry of a~ is a_i times the roundings of its cast, of the norm's cast
# and of the quotient, and the float64 error of the norm: its sum of K
# squares and its root, gamma'_{K+1} with u' = 2**-53. So a~_i =
# a_i (1 + e_i), with
#     |e_i| <= e = (1 + gamma_3) (1 + gamma'_{K+1}) - 1,
#     |a~.b~ - a.b| <= (2 e + e^2) sum|a_i b_i| <= 2 e + e^2,
# and the float32 dot is within gamma_K sum|a~_i b~_i| <= gamma_K (1 + e)^2
# of a~.b~. A unit_rows entry is within (2 K + 3) 2**-53 of a_i,
# relatively and up to underflow, so |a.b - s| < u; one more u covers the
# threshold's rounding. That sum is (K + 8) u to first order, and
# gamma_{K+8} exceeds it term by term. Underflow: _unit_f32 brings each
# peak into [2**-32, 2**32), so a norm is at least 2**-32, and the u l =
# 2**-150 that a cast, a quotient or a product may lose adds under
# K 2**-110 in all.
def _screen_error(k: int, dtype) -> float:
    """A bound on |screen - exact dot of the ``unit_rows`` rows| for rows
    of length ``k``: a float32 screen of ``_unit_f32`` rows, or a float64
    screen of ``unit_rows`` rows. Infinite, so every anchor is a candidate,
    once k + 4 >= 2**23."""
    if k + 4 >= 2**23:
        return math.inf
    if dtype == np.float32:
        n, floor = (k + 8) * 2.0**-24, k * 2.0**-110
    else:
        n, floor = (k + 4) * 2.0**-53, 8 * k * 2.0**-1022
    return n / (1.0 - n) + floor


def _exact_argmax(u: np.ndarray, vs: np.ndarray) -> int:
    """The first index of the largest exact ``u @ v`` over the rows of ``vs``.

    Every float64 is n / d with d a power of two, so scaling all of them by
    the largest d makes them integers, and the dots are summed exactly.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in np.vstack([u, vs]).tolist()]
    top = max(d for row in ratios for _, d in row).bit_length()
    iu, *ivs = [[n << (top - d.bit_length()) for n, d in row] for row in ratios]
    dots = [sum(map(int.__mul__, iu, iv)) for iv in ivs]
    return dots.index(max(dots))


def _group_means(emb, sel, unsel, nearest) -> np.ndarray:
    """Row r: mean of ``emb[sel[r]]`` and every ``emb[unsel[i]]`` with
    ``nearest[i] == r``, in the order ``merge_tokens`` documents.

    The merged groups are taken 64 at a time in descending size (stable,
    so ties keep anchor order). Within a chunk, member level j (the j-th
    member of every group that has one) is added to the prefix of the
    groups that reach it by one contiguous ``+=``; so each group is summed
    in member order from +0.0 while the Python loop runs once per chunk and
    level, not per token. Each finished chunk is written to its anchors'
    rows: beside the returned rows, the sums and one level hold 128 rows
    at most.
    """
    sizes = np.bincount(nearest, minlength=sel.size) + 1
    members = unsel[np.argsort(nearest, kind="stable")]  # by group, ascending
    firsts = np.cumsum(sizes - 1) - (sizes - 1)  # each group's first member
    merged = np.argsort(-sizes, kind="stable")[:np.count_nonzero(sizes > 1)]
    out = emb[sel]  # a group of one stays a copy, which keeps -0.0
    with np.errstate(over="ignore"):  # merge_tokens reports an overflowed group
        for i in range(0, merged.size, 64):
            groups = merged[i:i + 64]  # sizes descending: level j is a prefix
            n = sizes[groups]
            sums = out[groups]
            sums += 0.0  # summed from +0.0, which turns -0.0 into +0.0
            for j in range(1, n[0]):
                k = np.count_nonzero(n > j)
                sums[:k] += emb[members[firsts[groups[:k]] + j - 1]]
            sums /= n[:, None]
            out[groups] = sums
    return out


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


def _report_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=False, indent=2) + "\\n"`` for the
    shape ``selection_report`` gives: ints, lists of ints and lists of int
    pairs. ``json`` takes its pure-Python encoder whenever ``indent`` is
    set; this writes the same bytes directly."""
    items = []
    for key, value in report.items():
        if isinstance(value, int):
            text = str(value)
        elif not value:
            text = "[]"
        else:
            lines = ([f"[\n      {u},\n      {a}\n    ]" for u, a in value]
                     if isinstance(value[0], list) else map(str, value))
            text = "[\n    " + ",\n    ".join(lines) + "\n  ]"
        items.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(items) + "\n}\n"


def write_selection(selection: TokenSelection, out_dir) -> Path:
    """Write selection.json (+ merged_embeddings.vscn when merged)."""
    out = Path(out_dir)
    path = out / "selection.json"
    path.write_text(_report_json(selection_report(selection)))
    if selection.merged_embeddings is not None:
        write_tensor(out / "merged_embeddings.vscn", selection.merged_embeddings)
    return path
