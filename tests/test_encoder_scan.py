import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_encoder_trace
from vtreduce import (
    BudgetError,
    ConfigError,
    DegenerateInputError,
    EncoderTrace,
    ScanConfig,
    TraceError,
    cosine_similarity,
    global_scan,
    head_averaged_scores,
    local_scan,
    merge_tokens,
    partition_windows,
    round_half_up,
    select_tokens,
)
from vtreduce import encoder_scan
from vtreduce.encoder_scan import selection_report, stage1_budgets, write_selection
from vtreduce.numerics import unit_rows


def make_cls_trace(cls_rows, grid_h, grid_w, embed_dim=4):
    """cls_rows: (layers, heads, n) already normalized."""
    n = grid_h * grid_w
    emb = np.eye(n, embed_dim) + 0.1
    return EncoderTrace(grid_h, grid_w, embeddings=emb, cls_attention=np.asarray(cls_rows))


class TestHeadAveragedScores:
    def test_single_head_identity(self):
        trace = make_cls_trace([[[0.2, 0.3, 0.5]]], 1, 3)
        assert np.allclose(head_averaged_scores(trace, 1, "cls"), [0.2, 0.3, 0.5])

    def test_two_heads_average(self):
        trace = make_cls_trace([[[1.0, 0.0], [0.0, 1.0]]], 1, 2)
        assert np.allclose(head_averaged_scores(trace, 1, "cls"), [0.5, 0.5])

    def test_self_avg_excludes_diagonal(self):
        # each token attends fully to the other: received average is 1.0 each
        attn = np.array([[[[0.0, 1.0], [1.0, 0.0]]]])
        trace = EncoderTrace(1, 2, embeddings=np.ones((2, 3)), self_attention=attn)
        assert np.allclose(head_averaged_scores(trace, 1, "self_avg"), [1.0, 1.0])

    def test_missing_source_raises(self):
        trace = make_cls_trace([[[0.5, 0.5]]], 1, 2)
        with pytest.raises(TraceError):
            head_averaged_scores(trace, 1, "self_avg")
        with pytest.raises(TraceError):
            head_averaged_scores(trace, 2, "cls")


class TestGlobalScan:
    def test_plain_top_two(self):
        assert global_scan([0.9, 0.8, 0.1, 0.7], 2) == [0, 1]

    def test_excluded_index_skipped(self):
        assert global_scan([0.9, 0.8, 0.1, 0.7], 2, excluded={0}) == [1, 3]

    def test_zero_budget(self):
        assert global_scan([0.9, 0.8], 0) == []

    def test_infeasible_budget(self):
        with pytest.raises(BudgetError):
            global_scan([0.9, 0.8, 0.1], 3, excluded={1})

    def test_matches_oracle_on_restricted_set(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            scores = rng.integers(0, 5, size=n) / 5.0
            excluded = {int(i) for i in rng.choice(n, size=n // 3, replace=False)}
            allowed = [i for i in range(n) if i not in excluded]
            budget = int(rng.integers(0, len(allowed) + 1))
            expect = sorted(
                sorted(allowed, key=lambda i: (-scores[i], i))[:budget]
            )
            assert global_scan(scores, budget, excluded) == expect


class TestPartitionWindows:
    def test_even_split(self):
        windows = partition_windows(4, 4, 2, 2)
        assert windows == [
            [0, 1, 4, 5],
            [2, 3, 6, 7],
            [8, 9, 12, 13],
            [10, 11, 14, 15],
        ]

    def test_uneven_split_larger_first(self):
        windows = partition_windows(3, 3, 2, 2)
        assert [len(w) for w in windows] == [4, 2, 2, 1]
        assert windows[0] == [0, 1, 3, 4]
        assert windows[3] == [8]

    def test_single_window(self):
        assert partition_windows(1, 5, 1, 1) == [[0, 1, 2, 3, 4]]

    def test_tiles_exactly(self):
        windows = partition_windows(5, 7, 3, 4)
        flat = sorted(t for w in windows for t in w)
        assert flat == list(range(35))

    def test_window_grid_too_large(self):
        with pytest.raises(ConfigError):
            partition_windows(3, 3, 4, 2)


# The window partition and budget placement as they were written with
# explicit index arithmetic: the references for the numpy versions.


def reference_partition_windows(grid_h, grid_w, window_rows, window_cols):
    def split(extent, parts):
        base, rem = divmod(extent, parts)
        return [base + 1] * rem + [base] * (parts - rem)

    if not 1 <= window_rows <= grid_h:
        raise ConfigError("window_rows", f"must be in [1, {grid_h}], got {window_rows}")
    if not 1 <= window_cols <= grid_w:
        raise ConfigError("window_cols", f"must be in [1, {grid_w}], got {window_cols}")
    row_starts = np.concatenate([[0], np.cumsum(split(grid_h, window_rows))])
    col_starts = np.concatenate([[0], np.cumsum(split(grid_w, window_cols))])
    windows = []
    for wr in range(window_rows):
        for wc in range(window_cols):
            windows.append([
                r * grid_w + c
                for r in range(row_starts[wr], row_starts[wr + 1])
                for c in range(col_starts[wc], col_starts[wc + 1])
            ])
    return windows


def reference_window_budgets(caps, budget):
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


def outcome(fn, *args):
    try:
        return fn(*args)
    except ConfigError as exc:
        return type(exc), str(exc), exc.field


class TestMatchesReference:
    def test_every_small_grid_and_window_grid(self):
        for gh, gw in itertools.product(range(1, 13), repeat=2):
            for wr, wc in itertools.product(range(0, gh + 2), range(0, gw + 2)):
                got = outcome(partition_windows, gh, gw, wr, wc)
                assert got == outcome(reference_partition_windows, gh, gw, wr, wc)
                assert all(type(t) is int for w in got if isinstance(w, list) for t in w)

    def test_large_grid(self):
        assert partition_windows(48, 60, 4, 4) == reference_partition_windows(48, 60, 4, 4)

    def test_every_small_budget(self):
        for w in range(1, 6):
            for caps in itertools.product(range(5), repeat=w):
                for budget in range(sum(caps) + 1):
                    got = encoder_scan._window_budgets(list(caps), budget)
                    assert got == reference_window_budgets(list(caps), budget)

    def test_random_budgets(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            caps = rng.integers(0, 50, size=int(rng.integers(1, 41))).tolist()
            budget = int(rng.integers(0, sum(caps) + 1))
            got = encoder_scan._window_budgets(caps, budget)
            assert got == reference_window_budgets(caps, budget)
            assert sum(got) == budget and all(0 <= a <= c for a, c in zip(got, caps))


class TestLocalScan:
    def test_even_budget(self):
        windows = partition_windows(4, 4, 2, 2)
        scores = np.arange(16) / 16.0
        picked = local_scan(scores, windows, 8)
        assert len(picked) == 8
        for w in windows:
            assert len(set(picked) & set(w)) == 2

    def test_remainder_row_major(self):
        windows = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        picked = local_scan(np.arange(12) / 12.0, windows, 6)
        per_window = [len(set(picked) & set(w)) for w in windows]
        assert per_window == [2, 2, 1, 1]

    def test_surplus_cascade(self):
        windows = [[0], [1, 2, 3, 4, 5]]
        picked = local_scan(np.arange(6) / 6.0, windows, 4)
        per_window = [len(set(picked) & set(w)) for w in windows]
        assert per_window == [1, 3]

    def test_cascade_wraps_once(self):
        windows = [[0, 1, 2, 3, 4], [5]]
        # window 1 overflows back onto window 0
        picked = local_scan(np.arange(6) / 6.0, windows, 5)
        per_window = [len(set(picked) & set(w)) for w in windows]
        assert per_window == [4, 1]

    def test_infeasible_budget(self):
        with pytest.raises(BudgetError):
            local_scan(np.ones(4), [[0, 1], [2, 3]], 5)

    def test_within_window_tie_break(self):
        windows = [[0, 1, 2, 3]]
        assert local_scan([0.5, 0.5, 0.5, 0.5], windows, 2) == [0, 1]


class TestSelectTokens:
    def test_half_retention_576(self):
        rng = np.random.default_rng(1)
        trace = random_encoder_trace(rng, 24, 24)
        sel = select_tokens(trace, ScanConfig(retention=0.5, local_layer=1))
        assert len(sel.selected) == 288
        assert len(sel.global_indices) == 144
        assert len(sel.local_indices) == 144

    def test_full_retention(self):
        rng = np.random.default_rng(2)
        trace = random_encoder_trace(rng, 4, 4)
        sel = select_tokens(trace, ScanConfig(retention=1.0, local_layer=1))
        assert sel.selected == list(range(16))
        merged = merge_tokens(trace.embeddings, sel)
        assert merged.merge_assignment == {}
        assert np.array_equal(merged.merged_embeddings, trace.embeddings)

    def test_odd_budget_goes_global(self):
        rng = np.random.default_rng(3)
        trace = random_encoder_trace(rng, 4, 4)
        cfg = ScanConfig(retention=0.3, local_layer=1, window_rows=2, window_cols=2)
        sel = select_tokens(trace, cfg)
        # 16 * 0.3 rounds to 5: 3 global + 2 local
        assert len(sel.selected) == 5
        assert len(sel.global_indices) == 3
        assert len(sel.local_indices) == 2

    def test_disjoint_and_union(self):
        rng = np.random.default_rng(4)
        trace = random_encoder_trace(rng, 5, 6)
        sel = select_tokens(trace, ScanConfig(retention=0.6, local_layer=1,
                                              window_rows=2, window_cols=3))
        assert not set(sel.global_indices) & set(sel.local_indices)
        assert sorted(sel.global_indices + sel.local_indices) == sel.selected

    def test_empty_budget_rejected(self):
        rng = np.random.default_rng(5)
        trace = random_encoder_trace(rng, 2, 2)
        with pytest.raises(BudgetError):
            select_tokens(trace, ScanConfig(retention=0.1, local_layer=1,
                                            window_rows=1, window_cols=1))

    def test_global_fraction_extremes(self):
        rng = np.random.default_rng(6)
        trace = random_encoder_trace(rng, 4, 4)
        all_local = select_tokens(
            trace, ScanConfig(retention=0.5, global_fraction=0.0, local_layer=1,
                              window_rows=2, window_cols=2)
        )
        assert all_local.global_indices == [] and len(all_local.local_indices) == 8
        all_global = select_tokens(
            trace, ScanConfig(retention=0.5, global_fraction=1.0, local_layer=1,
                              window_rows=2, window_cols=2)
        )
        assert all_global.local_indices == [] and len(all_global.global_indices) == 8

    def test_zero_global_budget_with_every_token_local(self):
        # the local scan takes all 16 tokens, leaving the global scan none
        trace = random_encoder_trace(np.random.default_rng(6), 4, 4)
        sel = select_tokens(trace, ScanConfig(retention=1.0, global_fraction=0.0,
                                              local_layer=1))
        assert sel.global_indices == []
        assert sel.local_indices == sel.selected == list(range(16))

    @pytest.mark.parametrize("field", ["window_rows", "window_cols"])
    def test_window_field_named(self, field):
        with pytest.raises(ConfigError) as exc:
            ScanConfig(retention=0.5, **{field: 0})
        assert exc.value.field == field

    def test_no_float_dust_in_third_splits(self):
        assert stage1_budgets(18, 1.0, 1 / 3) == (18, 6, 12)

    def test_greedy_oracle_small_n(self):
        # independent re-derivation of the stated selection rules
        rng = np.random.default_rng(7)
        for _ in range(60):
            gh = int(rng.integers(1, 4))
            gw = int(rng.integers(1, 4))
            n = gh * gw
            retention = float(rng.uniform(1.0 / n, 1.0))
            if round_half_up(retention * n) < 1:
                continue
            trace = random_encoder_trace(rng, gh, gw, n_layers=2, n_heads=1)
            wr = int(rng.integers(1, gh + 1))
            wc = int(rng.integers(1, gw + 1))
            cfg = ScanConfig(retention=retention, local_layer=1, output_layer=2,
                             window_rows=wr, window_cols=wc)
            sel = select_tokens(trace, cfg)

            total = round_half_up(retention * n)
            budget_g = int(np.ceil(total * 0.5 - 1e-9))
            budget_l = total - budget_g
            s_local = trace.cls_attention[0].mean(axis=0)
            s_global = trace.cls_attention[1].mean(axis=0)
            windows = partition_windows(gh, gw, wr, wc)
            base, rem = divmod(budget_l, len(windows))
            want = [base + (1 if i < rem else 0) for i in range(len(windows))]
            alloc, surplus = [], 0
            for cap, w in zip([len(w) for w in windows], want):
                take = min(w + surplus, cap)
                alloc.append(take)
                surplus = w + surplus - take
            i = 0
            while surplus and i < len(windows):
                extra = min(surplus, len(windows[i]) - alloc[i])
                alloc[i] += extra
                surplus -= extra
                i += 1
            local = []
            for w, m in zip(windows, alloc):
                local += sorted(w, key=lambda t: (-s_local[t], t))[:m]
            local = sorted(local)
            rest = [t for t in range(n) if t not in local]
            global_ = sorted(sorted(rest, key=lambda t: (-s_global[t], t))[:budget_g])
            assert sel.local_indices == local
            assert sel.global_indices == global_


class TestMergeTokens:
    def test_single_pair(self):
        sel = select_stub(2, selected=[0])
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        merged = merge_tokens(emb, sel)
        assert merged.merge_assignment == {1: 0}
        assert np.allclose(merged.merged_embeddings, [[0.5, 0.5]])

    def test_cosine_argmax_assignment(self):
        sel = select_stub(3, selected=[0, 1])
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])  # 2 parallel to 0
        merged = merge_tokens(emb, sel)
        assert merged.merge_assignment == {2: 0}
        assert np.allclose(merged.merged_embeddings[0], [1.5, 0.0])
        assert np.array_equal(merged.merged_embeddings[1], [0.0, 1.0])

    def test_tie_goes_to_lower_selected_index(self):
        sel = select_stub(3, selected=[0, 1])
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        merged = merge_tokens(emb, sel)
        assert merged.merge_assignment == {2: 0}

    def test_group_count_conservation(self):
        rng = np.random.default_rng(8)
        trace = random_encoder_trace(rng, 5, 5, embed_dim=6)
        sel = select_tokens(trace, ScanConfig(retention=0.4, local_layer=1,
                                              window_rows=2, window_cols=2))
        merged = merge_tokens(trace.embeddings, sel)
        group_sizes = {s: 1 for s in merged.selected}
        for target in merged.merge_assignment.values():
            group_sizes[target] += 1
        assert sum(group_sizes.values()) == trace.n_tokens
        assert set(merged.merge_assignment) == set(sel.unselected())
        assert set(merged.merge_assignment.values()) <= set(sel.selected)

    def test_zero_norm_named(self):
        sel = select_stub(2, selected=[0])
        emb = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="token 1"):
            merge_tokens(emb, sel)

    @pytest.mark.parametrize("scale", [5e-324, 1e-170, 1e200, 1e308])
    def test_extreme_scales_keep_their_angle(self, scale):
        # the squared norms of rows at these scales under- or overflow
        emb = np.array([[scale, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1 * scale, scale]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = merge_tokens(emb, select_stub(4, [0, 1]))
        assert merged.merge_assignment == {2: 0, 3: 1}

    def test_overflowing_group_mean_named(self):
        # tokens 3 and 4 merge into anchor 1, whose sum overflows; anchor 2's
        # group of one does not
        emb = np.array([[0.0, 1.0], [1e308, 0.0], [1e308, 1e308], [1e308, 0.0],
                        [1e308, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError,
                               match="^merged embedding of anchor token 1 overflows$"):
                merge_tokens(emb, select_stub(5, [0, 1, 2]))
            quarter = emb / 4
            merged = merge_tokens(quarter, select_stub(5, [0, 1, 2]))
        assert merged.merge_assignment == {3: 1, 4: 1}
        assert np.array_equal(merged.merged_embeddings[1],
                              (quarter[1] + quarter[3] + quarter[4]) / 3)

    def test_report_and_write(self, tmp_path):
        rng = np.random.default_rng(9)
        trace = random_encoder_trace(rng, 3, 3, embed_dim=5)
        sel = merge_tokens(
            trace.embeddings,
            select_tokens(trace, ScanConfig(retention=0.5, local_layer=1,
                                            window_rows=1, window_cols=1)),
        )
        path = write_selection(sel, tmp_path)
        report = json.loads(path.read_text())
        assert report["selected"] == sel.selected
        assert len(report["merge_assignment"]) == len(sel.merge_assignment)
        assert (tmp_path / "merged_embeddings.vscn").exists()
        assert selection_report(sel)["n_tokens"] == 9


def exact_nearest(emb, selected, rows):
    """Brute force: for each row, the selected token whose ``unit_rows``
    vector has the largest exact (Fraction) dot product with the row's,
    the lowest selected index on ties."""
    unit = unit_rows(np.array(emb, dtype=np.float64))
    anchors = [[Fraction(x) for x in unit[s].tolist()] for s in selected]
    picks = []
    for r in rows:
        row = [Fraction(x) for x in unit[r].tolist()]
        dots = [sum(a * x for a, x in zip(anchor, row)) for anchor in anchors]
        picks.append(selected[dots.index(max(dots))])
    return picks


def seed_merge(emb, selected):
    """Reference: the exact nearest anchor, then the original merge, one
    emb[group].mean(axis=0) per group."""
    sel = np.asarray(selected)
    unsel = np.asarray(sorted(set(range(emb.shape[0])) - set(selected)), dtype=int)
    if unsel.size == 0:
        return {}, emb[sel].copy()
    assignment = dict(zip(unsel.tolist(), exact_nearest(emb, selected, unsel.tolist())))
    merged = np.empty((sel.size, emb.shape[1]))
    for row, s in enumerate(sel):
        group = [int(s)] + [u for u, tgt in assignment.items() if tgt == s]
        merged[row] = emb[group].mean(axis=0) if len(group) > 1 else emb[s]
    return assignment, merged


# few distinct values, -0.0 among them, so rows repeat (exact cosine ties)
# and groups of one keep -0.0 entries
_MERGE_VALUES = (-0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e-3, 7.0)


@st.composite
def merge_cases(draw, dims=st.integers(2, 12)):
    n = draw(st.integers(1, 40))
    d = draw(dims)
    emb = draw(hnp.arrays(np.float64, (n, d), elements=st.one_of(
        st.sampled_from(_MERGE_VALUES), st.floats(-100, 100))))
    emb[np.linalg.norm(emb, axis=1) == 0.0, 0] = 1.0
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    selected = [i for i in range(n) if keep[i]] or [draw(st.integers(0, n - 1))]
    return emb, selected


def _one_anchor_case(n, d, anchor):
    """Every other token lies nearest to ``anchor`` (the deepest grouping)."""
    rng = np.random.default_rng(n * d)
    emb = np.zeros((n, d))
    emb[:, 0] = rng.uniform(1.0, 2.0, n)
    emb[:, 1:] = rng.uniform(-1e-3, 1e-3, (n, d - 1))
    emb[anchor, 1:] = 0.0
    other = (anchor + 1) % n
    emb[other] = 0.0
    emb[other, 1] = -1.0
    return emb, sorted({anchor, other})


def _duplicate_anchor_case(n, d, n_anchors):
    """Gaussian rows; the last anchor is a bitwise copy of the first, so
    their columns lie in different tiles of a GEMM, and a tenth of the
    rows lie near that anchor."""
    rng = np.random.default_rng(n + d + n_anchors)
    emb = rng.standard_normal((n, d))
    selected = sorted(rng.choice(n, n_anchors, replace=False).tolist())
    emb[selected[-1]] = emb[selected[0]]
    unsel = sorted(set(range(n)) - set(selected))
    near = rng.choice(unsel, n // 10, replace=False)
    emb[near] = emb[selected[0]] + 0.5 * rng.standard_normal((near.size, d))
    return emb, selected


# rows 0 and 1 are anchors; row 2's exact dot with row 1 exceeds that with
# row 0 by about 4e-26, but both round to 1.0 in float64
_NEAR_TIE = (np.array([[8.0, 6.0, 8.0]]) + np.array([[-1, -2, 0], [3, -1, 3], [0, 0, 0]])
             * 2.0**-26, [0, 1])
# rows 0 and 1 are anchors; row 2 lies nearer row 0 exactly, but the float32
# screen (here: of these 2-dim rows) ranks row 1 first, by less than its
# bound
_F32_MISORDER = (np.array([[3.0, 2.0]]) + np.array([[-1, 2], [3, 2], [1, -1]]) * 2.0**-26,
                 [0, 1])
# row 2 equals row 0, but a float64 dot (here: of these 5-dim rows) ranks
# row 1 first
_F64_MISORDER = (np.array([[-2.0, -1.0, 2.0, 2.0, 1.0]])
                 + np.array([[0, 1, 0, 0, 0], [0, 0, 0, 0, -1], [0, 1, 0, 0, 0]]) * 2.0**-53,
                 [0, 1])
# the products of the second entries underflow: row 2's exact dot with row 1
# is 1 + 2**-1200, with row 0 just 1
_UNDERFLOW = (np.array([[1.0, 0.0], [1.0, 2.0**-600], [1.0, 2.0**-600]]), [0, 1])


class TestMergeMatchesSeed:
    @settings(max_examples=300, deadline=None)
    @given(merge_cases())
    @example((np.array([[-0.0, 1.0], [1.0, -0.0], [1.0, 0.0]]), [0, 1]))
    @example((np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), [0, 1]))
    @example((np.array([[2.0, -0.0], [-0.0, 3.0]]), [0, 1]))
    @example(_one_anchor_case(300, 3, 7))
    @example(_one_anchor_case(60, 1024, 0))
    @example(_duplicate_anchor_case(40, 12, 13))
    @example(_duplicate_anchor_case(37, 9, 7))
    @example(_duplicate_anchor_case(100, 16, 33))
    @example(_NEAR_TIE)
    @example(_UNDERFLOW)
    @example(_F32_MISORDER)
    @example(_F64_MISORDER)
    def test_byte_identical(self, case):
        emb, selected = case
        want_assignment, want = seed_merge(emb, selected)
        got = merge_tokens(emb, select_stub(emb.shape[0], selected))
        assert list(got.merge_assignment.items()) == list(want_assignment.items())
        assert got.merged_embeddings.tobytes() == want.tobytes()

    def test_duplicate_anchor_gets_no_token(self):
        # pipeline-next-sweep scale: the two copies have equal exact dots
        # with every row, so the lower one wins every such row
        emb, selected = _duplicate_anchor_case(2880, 1024, 959)
        got = merge_tokens(emb, select_stub(2880, selected)).merge_assignment
        targets = list(got.values())
        assert targets.count(selected[0]) >= 280
        assert selected[-1] not in targets

    def test_equal_anchors_need_no_exact_arithmetic(self, monkeypatch):
        # padding-like input: 5 anchors and 45 other tokens are one vector
        emb = np.zeros((55, 8))
        emb[:50] = [3.0, 1.0, -2.0, 0.5, 0.0, 0.0, 0.0, 0.0]
        emb[50:, 3:] = np.eye(5)
        monkeypatch.setattr(encoder_scan, "_exact_argmax", None)  # calling it fails
        got = merge_tokens(emb, select_stub(55, [0, 1, 2, 3, 4, 50, 51, 52, 53, 54]))
        assert set(got.merge_assignment.values()) == {0}

    @pytest.mark.parametrize("case", [_NEAR_TIE, _UNDERFLOW], ids=["near-tie", "underflow"])
    def test_exact_winner_beyond_float64_dots(self, case):
        emb, selected = case
        unit = unit_rows(emb.copy())
        assert unit[0] @ unit[2] == unit[1] @ unit[2]  # float64 cannot tell
        assert merge_tokens(emb, select_stub(3, selected)).merge_assignment == {2: 1}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([1.0, -0.5, 3.0, 0.0, 2.0**-600]), min_size=1, max_size=6),
           st.lists(st.lists(st.integers(-2, 2), min_size=6, max_size=6), min_size=1,
                    max_size=5),
           st.sampled_from([-60, -53, -40, -700]))
    def test_exact_argmax_of_near_parallel_rows(self, u, nudges, exp):
        # rows u + nudge * 2**exp: exact dots closer than float64 can tell,
        # and products that underflow
        u = np.array(u)
        vs = u + np.ldexp(np.array(nudges, dtype=float)[:, :u.size], exp)
        dots = [sum(Fraction(a) * Fraction(b) for a, b in zip(u.tolist(), v)) for v in vs.tolist()]
        assert encoder_scan._exact_argmax(u, vs) == dots.index(max(dots))

    @settings(max_examples=100, deadline=None)
    @given(merge_cases(), st.lists(st.booleans(), min_size=300, max_size=300))
    @example(_duplicate_anchor_case(100, 16, 33), [True, False, False] * 100)
    def test_pick_independent_of_other_rows(self, case, keep):
        # merging a subset of the unselected rows gives each the same pick
        emb, selected = case
        full = merge_tokens(emb, select_stub(emb.shape[0], selected)).merge_assignment
        rows = sorted(set(selected) | {u for u in full if keep[u]})
        pos = {r: i for i, r in enumerate(rows)}
        part = merge_tokens(emb[rows], select_stub(len(rows), [pos[s] for s in selected]))
        for i, target in part.merge_assignment.items():
            assert full[rows[i]] == rows[target]

    def test_single_anchor_takes_every_token(self):
        emb, selected = _one_anchor_case(300, 3, 7)
        got = merge_tokens(emb, select_stub(300, selected))
        assert set(got.merge_assignment.values()) == {7}

    def test_singleton_keeps_negative_zero(self):
        emb = np.array([[-0.0, 1.0], [1.0, -0.0], [1.0, 0.5]])
        got = merge_tokens(emb, select_stub(3, [0, 1])).merged_embeddings
        assert got[0].tobytes() == emb[0].tobytes()
        assert np.signbit(got[0, 0])

    @settings(max_examples=100, deadline=None)
    @given(merge_cases(dims=st.just(1)))
    def test_one_column_within_summation_error(self, case):
        # with one column, numpy's mean sums each group pairwise, not in
        # order, so the seed differs in the last bits for groups of 8 or more
        emb, selected = case
        want_assignment, want = seed_merge(emb, selected)
        got = merge_tokens(emb, select_stub(emb.shape[0], selected))
        assert got.merge_assignment == want_assignment
        tol = emb.shape[0] * np.finfo(np.float64).eps * np.abs(emb).max()
        assert np.allclose(got.merged_embeddings, want, rtol=0.0, atol=tol)


    @settings(max_examples=100, deadline=None)
    @given(merge_cases(), st.lists(st.integers(-1000, 1000), min_size=40, max_size=40))
    @example((np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 0.1]]), [0, 1]), [0] * 40)
    @example((np.array([[-0.0, -3.25, -3.25], [-3.25, -3.25, -3.25], [-3.25, -3.25, -3.25]]),
              [0, 1]), [0, -539, 0] + [0] * 37)
    def test_target_is_a_cosine_argmax(self, case, exponents):
        # rows scaled by powers of two up to 2**+-1000: merge's similarities
        # must agree with cosine_similarity on the same rows. A row scaled
        # down to zero has no direction
        emb, selected = case
        emb = np.ldexp(emb, np.array(exponents[: emb.shape[0]])[:, None])
        if not np.abs(emb).max(axis=1).all():
            return
        got = merge_tokens(emb, select_stub(emb.shape[0], selected))
        for u, target in got.merge_assignment.items():
            best = max(cosine_similarity(emb[u], emb[s]) for s in selected)
            assert cosine_similarity(emb[u], emb[target]) >= best - 1e-12


def select_stub(n, selected):
    from vtreduce import TokenSelection

    return TokenSelection(
        n_tokens=n, global_indices=selected, local_indices=[], selected=selected
    )


class TestRankInvariance:
    def test_scans_depend_only_on_ranks(self):
        rng = np.random.default_rng(10)
        for transform in (lambda s: 3 * s + 1, lambda s: np.exp(2 * s),
                          lambda s: s ** 3 + 0.5 * s):
            scores = rng.uniform(0, 1, size=24)
            windows = partition_windows(4, 6, 2, 3)
            assert global_scan(scores, 7) == global_scan(transform(scores), 7)
            assert local_scan(scores, windows, 9) == local_scan(
                transform(scores), windows, 9
            )
