import numpy as np
import pytest

from vtreduce import DecoderTrace, EncoderTrace
from vtreduce.cli import main


def softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def random_encoder_trace(
    rng,
    grid_h,
    grid_w,
    n_layers=2,
    n_heads=2,
    embed_dim=8,
    with_self=False,
):
    """Encoder trace with softmax-normalized random attention."""
    n = grid_h * grid_w
    cls_attn = softmax(rng.normal(size=(n_layers, n_heads, n)))
    self_attn = None
    if with_self:
        self_attn = softmax(rng.normal(size=(n_layers, n_heads, n, n)))
    emb = rng.normal(size=(n, embed_dim))
    return EncoderTrace(
        grid_h=grid_h,
        grid_w=grid_w,
        embeddings=emb,
        cls_attention=cls_attn,
        self_attention=self_attn,
    )


def uniform_decoder_trace(n_layers, n_heads, n_pre, n_visual, n_post):
    seq = n_pre + n_visual + n_post
    attn = np.full((n_layers, n_heads, seq), 1.0 / seq)
    return DecoderTrace(
        n_pre_text=n_pre,
        n_visual=n_visual,
        n_post_text=n_post,
        last_instr_attention=attn,
    )


def topk_oracle(scores, k):
    """Sort by (-score, index), take k, re-sort by index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:k])


def near_mass(trace, layer):
    """Mean attention mass within Chebyshev distance 1 of each query token."""
    n = trace.n_tokens
    rows, cols = np.divmod(np.arange(n), trace.grid_w)
    dr = np.abs(rows[:, None] - rows[None, :])
    dc = np.abs(cols[:, None] - cols[None, :])
    near = np.maximum(dr, dc) <= 1
    attn = trace.self_attention[layer - 1]
    return float((attn * near[None, :, :]).sum(axis=2).mean())


@pytest.fixture
def small_world(tmp_path):
    """6x6 encoder trace and a matching 18-visual-token decoder trace."""
    assert main(["gen", "--kind", "encoder", "--seed", "3", "--grid", "6x6",
                 "--layers", "4", "--heads", "2", "--embed-dim", "8",
                 "--cls-only", "--out", str(tmp_path / "enc")]) == 0
    assert main(["gen", "--kind", "decoder", "--seed", "4", "--layers", "4",
                 "--heads", "2", "--pre-text", "3", "--visual", "18",
                 "--post-text", "5", "--out", str(tmp_path / "dec")]) == 0
    return tmp_path
