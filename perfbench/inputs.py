"""Pipeline inputs built from the workload seed with numpy's own generator.

The bundles follow the VSCN format that README.md documents (magic, u16
version, u8 dtype code, u8 ndim, u64 dims, row-major little-endian payload,
plus ``manifest.json``). They are written here rather than by
``vtreduce gen`` so that a change to the package's generator or writer
cannot change what the pipeline workloads measure, and because numpy's
generator builds a 133 MB bundle in well under a second where the pinned
pure-Python stream takes about ten.
"""

import json
import struct
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
_F64 = 1


def write_tensor(path: Path, arr: np.ndarray) -> None:
    header = struct.pack("<4sHBB", b"VSCN", FORMAT_VERSION, _F64, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    path.write_bytes(header + np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _softmax(logits: np.ndarray) -> np.ndarray:
    exps = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def _write_manifest(out: Path, manifest: dict) -> None:
    manifest = {"version": FORMAT_VERSION, **manifest}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def encoder_bundle(rng, out: Path, grid_h, grid_w, n_layers, n_heads, embed_dim,
                   attention: str) -> None:
    """Encoder bundle with either "cls" (heads x n) or "self" (heads x n x n)
    post-softmax attention per layer; written one layer at a time so the
    whole stack is never in memory at once."""
    out.mkdir(parents=True)
    n = grid_h * grid_w
    shape = (n_heads, n) if attention == "cls" else (n_heads, n, n)
    names = [f"{attention}_{i:02d}.vscn" for i in range(n_layers)]
    for name in names:
        write_tensor(out / name, _softmax(rng.standard_normal(shape)))
    write_tensor(out / "embeddings.vscn", rng.standard_normal((n, embed_dim)))
    _write_manifest(out, {
        "kind": "encoder",
        "grid_h": grid_h,
        "grid_w": grid_w,
        "n_layers": n_layers,
        "n_heads": n_heads,
        "embed_dim": embed_dim,
        "files": {
            "embeddings": "embeddings.vscn",
            "cls_attention": names if attention == "cls" else None,
            "self_attention": names if attention == "self" else None,
        },
    })


def decoder_bundle(rng, out: Path, n_layers, n_heads, n_pre_text, n_visual,
                   n_post_text) -> None:
    """Decoder bundle of last-instruction-token rows, (heads x seq) per layer."""
    out.mkdir(parents=True)
    seq = n_pre_text + n_visual + n_post_text
    names = [f"layer_{i:02d}.vscn" for i in range(n_layers)]
    for name in names:
        write_tensor(out / name, _softmax(rng.standard_normal((n_heads, seq))))
    _write_manifest(out, {
        "kind": "decoder",
        "n_layers": n_layers,
        "n_heads": n_heads,
        "n_pre_text": n_pre_text,
        "n_visual": n_visual,
        "n_post_text": n_post_text,
        "files": {"last_instr_attention": names},
    })
