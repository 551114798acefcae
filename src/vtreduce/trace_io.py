"""Trace containers, their on-disk format, and synthetic trace generators.

Binary tensor file layout (little-endian throughout):

    offset 0   magic   4 bytes  b"VSCN"
    offset 4   version u16      currently 1
    offset 6   dtype   u8       0 = f32, 1 = f64
    offset 7   ndim    u8
    offset 8   dims    ndim x u64
    then       payload row-major values, exactly elem_size * prod(dims) bytes

A trace bundle on disk is a directory holding ``manifest.json`` plus one
tensor file per array. Bundles are immutable once the manifest is written.

The synthetic generators stand in for a real vision-language model at desk
scale. They are pure functions of their arguments: equal arguments produce
byte-identical bundles.
"""

import dataclasses
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, FormatError, ShapeError, TraceError
from .numerics import as_tensor, softmax_rows
from .rng import Xoshiro256

MAGIC = b"VSCN"
FORMAT_VERSION = 1
_DTYPE_F32 = 0
_DTYPE_F64 = 1
# refuse dims whose payload would exceed this many bytes (corruption guard)
_MAX_PAYLOAD_BYTES = 1 << 40

ROW_SUM_TOL = 1e-5

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ROW_SUM_TOL",
    "write_tensor",
    "read_tensor",
    "EncoderTrace",
    "DecoderTrace",
    "write_encoder_bundle",
    "write_decoder_bundle",
    "read_encoder_bundle",
    "read_decoder_bundle",
    "generate_synthetic_encoder",
    "generate_synthetic_decoder",
]


# ---------------------------------------------------------------------------
# tensor files


def write_tensor(path, values, dtype: str = "f64") -> None:
    """Write one array as a tensor file. dtype is "f64" (default) or "f32"."""
    arr = as_tensor(values)
    if dtype == "f64":
        code, np_dtype = _DTYPE_F64, "<f8"
    elif dtype == "f32":
        code, np_dtype = _DTYPE_F32, "<f4"
    else:
        raise ShapeError(f"unsupported dtype {dtype!r}, expected 'f32' or 'f64'")
    with np.errstate(over="ignore"):  # an f32 overflow is raised just below
        payload = arr.astype(np_dtype, copy=False)  # no copy for f64
    if code == _DTYPE_F32 and not np.isfinite(payload).all():
        raise DegenerateInputError("values overflow f32")
    header = struct.pack("<4sHBB", MAGIC, FORMAT_VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file back as a float64 array (f32 payloads upconvert)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read tensor file: {exc}") from exc
    if len(data) < 8:
        raise FormatError("truncated header", offset=len(data))
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", offset=0)
    version, code, ndim = struct.unpack_from("<HBB", data, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if code not in (_DTYPE_F32, _DTYPE_F64):
        raise FormatError(f"unknown dtype code {code}", offset=6)
    if ndim == 0:
        raise FormatError("scalar tensors are not supported", offset=7)
    dims_end = 8 + 8 * ndim
    if len(data) < dims_end:
        raise FormatError("truncated dims", offset=len(data))
    dims = struct.unpack_from(f"<{ndim}Q", data, 8)
    if any(d == 0 for d in dims):
        raise FormatError(f"zero dimension in {dims}", offset=8)
    elem = 4 if code == _DTYPE_F32 else 8
    count = 1
    for d in dims:
        count *= d
    if count * elem > _MAX_PAYLOAD_BYTES:
        raise FormatError(f"dims {dims} overflow the payload limit", offset=8)
    expected = dims_end + count * elem
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        raise FormatError(
            f"{kind} payload: {len(data) - dims_end} bytes, expected {count * elem}",
            offset=min(len(data), expected),
        )
    np_dtype = "<f4" if code == _DTYPE_F32 else "<f8"
    arr = np.frombuffer(data, dtype=np_dtype, offset=dims_end).reshape(dims)
    return arr.astype(np.float64)


# ---------------------------------------------------------------------------
# trace containers


def _check_rows_normalized(arr: np.ndarray, name: str) -> None:
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=ROW_SUM_TOL, rtol=0.0):
        worst = float(np.abs(sums - 1.0).max())
        raise TraceError(
            f"{name} rows must sum to 1 within {ROW_SUM_TOL}, worst deviation {worst:.3g}"
        )


@dataclass
class EncoderTrace:
    """Per-layer attention and output embeddings from a visual encoder.

    ``cls_attention`` has shape (n_layers, n_heads, n_tokens): the attention
    row of the classification token over the patch tokens, post-softmax.
    ``self_attention`` has shape (n_layers, n_heads, n_tokens, n_tokens).
    At least one of the two must be present. ``embeddings`` holds the
    (n_tokens, embed_dim) features at the designated output layer.
    """

    grid_h: int
    grid_w: int
    embeddings: np.ndarray
    cls_attention: np.ndarray | None = None
    self_attention: np.ndarray | None = None

    def __post_init__(self):
        if self.grid_h < 1 or self.grid_w < 1:
            raise TraceError(f"grid {self.grid_h}x{self.grid_w} must be >= 1x1")
        n = self.n_tokens
        self.embeddings = as_tensor(self.embeddings, ndim=2)
        if self.embeddings.shape[0] != n:
            raise TraceError(
                f"embeddings rows {self.embeddings.shape[0]} != n_tokens {n}"
            )
        if self.cls_attention is None and self.self_attention is None:
            raise TraceError("trace needs cls_attention or self_attention")
        stacks = set()
        if self.cls_attention is not None:
            self.cls_attention = as_tensor(self.cls_attention, ndim=3)
            if self.cls_attention.shape[2] != n:
                raise TraceError(
                    f"cls_attention token dim {self.cls_attention.shape[2]} != {n}"
                )
            _check_rows_normalized(self.cls_attention, "cls_attention")
            stacks.add(self.cls_attention.shape[:2])
        if self.self_attention is not None:
            self.self_attention = as_tensor(self.self_attention, ndim=4)
            if self.self_attention.shape[2:] != (n, n):
                raise TraceError(
                    f"self_attention token dims {self.self_attention.shape[2:]} != ({n}, {n})"
                )
            _check_rows_normalized(self.self_attention, "self_attention")
            stacks.add(self.self_attention.shape[:2])
        if len(stacks) > 1:
            raise TraceError(f"attention stacks disagree on layers/heads: {stacks}")

    @property
    def n_tokens(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def n_layers(self) -> int:
        stack = self.cls_attention if self.cls_attention is not None else self.self_attention
        return stack.shape[0]

    @property
    def n_heads(self) -> int:
        stack = self.cls_attention if self.cls_attention is not None else self.self_attention
        return stack.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class DecoderTrace:
    """Per-layer attention rows of the last instruction token.

    The sequence is pre-text tokens, then a contiguous visual block, then
    post-text tokens; the last instruction token is the final position.
    ``last_instr_attention`` has shape (n_layers, n_heads, seq_len) and is
    post-softmax.
    """

    n_pre_text: int
    n_visual: int
    n_post_text: int
    last_instr_attention: np.ndarray

    def __post_init__(self):
        if self.n_pre_text < 0 or self.n_visual < 1 or self.n_post_text < 1:
            # the final post-text position is the last instruction token
            raise TraceError(
                "layout needs n_pre_text >= 0, n_visual >= 1, n_post_text >= 1"
            )
        self.last_instr_attention = as_tensor(self.last_instr_attention, ndim=3)
        if self.last_instr_attention.shape[2] != self.seq_len:
            raise TraceError(
                f"attention seq dim {self.last_instr_attention.shape[2]} != "
                f"layout total {self.seq_len}"
            )
        _check_rows_normalized(self.last_instr_attention, "last_instr_attention")

    @property
    def seq_len(self) -> int:
        return self.n_pre_text + self.n_visual + self.n_post_text

    @property
    def n_layers(self) -> int:
        return self.last_instr_attention.shape[0]

    @property
    def n_heads(self) -> int:
        return self.last_instr_attention.shape[1]

    @property
    def visual_span(self) -> tuple[int, int]:
        """Half-open [start, stop) positions of the visual block."""
        return self.n_pre_text, self.n_pre_text + self.n_visual


# ---------------------------------------------------------------------------
# bundles


def _write_manifest(out_dir: Path, manifest: dict) -> Path:
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _manifest_path(path) -> Path:
    p = Path(path)
    return p if p.is_file() else p / "manifest.json"


_MANIFEST_INTS = (
    "grid_h", "grid_w", "n_layers", "n_heads", "embed_dim",
    "n_pre_text", "n_visual", "n_post_text",
)


def _is_bare_name(name) -> bool:
    """A file name with no directory part, so it resolves inside the bundle."""
    return isinstance(name, str) and name not in ("", "..") and Path(name).name == name


def _load_manifest(path) -> tuple[dict, Path]:
    p = _manifest_path(path)
    if not p.exists():
        raise FormatError(f"no manifest at {p}")
    try:
        manifest = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("manifest must be a JSON object")
    for key in ("version", "kind", "files"):
        if key not in manifest:
            raise FormatError(f"manifest missing key {key!r}")
    if manifest["version"] != FORMAT_VERSION:
        raise FormatError(f"unsupported manifest version {manifest['version']}")
    if not isinstance(manifest["files"], dict):
        raise FormatError("manifest 'files' must be a JSON object")
    for key in _MANIFEST_INTS:
        value = manifest.get(key, 0)  # a missing key is reported where it is read
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"manifest {key!r} must be an integer, got {value!r}")
    # "embeddings" names one file; every other entry is null or a list of them
    for key, entry in manifest["files"].items():
        names = [entry] if key == "embeddings" else [] if entry is None else entry
        if not isinstance(names, list) or not all(map(_is_bare_name, names)):
            raise FormatError(
                f"manifest files entry {key!r} must name files inside the bundle, "
                f"got {entry!r}"
            )
    return manifest, p.parent


def write_encoder_bundle(trace: EncoderTrace, out_dir) -> Path:
    """Write an encoder trace bundle; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: dict = {"embeddings": "embeddings.vscn"}
    write_tensor(out / "embeddings.vscn", trace.embeddings)
    for key, stack, stem in (
        ("cls_attention", trace.cls_attention, "cls"),
        ("self_attention", trace.self_attention, "self"),
    ):
        if stack is None:
            files[key] = None
            continue
        names = [f"{stem}_{i:02d}.vscn" for i in range(stack.shape[0])]
        for name, layer in zip(names, stack):
            write_tensor(out / name, layer)
        files[key] = names
    manifest = {
        "version": FORMAT_VERSION,
        "kind": "encoder",
        "grid_h": trace.grid_h,
        "grid_w": trace.grid_w,
        "n_layers": trace.n_layers,
        "n_heads": trace.n_heads,
        "embed_dim": trace.embed_dim,
        "files": files,
    }
    return _write_manifest(out, manifest)


def write_decoder_bundle(trace: DecoderTrace, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"layer_{i:02d}.vscn" for i in range(trace.n_layers)]
    for name, layer in zip(names, trace.last_instr_attention):
        write_tensor(out / name, layer)
    manifest = {
        "version": FORMAT_VERSION,
        "kind": "decoder",
        "n_layers": trace.n_layers,
        "n_heads": trace.n_heads,
        "n_pre_text": trace.n_pre_text,
        "n_visual": trace.n_visual,
        "n_post_text": trace.n_post_text,
        "files": {"last_instr_attention": names},
    }
    return _write_manifest(out, manifest)


def _read_stack(base: Path, names: list[str]) -> np.ndarray:
    if not names:
        raise FormatError("manifest lists no layer files")
    layers = [read_tensor(base / name) for name in names]
    shapes = {a.shape for a in layers}
    if len(shapes) > 1:
        raise FormatError(f"layer files disagree on shape: {sorted(shapes)}")
    return np.stack(layers)


def read_encoder_bundle(path) -> EncoderTrace:
    manifest, base = _load_manifest(path)
    if manifest["kind"] != "encoder":
        raise FormatError(f"expected an encoder bundle, got kind {manifest['kind']!r}")
    files = manifest["files"]
    cls_names = files.get("cls_attention")
    self_names = files.get("self_attention")
    try:
        return EncoderTrace(
            grid_h=manifest["grid_h"],
            grid_w=manifest["grid_w"],
            embeddings=read_tensor(base / files["embeddings"]),
            cls_attention=_read_stack(base, cls_names) if cls_names else None,
            self_attention=_read_stack(base, self_names) if self_names else None,
        )
    except KeyError as exc:
        raise FormatError(f"manifest missing key {exc}") from exc


def read_decoder_bundle(path) -> DecoderTrace:
    manifest, base = _load_manifest(path)
    if manifest["kind"] != "decoder":
        raise FormatError(f"expected a decoder bundle, got kind {manifest['kind']!r}")
    try:
        return DecoderTrace(
            n_pre_text=manifest["n_pre_text"],
            n_visual=manifest["n_visual"],
            n_post_text=manifest["n_post_text"],
            last_instr_attention=_read_stack(
                base, manifest["files"]["last_instr_attention"]
            ),
        )
    except KeyError as exc:
        raise FormatError(f"manifest missing key {exc}") from exc


# ---------------------------------------------------------------------------
# synthetic generators


def _chebyshev_distances(grid_h: int, grid_w: int) -> np.ndarray:
    """(n, n) Chebyshev distance matrix over the row-major patch grid."""
    rows, cols = np.divmod(np.arange(grid_h * grid_w), grid_w)
    dr = np.abs(rows[:, None] - rows[None, :])
    dc = np.abs(cols[:, None] - cols[None, :])
    return np.maximum(dr, dc).astype(np.float64)


def generate_synthetic_encoder(
    seed: int,
    grid_h: int,
    grid_w: int,
    n_layers: int,
    n_heads: int,
    embed_dim: int,
    locality_strength: float = 0.0,
    include_self_attention: bool = True,
) -> EncoderTrace:
    """Deterministic synthetic encoder trace.

    Self-attention logits are a seeded normal field plus a distance-decay
    bonus ``-w * chebyshev(q, k)`` whose weight ``w`` falls linearly from
    ``locality_strength`` at layer 1 to 0 at the last layer, emulating the
    local-to-global trend of real encoders (with a single layer the weight
    is 0). Classification-token rows are the plain normal field. Draw order
    is: cls logits, self logits (when included), embeddings.
    """
    if min(grid_h, grid_w, n_layers, n_heads, embed_dim) < 1:
        raise TraceError("all generator dims must be >= 1")
    n = grid_h * grid_w
    rng = Xoshiro256(seed)

    cls_logits = rng.normals(n_layers * n_heads * n).reshape(n_layers, n_heads, n)
    cls_attn = np.stack(
        [softmax_rows(cls_logits[i]) for i in range(n_layers)]
    )

    self_attn = None
    if include_self_attention:
        logits = rng.normals(n_layers * n_heads * n * n).reshape(
            n_layers, n_heads, n, n
        )
        dist = _chebyshev_distances(grid_h, grid_w)
        self_attn = np.empty_like(logits)
        for i in range(n_layers):
            if n_layers > 1:
                weight = locality_strength * (n_layers - 1 - i) / (n_layers - 1)
            else:
                weight = 0.0
            for h in range(n_heads):
                self_attn[i, h] = softmax_rows(logits[i, h] - weight * dist)

    emb = rng.normals(n * embed_dim).reshape(n, embed_dim)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)

    return EncoderTrace(
        grid_h=grid_h,
        grid_w=grid_w,
        embeddings=emb,
        cls_attention=cls_attn,
        self_attention=self_attn,
    )


def generate_synthetic_decoder(
    seed: int,
    n_layers: int,
    n_heads: int,
    n_pre_text: int,
    n_visual: int,
    n_post_text: int,
    position_bias_strength: float = 0.0,
    visual_boost_strength: float = 0.0,
) -> DecoderTrace:
    """Deterministic synthetic decoder trace.

    Early layers add a recency bonus ``b * max(0, 1 - 2*j/K) * p/(S-1)``
    to the logit of sequence position p (0-based layer j), reproducing the
    position bias of shallow decoder layers; the bonus is zero from layer
    K/2 + 1 on. ``visual_boost_strength`` optionally raises the logits of
    the visual span in the middle third of layers, giving the head-mean
    visual attention curve a mid-layer peak.
    """
    if min(n_layers, n_heads, n_pre_text, n_visual, n_post_text) < 1:
        raise TraceError("all generator dims must be >= 1")
    seq_len = n_pre_text + n_visual + n_post_text
    rng = Xoshiro256(seed)
    logits = rng.normals(n_layers * n_heads * seq_len).reshape(
        n_layers, n_heads, seq_len
    )

    positions = np.arange(seq_len, dtype=np.float64)
    recency = positions / (seq_len - 1) if seq_len > 1 else np.zeros(seq_len)
    boost_lo = n_layers // 3
    boost_hi = max(boost_lo + 1, (2 * n_layers) // 3)
    vis_lo, vis_hi = n_pre_text, n_pre_text + n_visual

    attn = np.empty_like(logits)
    for j in range(n_layers):
        layer_logits = logits[j].copy()
        decay = max(0.0, 1.0 - 2.0 * j / n_layers)
        if position_bias_strength != 0.0 and decay > 0.0:
            layer_logits += position_bias_strength * decay * recency
        if visual_boost_strength != 0.0 and boost_lo <= j < boost_hi:
            layer_logits[:, vis_lo:vis_hi] += visual_boost_strength
        attn[j] = softmax_rows(layer_logits)

    return DecoderTrace(
        n_pre_text=n_pre_text,
        n_visual=n_visual,
        n_post_text=n_post_text,
        last_instr_attention=attn,
    )
