"""Trace containers, their on-disk format, the JSON and CSV artifact
writers, and synthetic trace generators.

Binary tensor file layout (little-endian throughout):

    offset 0   magic   4 bytes  b"VSCN"
    offset 4   version u16      currently 1
    offset 6   dtype   u8       0 = f32, 1 = f64
    offset 7   ndim    u8
    offset 8   dims    ndim x u64
    then       payload row-major values, exactly elem_size * prod(dims) bytes

A trace bundle on disk is a directory holding ``manifest.json`` plus one
tensor file per array. ``publish`` writes bundles and pipeline runs alike
and moves ``manifest.json`` in last: a reader sees one whole bundle or none.

The synthetic generators stand in for a real vision-language model at desk
scale. They are pure functions of their arguments: equal arguments produce
byte-identical bundles.
"""

import contextlib
import csv
import json
import math
import operator
import os
import struct
import tempfile
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateInputError, FormatError, ShapeError, TraceError
from .numerics import as_tensor, check_shape, softmax_rows, unit_rows
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
    """Read a tensor file back as a float64 array (f32 payloads upconvert).

    Raises ``FormatError`` for a malformed file or a symlink, and
    ``DegenerateInputError`` when the payload holds a NaN or an Inf.
    """
    path = Path(path)
    return as_tensor(_read_stack(path.parent, [path.name])[0])


def _read_header(fh) -> tuple[tuple[int, ...], int]:
    """Parse the header of an open tensor file and check it against the
    file size; returns (dims, dtype code), with ``fh`` at the payload."""
    size = os.fstat(fh.fileno()).st_size
    if size < 8:
        raise FormatError("truncated header", offset=size)
    magic, version, code, ndim = struct.unpack("<4sHBB", fh.read(8))
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if code not in (_DTYPE_F32, _DTYPE_F64):
        raise FormatError(f"unknown dtype code {code}", offset=6)
    if ndim == 0:
        raise FormatError("scalar tensors are not supported", offset=7)
    if ndim > 31:  # a layer stack adds an axis, and numpy 1.x allows 32
        raise FormatError(f"ndim {ndim} exceeds 31", offset=7)
    dims_end = 8 + 8 * ndim
    if size < dims_end:
        raise FormatError("truncated dims", offset=size)
    dims = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
    if any(d == 0 for d in dims):
        raise FormatError(f"zero dimension in {dims}", offset=8)
    elem = 4 if code == _DTYPE_F32 else 8
    count = math.prod(dims)
    if count * elem > _MAX_PAYLOAD_BYTES:
        raise FormatError(f"dims {dims} overflow the payload limit", offset=8)
    expected = dims_end + count * elem
    if size != expected:
        kind = "truncated" if size < expected else "oversized"
        raise FormatError(
            f"{kind} payload: {size - dims_end} bytes, expected {count * elem}",
            offset=min(size, expected),
        )
    return dims, code


def _read_payload(fh, code: int, out: np.ndarray) -> None:
    """Read the payload at ``fh`` into the C-order float64 array ``out``:
    straight into it for f64, through one f32 buffer and a cast for f32."""
    buf = out if code == _DTYPE_F64 else np.empty(out.shape, np.float32)
    if fh.readinto(buf.data.cast("B")) != buf.nbytes:
        raise FormatError("payload changed size while it was read")
    if not np.little_endian:
        buf.byteswap(inplace=True)
    if buf is not out:
        out[...] = buf


def _no_follow(path, flags: int) -> int:
    """An ``open`` opener that refuses a symlink as the file itself."""
    return os.open(path, flags | os.O_NOFOLLOW)


def _read_stack(base: Path, names: list[str], keep=None) -> np.ndarray:
    """Read same-shape tensor files into a new float64 stack of the files at
    the 0-based, ascending indices ``keep`` (default: every file).

    Every header is checked against its file size, in order, and then the
    shapes against each other, before any payload is read; each kept payload
    is then copied once, into its slot. Values are left to the caller to check.
    """
    if not names:
        raise FormatError("manifest lists no layer files")
    paths = [base / name for name in names]
    try:
        heads = []
        for path in paths:
            with open(path, "rb", opener=_no_follow) as fh:
                heads.append(_read_header(fh))
        shapes = {dims for dims, _ in heads}
        if len(shapes) > 1:
            raise FormatError(f"layer files disagree on shape: {sorted(shapes)}")
        keep = range(len(paths)) if keep is None else keep
        stack = np.empty((len(keep), *shapes.pop()))
        for i, layer in zip(keep, stack):
            dims, code = heads[i]
            with open(paths[i], "rb", opener=_no_follow) as fh:
                fh.seek(8 + 8 * len(dims))
                _read_payload(fh, code, layer)
    except OSError as exc:
        raise FormatError(f"cannot read tensor file: {exc}") from exc
    return stack


# ---------------------------------------------------------------------------
# text artifacts


def write_json(path, obj, sort_keys: bool = True) -> Path:
    """Write ``obj`` as 2-space-indented JSON (keys sorted unless
    ``sort_keys`` is False) and a final newline."""
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=sort_keys, indent=2) + "\n")
    return path


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows to ``path``: a file path or an open text stream."""
    if not hasattr(path, "write"):
        with open(path, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(path)
    writer.writerow(header)
    writer.writerows(rows)


@contextlib.contextmanager
def publish(out_dir):
    """Yield a staging directory inside ``out_dir``, made if missing. When
    the block ends without error, remove the earlier copy of each staged
    file (for a staged manifest: the old manifest first, then every file it
    lists if it can be read), then move each staged file in by
    ``os.replace``, ``manifest.json`` last.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".write-", dir=out) as tmp:
        yield Path(tmp)
        names = sorted(os.listdir(tmp), key=lambda name: (name == "manifest.json", name))
        stale = names[::-1]  # the old manifest goes first
        if "manifest.json" in names:
            with contextlib.suppress(FormatError):  # an unreadable one lists nothing
                files = _load_manifest(out)[0]["files"]
                stale += [n for key, entry in files.items() for n in _entry_names(key, entry)]
        for name in stale:
            (out / name).unlink(missing_ok=True)
        for name in names:
            os.replace(Path(tmp) / name, out / name)


# ---------------------------------------------------------------------------
# trace containers


def _attention_stack(values, tail: tuple[int, ...], name: str, mismatch: str):
    """An attention stack as a checked C-order float64 array.

    Checks, in order: the rank, finiteness, the trailing dims against
    ``tail`` (``mismatch`` is the error text, with a ``{}`` per dim), and
    that every row sums to 1. The row sums are the one scan of the entries:
    a finite IEEE sum has only finite addends, so ``as_tensor`` rescans the
    stack only when some sum is not finite, to raise its error for a NaN or
    Inf entry. Finite rows whose sum overflows fail the row-sum check.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    check_shape(arr, 2 + len(tail))
    with np.errstate(over="ignore"):  # an overflowed sum fails the row check
        sums = arr.sum(axis=-1)
    if not np.isfinite(sums).all():
        as_tensor(arr)
    if arr.shape[2:] != tail:
        raise TraceError(mismatch.format(*arr.shape[2:]))
    if not np.allclose(sums, 1.0, atol=ROW_SUM_TOL, rtol=0.0):
        worst = float(np.abs(sums - 1.0).max())
        raise TraceError(
            f"{name} rows must sum to 1 within {ROW_SUM_TOL}, worst deviation {worst:.3g}"
        )
    return arr


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
        for name, (tail, mismatch) in self._stack_tails().items():
            if getattr(self, name) is not None:
                stack = _attention_stack(getattr(self, name), tail, name, mismatch)
                setattr(self, name, stack)
                stacks.add(stack.shape[:2])
        if len(stacks) > 1:
            raise TraceError(f"attention stacks disagree on layers/heads: {stacks}")

    def _stack_tails(self) -> dict:
        """Stack field -> (its trailing dims, the error text when they differ,
        with a ``{}`` per dim)."""
        n = self.n_tokens
        return {
            "cls_attention": ((n,), f"cls_attention token dim {{}} != {n}"),
            "self_attention": (
                (n, n), f"self_attention token dims ({{}}, {{}}) != ({n}, {n})"
            ),
        }

    @property
    def n_tokens(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def _attention(self) -> np.ndarray:
        """Whichever attention stack is present; both agree on layers and heads."""
        return self.cls_attention if self.cls_attention is not None else self.self_attention

    @property
    def n_layers(self) -> int:
        return self._attention.shape[0]

    @property
    def n_heads(self) -> int:
        return self._attention.shape[1]

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
        self.last_instr_attention = _attention_stack(
            self.last_instr_attention, (self.seq_len,), "last_instr_attention",
            f"attention seq dim {{}} != layout total {self.seq_len}",
        )

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
#
# The schema of a bundle is its trace dataclass, field by field in
# declaration order: an int field is a manifest key; a per-layer stack field
# is a list of ``<stem>_NN.vscn`` files, one per layer, or null when it is
# None; any other array field is the one file ``<field>.vscn``. The counts
# of a kind are manifest keys too, checked against the files on read.

_STACK_STEMS = {"cls_attention": "cls", "self_attention": "self",
                "last_instr_attention": "layer"}
# kind -> (trace class, counts)
_KINDS = {"encoder": (EncoderTrace, ("n_layers", "n_heads", "embed_dim")),
          "decoder": (DecoderTrace, ("n_layers", "n_heads"))}
# the manifest is checked before its kind is: these hold for every kind
_MANIFEST_INTS = tuple(dict.fromkeys(
    key for cls, counts in _KINDS.values()
    for key in [*(f.name for f in fields(cls) if f.type is int), *counts]
))
_ONE_FILE_KEYS = {f.name for cls, _ in _KINDS.values() for f in fields(cls)
                  if f.type is not int and f.name not in _STACK_STEMS}


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_bare_name(name) -> bool:
    """A file name with no directory part, so it resolves inside the bundle."""
    return isinstance(name, str) and name not in ("", "..") and Path(name).name == name


def _entry_names(key, entry):
    """The file names of a manifest ``files`` entry: a list once checked."""
    return [entry] if key in _ONE_FILE_KEYS else [] if entry is None else entry


def _load_manifest(path) -> tuple[dict, Path]:
    p = Path(path)
    if not p.is_file():
        p = p / "manifest.json"
    if not p.exists():
        raise FormatError(f"no manifest at {p}")
    try:
        manifest = json.loads(p.read_text())
    except OSError as exc:
        raise FormatError(f"cannot read manifest: {exc}") from exc
    # ValueError also covers bad UTF-8 and integers past Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("manifest must be a JSON object")
    for key in ("version", "kind", "files"):
        if key not in manifest:
            raise FormatError(f"manifest missing key {key!r}")
    version = manifest["version"]
    if not _is_int(version):
        raise FormatError(f"manifest 'version' must be an integer, got {version!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported manifest version {version}")
    if not isinstance(manifest["files"], dict):
        raise FormatError("manifest 'files' must be a JSON object")
    for key in _MANIFEST_INTS:
        value = manifest.get(key, 0)  # a missing key is reported where it is read
        if not _is_int(value):
            raise FormatError(f"manifest {key!r} must be an integer, got {value!r}")
    for key, entry in manifest["files"].items():
        names = _entry_names(key, entry)
        if not isinstance(names, list) or not all(map(_is_bare_name, names)):
            raise FormatError(
                f"manifest files entry {key!r} must name files inside the bundle, "
                f"got {entry!r}"
            )
    return manifest, p.parent


def _write_bundle(trace, out_dir, kind: str) -> Path:
    cls, counts = _KINDS[kind]
    manifest = {"version": FORMAT_VERSION, "kind": kind, "files": {}}
    with publish(out_dir) as staging:
        for f in fields(cls):
            value = getattr(trace, f.name)
            if f.type is int:
                manifest[f.name] = value
            elif f.name not in _STACK_STEMS:
                manifest["files"][f.name] = name = f"{f.name}.vscn"
                write_tensor(staging / name, value)
            elif value is None:
                manifest["files"][f.name] = None
            else:
                names = [f"{_STACK_STEMS[f.name]}_{i:02d}.vscn" for i in range(len(value))]
                for name, layer in zip(names, value):
                    write_tensor(staging / name, layer)
                manifest["files"][f.name] = names
        manifest.update((key, getattr(trace, key)) for key in counts)
        write_json(staging / "manifest.json", manifest)
    return Path(out_dir) / "manifest.json"


def _layer_slots(layers, stack: str, n_layers: int) -> list[int]:
    """The 0-based slots of the 1-based ``layers(stack, n_layers)``, ascending.
    A layer is an integer, numpy's too (``operator.index``), but not a bool."""
    wanted = list(layers(stack, n_layers))
    for layer in wanted:
        if isinstance(layer, bool) or not hasattr(layer, "__index__"):
            raise TraceError(f"{stack} layer {layer!r} is not an integer")
        if not 1 <= operator.index(layer) <= n_layers:
            raise TraceError(f"{stack} layer {layer} outside [1, {n_layers}]")
    return sorted({operator.index(layer) - 1 for layer in wanted})


def _read_bundle(path, kind: str, layers=None):
    cls, counts = _KINDS[kind]
    manifest, base = _load_manifest(path)
    if manifest["kind"] != kind:
        article = "an" if kind == "encoder" else "a"
        raise FormatError(f"expected {article} {kind} bundle, got kind {manifest['kind']!r}")
    files, values, shapes, plan = manifest["files"], {}, {}, {}
    try:
        # each stack's files and slots to read, settled before any payload is
        # read; an absent optional stack is the default, None
        for f in (f for f in fields(cls) if f.name in _STACK_STEMS):
            names = files[f.name] if f.default is MISSING else files.get(f.name) or []
            keep = None if layers is None else _layer_slots(layers, f.name, len(names))
            if names and keep == [] and f.default is MISSING:
                raise TraceError(f"layers names no {f.name} layer to read")
            plan[f.name] = names, keep
        # read unchecked: the trace checks every value it holds, once
        for f in fields(cls):
            if f.type is int:
                values[f.name] = manifest[f.name]
            elif f.name not in _STACK_STEMS:
                values[f.name] = _read_stack(base, [files[f.name]])[0]
            elif plan[f.name][0] or f.default is MISSING:
                stack = _read_stack(base, *plan[f.name])
                shapes[f.name] = (len(plan[f.name][0]), *stack.shape[1:])
                if len(stack):  # else checked by its headers alone, below
                    values[f.name] = stack
        trace = cls(**values)
    except KeyError as exc:
        raise FormatError(f"manifest missing key {exc}") from exc
    stacks = {shape[:2] for shape in shapes.values()}
    if len(stacks) > 1:
        raise TraceError(f"attention stacks disagree on layers/heads: {stacks}")
    for name in shapes.keys() - values.keys():  # the shape checks the trace skipped
        (tail, mismatch), shape = trace._stack_tails()[name], shapes[name]
        check_shape(np.broadcast_to(0.0, shape), 2 + len(tail))  # a view, no values
        if shape[2:] != tail:
            raise TraceError(mismatch.format(*shape[2:]))
    depth = stacks.pop()[0]  # the trace may hold fewer layers
    for key in (k for k in counts if k in manifest):
        actual = depth if key == "n_layers" else getattr(trace, key)
        if manifest[key] != actual:
            raise FormatError(f"manifest {key!r} is {manifest[key]}, but the "
                              f"files hold {actual}")
    return trace


def write_encoder_bundle(trace: EncoderTrace, out_dir) -> Path:
    """Write an encoder trace bundle; returns the manifest path."""
    return _write_bundle(trace, out_dir, "encoder")


def write_decoder_bundle(trace: DecoderTrace, out_dir) -> Path:
    """Write a decoder trace bundle; returns the manifest path."""
    return _write_bundle(trace, out_dir, "decoder")


def read_encoder_bundle(path, layers=None) -> EncoderTrace:
    """Read an encoder bundle, by default every layer of every stack.

    ``layers(stack, n_layers)``, when given, names the 1-based layers to
    read from each stack field, as integers, not bools, given how many files
    the manifest lists for it (0 when the stack is absent); the trace then
    holds just those layers, ascending and without repeats. Every file's
    header and size, and the layer and head counts, are checked either way;
    the values only of the layers read. Tensor files may not be symlinks.
    """
    return _read_bundle(path, "encoder", layers)


def read_decoder_bundle(path, layers=None) -> DecoderTrace:
    """Read a decoder bundle, by default every layer; ``layers`` selects
    layers of ``last_instr_attention`` as in ``read_encoder_bundle``."""
    return _read_bundle(path, "decoder", layers)


# ---------------------------------------------------------------------------
# synthetic generators


def _chebyshev_distances(grid_h: int, grid_w: int) -> np.ndarray:
    """(n, n) Chebyshev distance matrix over the row-major patch grid."""
    rows, cols = np.divmod(np.arange(grid_h * grid_w), grid_w)
    dr = np.abs(rows[:, None] - rows[None, :])
    dc = np.abs(cols[:, None] - cols[None, :])
    return np.maximum(dr, dc).astype(np.float64)


def _check_finite(field: str, value: float) -> None:
    """A generator strength must be finite; ``field`` is its ``gen`` flag."""
    if not math.isfinite(value):
        raise ConfigError(field, f"must be finite, got {value}")


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
    _check_finite("locality", locality_strength)
    n = grid_h * grid_w
    if include_self_attention:
        dist = _chebyshev_distances(grid_h, grid_w)
        weights = [locality_strength * (n_layers - 1 - i) / (n_layers - 1)
                   if n_layers > 1 else 0.0 for i in range(n_layers)]
        reach = float(dist.max())  # a Python float overflows without a warning
        if not all(math.isfinite(w * reach) for w in weights):
            raise ConfigError("locality", f"too large: a layer's weight times the "
                              f"grid distance overflows, got {locality_strength}")
    rng = Xoshiro256(seed)

    # the logits, each layer softmaxed in place
    cls_attn = rng.normals(n_layers * n_heads * n).reshape(n_layers, n_heads, n)
    for i in range(n_layers):
        cls_attn[i] = softmax_rows(cls_attn[i])

    self_attn = None
    if include_self_attention:
        # the logits, each slice softmaxed in place
        self_attn = rng.normals(n_layers * n_heads * n * n).reshape(
            n_layers, n_heads, n, n
        )
        for i, weight in enumerate(weights):
            for h in range(n_heads):
                self_attn[i, h] = softmax_rows(self_attn[i, h] - weight * dist)

    emb = rng.normals(n * embed_dim).reshape(n, embed_dim)
    unit_rows(emb)

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
    _check_finite("bias", position_bias_strength)
    _check_finite("visual_boost", visual_boost_strength)
    seq_len = n_pre_text + n_visual + n_post_text
    rng = Xoshiro256(seed)
    # the logits, each layer biased and softmaxed in place
    attn = rng.normals(n_layers * n_heads * seq_len).reshape(
        n_layers, n_heads, seq_len
    )

    positions = np.arange(seq_len, dtype=np.float64)
    recency = positions / (seq_len - 1) if seq_len > 1 else np.zeros(seq_len)
    boost_lo = n_layers // 3
    boost_hi = max(boost_lo + 1, (2 * n_layers) // 3)
    vis_lo, vis_hi = n_pre_text, n_pre_text + n_visual

    for j in range(n_layers):
        decay = max(0.0, 1.0 - 2.0 * j / n_layers)
        if position_bias_strength != 0.0 and decay > 0.0:
            attn[j] += position_bias_strength * decay * recency
        if visual_boost_strength != 0.0 and boost_lo <= j < boost_hi:
            attn[j, :, vis_lo:vis_hi] += visual_boost_strength
        attn[j] = softmax_rows(attn[j])

    return DecoderTrace(
        n_pre_text=n_pre_text,
        n_visual=n_visual,
        n_post_text=n_post_text,
        last_instr_attention=attn,
    )
