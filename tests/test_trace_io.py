import dataclasses
import json
import math
import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import spearmanr

from conftest import near_mass
from vtreduce import trace_io
from vtreduce import (
    DecoderTrace,
    DegenerateInputError,
    EncoderTrace,
    FormatError,
    ShapeError,
    TraceError,
    VtReduceError,
    generate_synthetic_decoder,
    generate_synthetic_encoder,
    read_decoder_bundle,
    read_encoder_bundle,
    read_tensor,
    write_decoder_bundle,
    write_encoder_bundle,
    write_tensor,
)
from vtreduce.numerics import as_tensor
from vtreduce.trace_io import FORMAT_VERSION, MAGIC, ROW_SUM_TOL, _load_manifest


def tiny_bundle(out, kind):
    """Write a small encoder or decoder bundle; return its manifest and reader."""
    if kind == "encoder":
        trace = generate_synthetic_encoder(
            1, 2, 2, 1, 1, 2, include_self_attention=False
        )
        return write_encoder_bundle(trace, out), read_encoder_bundle
    trace = generate_synthetic_decoder(1, 1, 1, 1, 4, 1)
    return write_decoder_bundle(trace, out), read_decoder_bundle


def raw_tensor(path, arr, code=1):
    """Write a tensor file byte by byte, without write_tensor's value checks;
    code 0 stores f32, 1 stores f64."""
    arr = np.asarray(arr)
    header = struct.pack("<4sHBB", MAGIC, FORMAT_VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    path.write_bytes(header + arr.astype("<f4" if code == 0 else "<f8").tobytes())


class TestTensorFile:
    def test_round_trip_basic(self, tmp_path):
        path = tmp_path / "t.vscn"
        write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        back = read_tensor(path)
        assert back.shape == (2, 2)
        assert np.array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    @given(
        arr=hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
    @settings(max_examples=100)
    def test_round_trip_exact_f64(self, arr, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "t.vscn"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_f32_quantization(self, tmp_path):
        path = tmp_path / "t.vscn"
        values = np.array([1.0, 1 / 3, 1e-7, 12345.678])
        write_tensor(path, values, dtype="f32")
        back = read_tensor(path)
        assert np.array_equal(back, values.astype(np.float32).astype(np.float64))

    def test_empty_dim_rejected_on_write(self, tmp_path):
        with pytest.raises(ShapeError):
            write_tensor(tmp_path / "t.vscn", np.zeros((2, 0)))

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "t.vscn"
        write_tensor(path, np.ones(3))
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as exc:
            read_tensor(path)
        assert exc.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.vscn"
        write_tensor(path, np.ones(5))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            read_tensor(path)

    def test_oversized_payload(self, tmp_path):
        path = tmp_path / "t.vscn"
        write_tensor(path, np.ones(5))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(FormatError, match="oversized"):
            read_tensor(path)

    def test_dims_overflow(self, tmp_path):
        path = tmp_path / "t.vscn"
        write_tensor(path, np.ones(2))
        data = bytearray(path.read_bytes())
        data[8:16] = (1 << 60).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="overflow"):
            read_tensor(path)

    def test_non_finite_rejected(self, tmp_path):
        from vtreduce import DegenerateInputError

        with pytest.raises(DegenerateInputError):
            write_tensor(tmp_path / "t.vscn", np.array([1.0, np.nan]))

    @pytest.mark.parametrize("code, values", [
        (0, [math.inf, 1.0]),
        (0, [[1.0, -math.inf]]),
        (1, [1.0, math.nan]),
        (1, [[math.inf], [2.0]]),
    ])
    def test_non_finite_rejected_on_read(self, tmp_path, code, values):
        path = tmp_path / "t.vscn"
        raw_tensor(path, values, code)
        with pytest.raises(DegenerateInputError, match="NaN or Inf"):
            read_tensor(path)

    def test_f32_overflow_rejected(self, tmp_path):
        from vtreduce import DegenerateInputError

        path = tmp_path / "t.vscn"
        with pytest.raises(DegenerateInputError, match="f32"):
            write_tensor(path, np.array([1.0, 1e300]), dtype="f32")
        assert not path.exists()

    def test_magic_is_written_first(self, tmp_path):
        path = tmp_path / "t.vscn"
        write_tensor(path, np.ones(1))
        assert path.read_bytes()[:4] == MAGIC


class TestBundles:
    def test_encoder_round_trip(self, tmp_path):
        trace = generate_synthetic_encoder(5, 3, 4, n_layers=3, n_heads=2, embed_dim=6)
        manifest = write_encoder_bundle(trace, tmp_path / "enc")
        back = read_encoder_bundle(manifest)
        assert back.grid_h == 3 and back.grid_w == 4
        assert np.array_equal(back.cls_attention, trace.cls_attention)
        assert np.array_equal(back.self_attention, trace.self_attention)
        assert np.array_equal(back.embeddings, trace.embeddings)

    def test_decoder_round_trip_lists_layer_files(self, tmp_path):
        trace = generate_synthetic_decoder(5, 8, 2, 2, 9, 3)
        manifest = write_decoder_bundle(trace, tmp_path / "dec")
        listed = json.loads(manifest.read_text())["files"]["last_instr_attention"]
        assert len(listed) == 8
        back = read_decoder_bundle(tmp_path / "dec")
        assert np.array_equal(back.last_instr_attention, trace.last_instr_attention)

    def test_loader_enforces_row_sums(self, tmp_path):
        trace = generate_synthetic_decoder(5, 2, 1, 1, 4, 1)
        write_decoder_bundle(trace, tmp_path / "dec")
        bad = trace.last_instr_attention[0] * 1.5
        write_tensor(tmp_path / "dec" / "layer_00.vscn", bad)
        with pytest.raises(TraceError, match="sum to 1"):
            read_decoder_bundle(tmp_path / "dec")

    def test_missing_manifest_key(self, tmp_path):
        trace = generate_synthetic_decoder(5, 2, 1, 1, 4, 1)
        path = write_decoder_bundle(trace, tmp_path / "dec")
        manifest = json.loads(path.read_text())
        del manifest["n_visual"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            read_decoder_bundle(tmp_path / "dec")

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("encoder", "grid_h", "6"),
            ("encoder", "grid_w", True),
            ("encoder", "embed_dim", 8.0),
            ("encoder", "n_layers", None),
            ("decoder", "n_visual", "4"),
            ("decoder", "n_pre_text", 1.0),
            ("decoder", "n_post_text", False),
            ("decoder", "n_heads", [1]),
        ],
    )
    def test_manifest_integer_fields_typed(self, tmp_path, kind, field, value):
        path, read = tiny_bundle(tmp_path / "b", kind)
        manifest = json.loads(path.read_text())
        manifest[field] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=field):
            read(tmp_path / "b")

    @pytest.mark.parametrize(
        "kind, key, entry",
        [
            ("encoder", "embeddings", "../x/embeddings.vscn"),
            ("encoder", "embeddings", None),
            ("encoder", "embeddings", ["embeddings.vscn"]),
            ("encoder", "cls_attention", "cls_00.vscn"),
            ("encoder", "cls_attention", [".."]),
            ("decoder", "last_instr_attention", [1, 2]),
            ("decoder", "last_instr_attention", ["/abs/layer_00.vscn"]),
            ("decoder", "last_instr_attention", None),
            ("decoder", "last_instr_attention", []),
            ("decoder", "last_instr_attention", ["missing.vscn"]),
        ],
    )
    def test_bad_file_entries_rejected(self, tmp_path, kind, key, entry):
        path, read = tiny_bundle(tmp_path / "b", kind)
        manifest = json.loads(path.read_text())
        manifest["files"][key] = entry
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            read(tmp_path / "b")

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_manifest_version_must_be_an_integer(self, tmp_path, version):
        path, read = tiny_bundle(tmp_path / "b", "decoder")
        manifest = json.loads(path.read_text())
        manifest["version"] = version
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="'version' must be an integer"):
            read(tmp_path / "b")

    def test_manifest_not_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1]")
        with pytest.raises(FormatError, match="JSON object"):
            read_decoder_bundle(tmp_path)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("encoder", "n_layers", 99),
            ("encoder", "n_heads", 7),
            ("encoder", "embed_dim", 1),
            ("decoder", "n_layers", 2),
            ("decoder", "n_heads", 0),
        ],
    )
    def test_manifest_counts_must_match_files(self, tmp_path, kind, field, value):
        path, read = tiny_bundle(tmp_path / "b", kind)
        manifest = json.loads(path.read_text())
        manifest[field] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=field):
            read(tmp_path / "b")

    def test_kind_mismatch(self, tmp_path):
        trace = generate_synthetic_decoder(5, 2, 1, 1, 4, 1)
        write_decoder_bundle(trace, tmp_path / "dec")
        with pytest.raises(FormatError, match="encoder"):
            read_encoder_bundle(tmp_path / "dec")


class TestSymlinks:
    """A bundle's tensor files must be real files in its directory; the
    directory and its manifest may be links."""

    def linked_bundle(self, tmp_path, name):
        """A decoder bundle whose file ``name`` is a link to a copy outside it."""
        write_decoder_bundle(generate_synthetic_decoder(1, 2, 1, 1, 4, 1), tmp_path / "other")
        write_decoder_bundle(generate_synthetic_decoder(2, 2, 1, 1, 4, 1), tmp_path / "dec")
        (tmp_path / "dec" / name).unlink()
        (tmp_path / "dec" / name).symlink_to(Path("..", "other", name))
        return tmp_path / "dec"

    @pytest.mark.parametrize("layers", [None, lambda stack, n: (2,)])
    def test_linked_layer_file_refused(self, tmp_path, layers):
        bundle = self.linked_bundle(tmp_path, "layer_00.vscn")
        with pytest.raises(FormatError, match=r"cannot read tensor file: .*layer_00\.vscn"):
            read_decoder_bundle(bundle, layers=layers)

    def test_linked_embeddings_refused(self, tmp_path):
        write_encoder_bundle(generate_synthetic_encoder(1, 2, 2, 1, 1, 2), tmp_path / "other")
        write_encoder_bundle(generate_synthetic_encoder(2, 2, 2, 1, 1, 2), tmp_path / "enc")
        link = tmp_path / "enc" / "embeddings.vscn"
        link.unlink()
        link.symlink_to(tmp_path / "other" / "embeddings.vscn")
        with pytest.raises(FormatError, match=r"cannot read tensor file: .*embeddings\.vscn"):
            read_encoder_bundle(tmp_path / "enc")

    def test_read_tensor_refuses_a_link_it_is_given(self, tmp_path):
        write_tensor(tmp_path / "t.vscn", [1.0, 2.0])
        (tmp_path / "link.vscn").symlink_to("t.vscn")
        with pytest.raises(FormatError, match="link.vscn"):
            read_tensor(tmp_path / "link.vscn")
        assert read_tensor((tmp_path / "link.vscn").resolve()).tolist() == [1.0, 2.0]

    def test_linked_directory_and_manifest_read(self, tmp_path):
        trace = generate_synthetic_decoder(1, 2, 1, 1, 4, 1)
        write_decoder_bundle(trace, tmp_path / "dec")
        (tmp_path / "dir_link").symlink_to("dec")
        (tmp_path / "dec" / "manifest.json").rename(tmp_path / "manifest.json")
        (tmp_path / "dec" / "manifest.json").symlink_to(Path("..", "manifest.json"))
        for path in (tmp_path / "dir_link", tmp_path / "dec" / "manifest.json"):
            assert same_trace(read_decoder_bundle(path), trace)


def same_trace(a, b):
    """Whether two traces hold the same values, arrays compared exactly."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


class TestRewrite:
    @pytest.mark.parametrize("fail_at", [
        "write_tensor 3", *(f"replace {k}" for k in range(1, 5)),
    ])
    def test_failed_rewrite_never_reads_a_mix(self, tmp_path, monkeypatch, fail_at):
        # the new bundle stages 4 files over an old one of 9; both share the
        # grid, heads and embed dim, so a mix of their files would read back
        old = generate_synthetic_encoder(1, 3, 3, 4, 2, 4)
        new = generate_synthetic_encoder(2, 3, 3, 2, 2, 4, include_self_attention=False)
        out = tmp_path / "b"
        write_encoder_bundle(old, out)
        name, nth = fail_at.split()
        owner = trace_io if name == "write_tensor" else os
        calls, real = [], getattr(owner, name)

        def fail(*args):
            calls.append(args)
            if len(calls) == int(nth):
                raise OSError("disk full")
            return real(*args)
        monkeypatch.setattr(owner, name, fail)
        with pytest.raises(OSError, match="disk full"):
            write_encoder_bundle(new, out)
        monkeypatch.undo()
        try:
            back = read_encoder_bundle(out)
        except FormatError:
            pass
        else:
            assert same_trace(back, old) or same_trace(back, new)
        assert list(out.glob(".write-*")) == []


class TestEncoderGenerator:
    def test_deterministic(self, tmp_path):
        a = generate_synthetic_encoder(11, 4, 4, 3, 2, 8, locality_strength=2.0)
        b = generate_synthetic_encoder(11, 4, 4, 3, 2, 8, locality_strength=2.0)
        assert np.array_equal(a.cls_attention, b.cls_attention)
        assert np.array_equal(a.self_attention, b.self_attention)
        assert np.array_equal(a.embeddings, b.embeddings)
        # and byte-identical on disk
        pa = write_encoder_bundle(a, tmp_path / "a")
        pb = write_encoder_bundle(b, tmp_path / "b")
        for fa in sorted(pa.parent.iterdir()):
            fb = pb.parent / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_different_seeds_differ(self):
        a = generate_synthetic_encoder(1, 4, 4, 2, 1, 4)
        b = generate_synthetic_encoder(2, 4, 4, 2, 1, 4)
        assert not np.array_equal(a.cls_attention, b.cls_attention)

    def test_rows_normalized_across_seeds(self):
        for seed in range(5):
            tr = generate_synthetic_encoder(seed, 3, 5, 2, 2, 4, locality_strength=4.0)
            assert np.allclose(tr.cls_attention.sum(axis=-1), 1.0, atol=1e-9)
            assert np.allclose(tr.self_attention.sum(axis=-1), 1.0, atol=1e-9)

    def test_embeddings_unit_norm(self):
        tr = generate_synthetic_encoder(3, 4, 4, 2, 1, 8)
        assert np.allclose(np.linalg.norm(tr.embeddings, axis=1), 1.0, atol=1e-12)

    def test_locality_concentrates_shallow_layers(self):
        # derived check: with strength 10 on a 6x6 grid the attention mass
        # within Chebyshev distance 1 is strictly larger at layer 1
        tr = generate_synthetic_encoder(0, 6, 6, 8, 4, 16, locality_strength=10.0)
        assert near_mass(tr, 1) > near_mass(tr, tr.n_layers)

    def test_zero_locality_layers_statistically_alike(self):
        # degenerate kernel: layer 1 and the last layer come from the same
        # construction, so their mean near-mass agrees over seeds
        gap = 0.0
        for seed in range(10):
            tr = generate_synthetic_encoder(seed, 6, 6, 4, 2, 4, locality_strength=0.0)
            gap += near_mass(tr, 1) - near_mass(tr, tr.n_layers)
        assert abs(gap / 10) < 0.02

    def test_cls_only_option(self):
        tr = generate_synthetic_encoder(9, 4, 4, 2, 2, 4, include_self_attention=False)
        assert tr.self_attention is None
        assert tr.cls_attention is not None


class TestDecoderGenerator:
    def test_deterministic(self):
        a = generate_synthetic_decoder(21, 6, 2, 3, 12, 5, position_bias_strength=3.0)
        b = generate_synthetic_decoder(21, 6, 2, 3, 12, 5, position_bias_strength=3.0)
        assert np.array_equal(a.last_instr_attention, b.last_instr_attention)

    def test_rows_normalized_across_seeds(self):
        for seed in range(5):
            tr = generate_synthetic_decoder(seed, 4, 2, 2, 8, 3, position_bias_strength=5.0)
            assert np.allclose(tr.last_instr_attention.sum(axis=-1), 1.0, atol=1e-9)

    def test_recency_bias_raises_late_scores(self):
        from vtreduce import text_attention_scores

        tr = generate_synthetic_decoder(11, 8, 4, 4, 36, 8, position_bias_strength=5.0)
        scores = text_attention_scores(tr, 1)
        rho = spearmanr(scores, np.arange(scores.shape[0])).statistic
        assert rho > 0

    def test_zero_bias_no_positional_trend(self):
        from vtreduce import text_attention_scores

        rhos = []
        for seed in range(10):
            tr = generate_synthetic_decoder(seed, 8, 4, 4, 36, 8)
            scores = text_attention_scores(tr, 1)
            rhos.append(spearmanr(scores, np.arange(36)).statistic)
        assert abs(np.mean(rhos)) < 0.2

    def test_visual_boost_band(self):
        from vtreduce import attention_sum_per_layer

        tr = generate_synthetic_decoder(5, 12, 4, 4, 36, 8, visual_boost_strength=4.0)
        curve = attention_sum_per_layer(tr)
        assert 12 // 3 <= int(curve.head_mean.argmax()) < (2 * 12) // 3


class TestTraceValidation:
    def test_encoder_needs_some_attention(self):
        with pytest.raises(TraceError):
            EncoderTrace(2, 2, embeddings=np.ones((4, 3)))

    def test_decoder_row_sum_checked(self):
        attn = np.full((2, 1, 6), 0.2)
        with pytest.raises(TraceError):
            DecoderTrace(1, 4, 1, attn)

    def test_overflowing_row_sum_is_a_row_error_without_warning(self):
        attn = np.full((1, 2, 4), 0.25)
        attn[0, 1] = 1e308  # finite entries whose sum overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceError, match="sum to 1"):
                DecoderTrace(1, 2, 1, attn)

    def test_encoder_stacks_must_agree_on_layers(self):
        cls = np.full((2, 1, 2), 0.5)
        self_attn = np.full((3, 1, 2, 2), 0.5)
        with pytest.raises(TraceError, match=r"^attention stacks disagree on layers/heads: "):
            EncoderTrace(1, 2, embeddings=np.ones((2, 3)), cls_attention=cls,
                         self_attention=self_attn)

    def test_decoder_layout_total(self):
        attn = np.full((2, 1, 6), 1 / 6)
        with pytest.raises(TraceError):
            DecoderTrace(2, 4, 1, attn)  # layout says 7, rows have 6


# ---------------------------------------------------------------------------
# The eager bundle reader as it was before the single-pass read path: each
# layer file read whole, upconverted, stacked, then validated by as_tensor
# and a second pass for the row sums. The single-pass reader must return the
# same bytes and raise the same error, type and text, on every bundle.


def eager_read_tensor(path):
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
    if code not in (0, 1):
        raise FormatError(f"unknown dtype code {code}", offset=6)
    if ndim == 0:
        raise FormatError("scalar tensors are not supported", offset=7)
    dims_end = 8 + 8 * ndim
    if len(data) < dims_end:
        raise FormatError("truncated dims", offset=len(data))
    dims = struct.unpack_from(f"<{ndim}Q", data, 8)
    if any(d == 0 for d in dims):
        raise FormatError(f"zero dimension in {dims}", offset=8)
    elem = 4 if code == 0 else 8
    count = math.prod(dims)
    if count * elem > 1 << 40:
        raise FormatError(f"dims {dims} overflow the payload limit", offset=8)
    expected = dims_end + count * elem
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        raise FormatError(
            f"{kind} payload: {len(data) - dims_end} bytes, expected {count * elem}",
            offset=min(len(data), expected),
        )
    np_dtype = "<f4" if code == 0 else "<f8"
    arr = np.frombuffer(data, dtype=np_dtype, offset=dims_end).reshape(dims)
    return arr.astype(np.float64)


def eager_read_stack(base, names):
    if not names:
        raise FormatError("manifest lists no layer files")
    layers = [eager_read_tensor(base / name) for name in names]
    shapes = {a.shape for a in layers}
    if len(shapes) > 1:
        raise FormatError(f"layer files disagree on shape: {sorted(shapes)}")
    return np.stack(layers)


def eager_rows_normalized(arr, name):
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=ROW_SUM_TOL, rtol=0.0):
        worst = float(np.abs(sums - 1.0).max())
        raise TraceError(
            f"{name} rows must sum to 1 within {ROW_SUM_TOL}, worst deviation {worst:.3g}"
        )


def eager_read_encoder_bundle(path):
    manifest, base = _load_manifest(path)
    if manifest["kind"] != "encoder":
        raise FormatError(f"expected an encoder bundle, got kind {manifest['kind']!r}")
    files = manifest["files"]
    cls_names = files.get("cls_attention")
    self_names = files.get("self_attention")
    try:
        grid_h, grid_w = manifest["grid_h"], manifest["grid_w"]
        emb = eager_read_tensor(base / files["embeddings"])
        cls = eager_read_stack(base, cls_names) if cls_names else None
        slf = eager_read_stack(base, self_names) if self_names else None
    except KeyError as exc:
        raise FormatError(f"manifest missing key {exc}") from exc
    # EncoderTrace.__post_init__
    if grid_h < 1 or grid_w < 1:
        raise TraceError(f"grid {grid_h}x{grid_w} must be >= 1x1")
    n = grid_h * grid_w
    emb = as_tensor(emb, ndim=2)
    if emb.shape[0] != n:
        raise TraceError(f"embeddings rows {emb.shape[0]} != n_tokens {n}")
    if cls is None and slf is None:
        raise TraceError("trace needs cls_attention or self_attention")
    stacks = set()
    if cls is not None:
        cls = as_tensor(cls, ndim=3)
        if cls.shape[2] != n:
            raise TraceError(f"cls_attention token dim {cls.shape[2]} != {n}")
        eager_rows_normalized(cls, "cls_attention")
        stacks.add(cls.shape[:2])
    if slf is not None:
        slf = as_tensor(slf, ndim=4)
        if slf.shape[2:] != (n, n):
            raise TraceError(f"self_attention token dims {slf.shape[2:]} != ({n}, {n})")
        eager_rows_normalized(slf, "self_attention")
        stacks.add(slf.shape[:2])
    if len(stacks) > 1:
        raise TraceError(f"attention stacks disagree on layers/heads: {stacks}")
    return {"embeddings": emb, "cls_attention": cls, "self_attention": slf}


def eager_read_decoder_bundle(path):
    manifest, base = _load_manifest(path)
    if manifest["kind"] != "decoder":
        raise FormatError(f"expected a decoder bundle, got kind {manifest['kind']!r}")
    try:
        n_pre, n_vis, n_post = (
            manifest["n_pre_text"], manifest["n_visual"], manifest["n_post_text"]
        )
        attn = eager_read_stack(base, manifest["files"]["last_instr_attention"])
    except KeyError as exc:
        raise FormatError(f"manifest missing key {exc}") from exc
    # DecoderTrace.__post_init__
    if n_pre < 0 or n_vis < 1 or n_post < 1:
        raise TraceError("layout needs n_pre_text >= 0, n_visual >= 1, n_post_text >= 1")
    attn = as_tensor(attn, ndim=3)
    seq_len = n_pre + n_vis + n_post
    if attn.shape[2] != seq_len:
        raise TraceError(f"attention seq dim {attn.shape[2]} != layout total {seq_len}")
    eager_rows_normalized(attn, "last_instr_attention")
    return {"last_instr_attention": attn}


def read_outcome(read, path):
    """The arrays a reader returns, as (name, dtype, shape, bytes), or the
    type and text of the error it raises."""
    try:
        got = read(path)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return type(exc), str(exc)
    if not isinstance(got, dict):
        got = {k: getattr(got, k) for k in ("embeddings", "cls_attention",
                                            "self_attention", "last_instr_attention")
               if hasattr(got, k)}
    return sorted((k, None if a is None else (a.dtype.str, a.shape, a.tobytes()))
                  for k, a in got.items())


CORRUPTIONS = [None, "magic", "truncate", "oversize", "shape", "missing",
               "nonfinite", "row", "overflow", "token_dim_nan"]


def build_bundle(out, kind, f32_layers, seed):
    """A 2x3-token, 3-layer, 2-head bundle: "cls" or "self" encoder, or
    decoder; layer i stored as f32 when f32_layers[i]. Returns the manifest
    path, the layer file names, the stored arrays and their dtype codes."""
    if kind == "decoder":
        trace = generate_synthetic_decoder(seed, 3, 2, 1, 4, 2)
        manifest = write_decoder_bundle(trace, out)
        stack = trace.last_instr_attention
    else:
        trace = generate_synthetic_encoder(
            seed, 2, 3, 3, 2, 4, include_self_attention=kind == "self"
        )
        if kind == "self":
            trace = EncoderTrace(2, 3, trace.embeddings,
                                 self_attention=trace.self_attention)
        manifest = write_encoder_bundle(trace, out)
        stack = trace.cls_attention if kind == "cls" else trace.self_attention
    key = {"decoder": "last_instr_attention", "cls": "cls_attention",
           "self": "self_attention"}[kind]
    names = json.loads(manifest.read_text())["files"][key]
    codes = [0 if f32 else 1 for f32 in f32_layers]
    for name, layer, code in zip(names, stack, codes):
        raw_tensor(out / name, layer, code)
    return manifest, names, stack, codes


class TestSinglePassReaderMatchesEager:
    @given(
        kind=st.sampled_from(["cls", "self", "decoder"]),
        corruption=st.sampled_from(CORRUPTIONS),
        f32_layers=st.lists(st.booleans(), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_same_arrays_or_same_error(self, tmp_path_factory, kind, corruption,
                                       f32_layers, seed, data):
        out = tmp_path_factory.mktemp("bundle")
        manifest, names, stack, codes = build_bundle(out, kind, f32_layers, seed)
        k = data.draw(st.integers(0, len(names) - 1), label="layer")
        target, layer, code = out / names[k], stack[k].copy(), codes[k]
        if corruption in ("magic", "truncate", "oversize", "missing", "nonfinite") \
                and kind != "decoder" and data.draw(st.booleans(), label="embeddings"):
            target, code = out / "embeddings.vscn", 1
            layer = read_tensor(target)
        blob = target.read_bytes()
        pos = data.draw(st.integers(0, layer.size - 1), label="position")
        if corruption == "magic":
            target.write_bytes(data.draw(st.binary(min_size=4, max_size=4)
                                         .filter(lambda b: b != MAGIC)) + blob[4:])
        elif corruption == "truncate":
            target.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        elif corruption == "oversize":
            target.write_bytes(blob + b"\0" * data.draw(st.integers(1, 16)))
        elif corruption == "shape":
            raw_tensor(target, layer[:1], code)  # one head instead of two
        elif corruption == "missing":
            target.unlink()
        elif corruption in ("nonfinite", "token_dim_nan"):
            layer.flat[pos] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            raw_tensor(target, layer, code)
            if corruption == "token_dim_nan":
                fields = json.loads(manifest.read_text())
                fields["n_visual" if kind == "decoder" else "grid_w"] += 1
                manifest.write_text(json.dumps(fields))
        elif corruption == "row":
            layer.flat[pos] += data.draw(st.sampled_from([2e-5, 1e-3, -0.5]))
            raw_tensor(target, layer, code)
        elif corruption == "overflow":
            rows = layer.reshape(-1, layer.shape[-1])
            rows[pos // layer.shape[-1]] = 1e308  # finite entries, infinite sum
            raw_tensor(target, layer, 1)
        if kind == "decoder":
            new, eager = read_decoder_bundle, eager_read_decoder_bundle
        else:
            new, eager = read_encoder_bundle, eager_read_encoder_bundle
        expected = read_outcome(eager, out)
        assert read_outcome(new, out) == expected
        assert isinstance(expected, list) == (corruption is None)


# ---------------------------------------------------------------------------
# Fuzzing the input boundary: whatever the header bytes of a tensor file or
# the JSON of a manifest hold, a reader returns a valid result or raises a
# VtReduceError, never any other exception.

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=20), inner, max_size=4),
    max_leaves=10,
)
MANIFEST_KEYS = ["version", "kind", "files", "grid_h", "grid_w", "n_layers",
                 "n_heads", "embed_dim", "n_pre_text", "n_visual", "n_post_text"]
FILE_KEYS = ["embeddings", "cls_attention", "self_attention", "last_instr_attention"]
READERS = {"tensor": read_tensor, "encoder": read_encoder_bundle,
           "decoder": read_decoder_bundle}


@st.composite
def tensor_headers(draw):
    """Header bytes: random, or fields each valid or not."""
    magic = draw(st.sampled_from([MAGIC, b"VSCX"]))
    version = draw(st.sampled_from([FORMAT_VERSION, 0, 2**16 - 1]))
    code = draw(st.integers(0, 255) | st.sampled_from([0, 1]))
    ndim = draw(st.integers(0, 4) | st.sampled_from([31, 32, 64, 255]))
    drawn = min(ndim, 4)  # the dims past the fourth are 1
    dims = draw(st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 6),
                         min_size=drawn, max_size=drawn)) + [1] * (ndim - drawn)
    return struct.pack("<4sHBB", magic, version, code, ndim) + struct.pack(
        f"<{ndim}Q", *dims)


def read_or_domain_error(kind, path):
    """Read ``path``; a trace that comes back must agree with its manifest."""
    try:
        got = READERS[kind](path)
    except VtReduceError:
        return
    if kind == "tensor":
        assert isinstance(got, np.ndarray) and np.isfinite(got).all()
        return
    assert isinstance(got, EncoderTrace if kind == "encoder" else DecoderTrace)
    manifest = json.loads(path.read_text())
    for key in MANIFEST_KEYS[3:]:
        if key in manifest and hasattr(got, key):
            assert manifest[key] == getattr(got, key), key


class TestInputBoundaryFuzz:
    @given(
        kind=st.sampled_from(["tensor", "encoder", "decoder"]),
        header=tensor_headers() | st.binary(max_size=40),
        payload=st.none() | st.binary(max_size=80),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    @example(kind="tensor", payload=bytes(8), data=None,  # 64 dims of 1
             header=struct.pack("<4sHBB", MAGIC, 1, 1, 64) + struct.pack("<64Q", *[1] * 64))
    def test_tensor_header_bytes(self, kind, header, payload, data):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            if kind == "tensor":
                write_tensor(out / "t.vscn", [0.25, 0.75])
                target = path = out / "t.vscn"
            else:
                path = tiny_bundle(out, kind)[0]
                target = data.draw(st.sampled_from(sorted(out.glob("*.vscn"))))
            blob = target.read_bytes()
            ndim = blob[7]
            if payload is None:
                payload = blob[8 + 8 * ndim:]
            target.write_bytes(header + payload)
            read_or_domain_error(kind, path)

    @given(
        kind=st.sampled_from(["encoder", "decoder"]),
        edits=st.lists(st.tuples(st.sampled_from(MANIFEST_KEYS + FILE_KEYS),
                                 json_values), max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    @example(kind="encoder", edits=[("n_heads", 7)])
    def test_manifest_fields(self, kind, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = tiny_bundle(Path(tmp), kind)[0]
            manifest = json.loads(path.read_text())
            for key, value in edits:
                files = manifest.get("files")
                owner = files if key in FILE_KEYS and isinstance(files, dict) else manifest
                owner[key] = value
            path.write_text(json.dumps(manifest))
            read_or_domain_error(kind, path)

    @given(kind=st.sampled_from(["encoder", "decoder"]),
           text=st.binary(max_size=60) | st.text(max_size=60).map(str.encode))
    @settings(max_examples=100, deadline=None)
    @example(kind="decoder", text=b"\xff\xfe{}")
    @example(kind="encoder", text=b'{"version": ' + b"1" * 5000 + b"}")
    @example(kind="decoder", text=b"[" * 100_000)
    def test_manifest_bytes(self, kind, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = tiny_bundle(Path(tmp), kind)[0]
            path.write_bytes(text)
            read_or_domain_error(kind, path)
