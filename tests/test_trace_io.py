import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import spearmanr

from conftest import near_mass
from vtreduce import (
    DecoderTrace,
    EncoderTrace,
    FormatError,
    ShapeError,
    TraceError,
    generate_synthetic_decoder,
    generate_synthetic_encoder,
    read_decoder_bundle,
    read_encoder_bundle,
    read_tensor,
    write_decoder_bundle,
    write_encoder_bundle,
    write_tensor,
)
from vtreduce.trace_io import MAGIC


def tiny_bundle(out, kind):
    """Write a small encoder or decoder bundle; return its manifest and reader."""
    if kind == "encoder":
        trace = generate_synthetic_encoder(
            1, 2, 2, 1, 1, 2, include_self_attention=False
        )
        return write_encoder_bundle(trace, out), read_encoder_bundle
    trace = generate_synthetic_decoder(1, 1, 1, 1, 4, 1)
    return write_decoder_bundle(trace, out), read_decoder_bundle


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

    def test_manifest_not_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1]")
        with pytest.raises(FormatError, match="JSON object"):
            read_decoder_bundle(tmp_path)

    def test_kind_mismatch(self, tmp_path):
        trace = generate_synthetic_decoder(5, 2, 1, 1, 4, 1)
        write_decoder_bundle(trace, tmp_path / "dec")
        with pytest.raises(FormatError, match="encoder"):
            read_encoder_bundle(tmp_path / "dec")


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

    def test_decoder_layout_total(self):
        attn = np.full((2, 1, 6), 1 / 6)
        with pytest.raises(TraceError):
            DecoderTrace(2, 4, 1, attn)  # layout says 7, rows have 6
