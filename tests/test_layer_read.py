"""The `pipeline` load stage reads only the encoder layers its scan scores,
and only the pruning layer of the decoder.

Every layer file of both stacks is still checked by header, size and shape;
the values (finiteness, row sums) only of the layers read. The reference is
the eager pipeline: every layer read, the scan on the bundle's own layers.
"""

import json
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_encoder_trace, uniform_decoder_trace
from vtreduce import (
    ConfigError,
    DegenerateInputError,
    FormatError,
    ShapeError,
    TraceError,
    encoder_scan,
    generate_synthetic_encoder,
    read_decoder_bundle,
    read_encoder_bundle,
    run_pipeline,
    trace_io,
    write_decoder_bundle,
    write_encoder_bundle,
)

READ_ENCODER = trace_io.read_encoder_bundle


def make_world(root, n_layers=4):
    """A 4x4-token, 2-head encoder bundle with both stacks, and a decoder
    for the 8 tokens a 0.5 retention keeps."""
    trace = generate_synthetic_encoder(11, 4, 4, n_layers, 2, 8, locality_strength=1.5)
    write_encoder_bundle(trace, root / "enc")
    write_decoder_bundle(uniform_decoder_trace(4, 2, 3, 8, 5), root / "dec")


def world_cfg(root, out="run", **overrides):
    cfg = {"encoder_trace": str(root / "enc"), "decoder_trace": str(root / "dec"),
           "retention": 0.5, "local_layer": 2, "window_rows": 2, "window_cols": 2,
           "decoder_retention": 0.5, "prune_layer": 2, "n_layers": 4,
           "hidden_size": 32, "ffn_size": 64, "score_source": "self_avg",
           "out_dir": str(root / out)}
    return {**cfg, **overrides}


def artifacts(path):
    return {f.name: f.read_bytes() for f in sorted(Path(path).iterdir())}


def eager_artifacts(cfg, monkeypatch):
    """Artifacts of the pipeline with every layer read and no layer mapping."""
    with monkeypatch.context() as m:
        m.setattr(trace_io, "read_encoder_bundle", lambda path, layers: READ_ENCODER(path))
        m.setattr(encoder_scan.ScanConfig, "on_read_layers", lambda self, trace: self)
        run_pipeline(cfg)
    return artifacts(cfg["out_dir"])


def layer_files(root, stack):
    bundle = root / ("dec" if stack == "last_instr_attention" else "enc")
    manifest = json.loads((bundle / "manifest.json").read_text())
    return [bundle / name for name in manifest["files"][stack]]


def set_last_value(path, value):
    """Overwrite the last f64 of a tensor file's payload."""
    blob = bytearray(path.read_bytes())
    blob[-8:] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))


def last_value(path):
    return struct.unpack("<d", path.read_bytes()[-8:])[0]


def rewrite_stack(root, stack, arrays):
    for path, arr in zip(layer_files(root, stack), arrays):
        path.unlink()
        trace_io.write_tensor(path, arr)


@pytest.mark.parametrize("source, local_layer, output_layer, depth", [
    ("cls", 2, None, 4),
    ("self_avg", 2, None, 4),
    ("cls", 1, 4, 4),
    ("self_avg", 2, 4, 4),
    ("cls", 3, 3, 4),
    ("self_avg", 3, 3, 4),
    ("cls", 1, None, 1),
    ("self_avg", 1, None, 1),
])
def test_artifacts_match_the_eager_read(tmp_path, monkeypatch, source, local_layer,
                                        output_layer, depth):
    make_world(tmp_path, n_layers=depth)
    cfg = world_cfg(tmp_path, score_source=source, local_layer=local_layer,
                    **({} if output_layer is None else {"output_layer": output_layer}))
    run_pipeline(cfg)
    assert artifacts(cfg["out_dir"]) == eager_artifacts(cfg, monkeypatch)


def payload_reads(monkeypatch):
    """The names of the files whose payloads are read from now on, in order."""
    read = []
    real = trace_io._read_payload

    def spy(fh, code, out):
        read.append(Path(fh.name).name)
        real(fh, code, out)
    monkeypatch.setattr(trace_io, "_read_payload", spy)
    return read


@pytest.mark.parametrize("source, stack, scored", [
    ("self_avg", "self_attention", [2, 3]),  # default output: the penultimate
    ("cls", "cls_attention", [2, 3]),
])
def test_only_the_scored_layers_are_read(tmp_path, monkeypatch, source, stack, scored):
    make_world(tmp_path)
    read = payload_reads(monkeypatch)
    run_pipeline(world_cfg(tmp_path, score_source=source))
    files = layer_files(tmp_path, stack)
    encoder_reads = [name for name in read if name.startswith(("cls", "self", "emb"))]
    assert encoder_reads == ["embeddings.vscn", *(files[i - 1].name for i in scored)]
    assert [name for name in read if name.startswith("layer")] == ["layer_01.vscn"]


# where -> (stack, 1-based layer) of a layer `pipeline` does not read
_UNREAD = {"unread layer": ("self_attention", 4), "other stack": ("cls_attention", 2),
           "unread decoder layer": ("last_instr_attention", 4)}


@pytest.mark.parametrize("where", list(_UNREAD))
@pytest.mark.parametrize("fault", ["nan", "row sum"])
def test_values_of_unread_layers_are_not_checked(tmp_path, monkeypatch, where, fault):
    make_world(tmp_path)
    cfg = world_cfg(tmp_path)  # self_avg, scores self layers 2 and 3; prunes at 2
    run_pipeline(cfg)
    clean = artifacts(cfg["out_dir"])
    stack, layer = _UNREAD[where]
    target = layer_files(tmp_path, stack)[layer - 1]
    value = math.nan if fault == "nan" else last_value(target) + 0.5
    set_last_value(target, value)
    run_pipeline(cfg)
    assert artifacts(cfg["out_dir"]) == clean
    error = DegenerateInputError if fault == "nan" else TraceError
    with pytest.raises(error):  # the public readers check every layer
        if stack == "last_instr_attention":
            read_decoder_bundle(tmp_path / "dec")
        else:
            read_encoder_bundle(tmp_path / "enc")


def test_decoder_depth_named_before_its_payloads_are_read(tmp_path, monkeypatch):
    make_world(tmp_path)
    read = payload_reads(monkeypatch)
    with pytest.raises(ConfigError, match="^decoder_trace: trace has 4 layers, "
                       "n_layers says 5$") as exc:
        run_pipeline(world_cfg(tmp_path, n_layers=5))
    assert exc.value.stage == "load-traces"
    assert not [name for name in read if name.startswith("layer")]


def test_unread_decoder_layer_with_a_bad_size_fails(tmp_path):
    make_world(tmp_path)
    last = layer_files(tmp_path, "last_instr_attention")[3]
    last.write_bytes(last.read_bytes()[:-3])
    fails_at_load(world_cfg(tmp_path), FormatError, "truncated payload")


def fails_at_load(cfg, error, match):
    with pytest.raises(error, match=match) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "load-traces"


@pytest.mark.parametrize("stack", ["self_attention", "cls_attention"])
def test_unread_layer_with_a_bad_size_or_shape_fails(tmp_path, stack):
    make_world(tmp_path)
    cfg = world_cfg(tmp_path)
    first = layer_files(tmp_path, stack)[0]  # layer 1 is not scored
    one_head = trace_io.read_tensor(first)[:1]
    first.write_bytes(first.read_bytes()[:-3])
    fails_at_load(cfg, FormatError, "truncated payload")
    first.unlink()
    trace_io.write_tensor(first, one_head)
    fails_at_load(cfg, FormatError, "layer files disagree on shape")


@pytest.mark.parametrize("key", ["n_layers", "n_heads", "embed_dim"])
def test_manifest_counts_are_still_checked(tmp_path, key):
    make_world(tmp_path)
    path = tmp_path / "enc" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] += 1
    path.write_text(json.dumps(manifest))
    fails_at_load(world_cfg(tmp_path), FormatError, f"manifest '{key}' is")


def test_absent_scored_stack_named_with_its_layer(tmp_path):
    make_world(tmp_path)
    path = tmp_path / "enc" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"]["self_attention"] = None
    path.write_text(json.dumps(manifest))
    fails_at_load(world_cfg(tmp_path, local_layer=3), TraceError,
                  r"^no self_attention in trace at layer 3$")


@pytest.mark.parametrize("source", ["cls", "self_avg"])
def test_stacks_that_disagree_on_layers_fail(tmp_path, source):
    make_world(tmp_path)
    path = tmp_path / "enc" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"]["cls_attention"].pop()
    del manifest["n_layers"]
    path.write_text(json.dumps(manifest))
    fails_at_load(world_cfg(tmp_path, score_source=source), TraceError,
                  "attention stacks disagree on layers/heads")


@pytest.mark.parametrize("source", ["cls", "self_avg"])
def test_stacks_that_disagree_on_heads_fail(tmp_path, source):
    make_world(tmp_path)
    rewrite_stack(tmp_path, "cls_attention", np.full((4, 1, 16), 1 / 16))
    fails_at_load(world_cfg(tmp_path, score_source=source), TraceError,
                  "attention stacks disagree on layers/heads")


def test_other_stack_token_dims_are_still_checked(tmp_path):
    make_world(tmp_path)
    rewrite_stack(tmp_path, "cls_attention", np.full((4, 2, 15), 1 / 15))
    fails_at_load(world_cfg(tmp_path), TraceError, "cls_attention token dim 15 != 16")
    rewrite_stack(tmp_path, "cls_attention", np.full((4, 2, 4, 4), 1 / 4))
    fails_at_load(world_cfg(tmp_path), ShapeError, "expected a 3-D array")


def test_output_layer_past_the_encoder_is_named_at_load(tmp_path):
    make_world(tmp_path)
    with pytest.raises(ConfigError, match="output_layer: need local_layer 2 <= "
                       "output_layer 5 <= 4 encoder layers") as exc:
        run_pipeline(world_cfg(tmp_path, output_layer=5))
    assert (exc.value.field, exc.value.stage) == ("output_layer", "load-traces")


def test_a_self_avg_load_holds_two_layers(tmp_path, monkeypatch):
    # 8 layers of 4 heads over 12x12 tokens: 648 KiB a layer
    trace = random_encoder_trace(np.random.default_rng(5), 12, 12, n_layers=8,
                                 n_heads=4, embed_dim=16, with_self=True)
    write_encoder_bundle(trace, tmp_path / "enc")
    write_decoder_bundle(uniform_decoder_trace(4, 2, 3, 72, 5), tmp_path / "dec")
    layer_bytes = trace.self_attention[0].nbytes
    # slack of a quarter layer: the row sums, temporaries and Python objects
    # of the load came to about 5% of a layer
    bound = 2 * layer_bytes + trace.embeddings.nbytes + layer_bytes // 4
    marks = []
    real_decoder = trace_io.read_decoder_bundle

    def read_encoder(*args, **kwargs):
        marks.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return READ_ENCODER(*args, **kwargs)

    def read_decoder(*args, **kwargs):
        decoder = real_decoder(*args, **kwargs)
        marks.append(tracemalloc.get_traced_memory()[1])  # the load stage's peak
        return decoder
    monkeypatch.setattr(trace_io, "read_encoder_bundle", read_encoder)
    monkeypatch.setattr(trace_io, "read_decoder_bundle", read_decoder)
    tracemalloc.start()
    try:
        run_pipeline(world_cfg(tmp_path, local_layer=3))
    finally:
        tracemalloc.stop()
    before, peak = marks
    assert peak - before < bound


@pytest.mark.parametrize("layer", [0, 5])
def test_layers_outside_the_stack_are_refused(tmp_path, layer):
    make_world(tmp_path)
    with pytest.raises(TraceError, match=rf"^self_attention layer {layer} outside \[1, 4\]$"):
        read_encoder_bundle(tmp_path / "enc",
                            layers=lambda stack, n: (2, layer) if stack == "self_attention" else ())


@pytest.mark.parametrize("bad", [1.5, True, np.True_, "2", np.float64(2.0), None])
@pytest.mark.parametrize("stack", ["self_attention", "last_instr_attention"])
def test_a_layer_that_is_not_an_integer_is_named_before_any_read(
        tmp_path, monkeypatch, stack, bad):
    make_world(tmp_path)
    read = payload_reads(monkeypatch)
    reader = read_decoder_bundle if stack == "last_instr_attention" else read_encoder_bundle
    bundle = tmp_path / ("dec" if stack == "last_instr_attention" else "enc")
    with pytest.raises(TraceError, match=rf"^{stack} layer {re.escape(repr(bad))} is not an integer$"):
        reader(bundle, layers=lambda s, n: (1, bad) if s == stack else ())
    assert read == []


def test_a_required_stack_with_no_layer_is_named_before_any_read(tmp_path, monkeypatch):
    make_world(tmp_path)
    read = payload_reads(monkeypatch)
    with pytest.raises(TraceError, match="^layers names no last_instr_attention layer to read$"):
        read_decoder_bundle(tmp_path / "dec", layers=lambda s, n: ())
    assert read == []


def test_numpy_integer_layers_read_as_ints(tmp_path):
    make_world(tmp_path)
    want = read_decoder_bundle(tmp_path / "dec", layers=lambda s, n: (2, 4))
    got = read_decoder_bundle(tmp_path / "dec",
                              layers=lambda s, n: np.array([4, 2, 4], dtype=np.uint8))
    assert np.array_equal(got.last_instr_attention, want.last_instr_attention)
    assert got.n_layers == 2


def test_layers_may_come_from_a_generator(tmp_path):
    make_world(tmp_path)
    got = read_decoder_bundle(tmp_path / "dec", layers=lambda s, n: (i for i in (3, 1)))
    want = read_decoder_bundle(tmp_path / "dec")
    assert np.array_equal(got.last_instr_attention, want.last_instr_attention[[0, 2]])
