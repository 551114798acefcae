"""The package's input rules, each with one owner: ``numerics.as_array``
turns outside values into arrays and refuses a 0-d value, and the
``pipeline.FIELDS`` types of the stage config keys are those the stage
configs declare."""

import dataclasses
import os

import numpy as np
import pytest

from vtreduce import (
    ConfigError,
    DecoderTrace,
    EncoderTrace,
    ModelDims,
    PruneConfig,
    ScanConfig,
    ShapeError,
    TokenSelection,
    cosine_similarity,
    global_scan,
    local_scan,
    merge_tokens,
    prune_at_layer,
    run_pipeline,
    softmax_rows,
    top_k_indices,
    write_tensor,
)
from vtreduce.numerics import as_tensor
from vtreduce.pipeline import FIELDS

SCALARS = [3.0, np.float64(1.0), np.array(2.0)]
SCALAR_IDS = ["float", "numpy-scalar", "0-d-array"]

# entry -> a call that passes the value where the entry takes an array
ARRAY_ENTRIES = {
    "as_tensor": as_tensor,
    "top_k_indices": lambda v: top_k_indices(v, 1),
    "softmax_rows": softmax_rows,
    "cosine_similarity": lambda v: cosine_similarity(v, v),
    "global_scan": lambda v: global_scan(v, 1),
    "local_scan": lambda v: local_scan(v, [[0]], 1),
    "prune_at_layer": lambda v: prune_at_layer(v, PruneConfig(1, 0.5, 2), 1),
    "merge_tokens": lambda v: merge_tokens(v, TokenSelection(1, [0], [], [0])),
    "EncoderTrace.embeddings": lambda v: EncoderTrace(
        1, 1, embeddings=v, cls_attention=np.ones((1, 1, 1))),
    "EncoderTrace.cls_attention": lambda v: EncoderTrace(
        1, 1, embeddings=np.ones((1, 2)), cls_attention=v),
    "EncoderTrace.self_attention": lambda v: EncoderTrace(
        1, 1, embeddings=np.ones((1, 2)), self_attention=v),
    "DecoderTrace.last_instr_attention": lambda v: DecoderTrace(0, 1, 1, v),
}


@pytest.mark.parametrize("value", SCALARS, ids=SCALAR_IDS)
@pytest.mark.parametrize("entry", ARRAY_ENTRIES)
def test_scalar_is_a_shape_error(entry, value):
    with pytest.raises(ShapeError, match="^expected an array with at least one "
                                         "dimension, got a scalar$"):
        ARRAY_ENTRIES[entry](value)


@pytest.mark.parametrize("value", SCALARS, ids=SCALAR_IDS)
def test_write_tensor_refuses_a_scalar_and_writes_nothing(tmp_path, value):
    path = tmp_path / "t.vscn"
    with pytest.raises(ShapeError, match="got a scalar"):
        write_tensor(path, value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cls", [ScanConfig, ModelDims])
def test_stage_config_fields_are_typed_by_their_class(cls):
    for field in dataclasses.fields(cls):
        assert FIELDS[field.name][0] == field.type


class _Path:
    """An ``os.PathLike`` that is neither a str nor a ``pathlib.Path``."""

    def __fspath__(self):
        return "somewhere"


@pytest.mark.parametrize("key", ["encoder_trace", "decoder_trace", "out_dir"])
def test_path_keys_take_a_str_or_path_like(key):
    assert isinstance(_Path(), os.PathLike)
    with pytest.raises(ConfigError, match=rf"^{key}: expected str \| os\.PathLike, got 3$"):
        run_pipeline({key: 3})
    # the path passes its check, so the next key is the one refused
    with pytest.raises(ConfigError, match="^preset: expected") as exc:
        run_pipeline({key: _Path(), "preset": 3})
    assert exc.value.stage == "config"
