"""Fuzz the three file readers: any input gives a result or an InputError.

Each reader is fed arbitrary bytes, single-byte mutations of a valid file
and truncations of it. Whatever the bytes, ``parse_xyz`` and
``load_dataset`` return records and ``load_checkpoint`` followed by
``model_from_checkpoint`` returns a model, or the call raises an
``InputError``: a corrupt file is bad input (exit 2), never a program
fault, so no other ``RotencError`` or exception may escape.
"""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import tiny_model_config
from rotenc.data import Normalizer, SplitSpec, load_dataset, parse_xyz
from rotenc.errors import InputError
from rotenc.model import Model
from rotenc.trainer import TrainConfig, checkpoint_from_model, load_checkpoint, model_from_checkpoint, save_checkpoint

GOLDEN = Path(__file__).parent / "data"
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _variant(data, valid: bytes, hot_end: int | None = None) -> bytes:
    """Arbitrary bytes, or ``valid`` with one byte replaced or its tail cut off.

    ``hot_end`` draws half of the replaced positions from ``valid[:hot_end]``,
    where a reader parses structure rather than raw numbers.
    """
    kind = data.draw(st.sampled_from(["bytes", "mutate", "mutate_hot", "truncate"]))
    if kind == "bytes":
        return data.draw(st.binary(max_size=400))
    if kind == "truncate":
        return valid[: data.draw(st.integers(0, len(valid) - 1))]
    end = hot_end if kind == "mutate_hot" and hot_end else len(valid)
    pos = data.draw(st.integers(0, end - 1))
    return valid[:pos] + bytes([data.draw(st.integers(0, 255))]) + valid[pos + 1 :]


def _result_or_input_error(call):
    try:
        return call()
    except InputError:
        return None


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory) -> bytes:
    model_cfg = tiny_model_config()
    model = Model(model_cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=0)
    normalizer = Normalizer(("rg",), np.array([1.5]), np.array([0.5]))
    path = tmp_path_factory.mktemp("ckpt") / "valid.rotenc"
    save_checkpoint(checkpoint_from_model(model, normalizer, TrainConfig(model_cfg, SplitSpec())), path)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_parse_xyz(input_file, data):
    input_file.write_bytes(_variant(data, (GOLDEN / "golden.xyz").read_bytes()))
    out = _result_or_input_error(lambda: parse_xyz(input_file))
    assert out is None or isinstance(out, list)


@FUZZ
@given(data=st.data())
def test_load_dataset(input_file, data):
    input_file.write_bytes(_variant(data, (GOLDEN / "golden.jsonl").read_bytes()))
    out = _result_or_input_error(lambda: load_dataset(input_file))
    assert out is None or isinstance(out, list)


@FUZZ
@given(data=st.data())
def test_load_checkpoint_then_model(input_file, valid_checkpoint, data):
    (header_len,) = struct.unpack_from("<I", valid_checkpoint, 8)
    input_file.write_bytes(_variant(data, valid_checkpoint, hot_end=12 + header_len))
    out = _result_or_input_error(lambda: model_from_checkpoint(load_checkpoint(input_file)))
    assert out is None or isinstance(out[0], Model)


def test_valid_inputs_load(input_file, valid_checkpoint):
    # the unmutated files are the fuzzers' starting points and must load
    assert len(parse_xyz(GOLDEN / "golden.xyz")) == 2
    assert len(load_dataset(GOLDEN / "golden.jsonl")) == 3
    input_file.write_bytes(valid_checkpoint)
    model, _ = model_from_checkpoint(load_checkpoint(input_file))
    assert isinstance(model, Model)
