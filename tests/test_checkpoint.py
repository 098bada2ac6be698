"""Checkpoint container: bit-exact round trips, format validation, typed
errors for every truncation and corrupted byte, an exact parameter match
on load, and a failed save that leaves the previous checkpoint intact."""

import errno
import functools
import hashlib
import os
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import checkpoint_oracle

from mixedflow.errors import ConfigError, DataFormatError, NumericError
from mixedflow.model import ModelConfig, PosteriorModel, load_model, save_model
from mixedflow.nn import load_checkpoint, save_checkpoint


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "enc.w": rng.normal(size=(7, 5)).astype(np.float32),
        "enc.b": rng.normal(size=5).astype(np.float64),
        "step": np.array([42], dtype=np.int64),
        "flags": np.array([1, 0, 1], dtype=np.uint8),
        "scalar": np.float32(3.25).reshape(()),
    }
    manifest = {"d": 3, "q": 1, "width": 64, "blocks": 2, "note": "unit-test"}
    path = tmp_path / "model.ckpt"
    digest = save_checkpoint(path, manifest, arrays)
    manifest2, arrays2, digest2 = load_checkpoint(path)
    assert digest == digest2
    assert manifest2 == manifest
    assert set(arrays2) == set(arrays)
    for name in arrays:
        assert arrays2[name].dtype == np.dtype(arrays[name].dtype).newbyteorder("<")
        np.testing.assert_array_equal(arrays2[name], arrays[name])


def test_streamed_save_writes_the_encoded_container(tmp_path):
    # every dtype kind and layout a save meets: 0-d, big-endian, transposed,
    # empty, bool, complex and a model's own parameter set
    rng = np.random.default_rng(3)
    model = PosteriorModel(TINY, np.random.default_rng(0))
    arrays = {
        "scalar": np.float32(3.25).reshape(()),
        "big": rng.normal(size=(3, 4)).astype(">f8"),
        "transposed": rng.normal(size=(5, 2)).astype(np.float32).T,
        "empty": np.zeros((0, 3), dtype=np.int16),
        "flags": np.array([True, False, True]),
        "complex": rng.normal(size=4) + 1j * rng.normal(size=4),
        **{f"model.{name}": p.data for name, p in model.named_parameters()},
    }
    manifest = {"d": 2, "note": "ünïcode", "best_val": -1.5}
    path = tmp_path / "model.ckpt"
    digest = save_checkpoint(path, manifest, arrays)
    body = checkpoint_oracle.encode(manifest, arrays)
    assert path.read_bytes() == body + hashlib.sha256(body).digest()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_save_load_save_is_stable(tmp_path):
    arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    d1 = save_checkpoint(p1, {"v": 1}, arrays)
    _, arrays2, _ = load_checkpoint(p1)
    d2 = save_checkpoint(p2, {"v": 1}, arrays2)
    assert d1 == d2
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_manifest_is_strict_json(tmp_path, value):
    with pytest.raises(NumericError, match="non-finite"):
        save_checkpoint(tmp_path / "model.ckpt", {"best_val": value}, {})
    assert list(tmp_path.iterdir()) == []


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {}, {"w": np.zeros(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(path)


# -- corrupt files: typed errors only, and an exact parameter set ------------

TINY = ModelConfig(d=1, q=1, width=4, summary_blocks=1, heads=2, flow_blocks=1, flow_hidden=4)


@functools.lru_cache(maxsize=None)
def _model_blob(version: int = 2) -> bytes:
    """A tiny model checkpoint; version 1 is the same body without the
    check digest."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_model(path, PosteriorModel(TINY, np.random.default_rng(0)))
        blob = path.read_bytes()
    return blob if version == 2 else blob[:4] + struct.pack("<I", 1) + blob[8:-32]


def _load(blob: bytes):
    """load_model on these bytes: the (manifest, parameter arrays) it gives,
    or the exception it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(blob)
        try:
            model, manifest, _ = load_model(path)
        except Exception as exc:  # noqa: BLE001 - the type is what is tested
            return exc
    manifest.pop("checkpoint_id")
    return manifest, {name: p.data for name, p in model.named_parameters()}


def _same_load(a, b) -> bool:
    return a[0] == b[0] and a[1].keys() == b[1].keys() and all(
        a[1][k].dtype == b[1][k].dtype and np.array_equal(a[1][k], b[1][k]) for k in a[1])


def _corrupt(blob: bytes, data) -> bytes:
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    flip = data.draw(st.integers(1, 255), label="xor")
    return blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_truncated_or_flipped_checkpoint_is_a_format_error(data):
    original = _load(_model_blob())
    outcome = _load(_corrupt(_model_blob(), data))
    assert isinstance(outcome, DataFormatError) or (
        not isinstance(outcome, Exception) and _same_load(outcome, original)), repr(outcome)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_version1_checkpoint_raises_only_typed_errors(data):
    # version 1 has no check digest: a changed payload byte may load, but nothing
    # escapes as struct.error, JSONDecodeError, TypeError or ValueError
    assert not isinstance(_load(_model_blob(1)), Exception)
    outcome = _load(_corrupt(_model_blob(1), data))
    assert not isinstance(outcome, Exception) or isinstance(outcome, (DataFormatError, ConfigError)), \
        repr(outcome)


def test_load_model_draws_nothing_and_keeps_the_file_arrays(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_model(path, PosteriorModel(TINY, np.random.default_rng(0)))
    _, arrays, _ = load_checkpoint(path)
    uniform_calls, real_rng = [], np.random.default_rng

    class SpyGenerator:   # a default_rng generator that records its uniform draws
        def __init__(self, *args, **kwargs):
            self.rng = real_rng(*args, **kwargs)

        def uniform(self, *args, **kwargs):
            uniform_calls.append(args)
            return self.rng.uniform(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", SpyGenerator)
    model, _, _ = load_model(path)
    assert uniform_calls == []
    for name, p in model.named_parameters():
        stored = arrays[f"model.{name}"]
        assert p.data.dtype == stored.dtype and p.data.tobytes() == stored.tobytes(), name
    PosteriorModel(TINY, np.random.default_rng(0))   # the spy sees an initialisation's draws
    assert uniform_calls


def test_every_truncation_is_a_format_error(tmp_path):
    blob = _model_blob()
    path = tmp_path / "m.ckpt"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)


def test_version1_checkpoint_still_loads():
    assert _same_load(_load(_model_blob(1)), _load(_model_blob()))


@pytest.mark.parametrize("infer_noise", [True, False])
def test_legacy_dtype_and_standardize_keys(tmp_path, infer_noise):
    """Older manifests also record `dtype` and `standardize`. Where they
    name the float32 model that standardizes exactly when it infers the
    noise, the checkpoint loads to the same parameters; otherwise it is a
    format error."""
    path = tmp_path / "m.ckpt"
    save_model(path, PosteriorModel(replace(TINY, infer_noise=infer_noise),
                                    np.random.default_rng(0)))
    manifest, arrays, _ = load_checkpoint(path)
    current = _load(path.read_bytes())

    def load_with(**keys):
        save_checkpoint(path, {**manifest, **keys}, arrays)
        return _load(path.read_bytes())

    legacy = {"dtype": "float32", "standardize": infer_noise}
    assert _same_load(load_with(**legacy), ({**current[0], **legacy}, current[1]))
    for bad in ({"dtype": "float64"}, {"standardize": not infer_noise}):
        got = load_with(**{**legacy, **bad})
        assert isinstance(got, DataFormatError) and "standardize" in str(got), bad


@pytest.mark.parametrize("change", ["missing", "extra", "reshaped"])
def test_parameter_set_must_match_the_model(tmp_path, change):
    model = PosteriorModel(TINY, np.random.default_rng(0))
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    manifest, arrays, _ = load_checkpoint(path)
    name = "model.summary.local.block0.norm1.gamma"
    if change == "missing":
        del arrays[name]
    elif change == "extra":
        arrays["model.summary.local.block0.norm3.gamma"] = arrays[name]
    else:
        arrays[name] = arrays[name][:-1]
    save_checkpoint(path, manifest, arrays)
    with pytest.raises(DataFormatError, match="norm"):
        load_model(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "last.ckpt"
    save_model(path, PosteriorModel(TINY, np.random.default_rng(0)), {"step": 1})
    before = _load(path.read_bytes())

    def disk_full(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError) as info:
        save_model(path, PosteriorModel(TINY, np.random.default_rng(1)), {"step": 2})
    assert info.value.errno == errno.ENOSPC
    monkeypatch.undo()
    assert load_model(path)[1]["step"] == 1
    assert _same_load(_load(path.read_bytes()), before)
    assert os.listdir(tmp_path) == ["last.ckpt"]
