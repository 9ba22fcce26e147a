from __future__ import annotations

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtpipe import fp8, tensorio as tio

from conftest import random_checkpoint


def assemble(header: dict, data: bytes) -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob + data


def test_decode_hand_assembled_single_tensor(tmp_path):
    payload = struct.pack("<2f", 1.0, 2.0)
    raw = assemble(
        {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, payload
    )
    path = tmp_path / "one.safetensors"
    path.write_bytes(raw)
    ckpt = tio.read_checkpoint(path)
    assert set(ckpt.tensors) == {"w"}
    tensor = ckpt.tensors["w"]
    assert tensor.dtype is tio.DType.F32
    assert tensor.shape == (2,)
    assert list(tio.tensor_as_f64(tensor)) == [1.0, 2.0]
    assert ckpt.metadata == {}


def test_overlapping_offsets_rejected(tmp_path):
    raw = assemble(
        {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        },
        bytes(12),
    )
    path = tmp_path / "overlap.safetensors"
    path.write_bytes(raw)
    with pytest.raises(tio.OffsetViolation):
        tio.read_checkpoint(path)


def test_gapped_offsets_rejected(tmp_path):
    raw = assemble(
        {
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
        },
        bytes(12),
    )
    path = tmp_path / "gap.safetensors"
    path.write_bytes(raw)
    with pytest.raises(tio.OffsetViolation):
        tio.read_checkpoint(path)


def test_out_of_range_offsets_rejected(tmp_path):
    raw = assemble(
        {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}, bytes(8)
    )
    path = tmp_path / "range.safetensors"
    path.write_bytes(raw)
    with pytest.raises(tio.OffsetViolation):
        tio.read_checkpoint(path)


def test_uncovered_tail_rejected(tmp_path):
    raw = assemble(
        {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}, bytes(8)
    )
    path = tmp_path / "tail.safetensors"
    path.write_bytes(raw)
    with pytest.raises(tio.OffsetViolation):
        tio.read_checkpoint(path)


def test_header_longer_than_file_rejected(tmp_path):
    path = tmp_path / "huge.safetensors"
    path.write_bytes(struct.pack("<Q", 1 << 40) + b"{}")
    with pytest.raises(tio.HeaderTooLarge):
        tio.read_checkpoint(path)


def test_header_over_cap_rejected(tmp_path):
    declared = tio.MAX_HEADER_BYTES + 1
    path = tmp_path / "cap.safetensors"
    path.write_bytes(struct.pack("<Q", declared) + bytes(declared))
    with pytest.raises(tio.HeaderTooLarge):
        tio.read_checkpoint(path)


@pytest.mark.parametrize(
    "header",
    [
        b"not json at all",
        b"[1, 2, 3]",
        b'{"w": {"dtype": "F32", "shape": [2]}}',  # missing data_offsets
        b'{"w": {"dtype": "F32", "shape": [-1], "data_offsets": [0, 0]}}',
        b'{"w": 5}',
        b'{"": {"dtype": "F32", "shape": [], "data_offsets": [0, 4]}}',
    ],
)
def test_malformed_headers_rejected(tmp_path, header):
    # All of these fail during header validation, before the data section
    # is examined, so its length does not matter.
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + bytes(8))
    with pytest.raises(tio.MalformedHeader):
        tio.read_checkpoint(path)


def test_unknown_dtype_rejected(tmp_path):
    raw = assemble(
        {"w": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}}, bytes(8)
    )
    path = tmp_path / "dtype.safetensors"
    path.write_bytes(raw)
    with pytest.raises(tio.UnsupportedDType):
        tio.read_checkpoint(path)


def test_empty_checkpoint_round_trips(tmp_path):
    path = tmp_path / "empty.safetensors"
    tio.write_checkpoint(tio.Checkpoint(), path)
    ckpt = tio.read_checkpoint(path)
    assert ckpt.tensors == {}
    assert ckpt.metadata == {}


def test_metadata_round_trips(tmp_path):
    path = tmp_path / "meta.safetensors"
    tio.write_checkpoint(tio.Checkpoint(metadata={"format": "pt"}), path)
    blob = path.read_bytes()
    assert b"__metadata__" in blob
    assert tio.read_checkpoint(path).metadata == {"format": "pt"}


def test_write_rejects_empty_name(tmp_path):
    bad = tio.Checkpoint(tensors={"": tio.Tensor(tio.DType.F32, (1,), bytes(4))})
    with pytest.raises(tio.EmptyName):
        tio.write_checkpoint(bad, tmp_path / "x.safetensors")


def test_scalar_tensor_legal(tmp_path):
    scalar = tio.Tensor(tio.DType.F32, (), struct.pack("<f", 3.5))
    assert scalar.numel == 1
    path = tmp_path / "scalar.safetensors"
    tio.write_checkpoint(tio.Checkpoint(tensors={"s": scalar}), path)
    back = tio.read_checkpoint(path)
    assert back.tensors["s"].shape == ()
    assert list(tio.tensor_as_f64(back.tensors["s"])) == [3.5]


def test_round_trip_100_random_checkpoints(tmp_path, rng):
    for i in range(100):
        ckpt = random_checkpoint(rng)
        path = tmp_path / f"c{i}.safetensors"
        tio.write_checkpoint(ckpt, path)
        back = tio.read_checkpoint(path)
        assert back.metadata == ckpt.metadata
        assert set(back.tensors) == set(ckpt.tensors)
        for name, tensor in ckpt.tensors.items():
            got = back.tensors[name]
            assert got.dtype is tensor.dtype
            assert got.shape == tensor.shape
            assert got.data == tensor.data


def test_deterministic_writes(tmp_path, rng):
    ckpt = random_checkpoint(rng, n_tensors=4)
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    tio.write_checkpoint(ckpt, a)
    tio.write_checkpoint(ckpt, b)
    assert a.read_bytes() == b.read_bytes()


def test_tensor_as_f64_bf16_bit_layout():
    # 0x3F80 is the upper half of the float32 pattern for 1.0.
    tensor = tio.Tensor(tio.DType.BF16, (1,), struct.pack("<H", 0x3F80))
    assert list(tio.tensor_as_f64(tensor)) == [1.0]


def test_tensor_as_f64_fp8_code_table():
    tensor = tio.Tensor(tio.DType.F8_E4M3, (1,), bytes([0x7E]))
    assert list(tio.tensor_as_f64(tensor)) == [448.0]


def test_tensor_as_f64_identity_for_f32():
    tensor = tio.Tensor(tio.DType.F32, (2,), struct.pack("<2f", 0.5, -2.0))
    assert list(tio.tensor_as_f64(tensor)) == [0.5, -2.0]


def test_tensor_as_f64_preserves_nan():
    tensor = tio.Tensor(tio.DType.F32, (1,), struct.pack("<f", float("nan")))
    assert np.isnan(tio.tensor_as_f64(tensor))[0]


# Element counts just inside, at and across chunk boundaries.
ACROSS_CHUNKS = (tio.CHUNK_ELEMS - 1, tio.CHUNK_ELEMS, tio.CHUNK_ELEMS + 1, 3 * tio.CHUNK_ELEMS + 5)


@np.errstate(invalid="ignore")  # widening a signalling NaN
def _whole_array_decode(payload: bytes, dtype: tio.DType) -> np.ndarray:
    if dtype is tio.DType.BF16:
        bits = np.frombuffer(payload, dtype="<u2").astype(np.uint32) << 16
        return bits.view(np.float32).astype(np.float64)
    if dtype is tio.DType.F8_E4M3:
        return fp8.DECODE_TABLE[np.frombuffer(payload, dtype=np.uint8)]
    return np.frombuffer(payload, dtype={"F32": "<f4", "F16": "<f2"}[dtype.value]).astype(np.float64)


def _whole_array_encode(values: np.ndarray, dtype: tio.DType) -> np.ndarray:
    if dtype is tio.DType.F32:
        return values.astype("<f4")
    if dtype is tio.DType.F16:
        return np.clip(values, -65504.0, 65504.0).astype("<f2")
    if dtype is tio.DType.BF16:
        bits = values.astype(np.float32).view(np.uint32).astype(np.uint64)
        nearest_even = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
        return np.where(np.isnan(values), (bits >> 16) | 0x40, nearest_even).astype("<u2")
    return fp8.encode_array(values)


@pytest.mark.parametrize("n", ACROSS_CHUNKS)
@pytest.mark.parametrize("dtype", list(tio.DType), ids=lambda d: d.value)
def test_chunked_codecs_match_whole_array_numpy_across_chunk_boundaries(rng, dtype, n):
    payload = rng.integers(0, 256, size=n * dtype.itemsize, dtype=np.uint8).tobytes()
    decoded = tio.tensor_as_f64(tio.Tensor(dtype, (n,), payload))
    assert decoded.tobytes() == _whole_array_decode(payload, dtype).tobytes()

    values = rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, size=n))
    values[[0, n // 2, n - 2, n - 1]] = np.nan, -np.inf, -0.0, 1e6
    encoded = tio.tensor_from_f64(values, dtype, (n,))
    assert encoded.data == _whole_array_encode(values, dtype).tobytes()


def test_tensor_payload_length_validated():
    with pytest.raises(ValueError):
        tio.Tensor(tio.DType.F32, (2,), bytes(7))


@settings(max_examples=50, deadline=None)
@given(
    names=st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=12
        ),
        min_size=0,
        max_size=5,
        unique=True,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_round_trip_arbitrary_names(tmp_path_factory, names, seed):
    rng = np.random.default_rng(seed)
    tensors = {}
    for name in names:
        n = int(rng.integers(0, 5))
        tensors[name] = tio.Tensor(
            tio.DType.F8_E4M3, (n,), rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        )
    ckpt = tio.Checkpoint(tensors=tensors)
    path = tmp_path_factory.mktemp("ht") / "c.safetensors"
    tio.write_checkpoint(ckpt, path)
    assert tio.read_checkpoint(path) == ckpt


def test_read_of_a_file_truncated_after_open_raises_io_failure(tmp_path):
    path = tmp_path / "c.safetensors"
    tensors = {
        "a": tio.Tensor(tio.DType.F32, (2,), struct.pack("<2f", 1.0, 2.0)),
        "b": tio.Tensor(tio.DType.F32, (2,), struct.pack("<2f", 3.0, 4.0)),
    }
    tio.write_checkpoint(tio.Checkpoint(tensors=tensors), path)
    with tio.open_checkpoint(path) as src:
        os.truncate(path, path.stat().st_size - 2)
        assert b"".join(map(bytes, src.pieces("a"))) == tensors["a"].data
        with pytest.raises(tio.IoFailure):
            list(src.pieces("b"))
