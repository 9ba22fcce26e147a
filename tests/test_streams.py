"""quantize and merge streamed from files, a chunk at a time, write the same
bytes and audits as the collect-wrappers on in-memory checkpoints, and a
payload that ends early fails the command without leaving an output."""

from __future__ import annotations

import os

import numpy as np
import pytest

from mtpipe import cli, merge, quant, tensorio as tio
from mtpipe.tensorio import CHUNK_ELEMS, Checkpoint, DType, Tensor, tensor_from_f64

# Element counts on both sides of one chunk boundary and across several.
SIZES = (CHUNK_ELEMS - 1, CHUNK_ELEMS + 1, 3 * CHUNK_ELEMS + 5)
POLICY = quant.QuantPolicy(skip_patterns=("q8*", "*.norm"))


def _codes(rng, n: int) -> bytes:
    codes = rng.integers(0, 0x7F, size=n, dtype=np.uint8)  # no NaN codes
    return (codes | (rng.integers(0, 2, size=n, dtype=np.uint8) << 7)).tobytes()


def _checkpoint(rng, dtypes: tuple[DType, ...]) -> Checkpoint:
    """For the i-th size, a tensor ``t<i>.<j>`` of each of ``dtypes`` and an
    8-bit one with its ``.scale``."""
    tensors = {}
    for i, n in enumerate(SIZES):
        for j, dtype in enumerate(dtypes):
            tensors[f"t{i}.{j}"] = tensor_from_f64(rng.standard_normal(n), dtype, (n,))
        tensors[f"q8.{i}"] = Tensor(DType.F8_E4M3, (n,), _codes(rng, n))
        tensors[f"q8.{i}.scale"] = tensor_from_f64(np.array([0.01 * (i + 1)]), DType.F32, ())
    tensors["e.norm"] = tensor_from_f64(rng.standard_normal(SIZES[-1]), DType.BF16, (SIZES[-1],))
    return Checkpoint(tensors=tensors, metadata={"format": "pt"})


def _write(ckpt, path) -> bytes:
    tio.write_checkpoint(ckpt, path)
    return path.read_bytes()


def test_streamed_quantize_matches_the_in_memory_wrappers(tmp_path, rng):
    x = _checkpoint(rng, (DType.F32, DType.F16, DType.BF16))
    src = tmp_path / "x.safetensors"
    tio.write_checkpoint(x, src)
    with tio.open_checkpoint(src) as opened:
        stream, streamed_audits = quant.quantize_stream(opened, POLICY)
        streamed = _write(stream, tmp_path / "streamed.safetensors")
    quantized = quant.quantize_checkpoint(x, POLICY)
    assert streamed == _write(quantized, tmp_path / "wrapped.safetensors")
    audits = quant.validate_quantization(x, quantized, POLICY)
    assert streamed_audits == {a.name: a for a in audits}
    assert [a.name for a in audits if a.skipped] == [n for n in x.tensors if POLICY.skips(n)]


def test_streamed_merge_matches_the_in_memory_wrapper(tmp_path, rng):
    # Same-dtype pairs, F16 against BF16 either way round (widened to F32),
    # and 8-bit pairs dequantized by their scales.
    x = _checkpoint(rng, (DType.F32, DType.F16, DType.BF16, DType.F16, DType.BF16))
    y = _checkpoint(rng, (DType.F32, DType.F16, DType.BF16, DType.BF16, DType.F16))
    spec = merge.MergeSpec(t=0.3)
    paths = tmp_path / "x.safetensors", tmp_path / "y.safetensors"
    for ckpt, path in zip((x, y), paths):
        tio.write_checkpoint(ckpt, path)
    with tio.open_checkpoint(paths[0]) as a, tio.open_checkpoint(paths[1]) as b:
        streamed = _write(merge.merge_stream(a, b, spec), tmp_path / "streamed.safetensors")
    merged = merge.merge_checkpoints(x, y, spec)
    assert streamed == _write(merged, tmp_path / "wrapped.safetensors")
    assert [merged.tensors[f"t0.{j}"].dtype for j in range(5)] == [
        DType.F32, DType.F16, DType.BF16, DType.F32, DType.F32]
    assert merged.tensors["q8.0"].dtype is DType.F32 and "q8.0.scale" not in merged.tensors


def test_merge_in_place_matches_a_separate_output(tmp_path, rng):
    a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    tio.write_checkpoint(_checkpoint(rng, (DType.BF16, DType.F32, DType.F16)), a)
    tio.write_checkpoint(_checkpoint(rng, (DType.BF16, DType.F32, DType.F16)), b)
    out = tmp_path / "merged.safetensors"
    assert cli.main(["merge", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
    assert cli.main(["merge", "--a", str(a), "--b", str(b), "--out", str(a)]) == 0
    assert a.read_bytes() == out.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [a.name, b.name, out.name]


@pytest.mark.parametrize("command", ["quantize", "merge"])
def test_a_payload_truncated_after_open_fails_with_no_output(tmp_path, rng, monkeypatch,
                                                             caplog, command):
    a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    for path in (a, b):
        tio.write_checkpoint(_checkpoint(rng, (DType.F32, DType.F16, DType.BF16)), path)
    opened = tio.open_checkpoint

    def open_then_truncate(path):
        ckpt = opened(path)
        os.truncate(path, os.fstat(ckpt.fd).st_size - 3)
        return ckpt

    monkeypatch.setattr(tio, "open_checkpoint", open_then_truncate)
    out = tmp_path / "out.safetensors"
    args = (["quantize", "--in", str(a), "--skip", "q8*"] if command == "quantize"
            else ["merge", "--a", str(a), "--b", str(b)])
    assert cli.main([*args, "--out", str(out)]) == 1
    assert "ends 3 bytes short" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == [a.name, b.name]
