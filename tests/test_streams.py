"""quantize and merge streamed from files, a chunk at a time, write the same
bytes and audits as the collect-wrappers on in-memory checkpoints; every kind
of source writes what ``collect`` reads; and a payload that ends early, or
misses the bytes it announced, leaves no output."""

from __future__ import annotations

import os
from collections import Counter

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
                                                             capsys, command):
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
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR mtpipe: ") and "ends 3 bytes short" in line
    assert sorted(p.name for p in tmp_path.iterdir()) == [a.name, b.name]


def test_every_source_writes_what_collect_reads(tmp_path, rng):
    x = _checkpoint(rng, (DType.F32, DType.F16, DType.BF16))
    path = tmp_path / "x.safetensors"
    tio.write_checkpoint(x, path)
    with tio.open_checkpoint(path) as opened:
        sources = (x, opened, quant.quantize_stream(opened, POLICY)[0],
                   merge.merge_stream(opened, x, merge.MergeSpec(t=0.3)))
        for i, src in enumerate(sources):
            out = tmp_path / f"{i}.safetensors"
            tio.write_checkpoint(src, out)
            assert tio.read_checkpoint(out) == tio.collect(src)


def test_a_file_written_from_its_open_source_is_byte_identical(tmp_path, rng):
    a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    tio.write_checkpoint(_checkpoint(rng, (DType.F32, DType.F16, DType.BF16)), a)
    with tio.open_checkpoint(a) as opened:
        tio.write_checkpoint(opened, b)
    assert a.read_bytes() == b.read_bytes()


def test_a_quantize_stream_read_scales_first_matches_the_sorted_walk(rng):
    x = _checkpoint(rng, (DType.F32, DType.F16, DType.BF16))
    stream, sorted_audits = quant.quantize_stream(x, POLICY)
    expected = tio.collect(stream)
    reads = Counter()

    def counted(name):
        reads[name] += 1
        return Checkpoint.pieces(x, name)

    x.pieces = counted
    stream, audits = quant.quantize_stream(x, POLICY)
    # Reverse-sorted, each ``.scale`` comes before its tensor.
    order = sorted(stream.tensors, reverse=True)
    payloads = {n: b"".join(map(bytes, stream.pieces(n))) for n in order}
    assert payloads == {n: t.data for n, t in expected.tensors.items()}
    assert audits == sorted_audits
    # Two passes per quantized tensor, one per skipped tensor.
    assert reads == {n: 1 if POLICY.skips(n) else 2 for n in x.tensors}


@pytest.mark.parametrize("produced", [15, 17], ids=["short", "long"])
def test_a_payload_that_misses_its_announced_bytes_writes_nothing(tmp_path, produced):
    info = tio.TensorInfo(DType.F32, (4,))
    stream = tio.TensorStream({"a": info, "b": info}, {}, {
        "a": lambda: [bytes(16)], "b": lambda: [bytes(8), bytes(produced - 8)]})
    with pytest.raises(ValueError, match=f"'b': produced {produced} bytes, announced 16"):
        tio.write_checkpoint(stream, tmp_path / "out.safetensors")
    assert list(tmp_path.iterdir()) == []
