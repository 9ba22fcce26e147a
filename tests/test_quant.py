from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtpipe import fp8, merge, quant, tensorio as tio
from mtpipe.tensorio import CHUNK_ELEMS, Checkpoint, DType, Tensor, tensor_as_f64, tensor_from_f64

from oracles import naive_audit


def f32_tensor(values, shape=None):
    arr = np.asarray(values, dtype=np.float64)
    return tensor_from_f64(arr, DType.F32, shape if shape is not None else (arr.size,))


def test_all_zero_tensor():
    q = quant.quantize_fp8(f32_tensor([0.0, 0.0, 0.0]))
    assert q.scale == 1.0
    assert q.codes.data == bytes([0x00, 0x00, 0x00])
    restored = tensor_as_f64(quant.dequantize_fp8(q))
    assert list(restored) == [0.0, 0.0, 0.0]


def test_exactly_representable_values_round_trip():
    q = quant.quantize_fp8(f32_tensor([448.0, -224.0]))
    assert q.scale == 1.0
    restored = tensor_as_f64(quant.dequantize_fp8(q))
    assert list(restored) == [448.0, -224.0]


def test_rejects_already_quantized():
    codes = Tensor(DType.F8_E4M3, (2,), bytes([0, 1]))
    with pytest.raises(quant.AlreadyQuantized):
        quant.quantize_fp8(codes)


def test_rejects_non_finite():
    raw = np.array([1.0, np.inf], dtype="<f4").tobytes()
    with pytest.raises(fp8.NonFiniteInput):
        quant.quantize_fp8(Tensor(DType.F32, (2,), raw))


@pytest.mark.parametrize("scale", [0.0, -2.0, math.nan, math.inf])
def test_a_quantized_tensor_with_a_bad_scale_raises_bad_scale(scale):
    with pytest.raises(quant.BadScale, match="a scale must be finite and positive"):
        quant.QuantizedTensor(Tensor(DType.F8_E4M3, (1,), bytes([0x38])), scale)


def test_dequantize_scales_codes():
    q = quant.QuantizedTensor(Tensor(DType.F8_E4M3, (1,), bytes([0x7E])), 2.0)
    assert list(tensor_as_f64(quant.dequantize_fp8(q))) == [896.0]


def test_dequantize_zero_codes_any_scale():
    q = quant.QuantizedTensor(Tensor(DType.F8_E4M3, (3,), bytes(3)), 7.5)
    assert list(tensor_as_f64(quant.dequantize_fp8(q))) == [0.0, 0.0, 0.0]


def test_relative_error_bound_random_tensor(rng):
    values = rng.uniform(-10.0, 10.0, size=1000)
    q = quant.quantize_fp8(f32_tensor(values))
    restored = tensor_as_f64(quant.dequantize_fp8(q))
    original = tensor_as_f64(f32_tensor(values))
    mask = np.abs(original) >= q.scale * 2.0**-6
    rel = np.abs(restored[mask] - original[mask]) / np.abs(original[mask])
    assert rel.max() <= 2.0**-4


def test_shape_preserved(rng):
    t = f32_tensor(rng.uniform(-1, 1, size=12), shape=(3, 4))
    q = quant.quantize_fp8(t)
    assert q.codes.shape == (3, 4)
    assert quant.dequantize_fp8(q).shape == (3, 4)


def test_codes_invariant_under_power_of_two_scaling(rng):
    values = rng.uniform(-5.0, 5.0, size=256)
    base = quant.quantize_fp8(f32_tensor(values))
    for k in (0.25, 2.0, 64.0):
        scaled = quant.quantize_fp8(f32_tensor(values * k))
        assert scaled.codes.data == base.codes.data


def test_requantization_reproduces_codes(rng):
    # The fixed-point property needs the amax preserved through the f32
    # round trip: use a scale whose product with 448 is f32-exact and force
    # a full-scale code into the tensor.
    codes = rng.integers(0, 0x7F, size=64, dtype=np.uint8)
    codes[0] = 0x7E
    q = quant.QuantizedTensor(Tensor(DType.F8_E4M3, (64,), codes.tobytes()), 0.03125)
    again = quant.quantize_fp8(quant.dequantize_fp8(q))
    assert again.scale == q.scale
    assert again.codes.data == q.codes.data


def test_quantize_checkpoint_structure(rng):
    ckpt = Checkpoint(tensors={"w": f32_tensor(rng.uniform(-1, 1, size=8))})
    out = quant.quantize_checkpoint(ckpt, quant.QuantPolicy())
    assert set(out.tensors) == {"w", "w.scale"}
    assert out.tensors["w"].dtype is DType.F8_E4M3
    scale_tensor = out.tensors["w.scale"]
    assert scale_tensor.dtype is DType.F32
    assert scale_tensor.shape == ()
    assert out.metadata["quantization"] == "fp8-e4m3-dynamic"


def test_quantize_checkpoint_full_skip_is_identity(rng):
    tensors = {"a": f32_tensor(rng.uniform(-1, 1, size=4)), "b": f32_tensor([1.0])}
    ckpt = Checkpoint(tensors=tensors, metadata={"format": "pt"})
    out = quant.quantize_checkpoint(ckpt, quant.QuantPolicy(skip_patterns=("*",)))
    assert out.tensors == tensors
    assert out.metadata["format"] == "pt"
    assert out.metadata["quantization_skip"] == "*"


def test_quantize_checkpoint_partial_skip(rng):
    ckpt = Checkpoint(
        tensors={
            "model.embed": f32_tensor(rng.uniform(-1, 1, size=4)),
            "model.layer0": f32_tensor(rng.uniform(-1, 1, size=4)),
        }
    )
    out = quant.quantize_checkpoint(ckpt, quant.QuantPolicy(skip_patterns=("*.embed",)))
    assert out.tensors["model.embed"].dtype is DType.F32
    assert out.tensors["model.layer0"].dtype is DType.F8_E4M3
    assert "model.layer0.scale" in out.tensors
    assert "model.embed.scale" not in out.tensors


def test_quantize_checkpoint_name_collision(rng):
    ckpt = Checkpoint(
        tensors={
            "w": f32_tensor(rng.uniform(-1, 1, size=4)),
            "w.scale": f32_tensor([1.0]),
        }
    )
    with pytest.raises(quant.NameCollision):
        quant.quantize_checkpoint(ckpt, quant.QuantPolicy())


def test_quantize_checkpoint_error_bound(rng):
    tensors = {
        f"t{i}": f32_tensor(rng.uniform(-10, 10, size=int(rng.integers(1, 64))))
        for i in range(10)
    }
    ckpt = Checkpoint(tensors=tensors)
    out = quant.quantize_checkpoint(ckpt, quant.QuantPolicy())
    for audit in quant.validate_quantization(ckpt, out, quant.QuantPolicy()):
        assert audit.max_rel_err <= 2.0**-4


def test_order_independence_of_per_tensor_results(rng):
    # Quantization is pure per tensor: permuting the input mapping cannot
    # change any tensor's codes or scale.
    tensors = {f"t{i}": f32_tensor(rng.uniform(-3, 3, size=16)) for i in range(5)}
    forward = quant.quantize_checkpoint(Checkpoint(tensors=dict(tensors)), quant.QuantPolicy())
    reordered = dict(reversed(list(tensors.items())))
    backward = quant.quantize_checkpoint(Checkpoint(tensors=reordered), quant.QuantPolicy())
    assert forward.tensors == backward.tensors


@pytest.mark.parametrize(
    "companion",
    [tensor_from_f64(np.array([0.5]), DType.F16, ()), f32_tensor([0.5, 0.25])],
    ids=["f16", "two-values"],
)
def test_audit_and_merge_reject_a_bad_scale_companion_alike(rng, companion):
    original = Checkpoint(tensors={"w": f32_tensor(rng.uniform(-1, 1, size=4))})
    quantized = quant.quantize_checkpoint(original, quant.QuantPolicy())
    bad = Checkpoint(tensors={"w": quantized.tensors["w"], "w.scale": companion})
    message = "'w.scale' must be one float32 value"
    with pytest.raises(merge.ShapeMismatch, match=message):
        quant.validate_quantization(original, bad, quant.QuantPolicy())
    with pytest.raises(merge.ShapeMismatch, match=message):
        merge.merge_checkpoints(bad, quantized, merge.MergeSpec())


def test_fused_validated_and_two_pass_audits_agree_across_chunks(rng):
    # Multi-chunk tensors whose largest element sits in the last chunk, with
    # zeros and elements below the relative-error floor in every chunk.
    layout = {"a": (DType.F32, 3 * CHUNK_ELEMS + 5), "b": (DType.BF16, CHUNK_ELEMS + 1),
              "c": (DType.F16, CHUNK_ELEMS - 1), "d": (DType.F32, CHUNK_ELEMS),
              "e.norm": (DType.BF16, 2 * CHUNK_ELEMS + 3)}
    tensors = {}
    for name, (dtype, n) in layout.items():
        values = rng.standard_normal(n)
        values[::97] = 0.0
        values[::89] *= 1e-4
        values[-2] = 40.0
        tensors[name] = tensor_from_f64(values, dtype, (n,))
    original = Checkpoint(tensors=tensors)
    policy = quant.QuantPolicy(skip_patterns=("*.norm",))

    stream, fused = quant.quantize_stream(original, policy)
    quantized = tio.collect(stream)
    validated = quant.validate_quantization(
        original, quant.quantize_checkpoint(original, policy), policy)
    oracle = {}
    for name, t in tensors.items():
        values = tensor_as_f64(t)
        if policy.skips(name):
            oracle[name] = quant.TensorAudit(name, float(np.abs(values).max()), 1.0, 0.0, True)
            continue
        scale = float(np.float32(np.abs(values).max() / fp8.E4M3_MAX))
        stored = np.frombuffer(quantized.tensors[f"{name}.scale"].data, dtype="<f4")
        codes = np.frombuffer(quantized.tensors[name].data, dtype=np.uint8)
        assert float(stored[0]) == scale
        assert codes.tobytes() == fp8.encode_array(values / scale).tobytes()
        amax, max_rel = naive_audit(values, codes, scale)
        oracle[name] = quant.TensorAudit(name, amax, scale, max_rel)
    assert fused == {a.name: a for a in validated} == oracle


def _raw16(patterns, dtype: DType) -> Tensor:
    bits = np.asarray(patterns, dtype="<u2")
    return Tensor(dtype, (bits.size,), bits.tobytes())


def _bits16(values, dtype: DType) -> np.ndarray:
    """Bit patterns of float values that the 16-bit dtype holds exactly."""
    if dtype is DType.F16:
        return np.asarray(values, dtype="<f2").view("<u2")
    return (np.asarray(values, dtype="<f4").view("<u4") >> 16).astype("<u2")


@pytest.mark.parametrize("dtype", [DType.BF16, DType.F16], ids=lambda d: d.value)
def test_every_finite_16bit_pattern_quantizes_and_audits_as_the_chunk_kernels_do(rng, dtype):
    # Codes and errors of a 16-bit tensor come from tables over its bit
    # patterns; the audit of validate_quantization runs the chunk kernels on
    # every element. "all" holds every finite pattern (both zeros, every
    # subnormal and the largest finite value) three times, shuffled across
    # chunks. "small" follows it, so its table entries above its own top
    # pattern are stale; "zeros" has top pattern 0 and scale 1.
    every = np.arange(1 << 16, dtype="<u2")
    finite = every[np.isfinite(tensor_as_f64(_raw16(every, dtype)))]
    assert finite.size == (65280 if dtype is DType.BF16 else 63488)
    tensors = {
        "all": _raw16(rng.permutation(np.tile(finite, 3)), dtype),
        "small": tensor_from_f64(rng.standard_normal(CHUNK_ELEMS + 7) * 1e-3, dtype,
                                 (CHUNK_ELEMS + 7,)),
        "zeros": _raw16([0x0000, 0x8000, 0x0000], dtype),
    }
    original = Checkpoint(tensors=tensors)
    stream, audits = quant.quantize_stream(original, quant.QuantPolicy())
    quantized = tio.collect(stream)
    validated = quant.validate_quantization(original, quantized, quant.QuantPolicy())
    assert audits == {a.name: a for a in validated}
    for name, t in tensors.items():
        values = tensor_as_f64(t)
        top = float(np.abs(values).max())
        scale = float(np.float32(top / fp8.E4M3_MAX)) if top else 1.0
        assert quant.read_scale(quantized, f"{name}.scale") == scale
        codes = np.frombuffer(quantized.tensors[name].data, dtype=np.uint8)
        assert codes.tobytes() == fp8.encode_array(values / scale).tobytes()
        amax, max_rel = naive_audit(values, codes, scale)
        assert audits[name] == quant.TensorAudit(name, amax, scale, max_rel)
    assert quantized.tensors["zeros"].data == bytes([0x00, 0x80, 0x00])


_BAD = {"inf": math.inf, "-inf": -math.inf, "nan0": math.nan, "nan1": -math.nan}


@pytest.mark.parametrize(
    "dtype, bad",
    [*((d, _BAD[key]) for key in _BAD for d in (DType.BF16, DType.F16, DType.F32)),
     (DType.F8_E4M3, fp8.NAN_CODE), (DType.F8_E4M3, 0xFF)],
    ids=[*(f"{key}-{d.value}" for key in _BAD for d in (DType.BF16, DType.F16, DType.F32)),
         "0x7F-F8_E4M3", "0xFF-F8_E4M3"],
)
def test_a_16bit_tensor_holding_nan_or_inf_is_audited_skipped_and_refused_quantized(
        dtype, bad):
    # Also an F32 one, and 8-bit codes holding a NaN code.
    if dtype is DType.F8_E4M3:
        t = Tensor(dtype, (4,), bytes([0x3C, 0xC0, bad, 0x30]))
    elif dtype is DType.F32:
        t = Tensor(dtype, (4,), np.array([1.5, -3.0, bad, 0.25], dtype="<f4").tobytes())
    else:
        t = _raw16(_bits16([1.5, -3.0, bad, 0.25], dtype), dtype)
    original = Checkpoint(tensors={"w": t})
    amax = float(np.abs(tensor_as_f64(t)).max())
    skip = quant.QuantPolicy(skip_patterns=("w",))
    stream, audits = quant.quantize_stream(original, skip)
    out = tio.collect(stream)
    (validated,) = quant.validate_quantization(original, out, skip)
    expected = "nan" if dtype is DType.F8_E4M3 else repr(abs(bad))
    for audit in (audits["w"], validated):
        assert audit.skipped and repr(audit.amax) == repr(amax) == expected
    assert out.tensors == original.tensors
    if dtype is DType.F8_E4M3:
        with pytest.raises(quant.AlreadyQuantized):
            quant.quantize_checkpoint(original, quant.QuantPolicy())
    else:
        with pytest.raises(fp8.NonFiniteInput, match="'w': scale computation requires finite"):
            quant.quantize_checkpoint(original, quant.QuantPolicy())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(DType)), st.binary(max_size=64))
def test_a_skipped_tensors_amax_is_the_nan_aware_max_magnitude(dtype, raw):
    n = len(raw) // dtype.itemsize
    t = Tensor(dtype, (n,), raw[: n * dtype.itemsize])
    skip = quant.QuantPolicy(skip_patterns=("w",))
    (audit,) = quant.validate_quantization(Checkpoint({"w": t}), Checkpoint({"w": t}), skip)
    values = tensor_as_f64(t)
    assert repr(audit.amax) == repr(float(np.abs(values).max()) if n else 0.0)


def _overflowing(caller: str) -> None:
    codes = Tensor(DType.F8_E4M3, (2,), bytes([0x7E, 0x01]))
    scale = np.float32(1e36)
    quantized = Checkpoint({"w": codes, "w.scale": Tensor(DType.F32, (), scale.tobytes())})
    if caller == "dequantize_fp8":
        quant.dequantize_fp8(quant.QuantizedTensor(codes, float(scale)))
    elif caller == "validate_quantization":
        original = Checkpoint({"w": f32_tensor([3e38, 2e33])})
        quant.validate_quantization(original, quantized, quant.QuantPolicy())
    else:
        merge.merge_checkpoints(quantized, Checkpoint({"w": f32_tensor([1.0, 1.0])}),
                                merge.MergeSpec(t=0.0))


@pytest.mark.parametrize("caller, name", [("merge", "w"), ("dequantize_fp8", "tensor"),
                                          ("validate_quantization", "w")])
def test_a_scale_whose_codes_overflow_f32_raises_overflow_naming_the_tensor(caller, name):
    with pytest.raises(tio.Overflow, match=f"^'{name}': 4.48e\\+38 is finite but overflows F32$"):
        _overflowing(caller)


@pytest.mark.parametrize("chunk", [1 << 12, 1 << 15])
def test_quantize_output_and_audits_do_not_depend_on_the_chunk_size(
        tmp_path, monkeypatch, rng, chunk):
    # BF16, F16 and F32 tensors that cross chunk boundaries at every size,
    # with a wide spread of magnitudes so the 16-bit tables span many chunks,
    # and one skipped tensor. merge is left out: its bytes depend on the chunk
    # size through its per-chunk sums.
    def values(n):
        out = rng.standard_normal(n) * np.exp2(rng.integers(-40, 40, n))
        out[::53] = 0.0
        return out

    layout = {"a": (DType.BF16, 3 * (1 << 15) + 7), "b": (DType.F16, (1 << 15) + 1),
              "c": (DType.F32, (1 << 16) + 3), "d.norm": (DType.BF16, (1 << 12) + 5)}
    original = Checkpoint({name: tensor_from_f64(values(n), dtype, (n,))
                           for name, (dtype, n) in layout.items()})
    policy = quant.QuantPolicy(skip_patterns=("*.norm",))

    def run(path):
        stream, audits = quant.quantize_stream(original, policy)
        tio.write_checkpoint(stream, path)
        validated = quant.validate_quantization(original, tio.read_checkpoint(path), policy)
        assert {a.name: a for a in validated} == audits
        return path.read_bytes(), audits

    expected = run(tmp_path / "at-default")
    monkeypatch.setattr(tio, "CHUNK_ELEMS", chunk)
    monkeypatch.setattr(quant, "CHUNK_ELEMS", chunk)
    assert run(tmp_path / f"at-{chunk}") == expected
