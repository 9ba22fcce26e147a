from __future__ import annotations

import math

import numpy as np
import pytest

from mtpipe import merge
from mtpipe.quant import (
    QuantizedTensor,
    QuantPolicy,
    dequantize_fp8,
    quantize_checkpoint,
    read_scale,
)
from mtpipe.tensorio import (
    CHUNK_ELEMS,
    Checkpoint,
    DType,
    Tensor,
    tensor_as_f64,
    tensor_from_f64,
)

from conftest import random_checkpoint
from oracles import naive_slerp


def test_endpoints_return_inputs_exactly(rng):
    a = rng.normal(size=32)
    b = rng.normal(size=32)
    assert np.array_equal(merge.slerp_vec(a, b, 0.0), a)
    assert np.array_equal(merge.slerp_vec(a, b, 1.0), b)


def test_orthogonal_unit_vectors_bisect():
    out = merge.slerp_vec(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
    assert out == pytest.approx([np.sqrt(2) / 2, np.sqrt(2) / 2])


def test_order_symmetry(rng):
    for _ in range(200):
        a = rng.normal(size=64)
        b = rng.normal(size=64)
        t = float(rng.uniform(0, 1))
        fwd = merge.slerp_vec(a, b, t)
        rev = merge.slerp_vec(b, a, 1.0 - t)
        assert np.abs(fwd - rev).max() < 1e-6


def test_matches_scalar_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(1, 20))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        t = float(rng.uniform(0, 1))
        expected = naive_slerp(list(a), list(b), t)
        assert np.abs(merge.slerp_vec(a, b, t) - np.array(expected)).max() < 1e-12


def test_unit_norm_preserved(rng):
    for _ in range(200):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        out = merge.slerp_vec(a, b, float(rng.uniform(0, 1)))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-6


def test_zero_vector_falls_back_to_lerp():
    a = np.zeros(4)
    b = np.array([2.0, 0.0, 0.0, 0.0])
    assert np.allclose(merge.slerp_vec(a, b, 0.25), 0.25 * b)


def test_antiparallel_never_nan(rng):
    a = rng.normal(size=8)
    for t in (0.0, 0.3, 0.5, 1.0):
        out = merge.slerp_vec(a, -a, t)
        assert np.isfinite(out).all()
    near = -a * (1 + 1e-12)
    assert np.isfinite(merge.slerp_vec(a, near, 0.5)).all()


def test_parallel_inputs_stable(rng):
    a = rng.normal(size=8)
    out = merge.slerp_vec(a, a * 3.0, 0.5)
    assert np.isfinite(out).all()
    assert np.allclose(out, 2.0 * a)


@pytest.mark.parametrize(
    "n", (CHUNK_ELEMS - 1, CHUNK_ELEMS, CHUNK_ELEMS + 1, 3 * CHUNK_ELEMS + 5))
def test_chunked_slerp_matches_whole_array_numpy_across_chunk_boundaries(rng, n):
    a = rng.standard_normal(n)
    b = a + 0.5 * rng.standard_normal(n)
    t = 0.3

    def fixed_order_dot(x, y):  # pairwise within each chunk, exactly rounded across them
        return math.fsum(np.add.reduce(x[i : i + CHUNK_ELEMS] * y[i : i + CHUNK_ELEMS])
                         for i in range(0, n, CHUNK_ELEMS))

    norms = math.sqrt(fixed_order_dot(a, a)) * math.sqrt(fixed_order_dot(b, b))
    omega = math.acos(max(-1.0, min(1.0, fixed_order_dot(a, b) / norms)))
    expected = (math.sin((1 - t) * omega) / math.sin(omega) * a
                + math.sin(t * omega) / math.sin(omega) * b)
    assert merge.slerp_vec(a, b, t).tobytes() == expected.tobytes()
    out = a.copy()
    assert merge.slerp_vec(out, b, t, out=out) is out
    assert out.tobytes() == expected.tobytes()


def test_slerp_coefficients_are_the_math_module_formula():
    # numpy picks its arccos loop by CPU; on an AVX-512 Xeon it differed from
    # math.acos by one ulp on about 1 in 11 of these cosines.
    t = 0.3
    for k in range(20_000):
        cos_omega = 0.98 * k / 20_000
        omega = math.acos(cos_omega)
        sin_omega = math.sin(omega)
        expected = math.sin((1 - t) * omega) / sin_omega, math.sin(t * omega) / sin_omega
        assert merge.slerp_coefficients(1.0, 1.0, cos_omega, t, 1e-8) == expected, cos_omega


def test_shape_mismatch_and_t_range(rng):
    a = rng.normal(size=4)
    with pytest.raises(merge.ShapeMismatch):
        merge.slerp_vec(a, rng.normal(size=5), 0.5)
    with pytest.raises(merge.TOutOfRange):
        merge.slerp_vec(a, a, 1.5)
    with pytest.raises(merge.TOutOfRange):
        merge.MergeSpec(t=-0.1)
    # Also a ValueError, as quant.BadScale is.
    with pytest.raises(ValueError, match="t must lie in"):
        merge.MergeSpec(t=1.5)
    with pytest.raises(ValueError, match="t must lie in"):
        merge.slerp_vec(a, rng.normal(size=4), -0.1)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_an_eps_that_is_not_positive_is_a_value_error(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        merge.slerp_vec([1.0, 0.0], [2.0, 0.0], 0.5, eps=eps)


def _f32_checkpoint(rng, names=("a", "b")):
    tensors = {}
    for name in names:
        n = int(rng.integers(1, 40))
        tensors[name] = tensor_from_f64(rng.normal(size=n), DType.F32, (n,))
    return Checkpoint(tensors=tensors)


def test_self_merge_identity(rng):
    ckpt = _f32_checkpoint(rng)
    merged = merge.merge_checkpoints(ckpt, ckpt, merge.MergeSpec(t=0.5))
    for name, tensor in ckpt.tensors.items():
        got = tensor_as_f64(merged.tensors[name])
        want = tensor_as_f64(tensor)
        # Within 1 ulp of the storage dtype.
        ulp = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64)
        assert (np.abs(got - want) <= ulp).all()


def test_merge_endpoint_t0_returns_first(rng):
    x = _f32_checkpoint(rng)
    y = Checkpoint(
        tensors={
            name: tensor_from_f64(rng.normal(size=t.numel), DType.F32, t.shape)
            for name, t in x.tensors.items()
        }
    )
    merged = merge.merge_checkpoints(x, y, merge.MergeSpec(t=0.0))
    for name in x.tensors:
        assert np.array_equal(tensor_as_f64(merged.tensors[name]), tensor_as_f64(x.tensors[name]))


def test_merge_matches_flatten_then_slerp_oracle(rng):
    for _ in range(5):
        x = _f32_checkpoint(rng, names=("t0", "t1"))
        y = Checkpoint(
            tensors={
                name: tensor_from_f64(
                    rng.normal(size=t.numel), DType.F32, t.shape
                )
                for name, t in x.tensors.items()
            }
        )
        merged = merge.merge_checkpoints(x, y, merge.MergeSpec(t=0.5))
        for name in x.tensors:
            expected = naive_slerp(
                list(tensor_as_f64(x.tensors[name])),
                list(tensor_as_f64(y.tensors[name])),
                0.5,
            )
            got = tensor_as_f64(merged.tensors[name])
            # Compare against the oracle after rounding it to storage precision.
            expected_f32 = np.array(expected, dtype=np.float32).astype(np.float64)
            assert np.abs(got - expected_f32).max() < 1e-6


def test_merge_order_symmetry_after_decode(rng):
    x = _f32_checkpoint(rng)
    y = Checkpoint(
        tensors={
            name: tensor_from_f64(rng.normal(size=t.numel), DType.F32, t.shape)
            for name, t in x.tensors.items()
        }
    )
    t = 0.3
    fwd = merge.merge_checkpoints(x, y, merge.MergeSpec(t=t))
    rev = merge.merge_checkpoints(y, x, merge.MergeSpec(t=1.0 - t))
    for name in x.tensors:
        assert np.abs(
            tensor_as_f64(fwd.tensors[name]) - tensor_as_f64(rev.tensors[name])
        ).max() < 1e-6


def test_merge_shape_mismatch(rng):
    x = Checkpoint(tensors={"w": tensor_from_f64(rng.normal(size=4), DType.F32, (4,))})
    y = Checkpoint(tensors={"w": tensor_from_f64(rng.normal(size=6), DType.F32, (6,))})
    with pytest.raises(merge.ShapeMismatch):
        merge.merge_checkpoints(x, y, merge.MergeSpec())


def test_missing_tensor_policies(rng):
    x = Checkpoint(tensors={"w": tensor_from_f64(rng.normal(size=4), DType.F32, (4,))})
    y = Checkpoint(tensors={})
    with pytest.raises(merge.MissingTensor):
        merge.merge_checkpoints(x, y, merge.MergeSpec())
    merged = merge.merge_checkpoints(
        x, y, merge.MergeSpec(name_policy=merge.MissingPolicy.COPY)
    )
    assert merged.tensors["w"].data == x.tensors["w"].data


def test_merge_metadata_records_t(rng):
    x = _f32_checkpoint(rng)
    merged = merge.merge_checkpoints(x, x, merge.MergeSpec(t=0.5))
    assert merged.metadata["merge_t"] == "0.5"


def test_dtype_widening(rng):
    def one(dtype, n=8):
        return tensor_from_f64(rng.uniform(-2, 2, size=n), dtype, (n,))

    cases = [
        (DType.F32, DType.F16, DType.F32),
        (DType.F16, DType.F16, DType.F16),
        (DType.F16, DType.BF16, DType.F32),
        (DType.BF16, DType.F32, DType.F32),
    ]
    for da, db, expected in cases:
        x = Checkpoint(tensors={"w": one(da)})
        y = Checkpoint(tensors={"w": one(db)})
        merged = merge.merge_checkpoints(x, y, merge.MergeSpec())
        assert merged.tensors["w"].dtype is expected, (da, db)


def test_quantized_inputs_dequantize_to_f32_output(rng):
    base = Checkpoint(tensors={"w": tensor_from_f64(rng.normal(size=16), DType.F32, (16,))})
    quantized = quantize_checkpoint(base, QuantPolicy())
    merged = merge.merge_checkpoints(quantized, quantized, merge.MergeSpec(t=0.5))
    assert merged.tensors["w"].dtype is DType.F32
    assert "w.scale" not in merged.tensors


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("dtype", [DType.F32, DType.F16, DType.BF16], ids=lambda d: d.value)
def test_merging_a_quantized_tensor_equals_merging_its_dequantization(rng, dtype, t):
    # One element past a chunk: the codes are restored chunk by chunk.
    n = CHUNK_ELEMS + 1
    base = Checkpoint(tensors={"w": tensor_from_f64(rng.normal(size=n), DType.F32, (n,))})
    quantized = quantize_checkpoint(base, QuantPolicy())
    q = QuantizedTensor(quantized.tensors["w"], read_scale(quantized, "w.scale"))
    dequantized = Checkpoint(tensors={"w": dequantize_fp8(q)})
    y = Checkpoint(tensors={"w": tensor_from_f64(rng.normal(size=n), dtype, (n,))})
    spec = merge.MergeSpec(t=t)
    want = merge.merge_checkpoints(dequantized, y, spec).tensors["w"]
    assert merge.merge_checkpoints(quantized, y, spec).tensors["w"] == want


def test_scalar_and_empty_tensors_merge(rng):
    x = Checkpoint(
        tensors={
            "s": tensor_from_f64(np.array([2.0]), DType.F32, ()),
            "e": Tensor(DType.F32, (0,), b""),
        }
    )
    y = Checkpoint(
        tensors={
            "s": tensor_from_f64(np.array([4.0]), DType.F32, ()),
            "e": Tensor(DType.F32, (0,), b""),
        }
    )
    merged = merge.merge_checkpoints(x, y, merge.MergeSpec(t=0.5))
    assert merged.tensors["s"].shape == ()
    assert merged.tensors["e"].numel == 0
    # Scalars share a direction, so the midpoint is the linear one.
    assert list(tensor_as_f64(merged.tensors["s"])) == [3.0]


def test_merge_random_mixed_checkpoints_finite(rng):
    for _ in range(5):
        x = random_checkpoint(rng, n_tensors=3)
        y = Checkpoint(
            tensors={
                name: tensor_from_f64(rng.normal(size=t.numel), DType.F32, t.shape)
                for name, t in x.tensors.items()
            }
        )
        merged = merge.merge_checkpoints(x, y, merge.MergeSpec(t=0.5))
        for tensor in merged.tensors.values():
            assert np.isfinite(tensor_as_f64(tensor)).all() or tensor.dtype is DType.F8_E4M3


def test_quantized_merge_lands_within_quantization_error_of_float_merge(rng):
    base = rng.normal(scale=0.05, size=(64, 64))
    tuned = base + rng.normal(scale=0.002, size=base.shape)
    x = Checkpoint(tensors={"w": tensor_from_f64(base, DType.BF16, base.shape)})
    y = Checkpoint(tensors={"w": tensor_from_f64(tuned, DType.BF16, base.shape)})
    spec = merge.MergeSpec(t=0.5)
    want = tensor_as_f64(merge.merge_checkpoints(x, y, spec).tensors["w"])
    merged = merge.merge_checkpoints(
        quantize_checkpoint(x, QuantPolicy()), quantize_checkpoint(y, QuantPolicy()), spec
    )
    assert set(merged.tensors) == {"w"}
    got = tensor_as_f64(merged.tensors["w"])
    # Dequantized elements sit within 2**-4 relative of their sources.
    assert np.abs(got - want).max() <= 2.0**-4 * np.abs(want).max()


def test_copy_policy_keeps_a_lone_quantized_tensor_with_its_scale(rng):
    w = Checkpoint(tensors={"w": tensor_from_f64(rng.normal(size=8), DType.F32, (8,))})
    quantized = quantize_checkpoint(w, QuantPolicy())
    merged = merge.merge_checkpoints(
        quantized, Checkpoint(), merge.MergeSpec(name_policy=merge.MissingPolicy.COPY)
    )
    assert merged.tensors == quantized.tensors
