"""Per-tensor dynamic 8-bit quantization of checkpoints.

Each quantized tensor is stored as its 8-bit codes under the original name
plus a scalar float32 companion named ``<name>.scale``, so the container
format stays unchanged. The scale is ``amax / 448`` (1.0 for all-zero
tensors), which makes the largest-magnitude element exactly representable.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import fp8
from .errors import ShapeMismatch, ToolError
from .fp8 import compute_scale
from .tensorio import (
    Checkpoint,
    DType,
    Tensor,
    TensorInfo,
    TensorStream,
    chunks,
    f64_chunks,
    tensor_as_f64,
    tensor_from_f64,
)

SCALE_SUFFIX = ".scale"


class AlreadyQuantized(ToolError):
    pass


class NameCollision(ToolError):
    pass


@dataclass(frozen=True)
class QuantizedTensor:
    """8-bit codes plus the positive float32 scale that dequantizes them."""

    codes: Tensor
    scale: float

    def __post_init__(self) -> None:
        if self.codes.dtype is not DType.F8_E4M3:
            raise ValueError("codes tensor must carry 8-bit float payload")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


@dataclass(frozen=True)
class QuantPolicy:
    """Glob patterns naming tensors to leave at source precision."""

    skip_patterns: tuple[str, ...] = ()

    def skips(self, name: str) -> bool:
        return any(fnmatch.fnmatchcase(name, pat) for pat in self.skip_patterns)


def quantize_fp8(t: Tensor) -> QuantizedTensor:
    """Quantize one tensor with a dynamic scale; shape is preserved.

    Raises AlreadyQuantized for 8-bit input and NonFiniteInput if any element
    is NaN or infinite.
    """
    if t.dtype is DType.F8_E4M3:
        raise AlreadyQuantized("tensor already carries 8-bit codes")
    values = tensor_as_f64(t)
    scale = float(np.float32(compute_scale(values)))
    values /= scale
    return QuantizedTensor(tensor_from_f64(values, DType.F8_E4M3, t.shape), scale)


def _dequantize(codes: np.ndarray, scale: float) -> np.ndarray:
    return (fp8.decode_array(codes) * scale).astype("<f4")


def dequantize_fp8(q: QuantizedTensor) -> Tensor:
    """Reconstruct a float32 tensor as decode(code) * scale."""
    values = _dequantize(np.frombuffer(q.codes.data, dtype=np.uint8), q.scale)
    return Tensor(DType.F32, q.codes.shape, values.tobytes())


def _scale_tensor(scale: float) -> Tensor:
    return Tensor(DType.F32, (), np.float32(scale).tobytes())


def scale_companions(src) -> dict[str, str | None]:
    """Each tensor of ``src`` but the ``<name>.scale`` companions, mapped to
    its companion or None. Only an 8-bit tensor has one, and it must hold one
    float32 value (ShapeMismatch otherwise); without one the scale is 1."""
    weights: dict[str, str | None] = dict.fromkeys(src.tensors)
    for name, info in src.tensors.items():
        companion = f"{name}{SCALE_SUFFIX}"
        if info.dtype is DType.F8_E4M3 and companion in src.tensors:
            scale = src.tensors[companion]
            if scale.dtype is not DType.F32 or scale.numel != 1:
                raise ShapeMismatch(f"{companion!r} must be one float32 value")
            weights[name] = companion
    companions = set(weights.values())
    return {name: c for name, c in weights.items() if name not in companions}


def read_scale(src, companion: str | None) -> float:
    """The scale a companion from scale_companions holds; 1.0 for None."""
    if companion is None:
        return 1.0
    return float(np.frombuffer(src.read(companion).data, dtype="<f4")[0])


def dequantized(src, name: str, companion: str | None) -> np.ndarray:
    """A tensor's values at float64, times its companion's scale if it has one."""
    values = tensor_as_f64(src.read(name))
    if companion is not None:
        values *= read_scale(src, companion)
    return values


@dataclass(frozen=True)
class TensorAudit:
    """Post-conversion validation record for one quantized tensor."""

    name: str
    amax: float
    scale: float
    max_rel_err: float
    skipped: bool = False


def audit_tensor(name: str, original: Tensor, q: QuantizedTensor | None) -> TensorAudit:
    """Audit one tensor's dequantization error; ``q`` is None when it was skipped.

    ``max_rel_err`` is taken over elements at or above ``scale * 2**-6``
    (the smallest normal magnitude); smaller elements see absolute rather
    than relative rounding and are excluded. Runs a chunk at a time.
    """
    amax, max_rel = 0.0, 0.0
    scale = q.scale if q is not None else 1.0
    codes = np.frombuffer(q.codes.data, dtype=np.uint8) if q is not None else None
    for s, values in zip(chunks(original.numel), f64_chunks(original)):
        amax = float(np.maximum(amax, np.max(np.abs(values))))
        if codes is None:
            continue
        restored = _dequantize(codes[s], scale).astype(np.float64)
        mask = np.abs(values) >= scale * 2.0**-6
        if mask.any():
            rel = np.abs(restored[mask] - values[mask]) / np.abs(values[mask])
            max_rel = max(max_rel, float(rel.max()))
    return TensorAudit(name, amax, scale, max_rel, skipped=q is None)


def quantize_stream(src, policy: QuantPolicy) -> tuple[TensorStream, dict[str, TensorAudit]]:
    """Quantize a checkpoint one tensor at a time.

    ``src`` is a Checkpoint or an open CheckpointFile. Every check that needs
    no payload runs before this returns. Tensors the policy skips copy through
    verbatim. Each tensor's audit lands in the returned dict as its payload is
    produced. The policy is recorded in the output metadata.
    """
    infos: dict[str, TensorInfo] = {}
    scale_names: dict[str, str] = {}
    for name, info in src.tensors.items():
        if policy.skips(name):
            infos[name] = info
            continue
        scale_name = f"{name}{SCALE_SUFFIX}"
        if scale_name in src.tensors:
            raise NameCollision(f"{scale_name!r} already exists in the input")
        if info.dtype is DType.F8_E4M3:
            raise AlreadyQuantized(f"{name!r} already carries 8-bit codes")
        infos[name] = TensorInfo(DType.F8_E4M3, info.shape)
        infos[scale_name] = TensorInfo(DType.F32, ())
        scale_names[scale_name] = name

    audits: dict[str, TensorAudit] = {}

    def payloads() -> Iterator[Tensor]:
        scales: dict[str, float] = {}
        # Sorted order puts every name before its own ``.scale``.
        for name in sorted(infos):
            if name in scale_names:
                yield _scale_tensor(scales.pop(scale_names[name]))
                continue
            t = src.read(name)
            if policy.skips(name):
                audits[name] = audit_tensor(name, t, None)
                yield t
                continue
            try:
                q = quantize_fp8(t)
            except fp8.NonFiniteInput as exc:
                raise fp8.NonFiniteInput(f"{name!r}: {exc}") from exc
            audits[name] = audit_tensor(name, t, q)
            scales[name] = q.scale
            yield q.codes

    metadata = dict(src.metadata)
    metadata["quantization"] = "fp8-e4m3-dynamic"
    metadata["quantization_skip"] = ",".join(policy.skip_patterns)
    return TensorStream(infos, metadata, payloads()), audits


def quantize_checkpoint(ckpt: Checkpoint, policy: QuantPolicy) -> Checkpoint:
    """Quantize every tensor the policy does not skip; skipped tensors copy
    through verbatim. The policy is recorded in the output metadata."""
    stream, _ = quantize_stream(ckpt, policy)
    return stream.collect()


def validate_quantization(
    original: Checkpoint, quantized: Checkpoint, policy: QuantPolicy
) -> list[TensorAudit]:
    """Audit dequantization error tensor by tensor (see audit_tensor)."""
    companions = scale_companions(quantized)
    audits: list[TensorAudit] = []
    for name, t in original.tensors.items():
        q = None
        if not policy.skips(name):
            scale = read_scale(quantized, companions[name])
            q = QuantizedTensor(quantized.tensors[name], scale)
        audits.append(audit_tensor(name, t, q))
    return audits
