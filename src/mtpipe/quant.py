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
    return _quantize_audited("", t)[0]


def _quantize_audited(name: str, t: Tensor) -> tuple[QuantizedTensor, TensorAudit]:
    """quantize_fp8 and audit_tensor in one pass over the decoded source: each
    chunk is encoded, then audited from its codes while it is in cache."""
    if t.dtype is DType.F8_E4M3:
        raise AlreadyQuantized("tensor already carries 8-bit codes")
    values = tensor_as_f64(t)
    amax = float(np.max([np.max(np.abs(values[s])) for s in chunks(values.size)], initial=0.0))
    # max|v| alone sets the scale, and it is NaN or infinite iff a value is.
    scale = float(np.float32(compute_scale((amax,))))
    table = _restore_table(scale)
    codes = np.empty(values.size, dtype=np.uint8)
    max_rel = 0.0
    for s in chunks(values.size):
        codes[s] = fp8.encode_array(values[s] / scale)
        max_rel = max(max_rel, _max_rel_err(values[s], table[codes[s]], scale))
    q = QuantizedTensor(Tensor(DType.F8_E4M3, t.shape, codes.tobytes()), scale)
    return q, TensorAudit(name, amax, scale, max_rel)


def _restore_table(scale: float) -> np.ndarray:
    """decode(code) * scale rounded to float32, for each of the 256 codes, as
    float64: one lookup restores a tensor's codes wherever they are read."""
    return (fp8.DECODE_TABLE * scale).astype("<f4").astype(np.float64)


def dequantize_fp8(q: QuantizedTensor) -> Tensor:
    """Reconstruct a float32 tensor as decode(code) * scale."""
    codes = np.frombuffer(q.codes.data, dtype=np.uint8)
    values = _restore_table(q.scale)[codes].astype("<f4")
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
    table = _restore_table(scale)
    for s, values in zip(chunks(original.numel), f64_chunks(original)):
        amax = float(np.maximum(amax, np.max(np.abs(values))))
        if codes is not None:
            max_rel = max(max_rel, _max_rel_err(values, table[codes[s]], scale))
    return TensorAudit(name, amax, scale, max_rel, skipped=q is None)


def _max_rel_err(values: np.ndarray, restored: np.ndarray, scale: float) -> float:
    """Max |restored - v| / |v| over the values at or above scale * 2**-6,
    0.0 if there are none. Overwrites ``restored``."""
    magnitude = np.abs(values)
    mask = magnitude >= scale * 2.0**-6
    np.subtract(restored, values, out=restored)
    np.abs(restored, out=restored)
    np.divide(restored, magnitude, out=restored, where=mask)
    return float(np.max(restored, where=mask, initial=0.0))


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
                q, audits[name] = _quantize_audited(name, t)
            except fp8.NonFiniteInput as exc:
                raise fp8.NonFiniteInput(f"{name!r}: {exc}") from exc
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
