"""Per-tensor dynamic 8-bit quantization of checkpoints.

Each quantized tensor is stored as its 8-bit codes under the original name
plus a scalar float32 companion named ``<name>.scale``, so the container
format stays unchanged. The scale is ``amax / 448`` (1.0 for all-zero
tensors), which makes the largest-magnitude element exactly representable.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Iterator

import numpy as np

from . import fp8
from .errors import ShapeMismatch, ToolError
from .fp8 import compute_scale
from .tensorio import (
    CHUNK_ELEMS,
    Checkpoint,
    Codec,
    DType,
    Tensor,
    TensorInfo,
    TensorStream,
    collect,
)

SCALE_SUFFIX = ".scale"


class AlreadyQuantized(ToolError):
    pass


class NameCollision(ToolError):
    pass


class BadScale(ToolError, ValueError):
    """A scale that is not a finite, positive number."""


@dataclass(frozen=True)
class QuantizedTensor:
    """8-bit codes plus the positive float32 scale that dequantizes them."""

    codes: Tensor
    scale: float

    def __post_init__(self) -> None:
        if self.codes.dtype is not DType.F8_E4M3:
            raise ValueError("codes tensor must carry 8-bit float payload")
        _valid_scale(self.scale, "QuantizedTensor.scale")


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
    out = quantize_checkpoint(Checkpoint(tensors={"tensor": t}), QuantPolicy())
    return QuantizedTensor(out.tensors["tensor"], read_scale(out, "tensor.scale"))


def _restore_table(scale: float) -> np.ndarray:
    """decode(code) * scale rounded to float32, for each of the 256 codes, as
    float64: one lookup restores a tensor's codes wherever they are read."""
    return (fp8.DECODE_TABLE * scale).astype("<f4").astype(np.float64)


def dequantize_fp8(q: QuantizedTensor) -> Tensor:
    """Reconstruct a float32 tensor as decode(code) * scale."""
    codes = np.frombuffer(q.codes.data, dtype=np.uint8)
    values = _restore_table(q.scale)[codes].astype("<f4")
    return Tensor(DType.F32, q.codes.shape, values.tobytes())


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
    """The finite, positive scale a companion from scale_companions holds
    (BadScale otherwise); 1.0 for None."""
    if companion is None:
        return 1.0
    (piece,) = src.pieces(companion)
    return _valid_scale(float(np.frombuffer(piece, dtype="<f4")[0]), repr(companion))


def _valid_scale(scale: float, holder: str) -> float:
    if not (scale > 0 and np.isfinite(scale)):
        raise BadScale(f"{holder} holds {scale!r}; a scale must be finite and positive")
    return scale


@dataclass(frozen=True)
class TensorAudit:
    """Post-conversion validation record for one quantized tensor."""

    name: str
    amax: float
    scale: float
    max_rel_err: float
    skipped: bool = False


class _Kernels:
    """The chunk buffers of one quantize or audit stream. Decoding, scaling,
    encoding and auditing all write into them, so no chunk allocates."""

    def __init__(self) -> None:
        self.codec = Codec()
        self._scaled, self._magnitude, self._restored = np.empty((3, CHUNK_ELEMS))
        self._mask = np.empty(CHUNK_ELEMS, dtype=np.bool_)

    def audited(self, name: str, dtype: DType, pieces: Iterable, scale: float | None,
                codes: Iterator | None, audits: dict[str, TensorAudit]) -> Iterator:
        """One tensor's output pieces; audits[name] holds its audit once the
        last is taken.

        With ``scale`` None the tensor is skipped: its pieces pass through and
        only amax is audited. Otherwise each chunk's codes, the next of
        ``codes`` or else the chunk encoded at ``scale``, are audited against
        it and yielded.
        """
        amax, max_rel = 0.0, 0.0
        table = _restore_table(scale or 1.0)
        for piece in pieces:
            values = self.codec.decode(piece, dtype)
            n = values.size
            magnitude = np.abs(values, out=self._magnitude[:n])
            amax = np.maximum(amax, magnitude.max())
            if scale is not None:
                if codes is None:
                    scaled = np.divide(values, scale, out=self._scaled[:n])
                    piece = self.codec.encode(scaled, DType.F8_E4M3)
                else:
                    piece = next(codes)
                restored = self.codec.lookup(table, np.frombuffer(piece, dtype=np.uint8),
                                             self._restored[:n])
                max_rel = max(max_rel, self._max_rel_err(values, magnitude, restored, scale))
            yield piece
        audits[name] = TensorAudit(name, float(amax), scale or 1.0, max_rel, scale is None)

    def _max_rel_err(self, values, magnitude, restored, scale: float) -> float:
        """Max |restored - v| / |v| over the values at or above scale * 2**-6,
        0.0 if there are none. Overwrites ``restored``."""
        mask = np.greater_equal(magnitude, scale * 2.0**-6, out=self._mask[: values.size])
        np.subtract(restored, values, out=restored)
        np.abs(restored, out=restored)
        np.divide(restored, magnitude, out=restored, where=mask)
        return float(np.max(restored, where=mask, initial=0.0))


def quantize_stream(src, policy: QuantPolicy) -> tuple[TensorStream, dict[str, TensorAudit]]:
    """Quantize any source one tensor, and one chunk of it, at a time.

    Every check that needs no payload runs before this returns. Each tensor
    takes two passes over its payload chunks: the first finds its amax and
    scale, shared by the tensor and its ``.scale``, the second encodes and
    audits each chunk. Tensors the policy skips copy through verbatim, piece
    by piece. Each tensor's audit lands in the returned dict once its last
    piece is produced. The policy is recorded in the output metadata.
    """
    infos: dict[str, TensorInfo] = {}
    produce: dict[str, Callable[[], Iterable]] = {}
    k = _Kernels()
    audits: dict[str, TensorAudit] = {}

    @cache
    def scale_of(name: str) -> float:
        # Pass 1, the audit of a skipped tensor: its amax alone sets the
        # scale, and it is NaN or infinite iff a value is.
        first: dict[str, TensorAudit] = {}
        for _ in k.audited(name, src.tensors[name].dtype, src.pieces(name), None, None, first):
            pass
        try:
            return float(np.float32(compute_scale((first[name].amax,))))
        except fp8.NonFiniteInput as exc:
            raise fp8.NonFiniteInput(f"{name!r}: {exc}") from exc

    def payload(name: str) -> Iterator:
        scale = None if policy.skips(name) else scale_of(name)
        return k.audited(name, src.tensors[name].dtype, src.pieces(name), scale, None, audits)

    def scale_payload(name: str) -> list[bytes]:
        return [np.float32(scale_of(name)).tobytes()]

    for name, info in src.tensors.items():
        produce[name] = partial(payload, name)
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
        produce[scale_name] = partial(scale_payload, name)

    metadata = dict(src.metadata)
    metadata["quantization"] = "fp8-e4m3-dynamic"
    metadata["quantization_skip"] = ",".join(policy.skip_patterns)
    return TensorStream(infos, metadata, produce), audits


def quantize_checkpoint(ckpt: Checkpoint, policy: QuantPolicy) -> Checkpoint:
    """Quantize every tensor the policy does not skip; skipped tensors copy
    through verbatim. The policy is recorded in the output metadata."""
    return collect(quantize_stream(ckpt, policy)[0])


def validate_quantization(
    original: Checkpoint, quantized: Checkpoint, policy: QuantPolicy
) -> list[TensorAudit]:
    """Audit dequantization error tensor by tensor, a chunk at a time; a
    tensor the policy skips has only its amax audited. ``max_rel_err`` is
    taken over elements at or above ``scale * 2**-6`` (the smallest normal
    magnitude); smaller ones see absolute, not relative, rounding."""
    companions = scale_companions(quantized)
    k = _Kernels()
    audits: dict[str, TensorAudit] = {}
    for name, t in original.tensors.items():
        scale = codes = None
        if not policy.skips(name):
            q = QuantizedTensor(quantized.tensors[name], read_scale(quantized, companions[name]))
            if q.codes.shape != t.shape:
                raise ShapeMismatch(f"{name!r}: codes {list(q.codes.shape)}, "
                                    f"original {list(t.shape)}")
            scale, codes = q.scale, q.codes.pieces()
        for _ in k.audited(name, t.dtype, t.pieces(), scale, codes, audits):
            pass
    return list(audits.values())
