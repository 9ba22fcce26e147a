"""Per-tensor dynamic 8-bit quantization of checkpoints.

Each quantized tensor is stored as its 8-bit codes under the original name
plus a scalar float32 companion named ``<name>.scale``, so the container
format stays unchanged. The scale is ``amax / 448`` in float32 (1.0 for
all-zero tensors, and at least 2**-149, the least positive float32), which
makes the largest-magnitude element exactly representable.

A BF16 or F16 tensor is encoded and audited by table: its codes and errors
are computed once for each bit pattern up to its largest, then looked up per
element. They are the same bits the per-element kernels give on F32 input.
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
    encoding and auditing all write into them, so no chunk allocates.

    A 16-bit payload holds at most 65,536 distinct bit patterns, and an
    element's code and relative error depend on its pattern alone. So a BF16
    or F16 tensor that is quantized runs the chunk kernels once, over its
    patterns, and each element is then looked up by its pattern. Its tables
    stay in these buffers until its last piece, so the tensors of one stream
    must be taken one at a time.
    """

    def __init__(self) -> None:
        self.codec = Codec()
        self._scaled, self._magnitude, self._restored = np.empty((3, CHUNK_ELEMS))
        # One byte per element: the audit's mask, or a table pass's codes.
        self._bytes = np.empty(CHUNK_ELEMS, dtype=np.uint8)
        self._mask = self._bytes.view(np.bool_)
        self._codes = np.empty(1 << 16, dtype=np.uint8)  # by 16-bit pattern

    @staticmethod
    def top(piece) -> int:
        """The largest magnitude pattern, max(bits & 0x7FFF), of a 16-bit
        payload piece. Patterns sort as their magnitudes do, and NaN and
        infinity above every finite one, so it decodes to the piece's max |v|,
        or to NaN or infinity if the piece holds one."""
        bits = np.frombuffer(piece, dtype="<u2")
        # With no temporary: the largest positive pattern is the int16 max,
        # and the largest negative one the uint16 max, less its sign bit.
        return max(int(bits.view("<i2").max()), int(bits.max()) - 0x8000)

    def value(self, pattern: int, dtype: DType) -> float:
        """The value of one 16-bit pattern."""
        return float(self.codec.decode(np.array([pattern], dtype="<u2"), dtype)[0])

    def passed(self, name: str, dtype: DType, pieces: Iterable,
               audits: dict[str, TensorAudit]) -> Iterator:
        """A skipped tensor's pieces, unchanged; audits[name] holds their amax
        once the last is taken."""
        wide = dtype.itemsize == 2
        peak = 0  # the top pattern of a 16-bit payload, else amax
        for piece in pieces:
            if wide:
                peak = max(peak, self.top(piece))
            else:
                values = self.codec.decode(piece, dtype)
                peak = np.maximum(peak, np.abs(values, out=self._magnitude[: values.size]).max())
            yield piece
        amax = self.value(peak, dtype) if wide else float(peak)
        audits[name] = TensorAudit(name, amax, 1.0, 0.0, True)

    def audited(self, name: str, dtype: DType, pieces: Iterable, scale: float,
                codes: Iterator | None, audits: dict[str, TensorAudit]) -> Iterator:
        """One tensor's codes chunk by chunk, each the next of ``codes`` or
        else the chunk encoded at ``scale``, and audited against the chunk;
        audits[name] holds the audit once the last is taken."""
        amax, max_rel = 0.0, 0.0
        table = _restore_table(scale)
        for piece in pieces:
            values = self.codec.decode(piece, dtype)
            n = values.size
            magnitude = np.abs(values, out=self._magnitude[:n])
            amax = np.maximum(amax, magnitude.max())
            if codes is None:
                scaled = np.divide(values, scale, out=self._scaled[:n])
                piece = self.codec.encode(scaled, DType.F8_E4M3)
            else:
                piece = next(codes)
            restored = self.codec.lookup(table, np.frombuffer(piece, dtype=np.uint8),
                                         self._restored[:n])
            mask = self._rel_err(values, magnitude, restored, scale)
            max_rel = max(max_rel, float(np.max(restored, where=mask, initial=0.0)))
            yield piece
        audits[name] = TensorAudit(name, float(amax), scale, max_rel)

    def looked_up(self, name: str, dtype: DType, pieces: Iterable, top: int, scale: float,
                  audits: dict[str, TensorAudit]) -> Iterator:
        """The codes of a 16-bit tensor whose top pattern is ``top``, chunk by
        chunk, each element's code and relative error looked up by its
        pattern; audits[name] holds the audit once the last is taken."""
        errors = self._tables(dtype, top, scale)
        max_rel = 0.0
        for piece in pieces:
            index = self.codec.index(np.frombuffer(piece, dtype="<u2"))
            n = index.size
            codes = np.take(self._codes, index, out=self._bytes[:n], mode="clip")
            found = np.take(errors, index, out=self._restored[:n], mode="clip")
            max_rel = max(max_rel, float(found.max()))
            yield codes.data
        audits[name] = TensorAudit(name, self.value(top, dtype), scale, max_rel)

    def _tables(self, dtype: DType, top: int, scale: float) -> np.ndarray:
        """Fill the codes table, and return the relative error table (0.0
        where the audit skips a value), for every pattern whose magnitude is
        at most top's. The chunk kernels run once over the positive patterns;
        a negative one takes its positive twin's code with the sign bit set,
        and its error. Other entries are a former tensor's and are never read.
        """
        n, negative = top + 1, slice(1 << 15, (1 << 15) + top + 1)
        values = self.codec.decode(np.arange(n, dtype="<u2"), dtype)  # each is |v|
        scaled = np.divide(values, scale, out=self._scaled[:n])
        codes = np.frombuffer(self.codec.encode(scaled, DType.F8_E4M3), dtype=np.uint8)
        errors = self._magnitude
        restored = self.codec.lookup(_restore_table(scale), codes, errors[:n])
        mask = self._rel_err(values, values, restored, scale)
        np.copyto(restored, 0.0, where=np.logical_not(mask, out=mask))
        np.copyto(self._codes[:n], codes)
        np.bitwise_or(codes, 0x80, out=self._codes[negative])
        np.copyto(errors[negative], restored)
        return errors

    def _rel_err(self, values, magnitude, restored, scale: float) -> np.ndarray:
        """|restored - v| / |v| written over ``restored`` where v is at or
        above scale * 2**-6, and the mask of those values."""
        mask = np.greater_equal(magnitude, scale * 2.0**-6, out=self._mask[: values.size])
        np.subtract(restored, values, out=restored)
        np.abs(restored, out=restored)
        np.divide(restored, magnitude, out=restored, where=mask)
        return mask


def _skips(src, policy: QuantPolicy) -> Callable[[str], bool]:
    """policy.skips, widened to the scale companion of each 8-bit tensor the
    policy skips: it copies through with its tensor."""
    kept = {c for name, c in scale_companions(src).items() if c and policy.skips(name)}
    return lambda name: policy.skips(name) or name in kept


def quantize_stream(src, policy: QuantPolicy) -> tuple[TensorStream, dict[str, TensorAudit]]:
    """Quantize any source one tensor, and one chunk of it, at a time.

    Every check that needs no payload runs before this returns. Each tensor
    takes two passes over its payload chunks. The first finds its amax and
    scale, shared by the tensor and its ``.scale``: for a BF16 or F16 tensor,
    from the max of its magnitude bit patterns. The second encodes and audits
    each chunk; a 16-bit tensor's elements look up their codes and errors in
    tables built once over its patterns. Tensors the policy skips, and the
    ``.scale`` companions of skipped 8-bit tensors, copy through verbatim,
    piece by piece. Each tensor's audit lands in the returned dict once its
    last piece is produced, and the next tensor's pieces may be taken only
    then. The policy is recorded in the output metadata.
    """
    infos: dict[str, TensorInfo] = {}
    produce: dict[str, Callable[[], Iterable]] = {}
    k = _Kernels()
    audits: dict[str, TensorAudit] = {}
    skips = _skips(src, policy)

    @cache
    def top_of(name: str) -> int:
        return max(map(k.top, src.pieces(name)), default=0)

    @cache
    def scale_of(name: str) -> float:
        # Pass 1: the tensor's amax alone sets the scale, and it is NaN or
        # infinite iff a value is.
        dtype = src.tensors[name].dtype
        if dtype.itemsize == 2:
            amax = k.value(top_of(name), dtype)
        else:
            first: dict[str, TensorAudit] = {}
            for _ in k.passed(name, dtype, src.pieces(name), first):
                pass
            amax = first[name].amax
        try:
            scale = float(np.float32(compute_scale((amax,))))
        except fp8.NonFiniteInput as exc:
            raise fp8.NonFiniteInput(f"{name!r}: {exc}") from exc
        # Below amax = 448 * 2**-150 the float32 scale would round to 0.
        return max(scale, 2.0**-149)

    def payload(name: str) -> Iterator:
        dtype = src.tensors[name].dtype
        if skips(name):
            return k.passed(name, dtype, src.pieces(name), audits)
        if dtype.itemsize == 2:
            return k.looked_up(name, dtype, src.pieces(name), top_of(name), scale_of(name),
                               audits)
        return k.audited(name, dtype, src.pieces(name), scale_of(name), None, audits)

    def scale_payload(name: str) -> list[bytes]:
        return [np.float32(scale_of(name)).tobytes()]

    for name, info in src.tensors.items():
        produce[name] = partial(payload, name)
        if skips(name):
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
    skips = _skips(original, policy)
    k = _Kernels()
    audits: dict[str, TensorAudit] = {}
    for name, t in original.tensors.items():
        if skips(name):
            run = k.passed(name, t.dtype, t.pieces(), audits)
        else:
            q = QuantizedTensor(quantized.tensors[name], read_scale(quantized, companions[name]))
            if q.codes.shape != t.shape:
                raise ShapeMismatch(f"{name!r}: codes {list(q.codes.shape)}, "
                                    f"original {list(t.shape)}")
            run = k.audited(name, t.dtype, t.pieces(), q.scale, q.codes.pieces(), audits)
        for _ in run:
            pass
    return list(audits.values())
