"""Per-tensor dynamic 8-bit quantization of checkpoints.

Each quantized tensor is stored as its 8-bit codes under the original name
plus a scalar float32 companion named ``<name>.scale``, so the container
format stays unchanged. A tensor's amax is the value of its largest
magnitude bit pattern, whatever its dtype; fp8.compute_scale maps it to the
scale, which makes the largest-magnitude element exactly representable; and
restore_table dequantizes the codes wherever they are read.

One step encodes, restores and measures every audited value: the F32
chunks, the given codes of validate_quantization and the tables of a BF16 or
F16 tensor, which hold its codes and errors for each bit pattern up to its
largest and are looked up per element. Neither output nor audit depends on
CHUNK_ELEMS.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Iterator

import numpy as np

from . import fp8
from .errors import ShapeMismatch, ToolError
from .tensorio import (
    CHUNK_ELEMS,
    Checkpoint,
    Codec,
    DType,
    Overflow,
    Tensor,
    TensorInfo,
    TensorStream,
    chunks,
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


def restore_table(scale: float, name: str) -> np.ndarray:
    """decode(code) * scale rounded to float32, for each of the 256 codes, as
    float64: the one lookup that restores the codes of tensor ``name``. Overflow
    if 448 * scale, the largest finite code's value, overflows float32."""
    with np.errstate(over="ignore"):
        table = (fp8.DECODE_TABLE * scale).astype("<f4")
    if np.isinf(table).any():
        raise Overflow(f"{name!r}: {fp8.E4M3_MAX * scale:.6g} is finite but overflows F32")
    return table.astype(np.float64)


def dequantize_fp8(q: QuantizedTensor) -> Tensor:
    """Reconstruct a float32 tensor through restore_table."""
    codes = np.frombuffer(q.codes.data, dtype=np.uint8)
    values = restore_table(q.scale, "tensor")[codes].astype("<f4")
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
    """The buffers of one quantize or audit stream. Decoding, scaling,
    encoding and auditing all write into them, so no chunk allocates.

    A tensor's amax, of every dtype, is the value of its top pattern, the
    largest of its magnitude bit patterns: an integer max, with no decode.
    One step encodes, restores and measures the error of every audited
    value. A 16-bit payload holds at most 65,536 distinct bit patterns, and
    an element's code and relative error depend on its pattern alone. So a
    BF16 or F16 tensor that is quantized runs the step once, over its
    positive patterns, into a code table and an error table indexed by
    pattern, and each element is then looked up. The tables stay in these
    buffers until the tensor's last piece, so the tensors of one stream must
    be taken one at a time.
    """

    def __init__(self) -> None:
        self.codec = Codec()
        self._scaled, self._magnitude, self._errors = np.empty((3, CHUNK_ELEMS))
        # One byte per element: the step's mask, or a looked-up chunk's codes.
        self._bytes = np.empty(CHUNK_ELEMS, dtype=np.uint8)
        self._mask = self._bytes.view(np.bool_)
        self._code_table = np.empty(1 << 16, dtype=np.uint8)  # by 16-bit pattern
        self._error_table = np.empty(1 << 16)

    @staticmethod
    def top(piece, dtype: DType) -> int:
        """The largest magnitude pattern, max(bits & ~sign), of a payload
        piece. Patterns sort as their magnitudes do, and NaN and infinity
        above every finite one, so it decodes to the piece's max |v|, or to
        NaN or infinity if the piece holds one."""
        bits = np.frombuffer(piece, dtype=f"<u{dtype.itemsize}")
        # With no temporary: the largest positive pattern is the signed max,
        # and the largest negative one the unsigned max, less its sign bit.
        sign = 1 << (8 * dtype.itemsize - 1)
        return max(int(bits.view(f"<i{dtype.itemsize}").max()), int(bits.max()) - sign)

    def peak(self, pieces: Iterable, dtype: DType) -> int:
        """The top pattern of a whole payload; 0 for an empty one."""
        return max((self.top(piece, dtype) for piece in pieces), default=0)

    def value(self, pattern: int, dtype: DType) -> float:
        """The value of one bit pattern."""
        return float(self.codec.decode(np.array([pattern], f"<u{dtype.itemsize}"), dtype)[0])

    def passed(self, name: str, dtype: DType, pieces: Iterable,
               audits: dict[str, TensorAudit]) -> Iterator:
        """A skipped tensor's pieces, unchanged; audits[name] holds their amax
        once the last is taken."""
        top = 0
        for piece in pieces:
            top = max(top, self.top(piece, dtype))
            yield piece
        audits[name] = TensorAudit(name, self.value(top, dtype), 1.0, 0.0, True)

    def audited(self, name: str, dtype: DType, pieces: Iterable, top: int, scale: float,
                audits: dict[str, TensorAudit], codes: Iterator | None = None) -> Iterator:
        """The codes of a tensor whose top pattern is ``top``, chunk by chunk,
        each the next of ``codes`` or else the chunk encoded at ``scale``, and
        audited against the chunk; audits[name] holds the audit once the last
        is taken. A 16-bit tensor that is encoded here looks each element up
        in tables the step fills over its patterns up to ``top``."""
        max_rel = 0.0
        table = restore_table(scale, name)
        by_pattern = codes is None and dtype.itemsize == 2
        if by_pattern:
            # A negative pattern takes its positive twin's code with the sign
            # bit set, and its error. Entries above top's magnitude are a
            # former tensor's and are never read.
            positive = np.arange(top + 1, dtype="<u2")
            code_table = self._code_table.reshape(2, 1 << 15)[:, : top + 1]
            error_table = self._error_table.reshape(2, 1 << 15)[:, : top + 1]
            for part in chunks(top + 1):
                values = self.codec.decode(positive[part], dtype)  # each is |v|
                encoded, errors = self._step(values, values, scale, table)
                np.copyto(code_table[0, part], encoded)
                np.bitwise_or(encoded, 0x80, out=code_table[1, part])
                error_table[:, part] = errors
        for piece in pieces:
            if by_pattern:
                index = self.codec.index(np.frombuffer(piece, dtype="<u2"))
                n = index.size
                encoded = np.take(self._code_table, index, out=self._bytes[:n], mode="clip")
                errors = np.take(self._error_table, index, out=self._errors[:n], mode="clip")
            else:
                values = self.codec.decode(piece, dtype)
                magnitude = np.abs(values, out=self._magnitude[: values.size])
                encoded, errors = self._step(values, magnitude, scale, table,
                                             None if codes is None else next(codes))
            max_rel = max(max_rel, float(np.max(errors, initial=0.0)))
            yield encoded.data
        audits[name] = TensorAudit(name, self.value(top, dtype), scale, max_rel)

    def _step(self, values: np.ndarray, magnitude: np.ndarray, scale: float,
              table: np.ndarray, codes=None) -> tuple[np.ndarray, np.ndarray]:
        """The 8-bit codes of float64 ``values``, ``codes`` if given or else
        the values encoded at ``scale``, and each one's relative error
        |table[code] - v| / |v|: 0.0 where ``magnitude``, |v|, is below
        scale * 2**-6 (or NaN)."""
        n = values.size
        if codes is None:
            scaled = np.divide(values, scale, out=self._scaled[:n])
            codes = self.codec.encode(scaled, DType.F8_E4M3)
        codes = np.frombuffer(codes, dtype=np.uint8)
        errors = self.codec.lookup(table, codes, self._errors[:n])
        np.subtract(errors, values, out=errors)
        np.abs(errors, out=errors)
        mask = np.greater_equal(magnitude, scale * 2.0**-6, out=self._mask[:n])
        np.divide(errors, magnitude, out=errors, where=mask)
        np.copyto(errors, 0.0, where=np.logical_not(mask, out=mask))
        return codes, errors


def _skips(src, policy: QuantPolicy) -> Callable[[str], bool]:
    """policy.skips, widened to the scale companion of each 8-bit tensor the
    policy skips: it copies through with its tensor."""
    kept = {c for name, c in scale_companions(src).items() if c and policy.skips(name)}
    return lambda name: policy.skips(name) or name in kept


def quantize_stream(src, policy: QuantPolicy) -> tuple[TensorStream, dict[str, TensorAudit]]:
    """Quantize any source one tensor, and one chunk of it, at a time.

    Every check that needs no payload runs before this returns. Each tensor
    takes two passes over its payload chunks. The first finds its amax, from
    the max of its magnitude bit patterns, and so the scale shared by the
    tensor and its ``.scale``. The second encodes and audits each chunk; a
    16-bit tensor's elements look up their codes and errors in tables built
    once over its patterns. Tensors the policy skips, and the ``.scale``
    companions of skipped 8-bit tensors, copy through verbatim, piece by
    piece. Each tensor's audit lands in the returned dict once its last piece
    is produced, and the next tensor's pieces may be taken only then. The
    policy is recorded in the output metadata.
    """
    infos: dict[str, TensorInfo] = {}
    produce: dict[str, Callable[[], Iterable]] = {}
    k = _Kernels()
    audits: dict[str, TensorAudit] = {}
    skips = _skips(src, policy)

    @cache
    def top_of(name: str) -> int:
        # Pass 1: the top pattern. Its value is the tensor's amax, NaN or
        # infinite iff a value is, and sets the scale.
        return k.peak(src.pieces(name), src.tensors[name].dtype)

    @cache
    def scale_of(name: str) -> float:
        return fp8.compute_scale(k.value(top_of(name), src.tensors[name].dtype), name)

    def payload(name: str) -> Iterator:
        dtype = src.tensors[name].dtype
        if skips(name):
            return k.passed(name, dtype, src.pieces(name), audits)
        return k.audited(name, dtype, src.pieces(name), top_of(name), scale_of(name), audits)

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
            run = k.audited(name, t.dtype, t.pieces(), k.peak(t.pieces(), t.dtype), q.scale,
                            audits, q.codes.pieces())
        for _ in run:
            pass
    return list(audits.values())
