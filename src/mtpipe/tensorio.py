"""Bit-exact reader/writer for tensor checkpoint files.

Wire format: [8-byte little-endian u64 N][N bytes UTF-8 JSON header][data].
The header maps each tensor name to {"dtype", "shape", "data_offsets"}, with
offsets relative to the start of the data section, plus an optional
"__metadata__" string map. Writes are deterministic: tensor entries are
serialized with names in sorted order and payloads packed in that same order,
so two writes of the same checkpoint are byte-identical.

Both directions work one tensor at a time. ``open_checkpoint`` validates the
header and reads each payload only when asked for it; ``write_checkpoint``
builds the header from dtypes and shapes alone and then pulls payloads one by
one, so a ``TensorStream`` is written without the whole model in memory.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np

from . import fp8
from .errors import ToolError

# Defends against hostile length prefixes.
MAX_HEADER_BYTES = 100 * 1024 * 1024

# Elements per step of the elementwise loops. At 512 KB a float64 temporary
# leaves room in a core's 2 MB L2, and freed ones are not trimmed off the heap
# and page-faulted back in by the next step, as 1 << 18's 2 MB ones were.
# 1 << 15 measured the same as 1 << 16; 1 << 17 was slower.
CHUNK_ELEMS = 1 << 16


class HeaderTooLarge(ToolError):
    pass


class MalformedHeader(ToolError):
    pass


class OffsetViolation(ToolError):
    pass


class UnsupportedDType(ToolError):
    pass


class EmptyName(ToolError):
    pass


class IoFailure(ToolError):
    pass


class DType(Enum):
    """Element type of a tensor payload."""

    F32 = "F32"
    F16 = "F16"
    BF16 = "BF16"
    F8_E4M3 = "F8_E4M3"

    @property
    def itemsize(self) -> int:
        return _ITEMSIZE[self]


_ITEMSIZE = {DType.F32: 4, DType.F16: 2, DType.BF16: 2, DType.F8_E4M3: 1}


@dataclass(frozen=True)
class TensorInfo:
    """Dtype and shape of a tensor: what the header says about it."""

    dtype: DType
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.shape):
            raise ValueError(f"negative extent in shape {self.shape}")

    @property
    def numel(self) -> int:
        # Empty shape is a scalar: one element.
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.numel * self.dtype.itemsize


@dataclass(frozen=True)
class Tensor(TensorInfo):
    """Typed, shaped, little-endian row-major payload."""

    data: bytes

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.data) != self.nbytes:
            raise ValueError(
                f"payload is {len(self.data)} bytes, expected {self.nbytes} "
                f"for {self.dtype.value} {list(self.shape)}"
            )


@dataclass
class Checkpoint:
    """Named tensors plus free-form string metadata."""

    tensors: dict[str, Tensor] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    def read(self, name: str) -> Tensor:
        """The named tensor, as CheckpointFile.read gives it from a file."""
        return self.tensors[name]


@dataclass
class TensorStream:
    """A checkpoint produced one tensor at a time.

    ``tensors`` gives every output tensor's dtype and shape before any payload
    exists; ``payloads`` yields the tensors themselves in sorted-name order.
    """

    tensors: dict[str, TensorInfo]
    metadata: dict[str, str]
    payloads: Iterator[Tensor]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        """Pull (name, tensor) pairs in sorted-name order, each checked
        against the dtype and shape announced for it."""
        for name in sorted(self.tensors):
            tensor = next(self.payloads)
            info = self.tensors[name]
            if (tensor.dtype, tensor.shape) != (info.dtype, info.shape):
                raise ValueError(
                    f"{name!r}: produced {tensor.dtype.value} {list(tensor.shape)}, "
                    f"announced {info.dtype.value} {list(info.shape)}"
                )
            yield name, tensor

    def collect(self) -> Checkpoint:
        return Checkpoint(tensors=dict(self.items()), metadata=dict(self.metadata))


def chunks(n: int) -> Iterator[slice]:
    """Slices covering range(n) in steps of CHUNK_ELEMS."""
    for start in range(0, n, CHUNK_ELEMS):
        yield slice(start, start + CHUNK_ELEMS)


@np.errstate(invalid="ignore")  # a signalling NaN widens to NaN; that is no error
def _decode(buf, dtype: DType) -> np.ndarray:
    if dtype is DType.F32:
        return np.frombuffer(buf, dtype="<f4").astype(np.float64)
    if dtype is DType.F16:
        return np.frombuffer(buf, dtype="<f2").astype(np.float64)
    if dtype is DType.BF16:
        bits = np.frombuffer(buf, dtype="<u2").astype(np.uint32) << 16
        return bits.view(np.float32).astype(np.float64)
    if dtype is DType.F8_E4M3:
        return fp8.decode_array(np.frombuffer(buf, dtype=np.uint8))
    raise UnsupportedDType(str(dtype))


def tensor_as_f64(t: Tensor) -> np.ndarray:
    """Decode a tensor's payload to a flat float64 array, NaNs preserved."""
    out = np.empty(t.numel, dtype=np.float64)
    for s, values in zip(chunks(t.numel), f64_chunks(t)):
        out[s] = values
    return out


def f64_chunks(t: Tensor) -> Iterator[np.ndarray]:
    """Decode a tensor to float64 CHUNK_ELEMS elements at a time, in order."""
    view = memoryview(t.data)
    step = CHUNK_ELEMS * t.dtype.itemsize
    for start in range(0, len(view), step):
        yield _decode(view[start : start + step], t.dtype)


def _encode(flat: np.ndarray, dtype: DType) -> np.ndarray:
    if dtype is DType.F32:
        return flat.astype("<f4")
    if dtype is DType.F16:
        return np.clip(flat, -65504.0, 65504.0).astype("<f2")
    if dtype is DType.BF16:
        f32 = flat.astype(np.float32)
        bits = f32.view(np.uint32)
        rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
        top = bits >> 16
        nan = np.isnan(f32)
        return np.where(nan, top | 0x0040, rounded).astype("<u2")
    if dtype is DType.F8_E4M3:
        return fp8.encode_array(flat)
    raise UnsupportedDType(str(dtype))


def tensor_from_f64(values: np.ndarray, dtype: DType, shape: tuple[int, ...]) -> Tensor:
    """Encode a flat float64 array into a tensor payload of the given dtype.

    F32/F16 use the hardware round-to-nearest-even conversion, BF16 rounds the
    float32 bit pattern to nearest-even, F8 goes through the 8-bit codec. F16
    saturates at its largest finite magnitude rather than producing infinity.
    Encoding runs a chunk at a time into the output buffer.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if flat.size != math.prod(shape):
        raise ValueError(f"{flat.size} values cannot fill shape {list(shape)}")
    width = dtype.itemsize
    out = np.empty(flat.size * width, dtype=np.uint8)
    for s in chunks(flat.size):
        encoded = _encode(flat[s], dtype).view(np.uint8)
        out[s.start * width : s.start * width + encoded.size] = encoded
    return Tensor(dtype, tuple(shape), out.tobytes())


def _parse_header(blob: bytes) -> dict:
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeader(f"header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeader("header must be a JSON object")
    return header


def _pread(fd: int, n: int, offset: int, path) -> bytes:
    """Read exactly n bytes at offset; a file that ends early is an IoFailure."""
    parts = []
    while n > 0:
        try:
            part = os.pread(fd, n, offset)
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        if not part:
            raise IoFailure(f"{path} ends {n} bytes short of byte {offset + n}")
        parts.append(part)
        n -= len(part)
        offset += len(part)
    return parts[0] if len(parts) == 1 else b"".join(parts)


@dataclass
class CheckpointFile:
    """An open checkpoint whose header and offset table are validated.

    ``tensors`` maps each name to its dtype and shape in header order, and
    ``offsets`` to where its payload starts in the file; ``read`` fetches one
    payload. Close it, or use it as a context manager, to release ``fd``.
    """

    path: str | Path
    fd: int
    tensors: dict[str, TensorInfo]
    offsets: dict[str, int]
    metadata: dict[str, str]

    def read(self, name: str) -> Tensor:
        info = self.tensors[name]
        data = _pread(self.fd, info.nbytes, self.offsets[name], self.path)
        return Tensor(info.dtype, info.shape, data)

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def __enter__(self) -> CheckpointFile:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_checkpoint(path: str | Path) -> CheckpointFile:
    """Open a checkpoint file, reading and validating only its header.

    Raises HeaderTooLarge, MalformedHeader, OffsetViolation, UnsupportedDType
    or IoFailure; a malformed file is never opened.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        return _validate(path, fd)
    except BaseException:
        os.close(fd)
        raise


def _validate(path, fd: int) -> CheckpointFile:
    try:
        size = os.fstat(fd).st_size
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if size < 8:
        raise MalformedHeader("file shorter than the 8-byte length prefix")
    (header_len,) = struct.unpack("<Q", _pread(fd, 8, 0, path))
    if header_len > MAX_HEADER_BYTES or 8 + header_len > size:
        raise HeaderTooLarge(f"declared header length {header_len} exceeds limits")
    header = _parse_header(_pread(fd, header_len, 8, path))
    data_start = 8 + header_len
    data_len = size - data_start

    metadata_raw = header.pop("__metadata__", {})
    if not isinstance(metadata_raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata_raw.items()
    ):
        raise MalformedHeader("__metadata__ must map strings to strings")

    tensors: dict[str, TensorInfo] = {}
    offsets: dict[str, int] = {}
    spans: list[tuple[int, int, str]] = []
    for name, meta in header.items():
        if not name:
            raise MalformedHeader("tensor names must be non-empty")
        if not isinstance(meta, dict):
            raise MalformedHeader(f"entry for {name!r} is not an object")
        missing = {"dtype", "shape", "data_offsets"} - meta.keys()
        if missing:
            raise MalformedHeader(f"entry for {name!r} lacks {sorted(missing)}")
        try:
            dtype = DType(meta["dtype"])
        except ValueError as exc:
            raise UnsupportedDType(f"{name!r}: {meta['dtype']!r}") from exc
        shape = meta["shape"]
        if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
        ):
            raise MalformedHeader(f"entry for {name!r} has invalid shape {shape!r}")
        offsets_raw = meta["data_offsets"]
        if (
            not isinstance(offsets_raw, list)
            or len(offsets_raw) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets_raw)
        ):
            raise MalformedHeader(f"entry for {name!r} has invalid data_offsets")
        begin, end = offsets_raw
        if not 0 <= begin <= end <= data_len:
            raise OffsetViolation(f"{name!r}: offsets [{begin}, {end}] out of range")
        expected = math.prod(shape) * dtype.itemsize
        if end - begin != expected:
            raise OffsetViolation(
                f"{name!r}: span {end - begin} bytes, dtype/shape need {expected}"
            )
        spans.append((begin, end, name))
        tensors[name] = TensorInfo(dtype, tuple(shape))
        offsets[name] = data_start + begin

    spans.sort()
    cursor = 0
    for begin, end, name in spans:
        if begin != cursor:
            kind = "overlap" if begin < cursor else "gap"
            raise OffsetViolation(f"{kind} at byte {begin} (tensor {name!r})")
        cursor = end
    if cursor != data_len:
        raise OffsetViolation(
            f"data buffer is {data_len} bytes but offsets cover {cursor}"
        )

    return CheckpointFile(path, fd, tensors, offsets, dict(metadata_raw))


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Parse a checkpoint file, validating the offset table before returning.

    Raises HeaderTooLarge, MalformedHeader, OffsetViolation, UnsupportedDType
    or IoFailure; a malformed file never yields a partial checkpoint.
    """
    with open_checkpoint(path) as src:
        return Checkpoint(
            tensors={name: src.read(name) for name in src.tensors},
            metadata=src.metadata,
        )


def write_checkpoint(ckpt: Checkpoint | TensorStream, path: str | Path) -> None:
    """Serialize a checkpoint; rereading the file yields an equal checkpoint.

    The file is written as ``<path>.tmp`` beside its destination and renamed
    over ``path`` only when complete. If writing fails, or producing a payload
    raises, neither the temp file nor a partial ``path`` is left behind.
    """
    if isinstance(ckpt, Checkpoint):
        tensors = ckpt.tensors
        ckpt = TensorStream(tensors, ckpt.metadata, (tensors[n] for n in sorted(tensors)))
    for name in ckpt.tensors:
        if not name:
            raise EmptyName("tensor names must be non-empty")

    header: dict[str, object] = {}
    if ckpt.metadata:
        header["__metadata__"] = {k: ckpt.metadata[k] for k in sorted(ckpt.metadata)}
    offset = 0
    for name in sorted(ckpt.tensors):
        info = ckpt.tensors[name]
        header[name] = {
            "dtype": info.dtype.value,
            "shape": list(info.shape),
            "data_offsets": [offset, offset + info.nbytes],
        }
        offset += info.nbytes

    header_bytes = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode(
        "utf-8"
    )
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            with open(tmp, "wb") as fh:
                fh.write(struct.pack("<Q", len(header_bytes)))
                fh.write(header_bytes)
                for _, tensor in ckpt.items():
                    fh.write(tensor.data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
