"""Bit-exact reader/writer for tensor checkpoint files.

Wire format: [8-byte little-endian u64 N][N bytes UTF-8 JSON header][data].
The header maps each tensor name to {"dtype", "shape", "data_offsets"}, with
offsets relative to the start of the data section, plus an optional
"__metadata__" string map. Writes are deterministic: tensor entries are
serialized with names in sorted order and payloads packed in that same order,
so two writes of the same checkpoint are byte-identical.

Both directions work one chunk of CHUNK_ELEMS elements at a time, so memory
is bounded by a chunk, not by the largest tensor. A source, a ``Checkpoint``,
the ``CheckpointFile`` that ``open_checkpoint`` validates or a
``TensorStream``, offers ``tensors``, ``metadata`` and ``pieces(name)``: a
payload chunk by chunk, names in any order. ``write_checkpoint`` writes any
source and ``collect`` reads any source into memory.
``Codec`` decodes pieces to float64, 8-bit codes through a 256-entry table,
and encodes float64 back into buffers it allocates once.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import fp8
from .errors import ToolError
from .state import atomic_write

# Defends against hostile length prefixes.
MAX_HEADER_BYTES = 100 * 1024 * 1024

# Elements per step of the elementwise loops. A 512 KB float64 chunk buffer
# leaves room in a core's 2 MB L2; 1 << 17 was slower. quantize's output and
# audit do not depend on it (tests/test_quant.py runs it at 1 << 12 and
# 1 << 15). merge's output does, through its per-chunk dot products, so the
# golden manifest pins it at 1 << 16.
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


class Overflow(ToolError):
    """A finite value is too large for the dtype it is encoded to."""


class DType(Enum):
    """Element type of a tensor payload."""

    F32 = "F32"
    F16 = "F16"
    BF16 = "BF16"
    F8_E4M3 = "F8_E4M3"

    @property
    def itemsize(self) -> int:
        return _WIRE[self].itemsize


# How each dtype's payload is viewed: BF16 as its raw 16-bit patterns.
_WIRE = {DType.F32: np.dtype("<f4"), DType.F16: np.dtype("<f2"),
         DType.BF16: np.dtype("<u2"), DType.F8_E4M3: np.dtype(np.uint8)}
# The least float32 magnitude that F32 and BF16 encode as infinity: BF16
# rounds bit patterns from 0x7F7F8000 up to 0x7F80, its infinity.
_INF_FROM = {DType.F32: np.float32(np.inf),
             DType.BF16: np.array(0x7F7F8000, dtype=np.uint32).view(np.float32)[()]}


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

    def pieces(self) -> Iterator[memoryview]:
        """The payload CHUNK_ELEMS elements at a time, as views of it."""
        view = memoryview(self.data)
        step = CHUNK_ELEMS * self.dtype.itemsize
        for start in range(0, len(view), step):
            yield view[start : start + step]


@dataclass
class Checkpoint:
    """Named tensors plus free-form string metadata."""

    tensors: dict[str, Tensor] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    def pieces(self, name: str) -> Iterator[memoryview]:
        """The named payload chunk by chunk, as CheckpointFile.pieces gives it."""
        return self.tensors[name].pieces()


@dataclass
class TensorStream:
    """A checkpoint produced one tensor at a time.

    ``tensors`` gives every output tensor's dtype and shape before any payload
    exists; ``produce`` maps each name to a zero-argument callable returning
    its payload's byte pieces. A piece may be a view of a buffer its producer
    reuses, so it is valid only until the next is taken.
    """

    tensors: dict[str, TensorInfo]
    metadata: dict[str, str]
    produce: dict[str, Callable[[], Iterable]]

    def pieces(self, name: str) -> Iterator[memoryview]:
        """The named payload as its producer makes it; once the last piece is
        taken, ValueError if they do not add up to the bytes announced."""
        total, nbytes = 0, self.tensors[name].nbytes
        for piece in self.produce[name]():
            total += memoryview(piece).nbytes
            yield piece
        if total != nbytes:
            raise ValueError(f"{name!r}: produced {total} bytes, announced {nbytes}")


def chunks(n: int) -> Iterator[slice]:
    """Slices covering range(n) in steps of CHUNK_ELEMS."""
    for start in range(0, n, CHUNK_ELEMS):
        yield slice(start, start + CHUNK_ELEMS)


class Codec:
    """Decodes payload pieces to float64 and encodes float64 back to payload
    bytes, up to CHUNK_ELEMS elements per call, in buffers allocated once.

    Every step writes into those buffers, so no call allocates an array: a
    freed chunk-sized temporary would come back as a fresh mmap, page-faulted
    in again on every chunk. A result is a view of a buffer that the next call
    of the same method overwrites.
    """

    def __init__(self) -> None:
        n = CHUNK_ELEMS
        self._values = np.empty(n)
        self._f64 = np.empty(n)
        self._f32 = np.empty(n, dtype=np.float32)
        self._u32 = np.empty(n, dtype=np.uint32)
        self._index = np.empty(n, dtype=np.intp)
        self._bytes = np.empty(4 * n, dtype=np.uint8)
        self._fp8 = fp8.encode_scratch(n)

    def index(self, codes: np.ndarray) -> np.ndarray:
        """Unsigned integer codes widened to intp, ready to index a table."""
        index = self._index[: codes.size]
        np.copyto(index, codes)
        return index

    def lookup(self, table: np.ndarray, codes: np.ndarray, out: np.ndarray) -> np.ndarray:
        """table[codes] into ``out`` for unsigned codes that all index ``table``."""
        # np.take would copy narrow indices to intp, and in its default
        # mode="raise" it buffers ``out`` as well; "clip" clips no valid index.
        return np.take(table, self.index(codes), out=out, mode="clip")

    @np.errstate(invalid="ignore")  # a signalling NaN widens to NaN; that is no error
    def decode(self, piece, dtype: DType, table: np.ndarray | None = None) -> np.ndarray:
        """A payload piece's values at float64, NaNs preserved; 8-bit codes
        are looked up in ``table``, or by their plain values."""
        wire = np.frombuffer(piece, dtype=_WIRE[dtype])
        values = self._values[: wire.size]
        if dtype is DType.F8_E4M3:
            self.lookup(fp8.DECODE_TABLE if table is None else table, wire, values)
        elif dtype is DType.BF16:
            bits = self._u32[: wire.size]
            np.copyto(bits, wire)
            bits <<= 16
            np.copyto(values, bits.view(np.float32))
        else:
            np.copyto(values, wire)
        return values

    def encode(self, values: np.ndarray, dtype: DType) -> memoryview:
        """The payload bytes of float64 ``values`` as ``dtype``.

        F32/F16 use the hardware round-to-nearest-even conversion, BF16 rounds
        the float32 bit pattern to nearest-even, F8 goes through the 8-bit
        codec. F16 saturates at its largest finite magnitude; a finite value
        that F32 or BF16 would turn into infinity raises Overflow.
        """
        n = values.size
        out = self._bytes[: n * dtype.itemsize]
        if dtype is DType.F8_E4M3:
            fp8.encode_array(values, out=out, scratch=self._fp8)
        elif dtype is DType.F16:
            np.copyto(out.view("<f2"), np.clip(values, -65504.0, 65504.0, out=self._f64[:n]))
        else:
            f32 = out.view("<f4") if dtype is DType.F32 else self._f32[:n]
            with np.errstate(over="ignore"):
                np.copyto(f32, values, casting="same_kind")
            if dtype is DType.BF16:
                bits = f32.view(np.uint32)
                rounded = np.right_shift(bits, 16, out=self._u32[:n])
                rounded &= 1
                rounded += bits
                rounded += 0x7FFF
                rounded >>= 16
                np.copyto(out.view("<u2"), rounded, casting="unsafe")
            limit = _INF_FROM[dtype]
            if not -limit < f32.min() <= f32.max() < limit:  # a NaN, infinity or overflow
                self._non_finite(values, f32, out, dtype)
        return out.data

    @staticmethod
    def _non_finite(values, f32, out, dtype: DType) -> None:
        # Rare, so it may allocate.
        overflowed = np.isfinite(values) & ~(np.abs(f32) < _INF_FROM[dtype])
        if overflowed.any():
            raise Overflow(f"{values[overflowed][0]:.6g} is finite but overflows {dtype.value}")
        if dtype is DType.BF16:  # a NaN keeps its top bits, made quiet
            nan = np.isnan(f32)
            np.copyto(out.view("<u2"), (f32.view(np.uint32) >> 16) | 0x40, casting="unsafe",
                      where=nan)


def tensor_as_f64(t: Tensor) -> np.ndarray:
    """Decode a tensor's payload to a flat float64 array, NaNs preserved."""
    out = np.empty(t.numel, dtype=np.float64)
    codec = Codec()
    for s, piece in zip(chunks(t.numel), t.pieces()):
        out[s] = codec.decode(piece, t.dtype)
    return out


def tensor_from_f64(values: np.ndarray, dtype: DType, shape: tuple[int, ...]) -> Tensor:
    """Encode a flat float64 array into a tensor payload of the given dtype,
    a chunk at a time (see Codec.encode)."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if flat.size != math.prod(shape):
        raise ValueError(f"{flat.size} values cannot fill shape {list(shape)}")
    codec = Codec()
    data = b"".join(bytes(codec.encode(flat[s], dtype)) for s in chunks(flat.size))
    return Tensor(dtype, tuple(shape), data)


def _parse_header(blob: bytes) -> dict:
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeader(f"header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeader("header must be a JSON object")
    return header


def _pread_into(fd: int, view: memoryview, offset: int, path) -> None:
    """Fill ``view`` with the bytes at offset, looping over short reads; a file
    that ends early is an IoFailure."""
    done = 0
    while done < len(view):
        try:
            got = os.preadv(fd, [view[done:]], offset + done)
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        if not got:
            raise IoFailure(
                f"{path} ends {len(view) - done} bytes short of byte {offset + len(view)}")
        done += got


def _pread(fd: int, n: int, offset: int, path) -> bytearray:
    """Exactly n bytes at offset (see _pread_into)."""
    buf = bytearray(n)
    _pread_into(fd, memoryview(buf), offset, path)
    return buf


@dataclass
class CheckpointFile:
    """An open checkpoint whose header and offset table are validated.

    ``tensors`` maps each name to its dtype and shape in header order, and
    ``offsets`` to where its payload starts in the file; ``pieces`` reads
    them through ``buf``, allocated once. Close it, or use it as a context
    manager, to release ``fd``.
    """

    path: str | Path
    fd: int
    tensors: dict[str, TensorInfo]
    offsets: dict[str, int]
    metadata: dict[str, str]
    buf: bytearray = field(init=False, repr=False,
                           default_factory=lambda: bytearray(4 * CHUNK_ELEMS))

    def pieces(self, name: str) -> Iterator[memoryview]:
        """The named payload CHUNK_ELEMS elements at a time, each read into
        ``buf``, so a piece is valid only until the next is taken from the file."""
        info = self.tensors[name]
        step = CHUNK_ELEMS * info.dtype.itemsize
        view = memoryview(self.buf)
        for start in range(0, info.nbytes, step):
            piece = view[: min(step, info.nbytes - start)]
            _pread_into(self.fd, piece, self.offsets[name] + start, self.path)
            yield piece

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


def collect(src) -> Checkpoint:
    """Read any source into a Checkpoint."""
    tensors = {}
    for name in sorted(src.tensors):
        info = src.tensors[name]
        tensors[name] = Tensor(info.dtype, info.shape, b"".join(map(bytes, src.pieces(name))))
    return Checkpoint(tensors=tensors, metadata=dict(src.metadata))


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Parse a checkpoint file, validating the offset table before returning.

    Raises HeaderTooLarge, MalformedHeader, OffsetViolation, UnsupportedDType
    or IoFailure; a malformed file never yields a partial checkpoint.
    """
    with open_checkpoint(path) as src:
        return collect(src)


def write_checkpoint(src, path: str | Path) -> None:
    """Serialize any source; rereading the file yields an equal checkpoint.

    The file goes through ``state.atomic_write``: whole or not at all, and
    fsynced. Payload pieces are written as they are produced. If writing
    fails, or producing a payload raises, ``path`` is left as it was and no
    temp file remains.
    """
    for name in src.tensors:
        if not name:
            raise EmptyName("tensor names must be non-empty")

    header: dict[str, object] = {}
    if src.metadata:
        header["__metadata__"] = {k: src.metadata[k] for k in sorted(src.metadata)}
    offset = 0
    for name in sorted(src.tensors):
        info = src.tensors[name]
        header[name] = {
            "dtype": info.dtype.value,
            "shape": list(info.shape),
            "data_offsets": [offset, offset + info.nbytes],
        }
        offset += info.nbytes

    header_bytes = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode(
        "utf-8"
    )
    try:
        with atomic_write(path, "wb") as fh:
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for name in sorted(src.tensors):
                for piece in src.pieces(name):
                    fh.write(piece)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
