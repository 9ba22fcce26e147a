"""Spherical linear interpolation of two checkpoints, tensor by tensor.

Each pair of matching tensors is flattened, interpolated along the great
circle between the two element vectors, and re-encoded. All interpolation
arithmetic runs at float64 regardless of storage dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ShapeMismatch, ToolError
from .quant import NameCollision, read_scale, scale_companions
from .tensorio import (
    CHUNK_ELEMS,
    Checkpoint,
    Codec,
    DType,
    Overflow,
    TensorInfo,
    TensorStream,
    chunks,
)


class TOutOfRange(ToolError):
    pass


class MissingTensor(ToolError):
    pass


class MissingPolicy(Enum):
    """What to do with tensors present in only one input."""

    ERROR = "error"
    COPY = "copy"


@dataclass(frozen=True)
class MergeSpec:
    t: float = 0.5
    # Below this sin(angle), slerp coefficients are unstable and lerp is the
    # correct limit.
    parallel_eps: float = 1e-8
    name_policy: MissingPolicy = MissingPolicy.ERROR

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 1.0:
            raise TOutOfRange(f"t must lie in [0, 1], got {self.t}")
        if not self.parallel_eps > 0:
            raise ValueError("parallel_eps must be positive")


def slerp_vec(
    a: np.ndarray, b: np.ndarray, t: float, eps: float = 1e-8, out: np.ndarray | None = None,
    *, coefficients: tuple[float, float] | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Interpolate between two equal-length vectors along their arc.

    Falls back to linear interpolation when either vector is zero or the
    subtended angle is numerically degenerate (sin of the angle below eps),
    so antiparallel and near-parallel inputs never produce NaN. The result
    goes to ``out`` when given, which may be ``a`` itself. ``coefficients``,
    slerp_coefficients of whole vectors, skips the reduction, so a call can
    combine one chunk of them. Products go to ``scratch``, a float64 array
    of min(len(a), CHUNK_ELEMS) or more elements; a call given ``out`` and
    ``scratch`` allocates no array.
    """
    if not 0.0 <= t <= 1.0:
        raise TOutOfRange(f"t must lie in [0, 1], got {t}")
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape or a.size == 0:
        raise ShapeMismatch(f"vector lengths {a.size} and {b.size}")
    if scratch is None:
        scratch = np.empty(min(a.size, CHUNK_ELEMS))
    if coefficients is None:
        pairs = ((a[s], b[s]) for s in chunks(a.size))
        coefficients = slerp_coefficients(*dot_products(pairs, scratch), t, eps)
    coeff_a, coeff_b = coefficients
    if out is None:
        out = np.empty_like(a)
    for s in chunks(a.size):
        part = np.multiply(a[s], coeff_a, out=out[s])
        part += np.multiply(b[s], coeff_b, out=scratch[: part.size])
    return out


def dot_products(pairs: Iterable[tuple[np.ndarray, np.ndarray]],
                 scratch: np.ndarray) -> tuple[float, float, float]:
    """|a|², |b|² and a·b of two vectors given as pairs of matching chunks.

    Each chunk's products are summed by np.add.reduce (numpy's pairwise sum,
    no BLAS) and the chunk sums by math.fsum, so the result depends on the
    numpy build and the chunk size, not on the CPU or on how the vectors
    were read.
    """
    sums: tuple[list, list, list] = ([], [], [])
    for a, b in pairs:
        product = scratch[: a.size]
        for parts, x, y in zip(sums, (a, b, a), (a, b, b)):
            parts.append(np.add.reduce(np.multiply(x, y, out=product)))
    return _fsum(sums[0]), _fsum(sums[1]), _fsum(sums[2])


def _fsum(parts: list) -> float:
    try:
        return math.fsum(parts)
    except (OverflowError, ValueError):  # inf - inf, or finite sums past the range
        return float(sum(parts))


def slerp_coefficients(aa: float, bb: float, ab: float, t: float,
                       eps: float) -> tuple[float, float]:
    """The weights of a and b in slerp at t, from dot_products(a, b): those
    of a lerp when either vector is zero or sin of their angle is below eps.
    Its acos and sin are the C library's, not numpy's loops chosen per CPU."""
    coeff_a, coeff_b = 1.0 - t, t
    norm_a, norm_b = math.sqrt(aa), math.sqrt(bb)
    if norm_a != 0.0 and norm_b != 0.0:
        # A NaN product clamps to 1: sin(omega) is then 0, below eps, a lerp.
        cos_omega = max(-1.0, min(1.0, ab / (norm_a * norm_b)))
        omega = math.acos(cos_omega)
        sin_omega = math.sin(omega)
        if sin_omega >= eps:
            # Scalar coefficients first: at t=0 the pair is exactly (1, 0), so
            # the endpoint identities hold bitwise.
            coeff_a = math.sin((1.0 - t) * omega) / sin_omega
            coeff_b = math.sin(t * omega) / sin_omega
    return coeff_a, coeff_b


def _output_dtype(da: DType, db: DType) -> DType:
    # 8-bit inputs are dequantized before merging, so they contribute float32.
    da = DType.F32 if da is DType.F8_E4M3 else da
    db = DType.F32 if db is DType.F8_E4M3 else db
    if da is db:
        return da
    if da.itemsize != db.itemsize:
        return da if da.itemsize > db.itemsize else db
    # Equal width but different layouts (F16 vs BF16): widen to F32 so
    # neither side loses range or precision.
    return DType.F32


def merge_stream(x, y, spec: MergeSpec) -> TensorStream:
    """Merge two checkpoints one tensor, and one chunk of it, at a time.

    ``x`` and ``y`` are Checkpoints or open CheckpointFiles. Every check on
    missing names, shapes and scale values runs before this
    returns. Matching tensors must agree on shape; 8-bit ones are
    dequantized by their scales and merge to float32 without a ``.scale``.
    Each pair takes two passes over its payload chunks: the first sums the
    dot products (see dot_products), the second decodes the chunks again,
    combines and encodes them. Tensors present in only one input are an
    error under MissingPolicy.ERROR or copied verbatim, piece by piece, with
    their scale, under MissingPolicy.COPY. Output metadata records the
    interpolation weight.
    """
    wx, wy = scale_companions(x), scale_companions(y)
    infos: dict[str, TensorInfo] = {}
    producers: dict[str, Callable[[], Iterator[memoryview]]] = {}
    cx, cy, scratch = Codec(), Codec(), np.empty(CHUNK_ELEMS)
    names = wx.keys() | wy.keys()
    for name in sorted(names):
        if name not in wx or name not in wy:
            if spec.name_policy is MissingPolicy.ERROR:
                side = "first" if name not in wx else "second"
                raise MissingTensor(f"{name!r} missing from the {side} checkpoint")
            src, scale_name = (x, wx[name]) if name in wx else (y, wy[name])
            if scale_name in names:
                raise NameCollision(f"output name {scale_name!r} produced twice")
            read_scale(src, scale_name)  # a scale copied verbatim must be valid too
            for copied in filter(None, (name, scale_name)):
                infos[copied] = src.tensors[copied]
                producers[copied] = partial(src.pieces, copied)
            continue
        ix, iy = x.tensors[name], y.tensors[name]
        if ix.shape != iy.shape:
            raise ShapeMismatch(f"{name!r}: {list(ix.shape)} vs {list(iy.shape)}")
        infos[name] = TensorInfo(_output_dtype(ix.dtype, iy.dtype), ix.shape)
        sx, sy = read_scale(x, wx[name]), read_scale(y, wy[name])
        sides = partial(_values, x, name, sx, cx), partial(_values, y, name, sy, cy)
        producers[name] = partial(_merged, name, *sides, cx, infos[name].dtype, spec, scratch)

    metadata = dict(x.metadata)
    metadata.update(y.metadata)
    metadata["merge_t"] = repr(spec.t)
    return TensorStream(infos, metadata, (producers[n]() for n in sorted(producers)))


def _values(src, name: str, scale: float, codec: Codec) -> Iterator[np.ndarray]:
    """A tensor's values at float64 times its scale, a chunk at a time in
    ``codec``'s buffer."""
    dtype = src.tensors[name].dtype
    for piece in src.pieces(name):
        values = codec.decode(piece, dtype)
        if scale != 1.0:
            values *= scale
        yield values


def _merged(name: str, a: Callable[[], Iterator[np.ndarray]],
            b: Callable[[], Iterator[np.ndarray]], codec: Codec, dtype: DType,
            spec: MergeSpec, scratch: np.ndarray) -> Iterator[memoryview]:
    sums = dot_products(zip(a(), b()), scratch)
    coefficients = slerp_coefficients(*sums, spec.t, spec.parallel_eps)
    for va, vb in zip(a(), b()):
        merged = slerp_vec(va, vb, spec.t, out=va, coefficients=coefficients, scratch=scratch)
        try:
            piece = codec.encode(merged, dtype)
        except Overflow as exc:
            raise Overflow(f"{name!r}: {exc}") from exc
        yield piece


def merge_checkpoints(x: Checkpoint, y: Checkpoint, spec: MergeSpec) -> Checkpoint:
    """Merge two checkpoints at the given interpolation weight (see merge_stream)."""
    return merge_stream(x, y, spec).collect()
