"""Spherical linear interpolation of two checkpoints, tensor by tensor.

Each pair of matching tensors is flattened, interpolated along the great
circle between the two element vectors, and re-encoded. All interpolation
arithmetic runs at float64 regardless of storage dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from .errors import ShapeMismatch, ToolError
from .quant import NameCollision, dequantized, scale_companions
from .tensorio import (
    Checkpoint,
    DType,
    Tensor,
    TensorInfo,
    TensorStream,
    chunks,
    tensor_from_f64,
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
    a: np.ndarray, b: np.ndarray, t: float, eps: float = 1e-8, out: np.ndarray | None = None
) -> np.ndarray:
    """Interpolate between two equal-length vectors along their arc.

    Falls back to linear interpolation when either vector is zero or the
    subtended angle is numerically degenerate (sin of the angle below eps),
    so antiparallel and near-parallel inputs never produce NaN. The result
    goes to ``out`` when given, which may be ``a`` itself: the elementwise
    combine runs a chunk at a time, so it needs no full-size temporaries.
    """
    if not 0.0 <= t <= 1.0:
        raise TOutOfRange(f"t must lie in [0, 1], got {t}")
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape or a.size == 0:
        raise ShapeMismatch(f"vector lengths {a.size} and {b.size}")

    coeff_a, coeff_b = 1.0 - t, t
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a != 0.0 and norm_b != 0.0:
        cos_omega = float(np.clip(np.dot(a, b) / (norm_a * norm_b), -1.0, 1.0))
        omega = float(np.arccos(cos_omega))
        sin_omega = float(np.sin(omega))
        if sin_omega >= eps:
            # Scalar coefficients first: at t=0 the pair is exactly (1, 0), so
            # the endpoint identities hold bitwise.
            coeff_a = float(np.sin((1.0 - t) * omega)) / sin_omega
            coeff_b = float(np.sin(t * omega)) / sin_omega

    if out is None:
        out = np.empty_like(a)
    for s in chunks(a.size):
        np.multiply(a[s], coeff_a, out=out[s])
        out[s] += coeff_b * b[s]
    return out


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
    """Merge two checkpoints one tensor at a time.

    ``x`` and ``y`` are Checkpoints or open CheckpointFiles. Every check that
    needs no payload (missing names, shapes, scales) runs before this
    returns. Matching tensors must agree on shape; 8-bit ones are
    dequantized by their scales and merge to float32 without a ``.scale``.
    Tensors present in only one input are an error under MissingPolicy.ERROR
    or copied verbatim, with their scale, under MissingPolicy.COPY. Output
    metadata records the interpolation weight.
    """
    wx, wy = scale_companions(x), scale_companions(y)
    infos: dict[str, TensorInfo] = {}
    producers: dict[str, Callable[[], Tensor]] = {}
    names = wx.keys() | wy.keys()
    for name in sorted(names):
        if name not in wx or name not in wy:
            if spec.name_policy is MissingPolicy.ERROR:
                side = "first" if name not in wx else "second"
                raise MissingTensor(f"{name!r} missing from the {side} checkpoint")
            src, scale_name = (x, wx[name]) if name in wx else (y, wy[name])
            if scale_name in names:
                raise NameCollision(f"output name {scale_name!r} produced twice")
            for copied in filter(None, (name, scale_name)):
                infos[copied] = src.tensors[copied]
                producers[copied] = partial(src.read, copied)
            continue
        ix, iy = x.tensors[name], y.tensors[name]
        if ix.shape != iy.shape:
            raise ShapeMismatch(f"{name!r}: {list(ix.shape)} vs {list(iy.shape)}")
        infos[name] = TensorInfo(_output_dtype(ix.dtype, iy.dtype), ix.shape)
        producers[name] = partial(_merge_one, x, y, name, wx[name], wy[name], infos[name], spec)

    metadata = dict(x.metadata)
    metadata.update(y.metadata)
    metadata["merge_t"] = repr(spec.t)
    return TensorStream(infos, metadata, (producers[n]() for n in sorted(producers)))


def _merge_one(x, y, name: str, scale_x: str | None, scale_y: str | None,
               info: TensorInfo, spec: MergeSpec) -> Tensor:
    if info.numel == 0:
        return Tensor(info.dtype, info.shape, b"")
    a = dequantized(x, name, scale_x)
    b = dequantized(y, name, scale_y)
    merged = slerp_vec(a, b, spec.t, spec.parallel_eps, out=a)
    del b
    return tensor_from_f64(merged, info.dtype, info.shape)


def merge_checkpoints(x: Checkpoint, y: Checkpoint, spec: MergeSpec) -> Checkpoint:
    """Merge two checkpoints at the given interpolation weight (see merge_stream)."""
    return merge_stream(x, y, spec).collect()
