"""8-bit float codec: sign(1) / exponent(4, bias 7) / mantissa(3), finite-only.

The format has no infinities. The two codes with exponent field 1111 and
mantissa 111 are NaN; the largest finite magnitude is 448 (exponent 1111,
mantissa 110). Exponent field 0 holds signed zero and subnormals with a step
of 2**-9.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ToolError

E4M3_MAX = 448.0
NAN_CODE = 0x7F

_EXP_BIAS = 7
_SUBNORMAL_STEP = 2.0**-9


class NonFiniteInput(ToolError):
    """An infinity or NaN reached an operation that requires finite values."""


def _decode_one(code: int) -> float:
    sign = -1.0 if code & 0x80 else 1.0
    exp = (code >> 3) & 0xF
    mant = code & 0x7
    if exp == 0xF and mant == 0x7:
        return math.nan
    if exp == 0:
        return sign * mant * _SUBNORMAL_STEP
    return sign * (1.0 + mant / 8.0) * 2.0 ** (exp - _EXP_BIAS)


DECODE_TABLE = np.array([_decode_one(c) for c in range(256)], dtype=np.float64)


def decode_e4m3(code: int) -> float:
    """Decode one 8-bit code to its float value (NaN for the NaN codes)."""
    if not 0 <= code <= 255:
        raise ValueError(f"code out of byte range: {code}")
    return float(DECODE_TABLE[code])


def decode_array(codes: np.ndarray) -> np.ndarray:
    """Vectorized decode of a uint8 code array to float64."""
    return DECODE_TABLE[np.asarray(codes, dtype=np.uint8)]


def encode_scratch(n: int) -> tuple[np.ndarray, ...]:
    """Working arrays for encode_array on up to n values."""
    return np.empty(n), np.empty(n), np.empty(n, dtype=np.intc), np.empty(n, dtype=np.bool_)


def encode_array(values: np.ndarray, out: np.ndarray | None = None, *,
                 scratch: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Round values onto the 8-bit value grid and return their uint8 codes.

    Rounding is to nearest with ties to even (even mantissa code wins a tie).
    Magnitudes above 448 saturate to +-448, NaN maps to the NaN code, and the
    sign of zero is preserved. Total over any float input. The codes go to
    ``out`` when given, and the work to ``scratch`` from encode_scratch, so a
    caller that passes both allocates no array.
    """
    shape = np.shape(values)
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    mag, step, shift, mask = (a[: v.size] for a in scratch or encode_scratch(v.size))
    codes = np.empty(v.size, dtype=np.uint8) if out is None else out.reshape(-1)
    np.abs(v, out=mag)
    np.minimum(mag, E4M3_MAX, out=mag)
    # With frexp's exponent e (mag in [2**(e-1), 2**e)), the mantissa step is
    # 2**(e-4); e is floored at -5, where the subnormal step 2**-9 begins.
    # Scaling by a power of two is exact, so rint rounds to nearest-even on
    # the step count n itself, and a carry into the next exponent is the
    # next code. The code is n + 8*e + 40; NaN lanes are overwritten below.
    np.frexp(np.maximum(mag, 2.0**-6, out=step), out=(step, shift))
    np.subtract(4, shift, out=shift)
    with np.errstate(invalid="ignore"):
        n = np.ldexp(mag, shift, out=mag)
        np.rint(n, out=n)
        shift *= -8
        shift += 72
        np.copyto(step, shift)
        n += step
        np.copyto(codes, n, casting="unsafe")
    sign = np.signbit(v, out=mask).view(np.uint8)
    sign <<= 7
    codes |= sign
    np.copyto(codes, NAN_CODE, where=np.isnan(v, out=mask))
    return codes.reshape(shape) if out is None else out


def encode_e4m3(x: float) -> int:
    """Encode one float to its nearest 8-bit code (see encode_array)."""
    return int(encode_array(np.array([x]))[0])


def compute_scale(values: Sequence[float] | np.ndarray) -> float:
    """Dynamic per-tensor scale: max(|v|) / 448, or 1.0 for all-zero input.

    Raises NonFiniteInput if any value is NaN or infinite.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.isfinite(arr).all():
        raise NonFiniteInput("scale computation requires finite values")
    amax = float(np.max(np.abs(arr))) if arr.size else 0.0
    if amax == 0.0:
        return 1.0
    return amax / E4M3_MAX
