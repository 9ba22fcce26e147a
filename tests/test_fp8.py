from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mtpipe import fp8, quant
from mtpipe.tensorio import DType, Tensor

from oracles import e4m3_exact_value

FINITE_CODES = [c for c in range(256) if e4m3_exact_value(c) is not None]
NAN_CODES = [c for c in range(256) if e4m3_exact_value(c) is None]


def decode_e4m3(code: int) -> float:
    """The value of one code, read from the package's decode table."""
    return float(fp8.DECODE_TABLE[code])


def encode_e4m3(x: float) -> int:
    """The code of one float, through the package's array encoder."""
    return int(fp8.encode_array(np.array([x]))[0])


def test_decode_table_matches_bitfield_construction():
    for code in range(256):
        exact = e4m3_exact_value(code)
        got = decode_e4m3(code)
        if exact is None:
            assert math.isnan(got)
        else:
            assert got == float(exact), f"code {code:#04x}"


def test_nan_codes_are_exactly_the_two_expected():
    assert NAN_CODES == [0x7F, 0xFF]


def test_max_finite_magnitude_is_448():
    finite = [abs(float(e4m3_exact_value(c))) for c in FINITE_CODES]
    assert max(finite) == 448.0
    assert decode_e4m3(0x7E) == 448.0


def test_subnormal_step():
    assert decode_e4m3(0x01) == 2.0**-9
    assert decode_e4m3(0x81) == -(2.0**-9)


def test_every_finite_code_round_trips_exactly():
    for code in FINITE_CODES:
        value = decode_e4m3(code)
        assert encode_e4m3(value) == code, f"code {code:#04x} value {value}"


def test_decode_monotone_over_nonnegative_codes():
    values = [decode_e4m3(c) for c in range(0x7F)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_encode_zero_and_signed_zero():
    assert encode_e4m3(0.0) == 0x00
    assert encode_e4m3(-0.0) == 0x80
    assert decode_e4m3(0x00) == 0.0


def test_encode_saturates_above_max():
    assert encode_e4m3(1000.0) == 0x7E
    assert encode_e4m3(-1000.0) == 0xFE
    assert encode_e4m3(float("inf")) == 0x7E


def test_encode_nan():
    code = encode_e4m3(float("nan"))
    assert code == fp8.NAN_CODE
    assert math.isnan(decode_e4m3(code))


def test_round_to_nearest_even_on_ties():
    # Midpoint between codes 0x08 (2**-6) and 0x09 (1.125 * 2**-6) rounds to
    # the even code; midpoint between 0x09 and 0x0A rounds up to even 0x0A.
    lo, hi = decode_e4m3(0x08), decode_e4m3(0x09)
    assert encode_e4m3((lo + hi) / 2) == 0x08
    lo, hi = decode_e4m3(0x09), decode_e4m3(0x0A)
    assert encode_e4m3((lo + hi) / 2) == 0x0A
    # First subnormal midpoint ties down to zero.
    assert encode_e4m3(2.0**-10) == 0x00


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_encode_picks_a_nearest_grid_value(x):
    code = encode_e4m3(x)
    decoded = decode_e4m3(code)
    clamped = max(-448.0, min(448.0, x))
    best = min(abs(float(e4m3_exact_value(c)) - clamped) for c in FINITE_CODES)
    assert abs(decoded - clamped) == pytest.approx(best, abs=0.0)


def test_compute_scale_all_zero_convention():
    assert fp8.compute_scale(0.0, "w") == 1.0
    # An empty tensor's amax is 0 too.
    assert quant.quantize_fp8(Tensor(DType.F32, (0,), b"")).scale == 1.0


def test_compute_scale_amax_at_format_max():
    assert fp8.compute_scale(448.0, "w") == 1.0


def test_compute_scale_single_value():
    assert fp8.compute_scale(1.0, "w") == float(np.float32(1.0 / 448.0))
    # The least positive float32, where amax / 448 would round to 0.
    assert fp8.compute_scale(448.0 * 2.0**-151, "w") == 2.0**-149


def test_compute_scale_rejects_non_finite():
    for amax in (math.inf, math.nan):
        with pytest.raises(fp8.NonFiniteInput,
                           match="^'w': scale computation requires finite values$"):
            fp8.compute_scale(amax, "w")


def test_encode_array_matches_scalar_encode(rng):
    values = rng.uniform(-500.0, 500.0, size=257)
    codes = fp8.encode_array(values)
    assert [int(c) for c in codes] == [encode_e4m3(float(v)) for v in values]


def searchsorted_encode(values: np.ndarray) -> np.ndarray:
    """The grid-search encoder ``fp8.encode_array`` replaced, kept as a reference."""
    grid = fp8.DECODE_TABLE[: fp8.NAN_CODE]
    v = np.asarray(values, dtype=np.float64)
    nan_mask = np.isnan(v)
    neg_mask = np.signbit(v) & ~nan_mask
    mag = np.minimum(np.abs(np.where(nan_mask, 0.0, v)), fp8.E4M3_MAX)
    hi = np.minimum(np.searchsorted(grid, mag, side="left"), len(grid) - 1)
    lo = np.maximum(hi - 1, 0)
    doubled = 2.0 * mag
    span = grid[lo] + grid[hi]
    take_hi = (doubled > span) | ((doubled == span) & (hi % 2 == 0))
    codes = np.where(take_hi, hi, lo).astype(np.uint8)
    codes = np.where(neg_mask, codes | 0x80, codes)
    return np.where(nan_mask, np.uint8(fp8.NAN_CODE), codes)


def test_encode_array_matches_searchsorted_reference_exhaustively(rng):
    bits = np.arange(1 << 16, dtype=np.uint32)
    with np.errstate(invalid="ignore"):  # signalling NaN patterns
        bf16 = (bits << 16).view(np.float32).astype(np.float64)
        f16 = bits.astype(np.uint16).view(np.float16).astype(np.float64)
    grid = fp8.DECODE_TABLE[: fp8.NAN_CODE]
    mids = (grid[:-1] + grid[1:]) / 2.0
    points = np.concatenate([grid, mids])
    near = np.concatenate([points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf)])
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 448.0, 464.0, 480.0,
                        1e30, 5e-324, 2.0**-10, 2.0**-6])
    scaled = rng.standard_normal(1 << 20) * 2.0 ** rng.integers(-14, 10, size=1 << 20)
    for values in (bf16, f16, near, -near, special, -special, scaled):
        assert np.array_equal(fp8.encode_array(values), searchsorted_encode(values))
