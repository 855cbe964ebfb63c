"""Bit-exact oracles for rounding into the preset formats.

``round_to_format`` is compared with independent implementations: numpy's
hardware casts for fp16 and fp32, and round-to-nearest-even truncation of the
float32 bit pattern for bfloat16.  Every case lies in the target's normal
range, because ``RangeMode.UNBOUNDED`` (the default) keeps a full t-bit
significand where IEEE arithmetic goes subnormal, so below the smallest
normal number the two are meant to differ.  Hypothesis then checks the
properties nearest-even rounding must have in every preset low format.
Last, the in-place core ``formats._round`` is compared with the allocating
``frexp``/``ldexp`` formula it replaced, on every setting and on inputs the
public API rejects (non-finite values, subnormal carriers).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmimo.formats import (
    BFLOAT16,
    FP16,
    FP32,
    PRESETS,
    RangeMode,
    RoundingMode,
    _round,
    round_to_format,
)


def _assert_bits_equal(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _with_negatives(x):
    return np.concatenate([x, -x])


def test_fp16_normals_midpoints_and_neighbours():
    # every positive normal fp16 value, 0x0400 .. 0x7bff
    values = np.arange(0x0400, 0x7C00, dtype=np.uint16).view(np.float16)
    values = values.astype(np.float64)
    mids = 0.5 * (values[:-1] + values[1:])  # exact in float64; ties to even
    below = np.nextafter(mids, 0.0)
    above = np.nextafter(mids, np.inf)
    x = _with_negatives(np.concatenate([values, mids, below, above]))
    want = x.astype(np.float16).astype(np.float64)
    _assert_bits_equal(round_to_format(x, FP16), want)
    # the midpoints really are ties: half of them round down, half up
    assert np.any(round_to_format(mids, FP16) < mids)
    assert np.any(round_to_format(mids, FP16) > mids)


def test_fp32_random_doubles():
    rng = np.random.default_rng(20190101)
    x = 10.0 ** rng.uniform(-30.0, 30.0, 10**6)
    x *= rng.choice([-1.0, 1.0], x.size)
    want = x.astype(np.float32).astype(np.float64)
    _assert_bits_equal(round_to_format(x, FP32), want)


def _bf16_rne(bits32):
    """Round float32 bit patterns to bfloat16 by integer nearest-even truncation."""
    b = bits32.astype(np.uint64)
    rounded = (b + 0x7FFF + ((b >> 16) & 1)) & 0xFFFF0000
    return rounded.astype(np.uint32).view(np.float32)


def test_bfloat16_against_float32_truncation():
    rng = np.random.default_rng(7)
    # exponent fields 1..253 keep inputs and results normal and finite
    exp = np.arange(1, 254, dtype=np.uint32)[:, None, None]
    mant = np.arange(128, dtype=np.uint32)[None, :, None]
    low = np.array([0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF], dtype=np.uint32)
    bits = ((exp << 23) | (mant << 16) | low[None, None, :]).ravel()
    random_bits = rng.integers(1 << 23, 254 << 23, 10**5, dtype=np.uint32)
    bits = np.concatenate([bits, random_bits])
    bits = np.concatenate([bits, bits | np.uint32(1 << 31)])
    x = bits.view(np.float32).astype(np.float64)
    want = _bf16_rne(bits).astype(np.float64)
    _assert_bits_equal(round_to_format(x, BFLOAT16), want)


# -- properties of nearest-even rounding, checked with Hypothesis -------------
# A fixed example sequence keeps the suite reproducible; the unbounded range
# has no subnormals, so normal doubles (and zero) are the natural inputs.

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)
DOUBLES = st.floats(
    min_value=-1e30, max_value=1e30, allow_nan=False, allow_subnormal=False
)
FORMATS = pytest.mark.parametrize("fmt", [BFLOAT16, FP16, FP32], ids=str)


@FORMATS
@PROPERTY
@given(x=DOUBLES)
def test_idempotent(fmt, x):
    y = round_to_format(x, fmt)
    assert round_to_format(y, fmt) == y


@FORMATS
@PROPERTY
@given(x=DOUBLES, y=DOUBLES)
def test_monotone(fmt, x, y):
    lo, hi = min(x, y), max(x, y)
    assert round_to_format(lo, fmt) <= round_to_format(hi, fmt)


@FORMATS
@PROPERTY
@given(x=DOUBLES)
def test_relative_error_within_unit_roundoff(fmt, x):
    assert abs(round_to_format(x, fmt) - x) <= fmt.unit_roundoff * abs(x)


@FORMATS
@PROPERTY
@given(x=DOUBLES)
def test_exact_on_representable(fmt, x):
    # clearing the low 53 - t significand bits leaves a t-bit value
    drop = (1 << (53 - fmt.significand_bits)) - 1
    bits = np.array([x]).view(np.int64) & ~np.int64(drop)
    y = float(bits.view(np.float64)[0])
    assert round_to_format(y, fmt) == y


# -- the in-place core against the allocating formula it replaced -------------

def _oracle_round_significand(x, fmt, mode, rng):
    t = fmt.significand_bits
    m, e = np.frexp(x)  # x = m * 2**e, |m| in [0.5, 1)
    scaled = np.ldexp(m, t)  # exact: |scaled| in [2**(t-1), 2**t)
    if mode is RoundingMode.NEAREST_EVEN:
        k = np.rint(scaled)
    elif mode is RoundingMode.STOCHASTIC:
        if rng is None:
            raise ValueError("stochastic rounding requires an rng")
        lo = np.floor(scaled)
        frac = scaled - lo
        k = lo + (rng.random(np.shape(frac)) < frac)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown rounding mode {mode}")
    return np.ldexp(k, e - t)


def _oracle_round(x, fmt, mode, range_mode, rng):
    if not (fmt.is_carrier and mode is RoundingMode.NEAREST_EVEN):
        x = _oracle_round_significand(x, fmt, mode, rng)
    if range_mode is RangeMode.STRICT_IEEE:
        a = np.abs(x)
        x = np.where(a > fmt.x_max, np.sign(x) * fmt.x_max, x)
        x = np.where((a < fmt.x_min) & (x != 0.0), 0.0, x)
    return x


def _core_inputs():
    rng = np.random.default_rng(2023)
    z = rng.standard_normal((3, 17)) + 1j * rng.standard_normal((3, 17))
    z *= 2.0 ** rng.integers(-40, 40, z.shape)
    tiny = np.finfo(np.float64).tiny
    specials = np.array(
        [0.0, -0.0, 5e-324, -5e-324, 0.75 * tiny, -0.3 * tiny, tiny,
         np.inf, -np.inf, np.nan, -np.nan, 1.0, 65504.0, 65520.0, 1e300, -1e-300]
    )
    return {
        "strided-real": z.real,  # a 2-D view with a 16-byte stride
        "strided-imag": z.imag,
        "0-d": np.array(-0.1),
        "python-float": 1.0 / 3.0,
        "empty": np.empty((0, 5)),
        "specials": specials,
    }


@pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("fmt", list(PRESETS.values()), ids=str)
@pytest.mark.parametrize("name", list(_core_inputs()))
def test_core_matches_allocating_formula(name, fmt, mode, range_mode):
    x = _core_inputs()[name]
    before = np.array(x, copy=True)
    rng_got, rng_want = np.random.default_rng(99), np.random.default_rng(99)
    with np.errstate(invalid="ignore"):  # inf - inf in the stochastic fraction
        got = _round(x, fmt, mode, range_mode, rng_got)
        want = _oracle_round(x, fmt, mode, range_mode, rng_want)
    assert type(got) is type(want)
    _assert_bits_equal(got, want)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(x))  # NaN stays NaN
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    _assert_bits_equal(x, before)  # the argument is never written
