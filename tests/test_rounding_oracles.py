"""Bit-exact oracles for rounding into the preset formats.

``round_to_format`` is compared with independent implementations: numpy's
hardware casts for fp16 and fp32, and round-to-nearest-even truncation of the
float32 bit pattern for bfloat16.  Every case lies in the target's normal
range, because ``RangeMode.UNBOUNDED`` (the default) keeps a full t-bit
significand where IEEE arithmetic goes subnormal, so below the smallest
normal number the two are meant to differ.  Hypothesis then checks the
properties nearest-even rounding must have in every preset low format.
Last, the C core is compared with the numpy ``frexp``/``ldexp`` formula it
replaced: elementwise through ``formats._round``, on every setting, on inputs
the public API rejects (non-finite values, subnormal carriers) and on 10^6 bit
patterns; and fused, through ``inner_product_fp``, ``matvec_fp``,
``matmul_fp`` and the zero-forcing upper Gram, against the numpy reduction it replaced,
also in fp64, where the C core runs its carrier loop, which rounds nothing.  The rounded complex
multiply of ``cholesky_fp``, ``trisolve_fp`` and ``mrt_precode``, the fused
kernel's one-term reduction, is compared with the Python scheme of six
elementwise roundings it replaced.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmimo import kernels
from fpmimo.formats import (
    BFLOAT16,
    FP16,
    FP32,
    FP64,
    PRESETS,
    RangeMode,
    RoundingMode,
    _round,
    round_to_format,
)
from fpmimo.kernels import (
    CholeskyBreakdownError,
    PolicyMode,
    PrecisionPolicy,
    _rounded,
    cholesky_fp,
    inner_product_fp,
    matmul_fp,
    matvec_fp,
    round_input,
    trisolve_fp,
)
from fpmimo.transceiver import _upper_gram, mrt_precode
from test_fp64_side import _oracle_norm


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


# -- the C core against the numpy formula it replaced --------------------------

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
        k = np.where(rng.random(np.shape(frac)) < frac, lo + 1.0, lo)  # -0.0 stays -0.0
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


def _bit_patterns(count):
    """Random float64 bit patterns over every exponent field, both signs, plus
    zeros, subnormals, infinities, NaNs, DBL_MAX and, for each preset width,
    ties and their neighbours, some carrying into the exponent."""
    rng = np.random.default_rng(53)
    bits = rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False)
    mant = [0, 1, (1 << 52) - 1, 1 << 51]
    for t in (8, 11, 24):
        tie = 1 << (52 - t)
        mant += [tie, tie - 1, tie + 1, tie | (tie << 1), ((1 << 52) - 1) ^ (tie - 1)]
    fields = np.arange(0x800, dtype=np.uint64)[:, None] << np.uint64(52)
    special = (fields | np.array(mant, dtype=np.uint64)).ravel()
    special = np.concatenate([special, special | np.uint64(1 << 63)])
    bits[: special.size] = special
    return bits.view(np.float64)


PATTERNS = _bit_patterns(10**6)


@pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("fmt", list(PRESETS.values()), ids=str)
def test_core_matches_formula_on_bit_patterns(fmt, mode, range_mode):
    rng_got, rng_want = np.random.default_rng(5), np.random.default_rng(5)
    with np.errstate(invalid="ignore", over="ignore"):
        got = _round(PATTERNS, fmt, mode, range_mode, rng_got)
        want = _oracle_round(PATTERNS, fmt, mode, range_mode, rng_want)
    _assert_bits_equal(got, want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


# -- the fused reduction against the numpy reduction it replaced ---------------

def _oracle_join(re, im):
    """re + i im exactly: each part stored as it is, as the C core stores
    the two rounded parts of a complex result."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _oracle_rounder(policy, fmt, rng):
    return lambda x: _oracle_round(x, fmt, policy.rounding, policy.range_mode, rng)


def _oracle_input(x, policy, rng):
    rnd = _oracle_rounder(policy, policy.working, rng)
    re = rnd(x.real)
    return _oracle_join(re, rnd(x.imag))


# Signed zeros, the smallest subnormals, ones, infinities and NaN: a join that
# moved a sign, or a finite part beside an infinite or NaN one, would show on
# some (re, im) pair of these.
JOIN_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf, np.nan])


def _pairs(values):
    re, im = np.meshgrid(values, values, indexing="ij")
    return re.ravel(), im.ravel()


def test_fp64_copy_keeps_the_bytes_of_signed_zeros_and_specials():
    """Under the fp64 policy nothing rounds, so round_input returns a copy
    with x's bytes: every sign pair, and a finite part beside an infinite
    or NaN one."""
    re, im = _pairs(JOIN_VALUES)
    x = np.empty(re.shape, dtype=np.complex128)
    x.real, x.imag = re, im
    got = round_input(x, PrecisionPolicy.uniform(FP64))
    assert got is not x
    assert (got.shape, got.dtype) == (x.shape, x.dtype)
    assert got.flags.owndata  # not a view, so numpy can reuse it as a temporary
    np.testing.assert_array_equal(got.view(np.uint64), x.view(np.uint64))


@pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("fmt", list(PRESETS.values()), ids=str)
def test_complex_input_matches_oracle_on_signed_zeros(fmt, mode, range_mode):
    re, im = _pairs(JOIN_VALUES[np.isfinite(JOIN_VALUES)])
    x = np.empty(re.shape, dtype=np.complex128)
    x.real, x.imag = re, im  # every sign pair
    policy = PrecisionPolicy.uniform(fmt, rounding=mode, range_mode=range_mode)
    inputs = {"pairs": x, "strided": x.reshape(6, 6).T, "0-d": np.array(x[6])}
    for name, z in inputs.items():
        rng_got, rng_want = np.random.default_rng(4), np.random.default_rng(4)
        got = round_input(z, policy, rng_got)
        want = _oracle_input(z, policy, rng_want)
        assert np.shape(got) == np.shape(want), name
        assert isinstance(got, complex) if z.ndim == 0 else got.flags.owndata, name
        got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=name)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state, name


def _representable(fmt, count):
    """``count`` values of ``fmt`` across its normal range, both signs, and
    ±0, ±x_min and ±x_max: values no rounding mode or range mode moves."""
    rng = np.random.default_rng(fmt.significand_bits)
    e = rng.integers(fmt.exponent_min, fmt.exponent_max + 1, count)
    x = np.ldexp(rng.uniform(1.0, 2.0, count), e) * rng.choice([-1.0, 1.0], count)
    drop = (1 << (53 - fmt.significand_bits)) - 1  # clearing these leaves a t-bit value
    x = (x.view(np.int64) & ~np.int64(drop)).view(np.float64)
    return np.concatenate([x, [0.0, -0.0, fmt.x_min, -fmt.x_min, fmt.x_max, -fmt.x_max]])


@pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("fmt", list(PRESETS.values()), ids=str)
def test_complex_input_exact_on_representable_parts(fmt, mode, range_mode):
    """The complex form of ``test_exact_on_representable``: each part is
    rounded on its own, so parts already in the format come back bit for
    bit, every sign pair of zeros included."""
    re, im = _pairs(_representable(fmt, 30))
    x = np.empty(re.shape, dtype=np.complex128)
    x.real, x.imag = re, im
    zeros = np.flatnonzero((re == 0) & np.signbit(re) & (im == 0) & np.signbit(im))
    policy = PrecisionPolicy.uniform(fmt, rounding=mode, range_mode=range_mode)
    for z in (x, x.reshape(36, 36).T, np.array(x[zeros[0]])):
        got = round_input(z, policy, np.random.default_rng(9))
        got, z = (np.asarray(v, dtype=np.complex128).reshape(-1) for v in (got, z))
        np.testing.assert_array_equal(got.view(np.uint64), z.view(np.uint64))


@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("fmt", list(PRESETS.values()), ids=str)
def test_finite_part_beside_a_non_finite_one_keeps_its_value(fmt, mode):
    """Under the unbounded range round_input keeps the 1.0 of 1 + inf*j bit
    for bit (and of inf + 1j, and beside a NaN); the entry of every kernel
    and transceiver still rejects such an operand."""
    policy = PrecisionPolicy.uniform(fmt, rounding=mode)
    for bad in (math.inf, -math.inf, math.nan):
        for z in (complex(1.0, bad), complex(bad, 1.0)):
            x = np.array([z, 0.5 - 0.25j])
            got = round_input(x, policy, np.random.default_rng(10))
            finite = got.real[0] if math.isfinite(z.real) else got.imag[0]
            assert np.float64(finite).view(np.uint64) == np.float64(1.0).view(np.uint64), z
            assert not np.isfinite(got[0]) and got[1] == x[1], z
            with pytest.raises(ValueError, match="^entry requires finite input$"):
                _rounded("entry", policy, np.random.default_rng(10), x)


def _oracle_seq_sum(terms, rnd):
    s = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        s = rnd(s + terms[..., j])
    return s


def _oracle_blocked_sum(terms, policy, rng):
    b = policy.block_size
    n = terms.shape[-1]
    g = -(-n // b)
    pad = g * b - n
    if pad:
        terms = np.concatenate([terms, np.zeros(terms.shape[:-1] + (pad,))], axis=-1)
    blocks = terms.reshape(*terms.shape[:-1], g, b)
    s = _oracle_seq_sum(blocks, _oracle_rounder(policy, policy.low, rng))
    return _oracle_seq_sum(s, _oracle_rounder(policy, policy.high, rng))


def _oracle_dot(a, d, policy, rng):
    """The numpy reduction the C kernel replaced, term arrays and all."""
    rnd = _oracle_rounder(policy, policy.working, rng)
    e0 = rnd(a.real * d.real)
    e1 = -rnd(a.imag * d.imag)
    f0 = rnd(a.real * d.imag)
    f1 = rnd(a.imag * d.real)
    e = np.stack([e0, e1], axis=-1).reshape(*e0.shape[:-1], -1)
    f = np.stack([f0, f1], axis=-1).reshape(*f0.shape[:-1], -1)
    if policy.mode is PolicyMode.MIXED:
        return _oracle_join(
            _oracle_blocked_sum(e, policy, rng), _oracle_blocked_sum(f, policy, rng)
        )
    return _oracle_join(_oracle_seq_sum(e, rnd), _oracle_seq_sum(f, rnd))


def _oracle_inner(a, b, policy, rng):
    a = _oracle_input(a, policy, rng)
    b = _oracle_input(b, policy, rng)
    return _oracle_dot(np.conj(a), b, policy, rng)


def _oracle_matvec(A, x, policy, rng):
    A = _oracle_input(A, policy, rng)
    x = _oracle_input(x, policy, rng)
    return _oracle_dot(A, x[..., None, :], policy, rng)


def _oracle_matmul(A, B, policy, rng):
    A = _oracle_input(A, policy, rng)
    B = _oracle_input(B, policy, rng)
    Bt = np.swapaxes(B, -1, -2)
    return _oracle_dot(A[..., :, None, :], Bt[..., None, :, :], policy, rng)


WIDER = {"bfloat16": FP32, "fp16": FP32, "fp32": FP64, "fp64": FP64}


def _policies(fmt, mode, range_mode, n):
    """Uniform, and mixed with b = 1, b not dividing 2n, and b >= 2n."""
    kw = dict(rounding=mode, range_mode=range_mode)
    yield PrecisionPolicy.uniform(fmt, **kw)
    for b in sorted({1, 3, 2 * n, 2 * n + 5}):
        yield PrecisionPolicy.mixed(fmt, WIDER[fmt.name], b, **kw)


def _complex(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _zf_gram(H, policy, rng):
    """The zero-forcing Gram as a public zero-forcing call forms it: H entered
    by ``_rounded``, then the factor's ``_upper_gram``."""
    return _upper_gram(*_rounded("zf_detect_ne", policy, rng, H), policy, rng)


def _oracle_zf_gram(H, policy, rng):
    """H rounded once, as the entry rounds it; then the reduction of
    conj(H^T) with H, its upper triangle."""
    Ht = np.swapaxes(_oracle_input(H, policy, rng), -1, -2)
    return np.triu(_oracle_dot(np.conj(Ht)[..., :, None, :], Ht[..., None, :, :], policy, rng))


def _fused_cases(scale):
    """(name, call, oracle, args, n) over n = 1, batched and broadcast shapes;
    the inner products and the zero-forcing Gram are the conjugating ones
    (``fp_dot``'s conj flag), and the Gram reduces only the lanes on and above
    the diagonal."""
    rng = np.random.default_rng(11)
    c = lambda *shape: _complex(rng, shape, scale)
    yield "inner-n1", inner_product_fp, _oracle_inner, (c(1), c(1)), 1
    yield "inner-batched", inner_product_fp, _oracle_inner, (c(3, 2, 7), c(3, 2, 7)), 7
    yield "inner-broadcast", inner_product_fp, _oracle_inner, (c(4, 1, 5), c(3, 5)), 5
    yield "matvec-batched", matvec_fp, _oracle_matvec, (c(2, 3, 6), c(2, 6)), 6
    yield "matvec-broadcast", matvec_fp, _oracle_matvec, (c(3, 4), c(2, 1, 4)), 4
    A = c(2, 5, 3)
    yield "matmul-gram", matmul_fp, _oracle_matmul, (np.conj(np.swapaxes(A, -1, -2)), A), 5
    yield "matmul-broadcast", matmul_fp, _oracle_matmul, (c(2, 1, 3, 2), c(4, 2, 3)), 2
    yield "gram-upper", _zf_gram, _oracle_zf_gram, (c(3, 7, 4),), 7


SCALES = {"normal": 1.0, "near-1e300": 1e300, "subnormal": 1e-310}


@pytest.mark.parametrize("scale", list(SCALES), ids=str)
@pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("fmt", list(PRESETS.values()), ids=str)
def test_fused_kernel_matches_numpy_reduction(fmt, mode, range_mode, scale):
    """fp64 under nearest-even and the unbounded range (uniform, and mixed
    fp64/fp64 at every block size) runs the carrier loop, which rounds
    nothing; at 1e300 its sums overflow and meet inf - inf."""
    for name, call, oracle, args, n in _fused_cases(SCALES[scale]):
        for policy in _policies(fmt, mode, range_mode, n):
            rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
            with np.errstate(all="ignore"):
                got = call(*args, policy, rng_got)
                want = oracle(*args, policy, rng_want)
            where = f"{name}, {policy.mode.value}, b={policy.block_size}"
            assert np.shape(got) == np.shape(want), where
            got = np.asarray(got, dtype=np.complex128).reshape(-1)
            want = np.asarray(want, dtype=np.complex128).reshape(-1)
            np.testing.assert_array_equal(
                got.view(np.uint64), want.view(np.uint64), err_msg=where
            )
            assert rng_got.bit_generator.state == rng_want.bit_generator.state, where


# -- the one-term complex multiply against the Python scheme it replaced -------

def _oracle_require_finite(name, *arrays):
    for x in arrays:
        if not np.isfinite(x).all():
            raise ValueError(f"{name} requires finite input")


def _oracle_cmul(ar, ai, br, bi, rnd):
    """(ar + i ai)(br + i bi) as 4 rounded real multiplies and 2 rounded adds,
    in the order of the C core's steps: e0, e1, f0, f1, then the two sums."""
    e0 = rnd(ar * br)
    e1 = rnd(ai * bi)
    f0 = rnd(ar * bi)
    f1 = rnd(ai * br)
    re = rnd(e0 - e1)
    return re, rnd(f0 + f1)


def _oracle_cholesky(C, policy, rng=None, error="raise"):
    """The whole factorization, a non-positive pivot taken as 1.0; then the
    mask, or a raise at the smallest column that broke down in any lane."""
    C = np.asarray(C, dtype=np.complex128)
    K = C.shape[-1]
    _oracle_require_finite("cholesky_fp", C)
    C = _oracle_input(C, policy, rng)
    rnd = _oracle_rounder(policy, policy.working, rng)

    batch = C.shape[:-2]
    Rr = np.zeros(batch + (K, K))
    Ri = np.zeros(batch + (K, K))
    breakdown = np.zeros(batch, dtype=bool)
    first = None
    for j in range(K):
        acc = np.ascontiguousarray(C[..., j, j].real)
        for k in range(j):
            m2 = rnd(rnd(Rr[..., k, j] ** 2) + rnd(Ri[..., k, j] ** 2))
            acc = rnd(acc - m2)
        bad = acc <= 0
        if first is None and np.any(bad):
            first = j
        breakdown |= bad
        acc = np.where(bad, 1.0, acc)
        rjj = rnd(np.sqrt(acc))
        Rr[..., j, j] = rjj
        for i in range(j + 1, K):
            tr = np.ascontiguousarray(C[..., j, i].real)
            ti = np.ascontiguousarray(C[..., j, i].imag)
            for k in range(j):
                pr, pi = _oracle_cmul(
                    Rr[..., k, j], -Ri[..., k, j], Rr[..., k, i], Ri[..., k, i], rnd
                )
                tr = rnd(tr - pr)
                ti = rnd(ti - pi)
            Rr[..., j, i] = rnd(tr / rjj)
            Ri[..., j, i] = rnd(ti / rjj)
    R = _oracle_join(Rr, Ri)
    if error == "mask":
        return R, breakdown
    if first is not None:
        raise CholeskyBreakdownError(first)
    return R


def _oracle_trisolve(R, rhs, side, policy, rng=None):
    R = np.asarray(R, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    K = R.shape[-1]
    _oracle_require_finite("trisolve_fp", R, rhs)
    R = _oracle_input(R, policy, rng)
    rhs = _oracle_input(rhs, policy, rng)
    if np.any(np.diagonal(R, axis1=-2, axis2=-1).real == 0):  # once rounded: strict flushes
        raise ZeroDivisionError("zero diagonal entry in triangular solve")
    rnd = _oracle_rounder(policy, policy.working, rng)
    T = np.conj(np.swapaxes(R, -1, -2)) if side == "lower-conjugate" else R

    batch = np.broadcast_shapes(R.shape[:-2], rhs.shape[:-1])
    xr = np.zeros(batch + (K,))
    xi = np.zeros(batch + (K,))
    order = range(K) if side == "lower-conjugate" else range(K - 1, -1, -1)
    for i in order:
        tr = np.zeros(batch) + rhs[..., i].real
        ti = np.zeros(batch) + rhs[..., i].imag
        ks = range(i) if side == "lower-conjugate" else range(i + 1, K)
        for k in ks:
            pr, pi = _oracle_cmul(T[..., i, k].real, T[..., i, k].imag, xr[..., k], xi[..., k], rnd)
            tr = rnd(tr - pr)
            ti = rnd(ti - pi)
        d = R[..., i, i].real
        xr[..., i] = rnd(tr / d)
        xi[..., i] = rnd(ti / d)
    return _oracle_join(xr, xi)


def _oracle_mrt(h, x_d, policy, rng=None, prenormalized=False):
    h = np.asarray(h, dtype=np.complex128)
    x_d = np.asarray(x_d, dtype=np.complex128)
    _oracle_require_finite("mrt_precode", h, x_d)
    if prenormalized:
        hn = _oracle_input(h, policy, rng)
    else:
        nrm = _oracle_norm(h)[..., None]
        if not np.isfinite(nrm).all():
            raise ValueError("mrt_precode requires a channel whose norm does not overflow")
        if np.any(nrm == 0):
            raise ValueError("mrt_precode requires a nonzero channel")
        # each part times the reciprocal, on the float64 view
        unit = (np.ascontiguousarray(h).view(np.float64) * (1.0 / nrm)).view(np.complex128)
        hn = _oracle_input(unit, policy, rng)
    x = _oracle_input(x_d[..., None], policy, rng)
    rnd = _oracle_rounder(policy, policy.working, rng)
    return _oracle_join(*_oracle_cmul(hn.real, hn.imag, x.real, x.imag, rnd))


def _upper(rng, shape, scale):
    """Upper-triangular factors with a real diagonal in [1, 2), times scale."""
    R = np.triu(_complex(rng, shape, 1.0))
    K = shape[-1]
    R[..., range(K), range(K)] = 1.0 + rng.random(shape[:-1])
    return scale * R


def _cmul_cases(scale):
    """(name, public call, oracle, args) over batched and broadcast shapes.

    The Gram cases form H^H H of a channel at ``scale`` in fp64, so at 1e300 it
    overflows and at 1e-310 it underflows to zero; the "loaded" ones scale a
    well-conditioned Gram matrix instead, so every entry stays at ``scale``.
    """
    rng = np.random.default_rng(17)
    c = lambda *shape: _complex(rng, shape, scale)
    H = c(2, 3, 6, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.conj(np.swapaxes(H, -1, -2)) @ H
    H1 = _complex(rng, (2, 3, 6, 4), 1.0)
    loaded = scale * (np.conj(np.swapaxes(H1, -1, -2)) @ H1 + np.eye(4))
    for error in ("raise", "mask"):
        yield f"cholesky-gram-{error}", cholesky_fp, _oracle_cholesky, (gram,), dict(error=error)
        yield f"cholesky-loaded-{error}", cholesky_fp, _oracle_cholesky, (loaded,), dict(error=error)
    for side in ("lower-conjugate", "upper"):
        yield f"trisolve-batched-{side}", trisolve_fp, _oracle_trisolve, (_upper(rng, (2, 3, 4, 4), scale), c(2, 3, 4)), dict(side=side)
        yield f"trisolve-broadcast-{side}", trisolve_fp, _oracle_trisolve, (_upper(rng, (2, 1, 3, 3), scale), c(4, 3)), dict(side=side)
        yield f"trisolve-shared-{side}", trisolve_fp, _oracle_trisolve, (_upper(rng, (4, 4), scale), c(2, 3, 4)), dict(side=side)
    for pre in (False, True):
        yield f"mrt-batched-pre={pre}", mrt_precode, _oracle_mrt, (c(3, 2, 5), c(3, 2)), dict(prenormalized=pre)
        yield f"mrt-broadcast-pre={pre}", mrt_precode, _oracle_mrt, (c(1, 7), c(4)), dict(prenormalized=pre)


def _outcome(call, args, kw, policy, rng):
    """The result of a call, or the type and text of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            if "side" in kw:  # trisolve_fp takes the side before the policy
                return call(*args, kw["side"], policy, rng), None
            return call(*args, policy, rng, **kw), None
    except (ValueError, ArithmeticError) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("scale", list(SCALES), ids=str)
@pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("fmt", list(PRESETS.values()), ids=str)
def test_complex_multiply_matches_python_scheme(fmt, mode, range_mode, scale):
    kw = dict(rounding=mode, range_mode=range_mode)
    policies = [PrecisionPolicy.uniform(fmt, **kw)]
    policies += [PrecisionPolicy.mixed(fmt, WIDER[fmt.name], b, **kw) for b in (1, 3)]
    for name, call, oracle, args, opts in _cmul_cases(SCALES[scale]):
        for policy in policies:
            where = f"{name}, {policy.mode.value}, b={policy.block_size}"
            rng_got, rng_want = np.random.default_rng(8), np.random.default_rng(8)
            got, got_err = _outcome(call, args, opts, policy, rng_got)
            want, want_err = _outcome(oracle, args, opts, policy, rng_want)
            assert got_err == want_err, where
            assert rng_got.bit_generator.state == rng_want.bit_generator.state, where
            if got_err is not None:
                continue
            got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
            for g, w in zip(got, want):
                g, w = np.ascontiguousarray(g), np.ascontiguousarray(w)
                assert (g.shape, g.dtype) == (w.shape, w.dtype), where
                # the bytes, so signed zeros count
                np.testing.assert_array_equal(g.view(np.uint8), w.view(np.uint8), err_msg=where)


# -- lanes split across threads against the oracles ----------------------------

def _threaded_cases():
    """(name, call, oracle, args) whose lanes times terms pass the C core's
    threshold for several threads, with lane counts that no thread count from 2
    to 8 divides."""
    rng = np.random.default_rng(29)
    c = lambda *shape: _complex(rng, shape, 1.0)
    yield "mrt", mrt_precode, _oracle_mrt, (c(37, 40001), c(37))
    yield "inner", inner_product_fp, _oracle_inner, (c(1009, 263), c(1009, 263))
    yield "gram-upper", _zf_gram, _oracle_zf_gram, (c(33, 401, 5),)
    strided = c(409, 603)[::-1, ::3].T  # (201, 409), negative and non-unit strides
    yield "strided-input", round_input, _oracle_input, (strided,)


@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
def test_threaded_split_matches_oracles(mode):
    policies = [PrecisionPolicy.uniform(FP16, rounding=mode),
                PrecisionPolicy.mixed(FP16, FP32, 3, rounding=mode)]
    for name, call, oracle, args in _threaded_cases():
        for policy in policies:
            where = f"{name}, {policy.mode.value}"
            rng_got, rng_want = np.random.default_rng(6), np.random.default_rng(6)
            got = call(*args, policy, rng_got)
            want = oracle(*args, policy, rng_want)
            assert got.shape == want.shape, where
            got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8), err_msg=where)
            assert rng_got.bit_generator.state == rng_want.bit_generator.state, where


def _state(rng):
    """The bit generator's state as text, so that == works for every generator."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.SFC64],
                         ids=lambda b: b.__name__)
@pytest.mark.parametrize("fmt", [BFLOAT16, FP16, FP32], ids=str)
def test_cholesky_raise_leaves_any_bit_generator_where_the_mask_call_does(fmt, bit_generator):
    """A stochastic breakdown in the middle of a factorization raises after
    the whole factorization, so it leaves the rng where the mask call on the
    same input, and the Python loop, leave it, whatever its bit generator.

    Under the strict IEEE range at scale 1e300 the "loaded" Gram matrices clamp
    on entry and break down at pivot 1 in these formats."""
    kw = dict(rounding=RoundingMode.STOCHASTIC, range_mode=RangeMode.STRICT_IEEE)
    policies = [PrecisionPolicy.uniform(fmt, **kw)]
    policies += [PrecisionPolicy.mixed(fmt, WIDER[fmt.name], b, **kw) for b in (1, 3)]
    mid = 0
    for name, call, oracle, args, opts in _cmul_cases(SCALES["near-1e300"]):
        if call is not cholesky_fp or opts["error"] != "raise":
            continue
        for policy in policies:
            where = f"{name}, {policy.mode.value}, b={policy.block_size}"
            rng_got, rng_want, rng_mask = (np.random.Generator(bit_generator(8)) for _ in range(3))
            _, got_err = _outcome(call, args, opts, policy, rng_got)
            _, want_err = _outcome(oracle, args, opts, policy, rng_want)
            _outcome(call, args, dict(error="mask"), policy, rng_mask)
            assert got_err == want_err, where
            assert _state(rng_got) == _state(rng_want) == _state(rng_mask), where
            mid += want_err is not None and want_err[0] is CholeskyBreakdownError \
                and "pivot 0" not in want_err[1]
    assert mid == len(policies)


def _broken_lanes(K):
    """Well-conditioned Gram matrices of K users, one lane each breaking down
    first at column 0, 1 and K - 1 (that one also at 1), a lane breaking at 1
    and K - 1, and a lane that never breaks; the columns, K for none."""
    H = _complex(np.random.default_rng(41), (6, 3 * K, K), 1.0)
    C = np.conj(np.swapaxes(H, -1, -2)) @ H
    for lane, columns in enumerate([(0,), (1,), (K - 1,), (1, K - 1), ()]):
        for j in columns:
            C[lane, j, j] = -1.0
    return C[:5], [0, 1, K - 1, 1, K]


@pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
@pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
def test_breakdown_mask_and_raise_per_lane(mode, range_mode):
    """The factor core gives each lane's first broken column (K for none);
    the mask call gives the oracle's R and mask; the raise reports the
    smallest broken column of the lanes it is given, and leaves the rng
    where the mask call and the oracle leave it."""
    K = 4
    C, first = _broken_lanes(K)
    policy = PrecisionPolicy.uniform(FP16, rounding=mode, range_mode=range_mode)
    (Cq,) = _rounded("cholesky_fp", policy, np.random.default_rng(2), C)
    assert kernels._chol(Cq, policy, np.random.default_rng(3))[1].tolist() == first
    rng_got, rng_want = np.random.default_rng(5), np.random.default_rng(5)
    (R, mask), (R_want, mask_want) = (cholesky_fp(C, policy, rng_got, error="mask"),
                                      _oracle_cholesky(C, policy, rng_want, error="mask"))
    assert mask.tolist() == mask_want.tolist() == [j < K for j in first]
    np.testing.assert_array_equal(R.view(np.uint64), R_want.view(np.uint64))
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    for lanes in ([0, 1, 2, 3, 4], [1, 2, 3, 4], [2, 4], [3, 2], [4]):
        rngs = [np.random.default_rng(7) for _ in range(3)]
        cholesky_fp(C[lanes], policy, rngs[0], error="mask")
        outcomes = [_outcome(call, (C[lanes],), dict(error="raise"), policy, g)[1]
                    for call, g in ((cholesky_fp, rngs[1]), (_oracle_cholesky, rngs[2]))]
        smallest = min(first[lane] for lane in lanes)
        want = None if smallest == K else \
            (CholeskyBreakdownError, f"matrix numerically not positive definite (pivot {smallest})")
        assert outcomes == [want, want], lanes
        assert len({_state(g) for g in rngs}) == 1, lanes


@pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
def test_strict_fp16_pivot_that_flushes_to_zero_breaks_down(rounding):
    """The second pivot's acc is (2^-10 + 2^-20) - R_01^2 = 2^-20, below
    fp16's x_min = 2^-14.  The strict range flushes it to 0: a breakdown,
    whose pivot is 1.0, never 0, so the solves of the broken R go through.
    The unbounded range keeps it: a pivot of 2^-10."""
    C = np.array([[2.0**-10, 2.0**-10], [2.0**-10, 2.0**-10 + 2.0**-20]], dtype=complex)
    rhs = np.array([1.0, 1.0], dtype=complex)
    for range_mode, broken, pivot in ((RangeMode.STRICT_IEEE, True, 1.0),
                                      (RangeMode.UNBOUNDED, False, 2.0**-10)):
        policy = PrecisionPolicy.uniform(FP16, rounding=rounding, range_mode=range_mode)
        rng = np.random.default_rng(8)
        R, mask = cholesky_fp(C, policy, rng, error="mask")
        assert (bool(mask), R[1, 1]) == (broken, pivot), range_mode
        for side in ("lower-conjugate", "upper"):
            assert np.isfinite(trisolve_fp(R, rhs, side, policy, rng)).all()
