"""The harness's fp64 side in the C core, byte for byte: the row norms
(``_norm``) against their definition written out (``_oracle_norm``), their
unit rows against numpy's division, against the numpy they replaced the CN
draws (``_noise``) and the conjugating reduction of ``inner_product_fp``,
and the fp64 entry of the kernels (``_rounded``) and ``round_input`` against
the bytes of the operand itself."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fpmimo.formats import FP16, FP32, FP64, RangeMode, RoundingMode
from fpmimo.kernels import (
    _NORMAL_SPLIT,
    PrecisionPolicy,
    _dot,
    _noise,
    _norm,
    _rounded,
    inner_product_fp,
    round_input,
)



def _bytes_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    got, want = got.reshape(-1), want.reshape(-1)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _complex(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


def _equal_states(a, b):
    """Bit generator states a and b are equal, key by key (some hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal_states(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


# -- _norm ---------------------------------------------------------------------

def _fused_term(re, im):
    """fma(re, re, im*im) by its definition: re^2 + fl(im*im) in exact rational
    arithmetic, rounded once to the nearest float64 (inf past the range)."""
    c = im * im
    if not (math.isfinite(re) and math.isfinite(c)):
        return re * re + c  # inf or NaN, as fma gives it
    try:
        return float(Fraction(re) ** 2 + Fraction(c))
    except OverflowError:
        return math.inf


def _fused_terms(re, im):
    """``_fused_term`` of each pair of the float64 arrays re and im, in IEEE
    float64 operations, each rounded as written whatever numpy's dispatch.

    For 2^-480 <= |re| <= 2^500 and fl(im*im) <= 2^1000 it is Boldo and
    Melquiond's emulated FMA (IEEE Trans. Comput. 57(4), 2008): Dekker's
    exact square re^2 = p + e, Knuth's exact sum p + c = y + f, then
    fl(y + ro(f + e)), ro rounding to odd.  Outside that range, a finite
    re^2 of at least 2^1024 gives inf, one below 2^-1200 (less than half of
    any ulp) gives c, and what remains goes to ``_fused_term``."""
    c = im * im
    a = np.abs(re)
    finite = np.isfinite(re) & np.isfinite(c)
    out = np.where(finite, np.where(a < 2.0**-600, c, np.inf), re * re + c)
    fast = finite & (a >= 2.0**-480) & (a <= 2.0**500) & (c <= 2.0**1000)
    x, c_fast = re[fast], c[fast]
    p = x * x
    t = x * 134217729.0  # Veltkamp's split by 2^27 + 1
    hi = t - (t - x)
    lo = x - hi
    e = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    y = p + c_fast
    z = y - p
    f = (p - (y - z)) + (c_fast - z)
    v = f + e
    w = v - f
    g = (f - (v - w)) + (e - w)  # f + e = v + g exactly
    inexact_even = (g != 0) & ((v.view(np.uint64) & 1) == 0)
    v[inexact_even] = np.nextafter(v, np.copysign(np.inf, g))[inexact_even]  # round to odd
    out[fast] = y + v
    rest = finite & ~fast & (a >= 2.0**-600) & (a < 2.0**512)
    out[rest] = [_fused_term(r, i) for r, i in zip(re[rest], im[rest])]
    return out


def _pairwise(t):
    """The sums over the last axis of t in numpy's pairwise ``add.reduce``
    order (as ``fp_norm``'s comment in ``_core.c`` sets it out)."""
    n = t.shape[-1]
    if n < 8:
        res = np.zeros(t.shape[:-1])
        for i in range(n):
            res = res + t[..., i]
        return res
    if n <= 128:
        r = t[..., :8]
        for i in range(8, n - n % 8, 8):
            r = r + t[..., i:i + 8]
        res = ((r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3])) \
            + ((r[..., 4] + r[..., 5]) + (r[..., 6] + r[..., 7]))
        for i in range(n - n % 8, n):
            res = res + t[..., i]
        return res
    n2 = n // 2 - n // 2 % 8
    return _pairwise(t[..., :n2]) + _pairwise(t[..., n2:])


def _oracle_norm(x):
    """``_norm``'s definition, which numpy.linalg's ``norm(x, axis=-1)`` meets
    where numpy's complex multiply fuses a product into its sum: the fused
    terms fma(re, re, im*im), summed in numpy's pairwise order from 0.0, and
    the square root, in IEEE float64 operations, not numpy's dispatch."""
    x = np.asarray(x, dtype=np.complex128)
    re, im, step = x.real.reshape(-1), x.imag.reshape(-1), 1 << 16
    terms = np.empty(re.size)
    with np.errstate(over="ignore", invalid="ignore"):  # huge and NaN terms
        for i in range(0, re.size, step):  # in pieces, which keeps the temporaries small
            terms[i:i + step] = _fused_terms(re[i:i + step], im[i:i + step])
        return np.sqrt(0.0 + _pairwise(terms.reshape(x.shape)))


def _check_norm(x):
    _bytes_equal(_norm(x), _oracle_norm(x))


def _midpoint_cases(rng):
    """Pairs whose f + e rounds to the midpoint ulp(p)/2 from below, so that
    fl(y + fl(f + e)) would round a tie where ``_fused_terms`` rounds to odd.

    re = m 2^(s - 52), with u = 2^(s - 52) and m^2 in [2^104, 2^105) equal
    to 2^51 - q modulo 2^52 (q = 7 mod 8; m from a square root of 2^51 - q
    modulo 2^52, by Hensel's lifting), so that e = ulp(p)/2 - q u^2; and
    im^2 = (q - 0.05) u^2."""
    re, im = [], []
    for q in range(7, 512, 8):
        r = 1
        for i in range(3, 52):
            if (r * r - (2**51 - q)) % 2 ** (i + 1):
                r += 2 ** (i - 1)
        for root in (r, 2**52 - r, (r + 2**51) % 2**52, (2**51 - r) % 2**52):
            m, s = 2**52 + root, int(rng.integers(-200, 200))
            if m * m < 2**105:
                re.append(math.ldexp(m, s - 52))
                im.append(math.sqrt(q - 0.05) * 2.0 ** (s - 52))
    return np.array(re), np.array(im)


def test_fused_terms_are_the_exact_rational():
    """The vectorized fused term is the exact rational one: on random bit
    patterns, over every exponent; on specials and the edges of its ranges;
    on re^2 and im^2 of one size; on sums p + c that lie on a midpoint (c
    half an ulp of p) or next to one, where the low part of re^2 decides;
    and where only the rounding to odd gets it (``_midpoint_cases``)."""
    rng = np.random.default_rng(31)
    n = 40000
    bits = rng.integers(0, 1 << 64, size=(2, n), dtype=np.uint64).view(np.float64)
    specials = np.array([0.0, -0.0, 5e-324, 2.0**-600, 2.0**-480, 2.0**500, 2.0**512, 1e308,
                         np.inf, -np.inf, np.nan])
    sre, sim = np.meshgrid(specials, specials)
    x = rng.standard_normal(n) * 2.0 ** rng.integers(-470, 490, n)
    j = rng.integers(-220, 220, n)
    mid = np.sqrt(rng.uniform(2.0, 4.0, n)) * 2.0 ** (j + 26)  # mid^2 in [2^(2j+53), 2^(2j+54))
    cases = [bits, (sre.ravel(), sim.ravel()), (x, x * rng.uniform(0.5, 2.0, n))]
    cases += [(mid, 2.0 ** j * k) for k in (1.0, 1.0 + 2.0**-26, 1.0 - 2.0**-26, 1.5)]
    cases += [_midpoint_cases(rng)]
    for re, im in cases:
        with np.errstate(all="ignore"):
            got = _fused_terms(re, im)
            want = np.array([_fused_term(r, i) for r, i in zip(re, im)])
        _bytes_equal(got, want)


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-310], ids=str)
def test_norm_of_every_row_length_up_to_300(scale):
    rng = np.random.default_rng(1)
    for n in range(1, 301):
        x = _complex(rng, (3, n), scale)
        _check_norm(x)
        _check_norm(x[1])


@pytest.mark.parametrize("shape", [
    (512, 10000), (512, 4096), (512, 256), (1024, 64), (64, 256), (64, 4), (1024, 1),
    (37, 2049), (64, 3, 257), (10000,), (1,), (5, 0),
], ids=str)
def test_norm_at_the_harness_shapes(shape):
    """The batch shapes (c, M), (c, K) and 1-d, below and above the thread
    split, and lane counts that no thread count from 2 to 8 divides."""
    rng = np.random.default_rng(2)
    for scale in (1.0, 1e300, 1e-310):
        _check_norm(_complex(rng, shape, scale))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 256, 300, 511, 4097, 8193, 10000])
def test_norm_of_strided_rows(n):
    """Step-2 views, [..., 0] views and rows read backwards."""
    rng = np.random.default_rng(n)
    for scale in (1.0, 1e300, 1e-310):
        _check_norm(_complex(rng, (5, 2 * n), scale)[:, ::2])
        _check_norm(_complex(rng, (5, n, 2), scale)[..., 0])
        _check_norm(_complex(rng, (5, n), scale)[:, ::-1])
        _check_norm(_complex(rng, (4, 3, n), scale)[::2, 1])


def test_norm_of_specials():
    values = np.array([0.0, -0.0, 5e-324, 1e-310, 1.0, 1e200, 1e300, np.inf, np.nan])
    re, im = np.meshgrid(values, values)
    x = np.empty(re.shape + (3,), dtype=np.complex128)
    x.real, x.imag = re[..., None], im[..., None]
    with np.errstate(invalid="ignore"):
        _check_norm(x)


def test_norm_of_any_layout_is_the_norm_of_its_contiguous_copy():
    """Rows across the innermost axis, where numpy's own norm sums in another
    order, give the bits of numpy's norm on the C-contiguous copy; a 0-d x
    raises."""
    x = _complex(np.random.default_rng(3), (4, 5))
    f = np.asfortranarray(_complex(np.random.default_rng(3), (2, 3, 4)))
    for y in (x.T, f, x.T[::-1, ::2], x.T[:1], x.T[:, :1]):
        _bytes_equal(_norm(y), _oracle_norm(np.ascontiguousarray(y)))
    with pytest.raises(ValueError, match="dimension"):
        _norm(x[0, 0])


# -- _norm's unit rows -------------------------------------------------------------

def _check_unit(x):
    """``_norm(x, unit=)`` writes numpy's ``x / _norm(x)[..., None]`` and
    returns the norms it returns without ``unit``."""
    norms = _norm(x)
    with np.errstate(all="ignore"):
        want = x / norms[..., None]
    unit = np.full(np.shape(x), 7 + 7j)
    _bytes_equal(_norm(x, unit=unit), norms)
    _bytes_equal(unit, want)


@pytest.mark.parametrize("shape", [
    (512, 10000), (512, 256), (1024, 64), (64, 4), (1024, 1), (37, 2049), (64, 3, 257),
    (10000,), (1,), (5, 0),
], ids=str)
def test_unit_rows_at_the_harness_shapes(shape):
    """Below and above the thread split; norms that overflow (1e300) and
    rows of subnormals (1e-310)."""
    rng = np.random.default_rng(4)
    for scale in (1.0, 1e300, 1e-310):
        _check_unit(_complex(rng, shape, scale))


@pytest.mark.parametrize("n", [1, 8, 129, 4097])
def test_unit_rows_of_strided_rows(n):
    """Step-2 views, [..., 0] views and rows read backwards, each divided
    from its C-contiguous copy."""
    rng = np.random.default_rng(n)
    _check_unit(_complex(rng, (5, 2 * n))[:, ::2])
    _check_unit(_complex(rng, (5, n, 2))[..., 0])
    _check_unit(_complex(rng, (5, n))[:, ::-1])
    _check_unit(np.asfortranarray(_complex(rng, (3, n))))


def _check_unit_parts(x):
    """``_norm(x, unit=)`` writes each part times the reciprocal of its row's
    norm, computed here in numpy on the float64 view, and returns the norms
    it returns without ``unit``; where a part and its partner are finite and
    nonzero and the norm is too, that is numpy's ``x / norm`` byte for byte.
    Returns the unit rows."""
    norms = _norm(x)
    unit = np.full(np.shape(x), 7 + 7j)
    _bytes_equal(_norm(x, unit=unit), norms)
    with np.errstate(all="ignore"):
        scaled = x.view(np.float64) * (1.0 / norms)[..., None]
        divided = x / norms[..., None]
    _bytes_equal(unit, scaled.view(np.complex128))
    plain = (np.isfinite(x) & (x.real != 0) & (x.imag != 0)
             & np.isfinite(norms[..., None]) & (norms[..., None] != 0))
    _bytes_equal(unit[plain], divided[plain])
    return unit


def test_unit_rows_of_signed_zeros_and_a_zero_norm():
    """Signed zeros in a row of nonzero norm keep their sign; rows of
    subnormals and zeros whose norm underflows to 0 give infinities, and NaN
    for a zero part (x times 1 / +0); rows with an infinity (an infinite
    norm) and with a NaN."""
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-170, 1.0])
    re, im = np.meshgrid(values, values)
    x = np.empty(re.shape + (3,), dtype=np.complex128)
    x.real, x.imag = re[..., None], im[..., None]
    x.real[:, :, 1] = -0.0
    x.imag[:, :, 2] = 0.5
    unit = _check_unit_parts(x)
    assert np.signbit(unit.real[:, :, 1]).all()  # -0.0 times a positive reciprocal
    tiny = np.array([[5e-324 + 5e-324j, -5e-324 + 0j, 0j, -0.0 - 0j, 1e-170 - 1e-170j]])
    assert _norm(tiny)[0] == 0.0
    _check_unit_parts(tiny)
    _check_unit_parts(np.array([[1 + 1j, np.inf + 0j, -2j], [1 + 1j, np.nan + 0j, -2j]]))


def test_unit_rows_in_place():
    rng = np.random.default_rng(5)
    for x in (_complex(rng, (64, 300)), _complex(rng, (3, 2, 5), 1e-310), _complex(rng, (7,))):
        with np.errstate(all="ignore"):
            want = x / _norm(x)[..., None]
        norms = _norm(x)
        _bytes_equal(_norm(x, unit=x), norms)
        _bytes_equal(x, want)


def test_unit_must_be_c_contiguous_complex_of_the_shape():
    x = _complex(np.random.default_rng(6), (3, 4))
    for bad in (np.empty((3, 8), complex)[:, ::2], np.empty((4, 3), complex), np.empty((3, 4))):
        before = bad.copy()
        with pytest.raises(ValueError, match="^out must be C-contiguous"):
            _norm(x, unit=bad)
        assert bad.tobytes() == before.tobytes()


# -- _noise --------------------------------------------------------------------

def _oracle_noise(rng, shape, d):
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (1j * im + re) / d


NOISE_SHAPES = [(3, 7), (1,), (0, 4), (_NORMAL_SPLIT + 1,), (64, 256, 4), (37, 3001)]
DIVISORS = [math.sqrt(2.0)] + [math.sqrt(2.0 * p) for p in (0.37, 4.0, 10.0 * 31.6227766, 1e6)]


@pytest.mark.parametrize("shape", NOISE_SHAPES, ids=str)
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937],
                         ids=lambda b: b.__name__)
def test_noise_is_numpys_join_and_division(shape, bit_generator):
    """On a PCG64 large draws take fp_normal's split path (on two or more
    threads); on an MT19937 numpy draws and the parts are copied in."""
    for seed, d in enumerate(DIVISORS):
        got_rng = np.random.Generator(bit_generator(seed))
        want_rng = np.random.Generator(bit_generator(seed))
        got = _noise(got_rng, shape) if seed == 0 else _noise(got_rng, shape, d)
        _bytes_equal(got, _oracle_noise(want_rng, shape, d))
        assert _equal_states(got_rng.bit_generator.state, want_rng.bit_generator.state)


def test_noise_keeps_a_buffered_uint32():
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    for g in (got_rng, want_rng):
        g.integers(0, 2**32, size=3, dtype=np.uint32)
    assert got_rng.bit_generator.state["has_uint32"] == 1
    shape = (3, _NORMAL_SPLIT + 5)
    _bytes_equal(_noise(got_rng, shape), _oracle_noise(want_rng, shape, math.sqrt(2.0)))
    assert _equal_states(got_rng.bit_generator.state, want_rng.bit_generator.state)
    assert got_rng.integers(0, 2**32, dtype=np.uint32) == want_rng.integers(0, 2**32, dtype=np.uint32)


# -- the conjugating reduction ---------------------------------------------------

POLICIES = {
    "uniform": PrecisionPolicy.uniform(FP16),
    "mixed": PrecisionPolicy.mixed(FP16, FP32, 3),
    "stochastic": PrecisionPolicy.uniform(FP16, rounding=RoundingMode.STOCHASTIC),
    "stochastic-mixed": PrecisionPolicy.mixed(FP16, FP32, 32, rounding=RoundingMode.STOCHASTIC),
    "fp64": PrecisionPolicy.uniform(FP64),
}


@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
def test_inner_product_is_the_sum_on_the_conjugate(policy):
    rng = np.random.default_rng(12)
    cases = [(_complex(rng, (n,)), _complex(rng, (n,))) for n in (1, 2, 5, 33)]
    cases += [(_complex(rng, (37, 3001)), _complex(rng, (37, 3001)))]  # split over threads
    cases += [(_complex(rng, (4, 9), 1e300), _complex(rng, (4, 9), 1e-10))]
    for a, b in cases:
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = inner_product_fp(a, b, policy, got_rng)
        aq, bq = round_input(a, policy, want_rng), round_input(b, policy, want_rng)
        want = _dot(np.conj(aq), bq, policy, want_rng)
        _bytes_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_conjugating_dot_flips_the_sign_of_specials_as_np_conj():
    values = np.array([0.0, -0.0, 5e-324, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan])
    re, im = np.meshgrid(values, values)
    a = np.empty(re.size, dtype=np.complex128)
    a.real, a.imag = re.ravel(), im.ravel()
    d = a[::-1].copy()
    for policy in (POLICIES["uniform"], POLICIES["fp64"]):
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = _dot(a[:, None], d[:, None], policy, None, conj=True), \
                _dot(np.conj(a)[:, None], d[:, None], policy, None)
        _bytes_equal(got, want)


# -- the fp64 entry: an operand copied bit for bit ------------------------------

def test_fp64_entry_copies_x_bit_for_bit():
    """Under fp64 nothing rounds, so round_input returns a copy that owns its
    data and holds x's bytes: signed zeros, and a finite part beside an
    infinite one, included."""
    rng = np.random.default_rng(13)
    fp64 = PrecisionPolicy.uniform(FP64)
    strict = PrecisionPolicy.uniform(FP64, range_mode=RangeMode.STRICT_IEEE)
    clean = _complex(rng, (64, 300))
    neg_zero_re, neg_zero_im, inf_im = clean.copy(), clean.copy(), clean.copy()
    neg_zero_re.real[3, 7] = -0.0
    neg_zero_im.imag[63, 299] = -0.0
    inf_im.imag[0, 0] = np.inf
    inputs = {
        "clean": clean, "+0": np.zeros((3, 4), dtype=np.complex128),
        "-0 re": neg_zero_re, "-0 im": neg_zero_im, "inf im": inf_im,
        "large": _complex(rng, (1024, 80)), "rounded": round_input(clean, POLICIES["uniform"]),
    }
    for name, x in inputs.items():
        got = round_input(x, fp64)
        assert got is not x and got.flags.owndata, name  # round_input always copies
        _bytes_equal(got, x)
        if np.isfinite(x).all():  # no finite part here is out of fp64's strict range
            for policy in (fp64, strict):
                _bytes_equal(_rounded("matmul_fp", policy, None, x)[0], x)
    assert isinstance(round_input(np.array(1 + 2j), fp64), complex)


# -- the oracles at numpy's X86_V2 baseline --------------------------------------

_X86_V2 = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def test_oracles_hold_at_numpys_x86_v2_baseline():
    """The norm and MRT oracles, the exact complex results and the unit
    rows are written in IEEE operations, not in numpy's dispatch, so the
    tests that compare with them pass with numpy held at its X86_V2 baseline
    (no AVX2, no FMA), as on a host without them: rerun in a child process
    with ``NPY_DISABLE_CPU_FEATURES`` set."""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": _X86_V2}
    probe = subprocess.run([sys.executable, "-W", "error", "-c", "import numpy"],
                           env=env, capture_output=True, text=True)
    if probe.returncode:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={_X86_V2!r}: "
                    + " ".join(probe.stderr.strip().splitlines()[-3:]))
    tests = Path(__file__).parent
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_fp64_side.py"), str(tests / "test_rounding_oracles.py"),
         "-k", "_norm_ or fused_terms or unit_rows_of_signed or fp64_copy or fp64_entry"
               " or (complex_input and fp64) or (complex_multiply and fp64)"],
        env=env, cwd=tests.parent, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stdout[-4000:]  # 5 if it selects no test
