"""The harness's fp64 side in the C core, byte for byte against the numpy it
replaced: the row norms (``_norm``), the CN draws (``_noise``), the
conjugating reduction of ``inner_product_fp`` and the fp64 entry of the
kernels (``_enter``) and ``round_input``."""

import math

import numpy as np
import pytest

from fpmimo.formats import FP16, FP32, FP64, RangeMode, RoundingMode
from fpmimo.kernels import (
    _NORMAL_SPLIT,
    PrecisionPolicy,
    _dot,
    _enter,
    _noise,
    _norm,
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

def _check_norm(x):
    with np.errstate(over="ignore"):
        want = np.linalg.norm(x, axis=-1)
    _bytes_equal(_norm(x), want)


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


def test_norm_rejects_rows_across_the_innermost_axis():
    x = _complex(np.random.default_rng(3), (4, 5))
    with pytest.raises(ValueError, match="innermost"):
        _norm(x.T)
    with pytest.raises(ValueError, match="innermost"):
        _norm(np.asfortranarray(_complex(np.random.default_rng(3), (2, 3, 4))))
    with pytest.raises(ValueError, match="dimension"):
        _norm(x[0, 0])
    _check_norm(x.T[:1])  # one row: no order to get wrong
    _check_norm(x.T[:, :1])


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


# -- the fp64 entry: an operand joined into a copy ------------------------------

def test_fp64_entry_joins_x_into_a_copy_with_numpys_bits():
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
        with np.errstate(invalid="ignore"):
            got = round_input(x, fp64)
            want = 1j * x.imag
            want += x.real
        assert got is not x, name  # round_input always copies
        _bytes_equal(got, want)
        if np.isfinite(x).all():  # no finite part here is out of fp64's strict range
            for policy in (fp64, strict):
                _bytes_equal(_enter("matmul_fp", policy, None, x)[0], want)
    assert isinstance(round_input(np.array(1 + 2j), fp64), complex)
