import math
import tracemalloc

import numpy as np
import pytest

from fpmimo.formats import (
    BFLOAT16,
    FP16,
    FP32,
    FP64,
    PRESETS,
    FloatFormat,
    RangeMode,
    RoundingMode,
    get_format,
    round_to_format,
)
from fpmimo.kernels import PrecisionPolicy, round_input
from fpmimo.transceiver import mrt_precode

POL16 = PrecisionPolicy.uniform(FP16)


class TestPresets:
    def test_table_parameters(self):
        # (t, u, x_min, x_max) for the four named formats
        assert BFLOAT16.significand_bits == 8
        assert math.isclose(BFLOAT16.unit_roundoff, 3.90625e-3)
        assert FP16.significand_bits == 11
        assert FP16.unit_roundoff == 2.0**-11  # 4.88e-4
        assert FP32.significand_bits == 24
        assert math.isclose(FP32.unit_roundoff, 5.9604644775390625e-8)
        assert FP64.significand_bits == 53
        assert math.isclose(FP64.unit_roundoff, 2.0**-53)  # 4.88e-16

    def test_range_extremes(self):
        assert math.isclose(BFLOAT16.x_min, 1.1754943508222875e-38)
        assert math.isclose(FP16.x_min, 6.103515625e-05)
        assert FP16.x_max == 65504.0
        assert math.isclose(FP32.x_max, 3.4028234663852886e38)
        assert math.isclose(BFLOAT16.x_max, 3.3895313892515355e38)

    def test_unit_roundoff_definition(self):
        for fmt in PRESETS.values():
            assert fmt.unit_roundoff == 0.5 * 2.0 ** (1 - fmt.significand_bits)

    def test_lookup(self):
        assert get_format("fp16") is FP16
        with pytest.raises(ValueError, match="unknown format"):
            get_format("fp8")

    def test_validation(self):
        with pytest.raises(ValueError):
            FloatFormat("bad", 1, -10, 10)
        with pytest.raises(ValueError):
            FloatFormat("toowide", 54, -10, 10)
        with pytest.raises(ValueError):
            FloatFormat("range", 10, 5, 5)
        # custom narrow format is allowed
        f = FloatFormat("fp8-ish", 4, -6, 7)
        assert f.unit_roundoff == 2.0**-4


class TestRoundToFormat:
    def test_exact_value_unchanged(self):
        assert round_to_format(1.0, FP16) == 1.0
        assert round_to_format(-0.15625, FP16) == -0.15625

    def test_below_half_ulp_rounds_down(self):
        # neighbors of 1 + 2^-12 in fp16 are 1.0 and 1 + 2^-10; 1.0 is nearer
        assert round_to_format(1 + 2.0**-12, FP16) == 1.0

    def test_tie_to_even(self):
        # 1 + 2^-11 is halfway between 1.0 and 1 + 2^-10; even significand wins
        assert round_to_format(1 + 2.0**-11, FP16) == 1.0
        # 1 + 3*2^-11 is halfway between 1 + 2^-10 and 1 + 2^-9
        assert round_to_format(1 + 3 * 2.0**-11, FP16) == 1 + 2.0**-9

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10_000) * 10.0 ** rng.integers(-6, 6, 10_000)
        for fmt in (BFLOAT16, FP16, FP32):
            once = round_to_format(x, fmt)
            assert np.array_equal(round_to_format(once, fmt), once)

    def test_monotone_nearest_even(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.standard_normal(20_000))
        y = round_to_format(x, FP16)
        assert np.all(np.diff(y) >= 0)

    def test_relative_error_within_u(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100_000)
        for fmt in (BFLOAT16, FP16, FP32):
            y = round_to_format(x, fmt)
            assert np.all(np.abs(y - x) <= fmt.unit_roundoff * np.abs(x))

    def test_fp64_is_noop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000)
        assert np.array_equal(round_to_format(x, FP64), x)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            round_to_format(math.inf, FP16)
        with pytest.raises(ValueError, match="finite"):
            round_to_format(np.array([1.0, math.nan]), FP16)

    def test_scalar_returns_float(self):
        assert isinstance(round_to_format(1.5, FP16), float)


class TestStochasticRounding:
    def test_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            round_to_format(1 + 2.0**-12, FP16, RoundingMode.STOCHASTIC)

    def test_lands_on_neighbors(self):
        rng = np.random.default_rng(4)
        x = np.full(1000, 1 + 2.0**-12)
        y = round_to_format(x, FP16, RoundingMode.STOCHASTIC, rng=rng)
        assert set(np.unique(y)) == {1.0, 1 + 2.0**-10}

    def test_zero_mean(self):
        # mean signed rounding error of a fixed non-representable value
        rng = np.random.default_rng(5)
        v = 1 + 0.3 * 2.0**-10  # 30% of the way up the fp16 step
        n = 100_000
        y = round_to_format(np.full(n, v), FP16, RoundingMode.STOCHASTIC, rng=rng)
        err = y - v
        stderr = np.std(err) / math.sqrt(n)
        assert abs(np.mean(err)) < 3 * stderr

    def test_representable_is_exact(self):
        rng = np.random.default_rng(6)
        y = round_to_format(np.full(100, 1.5), FP16, RoundingMode.STOCHASTIC, rng=rng)
        assert np.all(y == 1.5)


class TestRangeModes:
    def test_unbounded_ignores_overflow(self):
        big = 1e30
        assert round_to_format(big, FP16) == pytest.approx(big, rel=FP16.unit_roundoff)

    def test_strict_clamps_overflow(self):
        y = round_to_format(1e30, FP16, range_mode=RangeMode.STRICT_IEEE)
        assert y == FP16.x_max
        y = round_to_format(-1e30, FP16, range_mode=RangeMode.STRICT_IEEE)
        assert y == -FP16.x_max

    def test_strict_flushes_subnormals(self):
        tiny = FP16.x_min / 4
        assert round_to_format(tiny, FP16, range_mode=RangeMode.STRICT_IEEE) == 0.0
        assert round_to_format(FP16.x_min, FP16, range_mode=RangeMode.STRICT_IEEE) == FP16.x_min


class TestElementaryOps:
    """One operation under the standard model: round(a op b) on the carrier."""

    def test_exact_sum(self):
        assert round_to_format(1.0 + 1.0, FP16) == 2.0

    def test_tie_in_addition(self):
        assert round_to_format(1.0 + 2.0**-11, FP16) == 1.0

    def test_fp64_matches_carrier(self):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(1000), rng.standard_normal(1000)
        assert np.array_equal(round_to_format(x * y, FP64), x * y)

    def test_standard_model_all_ops(self):
        rng = np.random.default_rng(8)
        n = 1_000_000
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        y[y == 0] = 1.0
        for fmt in (BFLOAT16, FP16, FP32, FP64):
            xr = round_to_format(x, fmt)
            yr = round_to_format(y, fmt)
            yr = np.where(yr == 0, 1.0, yr)
            u = fmt.unit_roundoff
            for f in (np.add, np.subtract, np.multiply, np.divide):
                exact = f(xr, yr)
                got = round_to_format(exact, fmt)
                assert np.all(np.abs(got - exact) <= u * np.abs(exact))


class TestComplexOps:
    """The rounded complex multiply (4 multiplies, 2 adds) as MRT runs it,
    and componentwise rounded complex addition as the kernels run it."""

    def test_multiply_by_one(self):
        z = round_to_format(0.3, FP16) + 1j * round_to_format(-1.7, FP16)
        assert mrt_precode(np.array([1.0 + 0j]), z, POL16, prenormalized=True)[0] == z

    def test_i_times_i(self):
        assert mrt_precode(np.array([1j]), 1j, POL16, prenormalized=True)[0] == -1.0 + 0j

    def test_error_within_gamma2(self):
        from fpmimo.bounds import gamma_n

        rng = np.random.default_rng(9)
        phases = rng.random((1000, 2))
        a = np.exp(2j * np.pi * phases[:, 0])
        b = np.exp(2j * np.pi * phases[:, 1])
        ar = round_to_format(a.real, FP16) + 1j * round_to_format(a.imag, FP16)
        br = round_to_format(b.real, FP16) + 1j * round_to_format(b.imag, FP16)
        got = mrt_precode(ar[:, None], br, POL16, prenormalized=True)[:, 0]
        exact = ar * br
        bound = math.sqrt(2) * gamma_n(2, FP16.unit_roundoff, 3.0) * np.abs(ar) * np.abs(br)
        assert np.all(np.abs(got - exact) <= bound)

    def test_cadd(self):
        z = 0.25 - 0.5j
        assert round_input(z + 0.0, POL16) == z
        assert round_input(1.0 + 2.0**-11 * 1j, POL16) == 1.0 + 2.0**-11 * 1j

    def test_cadd_componentwise_error(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        b = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        got = round_input(a + b, POL16)
        u = FP16.unit_roundoff
        assert np.all(np.abs(got.real - (a.real + b.real)) <= u * np.abs(a.real + b.real))
        assert np.all(np.abs(got.imag - (a.imag + b.imag)) <= u * np.abs(a.imag + b.imag))


class TestStridedViews:
    """Real rounding reads a view through its shape and strides: the bytes and
    the rng end state of the same call on a contiguous copy, and no copy."""

    @staticmethod
    def _views():
        rng = np.random.default_rng(40)
        a = rng.standard_normal((7, 13)) * 10.0 ** rng.uniform(-8, 8, (7, 13))
        z = rng.standard_normal((4, 5, 6)) + 1j * rng.standard_normal((4, 5, 6))
        return {
            "transpose": a.T,
            "negative stride": a[::-1, ::-2],
            "real of a 3-D complex slice": z[1:, ::2, 1::2].real,
            "0-d": z[2, 1, 3, ...].real,
        }

    @pytest.mark.parametrize("mode", list(RoundingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
    def test_views_give_the_bytes_of_contiguous_copies(self, mode, range_mode):
        policy = PrecisionPolicy.uniform(FP16, rounding=mode, range_mode=range_mode)
        calls = {
            "round_to_format": lambda x, g: round_to_format(x, FP16, mode, range_mode, g),
            "round_input": lambda x, g: round_input(x, policy, g),
        }
        for name, view in self._views().items():
            assert view.ndim == 0 or not view.flags.c_contiguous, name
            for call_name, call in calls.items():
                rng, other = np.random.default_rng(41), np.random.default_rng(41)
                got = call(view, rng)
                want = call(np.ascontiguousarray(view), other)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, call_name)
                assert rng.bit_generator.state == other.bit_generator.state, (name, call_name)

    def test_a_transposed_view_is_not_copied(self):
        x = np.random.default_rng(42).standard_normal((1 << 10, 1 << 10)).T
        round_input(x[:2, :2], POL16)  # loads the core
        for call in (lambda: round_to_format(x, FP16), lambda: round_input(x, POL16)):
            tracemalloc.start()
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 1.05 * got.nbytes
