import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpmimo
from fpmimo import bounds
from fpmimo.bounds import (
    RateBoundResult,
    c1_u,
    c_d,
    c_u,
    cost_model,
    cost_overhead,
    delta_miso,
    delta_simo,
    expected_cd_sq,
    gamma_n,
    gamma_n_det,
    gamma_n_first_order,
    lb_rate_miso,
    lb_rate_simo,
    lb_sumrate_mu_miso,
    lb_sumrate_mu_simo,
    m_max_simo,
    rate_gap,
    rate_limit_miso,
    rate_limit_simo,
    upsilon,
    xi_bn,
    xi_bn_first_order,
)
from fpmimo.formats import FP16, FP32, FP64

U16 = FP16.unit_roundoff
U32 = FP32.unit_roundoff


class TestGamma:
    def test_zero_roundoff(self):
        assert gamma_n(1000, 0.0, 1.0) == 0.0

    def test_approximation_error_headline(self):
        # first-order truncation error at n=1000, lambda=1, fp16
        err = gamma_n(1000, U16, 1.0) - gamma_n_first_order(1000, U16, 1.0)
        assert err == pytest.approx(3.62e-4, rel=0.01)

    def test_single_term_fp32(self):
        assert gamma_n(1, U32, 1.0) == pytest.approx(5.96e-8, rel=1e-3)

    def test_monotone_in_n_and_lambda(self):
        assert gamma_n(2000, U16) > gamma_n(1000, U16)
        assert gamma_n(1000, U16, 3.0) > gamma_n(1000, U16, 1.0) > gamma_n(1000, U16, 0.5)

    def test_deterministic_variant(self):
        assert gamma_n_det(100, U16) == pytest.approx(100 * U16 / (1 - 100 * U16))
        with pytest.raises(ValueError, match="n\\*u < 1"):
            gamma_n_det(4000, U16)

    def test_invalid_u(self):
        with pytest.raises(ValueError):
            gamma_n(10, 1.5)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bound", [
        lambda lam: gamma_n(10, U16, lam),
        lambda lam: gamma_n_first_order(10, U16, lam),
        lambda lam: xi_bn(32, 1000, U16, U32, lam),
        lambda lam: xi_bn_first_order(32, 1000, U16, U32, lam),
        lambda lam: xi_bn(1, 1, U16, U32, lam),  # no block steps: gamma_n(0, ...) twice
        lambda lam: m_max_simo(10.0, U16, lam),
        lambda lam: delta_simo(64, U16, lam),
    ], ids=["gamma_n", "gamma_n_first_order", "xi_bn", "xi_bn_first_order", "xi_bn-b1",
            "m_max_simo", "delta_simo"])
    def test_rejects_lambda_outside_positive_finite(self, bound, lam):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            bound(lam)


class TestXi:
    def test_single_block_degeneration(self):
        n = 10
        assert xi_bn(2 * n, n, U16, U32) == U16 + gamma_n(2 * n - 1, U16)

    def test_b1_degeneration(self):
        n = 10
        u_h = U16 * U16
        assert xi_bn(1, n, U16, u_h) == U16 + gamma_n(2 * n - 1, u_h)

    def test_headline_value(self):
        # sqrt(2)*xi at (b=32, n=1000, fp16/fp32, lambda=1): the truncated
        # first+second-order form sits just under 4.5e-3; the exact sum is
        # about 0.3% above it
        trunc = math.sqrt(2) * xi_bn_first_order(32, 1000, U16, U32, 1.0)
        exact = math.sqrt(2) * xi_bn(32, 1000, U16, U32, 1.0)
        assert trunc == pytest.approx(4.5379e-3, rel=1e-3)
        assert exact == pytest.approx(4.5516e-3, rel=1e-3)
        assert trunc < exact

    def test_requires_squared_high_roundoff(self):
        with pytest.raises(ValueError, match="u_h <= u_l"):
            xi_bn(32, 1000, U16, U16)

    def test_much_smaller_than_uniform(self):
        assert xi_bn(32, 1000, U16, U32) < 0.2 * gamma_n(2000, U16)


class TestDeltas:
    def test_miso_is_simo_at_m1(self):
        assert delta_miso(U16, 1.0) == delta_simo(1, U16, 1.0)

    def test_simo_monotone_in_m(self):
        vals = [delta_simo(M, U16) for M in (1, 10, 100, 1000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_formulas(self):
        assert delta_simo(100, U16, 3.0) == math.sqrt(2) * gamma_n(200, U16, 3.0)
        assert delta_miso(U16, 3.0) == math.sqrt(2) * gamma_n(2, U16, 3.0)


class TestRateBounds:
    def test_zero_roundoff_degeneration(self):
        rho, M = 10.0, 128
        assert lb_rate_simo(M, rho, 0.0).value_bits == pytest.approx(
            math.log2(1 + rho * M), rel=1e-12
        )
        assert lb_rate_miso(M, rho, 0.0).value_bits == pytest.approx(
            math.log2(1 + rho * M), rel=1e-12
        )

    def test_simo_high_snr_ceiling(self):
        d = delta_simo(100, U16, 3.0)
        ceiling = rate_limit_simo(100, U16, 3.0).value_bits
        assert ceiling == pytest.approx(math.log2(1 + d**-2))
        assert lb_rate_simo(100, 1e9, U16, 3.0).value_bits < ceiling
        assert lb_rate_simo(100, 1e9, U16, 3.0).value_bits > 0.99 * ceiling

    def test_simo_vanishes_at_large_m(self):
        assert lb_rate_simo(10_000_000, 10.0, U16).value_bits < 0.2

    def test_miso_large_m_ceiling(self):
        ceiling = rate_limit_miso(U16, 1.0).value_bits
        assert lb_rate_miso(10**9, 10.0, U16, 1.0).value_bits == pytest.approx(
            ceiling, rel=1e-3
        )

    def test_monotone_nonincreasing_in_u(self):
        for fn in (lambda u: lb_rate_simo(128, 10.0, u).value_bits,
                   lambda u: lb_rate_miso(128, 10.0, u).value_bits):
            vals = [fn(u) for u in (0.0, 2.0**-24, 2.0**-11, 2.0**-8)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rate_gap(self):
        assert rate_gap(1000, 10.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert rate_gap(1000, 10.0, U16) > 1.0  # duality broken at fp16

    def test_peak_near_m_max(self):
        # the bound has a unique interior maximum within +-1 of m_max
        mm = m_max_simo(10.0, U16, 3.0)
        vals = {M: lb_rate_simo(M, 10.0, U16, 3.0).value_bits for M in range(2, 4000)}
        argmax = max(vals, key=vals.get)
        assert abs(argmax - mm) <= 1

    def test_result_type(self):
        r = lb_rate_simo(100, 10.0, U16)
        assert isinstance(r, RateBoundResult)
        assert r.regime == "exact-formula"
        assert "delta_simo" in r.components
        with pytest.raises(ValueError):
            RateBoundResult(-1.0)

    def test_result_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RateBoundResult(math.nan)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "bound",
        [
            lambda rho: lb_rate_simo(8, rho, U16),
            lambda rho: lb_rate_miso(8, rho, U16),
            lambda rho: lb_sumrate_mu_simo(8, 2, rho, U16),
            lambda rho: lb_sumrate_mu_miso(8, 2, rho, U16),
            lambda rho: m_max_simo(rho, U16),
        ],
        ids=[
            "lb_rate_simo", "lb_rate_miso", "lb_sumrate_mu_simo", "lb_sumrate_mu_miso", "m_max_simo"
        ],
    )
    def test_rejects_snr_outside_positive_finite(self, bound, rho):
        with pytest.raises(ValueError, match="rho"):
            bound(rho)


class TestMMax:
    def test_zero_roundoff_unbounded(self):
        assert m_max_simo(10.0, 0.0) == math.inf

    def test_lambda3(self):
        assert m_max_simo(10.0, U16, 3.0) == 102

    def test_lambda1(self):
        # direct evaluation: 1/(2*u*sqrt(11)) = 308.75 -> floor 308
        assert m_max_simo(10.0, U16, 1.0) == 308


class TestNeConstants:
    def test_c1_u_frozen_value(self):
        # independent evaluation of 2K(gamma_2M + gamma_{6K+1}/(1-2K gamma_{2K+1}))
        # at M=1000, K=4, fp16, lambda=1; dominated by 8*gamma_2000 = 0.1805
        assert c1_u(1000, 4, U16, 1.0) == pytest.approx(0.200352, rel=1e-4)

    def test_c_u_composition(self):
        M, K = 256, 4
        assert c_u(M, K, U16) == pytest.approx(
            c1_u(M, K, U16) + math.sqrt(2 * K) * gamma_n(2 * M, U16)
        )

    def test_zero_roundoff(self):
        assert c1_u(256, 4, 0.0) == 0.0
        assert c_u(256, 4, 0.0) == 0.0
        assert c_d(256, 4, 0.0, kappa2=5.0) == 0.0

    def test_c_d_grows_with_kappa(self):
        assert c_d(256, 4, U16, kappa2=10.0) > c_d(256, 4, U16, kappa2=1.0)

    def test_k1(self):
        v = c_u(256, 1, U16)
        assert 0 < v < c_u(256, 4, U16)

    def test_precision_too_low(self):
        with pytest.raises(ValueError, match="precision too low"):
            c1_u(64, 40, 0.05, 1.0)

    def test_kappa_validation(self):
        with pytest.raises(ValueError, match="kappa2"):
            c_d(256, 4, U16, kappa2=0.5)


class TestUpsilon:
    def test_k1_exact(self):
        assert upsilon(8, 1) == 1.0

    def test_cross_oracle_k2(self):
        q = upsilon(8, 2, "quadrature")
        mc = upsilon(8, 2, "monte-carlo", samples=400_000, seed=3)
        assert mc == pytest.approx(q, rel=0.02)

    def test_quadrature_decreases_to_one(self):
        vals = [upsilon(M, 2, "quadrature") for M in (4, 8, 16, 64, 256)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.0
        assert vals[-1] < 0.1 * vals[0]  # kappa2 -> 1 for M >> K

    def test_quadrature_k_restriction(self):
        with pytest.raises(ValueError, match="K = 2"):
            upsilon(8, 3, "quadrature")

    def test_requires_tall_channel(self):
        with pytest.raises(ValueError, match="M >= K"):
            upsilon(2, 2)

    def test_mc_seeded_reproducible(self):
        a = upsilon(8, 2, samples=10_000, seed=5)
        b = upsilon(8, 2, samples=10_000, seed=5)
        assert a == b

    def test_general_k(self):
        v = upsilon(16, 4, samples=20_000, seed=1)
        assert v > 1.0

    def test_rejects_unknown_method_at_k1(self):
        with pytest.raises(ValueError, match="method"):
            upsilon(8, 1, method="bogus")

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_sample_count_below_one(self, samples):
        with pytest.raises(ValueError, match="samples"):
            upsilon(8, 2, samples=samples)
        with pytest.raises(ValueError, match="samples"):
            expected_cd_sq(8, 2, U16, samples=samples)


class TestSumRates:
    def test_mu_simo_degeneration(self):
        M, K, rho = 128, 4, 10.0
        v = lb_sumrate_mu_simo(M, K, rho, 0.0, upsilon_value=1.0).value_bits
        assert v == pytest.approx(K * math.log2(1 + rho * (M - K)), rel=1e-12)

    def test_mu_miso_degeneration(self):
        M, K, rho = 128, 4, 10.0
        v = lb_sumrate_mu_miso(M, K, rho, 0.0, expected_cd_sq=0.0).value_bits
        assert v == pytest.approx(K * math.log2(1 + rho * (M - K)), rel=1e-12)

    def test_vanishes_at_large_m(self):
        ups = 1.5
        big = lb_sumrate_mu_simo(10**7, 4, 10.0, U16, upsilon_value=ups).value_bits
        mid = lb_sumrate_mu_simo(128, 4, 10.0, U16, upsilon_value=ups).value_bits
        assert big < 0.1 * mid

    def test_monotone_in_u(self):
        vals = [
            lb_sumrate_mu_simo(128, 4, 10.0, u, upsilon_value=1.2).value_bits
            for u in (0.0, 2.0**-24, 2.0**-11)
        ]
        assert vals[0] >= vals[1] >= vals[2]

    def test_expected_cd_sq_positive_and_reproducible(self):
        a = expected_cd_sq(64, 4, U16, samples=5000, seed=2)
        b = expected_cd_sq(64, 4, U16, samples=5000, seed=2)
        assert a == b > 0

    def test_requires_m_gt_k(self):
        with pytest.raises(ValueError):
            lb_sumrate_mu_simo(4, 4, 10.0, U16)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_mu_simo_rejects_non_finite_upsilon(self, value):
        with pytest.raises(ValueError, match="upsilon"):
            lb_sumrate_mu_simo(128, 4, 10.0, U16, upsilon_value=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_mu_miso_rejects_non_finite_expected_cd_sq(self, value):
        with pytest.raises(ValueError, match="c_d"):
            lb_sumrate_mu_miso(128, 4, 10.0, U16, expected_cd_sq=value)


class TestCostModel:
    def test_g1_equals_uniform_low(self):
        c = cost_model(3, 1000, 5, 32, 1)
        assert c["C_m"] == c["C_l"]

    def test_b1_equals_uniform_high(self):
        c = cost_model(3, 1000, 5, 1, 4)
        assert c["C_m"] == c["C_h"]

    def test_overhead_headline(self):
        # (C_m - C_l)/C_l on the summation component at n=1000, b=32, G=2
        assert 100 * cost_overhead(1000, 32, 2) == pytest.approx(3.08, rel=0.01)

    def test_integer_counts_when_divisible(self):
        c = cost_model(2, 64, 3, 16, 4)
        for counts in c.values():
            assert counts.sums == int(counts.sums)
            assert counts.mults == int(counts.mults)

    def test_component_structure(self):
        c = cost_model(1, 10, 1, 4, 5)
        assert c["C_l"].sums == 4 * (2 * 10 - 1)
        assert c["C_l"].mults == 4 * 2 * 10
        assert c["C_h"].sums == 4 * 5 * (2 * 10 - 1)
        assert c["C_m"].total == c["C_m"].sums + c["C_m"].mults

    def test_validation(self):
        with pytest.raises(ValueError):
            cost_model(0, 10, 1, 4, 1)


class TestUpsilonQuadratureInternals:
    def test_density_normalizes(self):
        # exercised internally; an abnormal mass raises (the second moment
        # only converges for M >= 4 at K = 2: the integrand tail is c^(2-M))
        for M in (4, 10, 100, 1000):
            assert bounds._upsilon_quad_k2(M) > 1.0


def test_import_does_not_load_scipy():
    # scipy serves only the K = 2 quadrature, so a plain import must not pay for it
    code = (
        "import sys, numpy as np, fpmimo as f; "
        "f.inner_product_fp(np.ones(4), np.ones(4), f.PrecisionPolicy.uniform(f.FP16)); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(fpmimo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
