"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test evaluates its criterion at the stated parameters and tolerances and
prints a single pass/fail line (collected into the terminal summary by
conftest); the assertion message carries the measured numbers.

The rate bounds in `bounds` are *lower* bounds, conservative at lambda=3, so
criteria 3 and 4 assert that the simulated rate sits at or above the bound
(within 3 stderr) and check the bound's own optimum and ceiling against the
closed forms that define them.  The simulated peak and the simulated rate at
40 dB are printed beside those closed forms for the record, not asserted.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from fpmimo import bounds
from fpmimo.formats import FP16, FP32, FP64
from fpmimo.harness import (
    ExperimentConfig,
    _collect_point,
    inner_product_violation_study,
    run_sweep,
)
from fpmimo.kernels import PrecisionPolicy

from conftest import CRITERION_LINES

POL16 = PrecisionPolicy.uniform(FP16)
POL64 = PrecisionPolicy.uniform(FP64)
MIX = PrecisionPolicy.mixed(FP16, FP32, 32)
U16 = FP16.unit_roundoff


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _rate(scenario, M, policy, trials=300, seed=0, **kw):
    cfg = ExperimentConfig(scenario, (M,), policy, trials=trials, seed=seed, **kw)
    return run_sweep(cfg).rows[0]


def test_criterion_01_full_precision_degeneration():
    t0 = time.time()
    simo = _rate("SIMO", 100, POL64, trials=2000, lam=3.0)
    closed = math.log2(1 + 10.0 * 100)
    ok_simo = abs(simo["mean_rate"] - closed) <= 0.02 * closed
    mu = _rate("MU-SIMO", 128, POL64, trials=500, K=4)
    mu_bound = 4 * math.log2(1 + 10.0 * (128 - 4))
    ok_mu = (mu["mean_rate"] >= mu_bound) and abs(mu["mean_rate"] - mu_bound) <= 0.03 * mu_bound
    elapsed = time.time() - t0
    _report(
        1,
        ok_simo and ok_mu and elapsed < 60,
        f"fp64 SIMO {simo['mean_rate']:.3f} vs {closed:.3f} (2%), "
        f"MU-SIMO {mu['mean_rate']:.3f} >= {mu_bound:.3f} (3%), {elapsed:.0f}s",
    )


def test_criterion_02_paper_constants():
    checks = []
    # gamma first-order truncation error at (n=1000, lambda=1, fp16)
    g_err = bounds.gamma_n(1000, U16, 1.0) - bounds.gamma_n_first_order(1000, U16, 1.0)
    checks.append(("gamma_approx", abs(g_err - 3.62e-4) <= 0.01 * 3.62e-4, f"{g_err:.4e}"))
    # c1_u at (M=1000, K=4, fp16, lambda=1) against its defining formula
    # 2K*(gamma_2M + gamma_{6K+1}/(1 - 2K*gamma_{2K+1})), written out here
    # independently of bounds.gamma_n.  A figure of ~4.6e-3 was once quoted
    # for this point; it has no source in the repository and no preset
    # format, lambda or (M, K) reproduces it, so it is not asserted.
    def gamma(n):
        return math.expm1(math.sqrt(n) * U16 + n * U16 * U16 / (1.0 - U16))

    K, M = 4, 1000
    c1_ref = 2 * K * (gamma(2 * M) + gamma(6 * K + 1) / (1.0 - 2 * K * gamma(2 * K + 1)))
    c1 = bounds.c1_u(M, K, U16, 1.0)
    checks.append(("c1_u=formula", abs(c1 - c1_ref) <= 0.01 * c1_ref, f"{c1:.4e}"))
    # sqrt(2)*xi_{32,1000} < 4.5e-3 for fp16/fp32 (truncated form, 1% tol)
    xi_t = math.sqrt(2) * bounds.xi_bn_first_order(32, 1000, U16, FP32.unit_roundoff, 1.0)
    checks.append(("sqrt2*xi<4.5e-3", xi_t < 4.5e-3 * 1.01, f"{xi_t:.4e}"))
    # cost overhead exactly 3.08% at (n=1000, b=32, G=2)
    ovh = 100 * bounds.cost_overhead(1000, 32, 2)
    checks.append(("overhead=3.08%", abs(ovh - 3.08) <= 0.01 * 3.08, f"{ovh:.4f}%"))
    # exact cost identities
    id1 = bounds.cost_model(2, 777, 3, 32, 1)["C_m"] == bounds.cost_model(2, 777, 3, 32, 1)["C_l"]
    id2 = bounds.cost_model(2, 777, 3, 1, 5)["C_m"] == bounds.cost_model(2, 777, 3, 1, 5)["C_h"]
    checks.append(("cost_identities", id1 and id2, f"{id1},{id2}"))
    detail = "; ".join(f"{n}={'ok' if ok else 'BAD'}({v})" for n, ok, v in checks)
    _report(2, all(ok for _, ok, _ in checks), detail)


def test_criterion_03_simo_non_monotonicity():
    t0 = time.time()
    grid = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    cfg = ExperimentConfig("SIMO", grid, POL16, trials=500, lam=3.0, seed=0)
    rows = run_sweep(cfg).rows
    rates = [r["mean_rate"] for r in rows]
    peak = int(np.argmax(rates))
    rises_falls = peak not in (0, len(grid) - 1) and rates[0] < rates[peak] > rates[-1]
    # m_max_simo is the argmax of the lambda=3 lower bound, so the window is
    # checked on the bound; the simulation must sit above the bound.
    mmax = bounds.m_max_simo(10.0, U16, 3.0)
    lb = [bounds.lb_rate_simo(M, 10.0, U16, 3.0).value_bits for M in grid]
    lb_peak = grid[int(np.argmax(lb))]
    in_window = mmax / 2 <= lb_peak <= 2 * mmax
    margins = [r["mean_rate"] - b + 3 * r["rate_stderr"] for r, b in zip(rows, lb)]
    above_bound = min(margins) >= 0.0
    elapsed = time.time() - t0
    _report(
        3,
        rises_falls and in_window and above_bound and elapsed < 300,
        f"bound argmax M={lb_peak} in [{mmax / 2:.0f}, {2 * mmax}] "
        f"(M_max={mmax}, lambda=3), min(rate-bound+3se)={min(margins):.3f}, "
        f"rises/falls={rises_falls}; info: simulated argmax M={grid[peak]}, {elapsed:.0f}s",
    )


def test_criterion_04_simo_rate_ceiling():
    rho_grid = tuple(float(r) for r in range(0, 41, 5))
    cfg = ExperimentConfig("SIMO", (100,), POL16, trials=2000, rho_grid_db=rho_grid, lam=3.0)
    rows = run_sweep(cfg).rows
    rates = [r["mean_rate"] for r in rows]
    nondecreasing = all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))
    # rate_limit_simo is the ceiling of the lambda=3 lower bound, not of the
    # achieved rate: the simulation must sit above the bound at every SNR, the
    # bound must saturate at that ceiling, and the fp16 rate must fall short
    # of the exact-arithmetic log2(1 + rho*M).
    lb = [
        bounds.lb_rate_simo(100, 10.0 ** (r["rho_db"] / 10.0), U16, 3.0).value_bits
        for r in rows
    ]
    margins = [r["mean_rate"] - b + 3 * r["rate_stderr"] for r, b in zip(rows, lb)]
    above_bound = min(margins) >= 0.0
    ceiling = bounds.rate_limit_simo(100, U16, 3.0).value_bits
    saturates = abs(lb[-1] - ceiling) <= 0.01 * ceiling
    last, prev = rates[-1], rates[-2]
    noise = 3 * rows[-1]["rate_stderr"]
    exact = math.log2(1 + 10.0 ** (rho_grid[-1] / 10.0) * 100)
    below_exact = last < exact - noise
    plateau = abs(last - prev) < 0.05 * last
    _report(
        4,
        nondecreasing and above_bound and saturates and below_exact and plateau,
        f"min(rate-bound+3se)={min(margins):.3f}, bound(40dB)={lb[-1]:.3f} vs "
        f"ceiling {ceiling:.3f}, rate(40dB) < exact {exact:.3f}-{noise:.3f}, "
        f"plateau step {abs(last - prev) / last:.1%}, nondecreasing={nondecreasing}; "
        f"info: rate(40dB) {last:.3f} vs bound ceiling {ceiling:.3f}",
    )


def test_criterion_05_miso_m_independence():
    errs = {}
    for i, M in enumerate((100, 1000, 10000)):
        cfg = ExperimentConfig("MISO", (M,), POL16, trials=10_000, seed=11)
        errs[M] = _collect_point(cfg, M, 10.0, i)["err_abs"]
    # location test on ||ds||/|x_d| at the 1% significance level
    p1 = stats.mannwhitneyu(errs[100], errs[1000]).pvalue
    p2 = stats.mannwhitneyu(errs[100], errs[10000]).pvalue
    p3 = stats.mannwhitneyu(errs[1000], errs[10000]).pvalue
    _report(
        5,
        min(p1, p2, p3) > 0.01,
        f"Mann-Whitney p-values {p1:.3f}/{p2:.3f}/{p3:.3f} > 0.01 across M=100/1000/10000",
    )


def test_criterion_06_duality_failure_then_recovery():
    s16 = _rate("SIMO", 1000, POL16, trials=2000, lam=3.0)
    m16 = _rate("MISO", 1000, POL16, trials=2000, lam=3.0)
    pooled16 = math.hypot(s16["rate_stderr"], m16["rate_stderr"])
    gap16 = abs(s16["mean_rate"] - m16["mean_rate"])
    broken = gap16 > 5 * pooled16
    s64 = _rate("SIMO", 1000, POL64, trials=2000)
    m64 = _rate("MISO", 1000, POL64, trials=2000)
    pooled64 = math.hypot(s64["rate_stderr"], m64["rate_stderr"])
    gap64 = abs(s64["mean_rate"] - m64["mean_rate"])
    recovered = gap64 <= 3 * pooled64
    _report(
        6,
        broken and recovered,
        f"fp16 gap {gap16:.3f} > 5*{pooled16:.4f}; fp64 gap {gap64:.4f} <= 3*{pooled64:.4f}",
    )


def test_criterion_07_probabilistic_bound_ordering():
    rep = inner_product_violation_study(2000, POL16, trials=10_000, seed=7)
    r = rep["violation_rates"]
    ordered = r[0.5] >= r[1.0] >= r[3.0]
    _report(
        7,
        ordered and rep["deterministic"] == 0.0,
        f"violation rates lambda 0.5/1/3 = {r[0.5]:.4f}/{r[1.0]:.4f}/{r[3.0]:.4f} "
        f"(non-increasing), deterministic = {rep['deterministic']:.4f}",
    )


def test_criterion_08_zf_error_bound_conformance():
    M, K = 256, 4
    cfg = ExperimentConfig("MU-SIMO", (M,), POL16, K=K, trials=10_000, lam=1.0, seed=42)
    d = _collect_point(cfg, M, 10.0, 0)
    ok = ~d["breakdown"]
    cu = bounds.c_u(M, K, U16, 1.0)
    conform = np.mean(d["err_abs"][ok] <= cu * d["scale"][ok])  # scale = kappa * ||r||
    _report(
        8,
        conform >= 0.99,
        f"||dr|| <= c_u*kappa*||r|| in {conform:.2%} of {int(ok.sum())} trials "
        f"(c_u={cu:.3f})",
    )


def test_criterion_09_mixed_precision_recovery():
    t0 = time.time()
    r16 = _rate("MU-SIMO", 1024, POL16, trials=300)["mean_rate"]
    r64 = _rate("MU-SIMO", 1024, POL64, trials=300)["mean_rate"]
    rmx = _rate("MU-SIMO", 1024, MIX, trials=300)["mean_rate"]
    recovery = (rmx - r16) / (r64 - r16)
    s64 = _rate("SIMO", 4096, POL64, trials=300, lam=3.0)["mean_rate"]
    smx = _rate("SIMO", 4096, MIX, trials=300, lam=3.0)["mean_rate"]
    close = abs(smx - s64) <= 0.02 * s64
    elapsed = time.time() - t0
    _report(
        9,
        recovery >= 0.9 and close and elapsed < 600,
        f"MU-SIMO gap recovery {recovery:.1%}; SIMO mixed {smx:.3f} vs fp64 "
        f"{s64:.3f} ({abs(smx - s64) / s64:.2%}), {elapsed:.0f}s",
    )


def test_criterion_10_upsilon_cross_oracle():
    details = []
    ok = True
    for M in (8, 16, 32):
        q = bounds.upsilon(M, 2, "quadrature")
        mc = bounds.upsilon(M, 2, "monte-carlo", samples=1_000_000, seed=M)
        rel = abs(mc - q) / q
        ok &= rel <= 0.01
        details.append(f"M={M}: {mc:.4f} vs {q:.4f} ({rel:.2%})")
    _report(10, ok, "; ".join(details))


def test_criterion_11_mu_duality():
    details = []
    ok = True
    for M in (32, 64, 128, 256, 512):
        up = _rate("MU-SIMO", M, POL16, trials=300)["mean_rate"]
        dn = _rate("MU-MISO", M, POL16, trials=300)["mean_rate"]
        rel = abs(up - dn) / up
        ok &= rel <= 0.05
        details.append(f"M={M}:{rel:.1%}")
    _report(11, ok, "fp16 MU-SIMO vs MU-MISO rate gap " + ", ".join(details))


def test_criterion_12_imperfect_csi_ordering():
    details = []
    ok = True
    for M in (64, 256):
        perf = {}
        mmse = {}
        for name, pol in (("fp16", POL16), ("mixed", MIX), ("fp64", POL64)):
            perf[name] = _rate("MU-SIMO", M, pol, trials=300)["mean_rate"]
            mmse[name] = _rate("MU-SIMO", M, pol, trials=300, csi="mmse")["mean_rate"]
        sandwiched = mmse["fp16"] <= mmse["mixed"] <= mmse["fp64"]
        below = all(mmse[k] < perf[k] for k in perf)
        ok &= sandwiched and below
        details.append(
            f"M={M}: mmse fp16/mixed/fp64 = "
            f"{mmse['fp16']:.2f}/{mmse['mixed']:.2f}/{mmse['fp64']:.2f}, "
            f"below perfect={below}"
        )
    _report(12, ok, "; ".join(details))
