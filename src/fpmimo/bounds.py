"""Closed-form evaluators for the rounding-error and rate analysis.

Everything here is evaluated in ordinary 64-bit arithmetic regardless of the
simulated format: these are the analytical predictions that the Monte Carlo
harness is checked against.

Notation: u is the unit roundoff of the working format, lam the free
tail-probability parameter of the probabilistic bounds (larger lam = looser
bound = lower failure probability), b a summation block size, and
kappa2 the spectral condition number of the Gram matrix H^H H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import _gram, _noise

__all__ = [
    "RateBoundResult",
    "gamma_n",
    "gamma_n_first_order",
    "gamma_n_det",
    "xi_bn",
    "xi_bn_first_order",
    "delta_simo",
    "delta_miso",
    "lb_rate_simo",
    "lb_rate_miso",
    "rate_limit_simo",
    "rate_limit_miso",
    "rate_gap",
    "m_max_simo",
    "c1_u",
    "c_u",
    "c_d",
    "upsilon",
    "expected_cd_sq",
    "lb_sumrate_mu_simo",
    "lb_sumrate_mu_miso",
    "cost_model",
    "cost_overhead",
    "CostCounts",
]


@dataclass(frozen=True)
class RateBoundResult:
    """A rate lower bound in bits/s/Hz plus its named intermediate values."""

    value_bits: float
    regime: str = "exact-formula"  # or "asymptotic-limit"
    components: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.value_bits >= 0:
            raise ValueError("rate bound must be nonnegative")

    def __float__(self) -> float:
        return self.value_bits


def _check_u(u: float) -> None:
    if not 0.0 <= u < 1.0:
        raise ValueError(f"unit roundoff must lie in [0, 1), got {u}")


def _check_lam(lam: float) -> None:
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")


def gamma_n(n: float, u: float, lam: float = 1.0) -> float:
    """Cumulative error factor exp(lam*sqrt(n)*u + n*u^2/(1-u)) - 1.

    Holds for an n-term rounded reduction except with a failure probability
    that decreases in lam.  n may be fractional (it enters analytically).
    """
    _check_u(u)
    _check_lam(lam)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.expm1(lam * math.sqrt(n) * u + n * u * u / (1.0 - u))


def gamma_n_first_order(n: float, u: float, lam: float = 1.0) -> float:
    """Leading term lam*sqrt(n)*u of gamma_n, used in the M_max derivation."""
    _check_u(u)
    _check_lam(lam)
    return lam * math.sqrt(n) * u


def gamma_n_det(n: float, u: float) -> float:
    """Deterministic worst-case analogue n*u/(1-n*u); requires n*u < 1."""
    _check_u(u)
    if n * u >= 1.0:
        raise ValueError(f"deterministic bound needs n*u < 1, got n*u = {n * u}")
    return n * u / (1.0 - n * u)


def _check_mixed_roundoffs(u_l: float, u_h: float) -> None:
    _check_u(u_l)
    _check_u(u_h)
    if u_h > u_l * u_l:
        raise ValueError(
            "mixed-precision analysis assumes u_h <= u_l^2 "
            f"(got u_h={u_h:.3e}, u_l^2={u_l * u_l:.3e})"
        )


def xi_bn(b: int, n: int, u_l: float, u_h: float, lam: float = 1.0) -> float:
    """Mixed-precision blocked-summation error factor.

    xi = u_l + gamma_{b-1}(u_l) + gamma_{g-1}(u_h) with g = ceil(2n/b)
    high-precision combination terms.  The relative error of a blocked inner
    product of length-n complex vectors is at most sqrt(2)*xi.
    """
    if b < 1 or n < 1:
        raise ValueError("b and n must be positive")
    _check_mixed_roundoffs(u_l, u_h)
    _check_lam(lam)
    g = -(-2 * n // b)
    return u_l + gamma_n(b - 1, u_l, lam) + gamma_n(g - 1, u_h, lam)


def xi_bn_first_order(b: int, n: int, u_l: float, u_h: float, lam: float = 1.0) -> float:
    """First+second-order truncation (lam*sqrt(b-1)+1)*u_l + lam*sqrt(g-1)*u_l^2.

    This is the approximate form used when quoting headline numbers; the
    exact sum is :func:`xi_bn`.
    """
    if b < 1 or n < 1:
        raise ValueError("b and n must be positive")
    _check_mixed_roundoffs(u_l, u_h)
    _check_lam(lam)
    g = -(-2 * n // b)
    return (lam * math.sqrt(b - 1) + 1.0) * u_l + lam * math.sqrt(g - 1) * u_l * u_l


def delta_simo(M: int, u: float, lam: float = 1.0) -> float:
    """Relative error constant of finite-precision MRC: sqrt(2)*gamma_{2M}."""
    if M < 1:
        raise ValueError("M must be positive")
    return math.sqrt(2.0) * gamma_n(2 * M, u, lam)


def _det_constant(n: int, u: float) -> float:
    """Worst-case relative error bound sqrt(2)*gamma_n_det of an n-term reduction.

    The factor n*u/(1-n*u) diverges as n*u -> 1; past that point no finite
    deterministic bound exists, so it is vacuously satisfied.
    """
    if n * u < 1.0:
        return math.sqrt(2.0) * gamma_n_det(n, u)
    return math.inf


def delta_miso(u: float, lam: float = 1.0) -> float:
    """Relative error constant of finite-precision MRT: sqrt(2)*gamma_2.

    Independent of the antenna count: only the per-entry scalar products are
    rounded.
    """
    return math.sqrt(2.0) * gamma_n(2, u, lam)


def lb_rate_simo(M: int, rho: float, u: float, lam: float = 1.0) -> RateBoundResult:
    """SIMO (MRC) ergodic-rate lower bound, bits/s/Hz.

    log2(1 + rho*M / (1 + delta_simo^2 * M * (rho+1))).
    """
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite (linear SNR)")
    d = delta_simo(M, u, lam)
    value = math.log2(1.0 + rho * M / (1.0 + d * d * M * (rho + 1.0)))
    return RateBoundResult(value, components={"delta_simo": d, "M": M, "rho": rho})


def lb_rate_miso(M: int, rho: float, u: float, lam: float = 1.0) -> RateBoundResult:
    """MISO (MRT) ergodic-rate lower bound: log2(1 + rho*M/(1 + delta_miso^2*rho*M))."""
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite (linear SNR)")
    if M < 1:
        raise ValueError("M must be positive")
    d = delta_miso(u, lam)
    value = math.log2(1.0 + rho * M / (1.0 + d * d * rho * M))
    return RateBoundResult(value, components={"delta_miso": d, "M": M, "rho": rho})


def rate_limit_simo(M: int, u: float, lam: float = 1.0) -> RateBoundResult:
    """High-SNR ceiling of the SIMO bound: log2(1 + delta_simo^-2)."""
    d = delta_simo(M, u, lam)
    if d == 0.0:
        raise ValueError("ceiling is unbounded at u = 0")
    return RateBoundResult(
        math.log2(1.0 + d**-2), regime="asymptotic-limit", components={"delta_simo": d}
    )


def rate_limit_miso(u: float, lam: float = 1.0) -> RateBoundResult:
    """Large-M / high-SNR ceiling of the MISO bound: log2(1 + delta_miso^-2)."""
    d = delta_miso(u, lam)
    if d == 0.0:
        raise ValueError("ceiling is unbounded at u = 0")
    return RateBoundResult(
        math.log2(1.0 + d**-2), regime="asymptotic-limit", components={"delta_miso": d}
    )


def rate_gap(M: int, rho: float, u: float, lam: float = 1.0) -> float:
    """MISO-minus-SIMO bound gap in bits/s/Hz (duality failure size)."""
    return lb_rate_miso(M, rho, u, lam).value_bits - lb_rate_simo(M, rho, u, lam).value_bits


def m_max_simo(rho: float, u: float, lam: float = 1.0):
    """Antenna count maximizing the SIMO bound: floor(1/(2*u*lam*sqrt(rho+1))).

    Returns math.inf for u = 0 (no finite optimum).
    """
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    _check_u(u)
    _check_lam(lam)
    if u == 0.0:
        return math.inf
    return math.floor(1.0 / (2.0 * u * lam * math.sqrt(rho + 1.0)))


def c1_u(M: int, K: int, u: float, lam: float = 1.0) -> float:
    """Backward-error constant of the normal-equations ZF solve.

    c1 = 2K*(gamma_{2M} + gamma_{6K+1}/(1 - 2K*gamma_{2K+1})).
    """
    if M < K or K < 1:
        raise ValueError("requires M >= K >= 1")
    den = 1.0 - 2 * K * gamma_n(2 * K + 1, u, lam)
    if den <= 0.0:
        raise ValueError(
            f"precision too low for the bound: 1 - 2K*gamma_(2K+1) = {den:.3e} <= 0"
        )
    return 2 * K * (gamma_n(2 * M, u, lam) + gamma_n(6 * K + 1, u, lam) / den)


def c_u(M: int, K: int, u: float, lam: float = 1.0) -> float:
    """Forward-error constant for ZF detection: c1_u + sqrt(2K)*gamma_{2M}.

    The detection error satisfies ||dr|| <= c_u * kappa2(H^H H) * ||r||.
    """
    return c1_u(M, K, u, lam) + math.sqrt(2 * K) * gamma_n(2 * M, u, lam)


def c_d(M: int, K: int, u: float, lam: float = 1.0, kappa2=1.0):
    """Forward-error constant for ZF precoding at condition number kappa2.

    c_d = c1*kappa2 + sqrt(2K)*gamma_{2K}*(1 + c1*kappa2) with c1 = c1_u.
    ``kappa2`` may be an array of condition numbers; the result then has
    its shape.
    """
    if np.any(np.asarray(kappa2) < 1.0):
        raise ValueError("kappa2 must be >= 1")
    c1k = c1_u(M, K, u, lam) * kappa2
    return c1k + math.sqrt(2 * K) * gamma_n(2 * K, u, lam) * (1.0 + c1k)


# -- condition-number moments of the Rayleigh Gram matrix --------------------

def _kappa2_samples(M: int, K: int, samples: int, seed) -> np.ndarray:
    """Spectral condition numbers of H^H H for iid CN(0,1) draws of H."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    out = np.empty(samples)
    chunk = max(1, min(samples, (1 << 22) // (M * K)))
    done = 0
    while done < samples:
        c = min(chunk, samples - done)
        H = _noise(rng, (c, M, K))
        G = _gram(H, H)
        del H  # so that the next chunk's draws do not pile up on this one
        if K == 2:
            # closed-form eigenvalues of the 2x2 Hermitian Gram matrix
            a = G[:, 0, 0].real
            d = G[:, 1, 1].real
            mid = 0.5 * (a + d)
            rad = np.sqrt((0.5 * (a - d)) ** 2 + np.abs(G[:, 0, 1]) ** 2)
            out[done : done + c] = (mid + rad) / (mid - rad)
        else:
            w = np.linalg.eigvalsh(G)
            out[done : done + c] = w[:, -1] / w[:, 0]
        done += c
    return out


def _upsilon_quad_k2(M: int) -> float:
    """E{kappa2^2} for K = 2 by adaptive quadrature of the kappa2 density.

    The density of c = kappa2 is f(c) = Z * (c-1)^2 * c^(M-2) / (c+1)^(2M)
    on [1, inf) with Z = Gamma(2M)/(Gamma(M)Gamma(M-1)); the integrand is
    evaluated in log space to stay finite at large M.
    """
    # imported here, so that importing fpmimo does not pay for scipy
    from scipy.integrate import quad
    from scipy.special import gammaln

    logz = gammaln(2 * M) - gammaln(M) - gammaln(M - 1)

    # substitute c = exp(t): log(c - 1) = t + log1p(-e^-t),
    # log(1 + c) = t + log1p(e^-t), plus the Jacobian term t
    def integrand(t, power):
        if t <= 0.0:
            return 0.0
        e = math.exp(-t)
        logf = (
            logz
            + 2.0 * (t + math.log1p(-e))
            + (M - 2) * t
            - 2 * M * (t + math.log1p(e))
            + (power + 1.0) * t
        )
        return math.exp(logf)

    mass, _ = quad(integrand, 0.0, np.inf, args=(0.0,), limit=400)
    if abs(mass - 1.0) > 1e-6:
        raise ArithmeticError(f"condition-number density failed to normalize: {mass}")
    val, _ = quad(integrand, 0.0, np.inf, args=(2.0,), limit=400)
    return val


def upsilon(
    M: int,
    K: int,
    method: str = "monte-carlo",
    samples: int = 100_000,
    seed=0,
) -> float:
    """Second moment of kappa2(H^H H) over Rayleigh channel draws.

    method "monte-carlo" works for any K; "quadrature" integrates the known
    K = 2 condition-number density and rejects other K.
    """
    if M < K + 1:
        raise ValueError("requires M >= K + 1")
    if method not in ("monte-carlo", "quadrature"):
        raise ValueError("method must be 'monte-carlo' or 'quadrature'")
    if K == 1:
        return 1.0  # scalar Gram matrix
    if method == "quadrature":
        if K != 2:
            raise ValueError("quadrature method is available only for K = 2")
        return _upsilon_quad_k2(M)
    kappa = _kappa2_samples(M, K, samples, seed)
    return float(np.mean(kappa**2))


def expected_cd_sq(
    M: int,
    K: int,
    u: float,
    lam: float = 1.0,
    samples: int = 100_000,
    seed=0,
) -> float:
    """Monte Carlo estimate of E{c_d^2} over the kappa2 distribution."""
    kappa = _kappa2_samples(M, K, samples, seed)
    return float(np.mean(c_d(M, K, u, lam, kappa) ** 2))


def lb_sumrate_mu_simo(
    M: int, K: int, rho: float, u: float, lam: float = 1.0, upsilon_value: float = 1.0
) -> RateBoundResult:
    """Multi-user uplink ZF sum-rate lower bound, bits/s/Hz.

    K * log2(1 + rho(M-K) / (1 + c_u^2 * (rho(M-K)+1) * Upsilon)).
    """
    if M < K + 1:
        raise ValueError("requires M >= K + 1")
    if not 0 < rho < math.inf or not 1.0 <= upsilon_value < math.inf:
        raise ValueError("rho must be positive and finite and upsilon finite and >= 1")
    cu = c_u(M, K, u, lam)
    g = rho * (M - K)
    value = K * math.log2(1.0 + g / (1.0 + cu * cu * (g + 1.0) * upsilon_value))
    return RateBoundResult(
        value, components={"c_u": cu, "upsilon": upsilon_value, "M": M, "K": K}
    )


def lb_sumrate_mu_miso(
    M: int, K: int, rho: float, u: float, lam: float = 1.0, expected_cd_sq: float = 0.0
) -> RateBoundResult:
    """Multi-user downlink ZF sum-rate lower bound, bits/s/Hz.

    K * log2(1 + rho(M-K) / (1 + E{c_d^2} * rho * M * K)).
    """
    if M < K + 1:
        raise ValueError("requires M >= K + 1")
    if not 0 < rho < math.inf or not 0.0 <= expected_cd_sq < math.inf:
        raise ValueError("rho must be positive and finite and E{c_d^2} finite and >= 0")
    g = rho * (M - K)
    value = K * math.log2(1.0 + g / (1.0 + expected_cd_sq * rho * M * K))
    return RateBoundResult(
        value, components={"expected_cd_sq": expected_cd_sq, "M": M, "K": K}
    )


class CostCounts(NamedTuple):
    """Operation counts for one m x p block of inner products of length n."""

    sums: float
    mults: float

    @property
    def total(self) -> float:
        return self.sums + self.mults


def cost_model(m: int, n: int, p: int, b: int, G: int) -> dict:
    """Summation/multiplication counts of the three product architectures.

    Keys "C_m" (mixed, block size b, G high-precision groups), "C_l"
    (uniform low), "C_h" (uniform high).  Counts follow the analytical model
    with 2n/b kept as an exact ratio, so they are integers only when b
    divides 2n; the identities C_m(G=1) = C_l and C_m(b=1) = C_h hold
    exactly.
    """
    if min(m, n, p, b, G) < 1:
        raise ValueError("all cost-model arguments must be positive")
    scale = 4 * m * p
    ratio = 2 * n / b
    c_m = CostCounts(scale * (ratio * (G - 1) + 2 * n - G), scale * 2 * G * n)
    c_l = CostCounts(scale * (2 * n - 1), scale * 2 * n)
    c_h = CostCounts(scale * G * (2 * n - 1), scale * 2 * G * n)
    return {"C_m": c_m, "C_l": c_l, "C_h": c_h}


def cost_overhead(n: int, b: int, G: int) -> float:
    """Relative summation overhead of the mixed architecture over uniform low."""
    c = cost_model(1, n, 1, b, G)
    return (c["C_m"].sums - c["C_l"].sums) / c["C_l"].sums
