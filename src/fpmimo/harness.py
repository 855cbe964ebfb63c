"""Monte Carlo experiments: channel generation, rate/error sweeps, CSV output.

Signals and noise are always built in full precision; only the transceiver
computation runs under the configured precision policy.  Inside each trial
the same transceiver algorithm is rerun with a 64-bit policy on the same
pre-rounded inputs (identical summation order), so the measured difference
isolates arithmetic rounding error from input-representation error.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import bounds
from .formats import FP16, FP64, PRESETS, FloatFormat, RangeMode, RoundingMode, get_format
from .kernels import PolicyMode, PrecisionPolicy, _gram, _inner, _noise, _norm, _rounded
from .transceiver import (  # the public four stay here: bench/tracing.py wraps them by name
    _mrt, _zf_detect, _zf_precode, mrc_combine, mrt_precode, zf_detect_ne, zf_precode_ne,
)

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "CSV_COLUMNS",
    "draw_channel",
    "estimate_channel_mmse",
    "run_sweep",
    "verify_bounds",
    "inner_product_violation_study",
    "emit_csv",
    "read_csv",
    "parse_config_file",
    "build_policy",
    "build_config",
]

_SCENARIOS = ("SIMO", "MISO", "MU-SIMO", "MU-MISO")

# Chunks fix the draw stream: each chunk's draws are made whole, at these fixed
# sizes, so the RNG consumption (and thus every result) does not depend on the
# trial count.  Slabs bound memory: the paired transceiver run and the rate
# analysis go over slabs of a chunk's trials, each holding at most
# _SLAB_ENTRIES complex entries (16 MiB) of any per-trial array.
_CHUNK_SINGLE = 1024
_CHUNK_MU = 64
_SLAB_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a scenario, parameter grids, a precision policy, and seeds."""

    scenario: str
    M_grid: tuple
    policy: PrecisionPolicy
    K: int = 4
    rho_grid_db: tuple = (10.0,)
    lam: float = 1.0
    trials: int = 500
    seed: int = 0
    csi: str = "perfect"  # or "mmse"
    csi_T: int = 196
    csi_tau: int | None = None

    def __post_init__(self) -> None:
        counts = {"K": self.K, "trials": self.trials, "seed": self.seed, "csi_T": self.csi_T}
        counts |= {f"M_grid[{i}]": M for i, M in enumerate(self.M_grid)}
        if self.csi_tau is not None:
            counts["csi_tau"] = self.csi_tau
        for name, value in counts.items():
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        # floats, so that a CSV shows them as its header is parsed back
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "rho_grid_db", tuple(map(float, self.rho_grid_db)))
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"scenario must be one of {_SCENARIOS}")
        if self.trials < 1 or not self.M_grid or not len(self.rho_grid_db):
            raise ValueError("trials >= 1 and nonempty grids required")
        if min(self.M_grid) < 1 or self.K < 1:
            raise ValueError("antenna counts and K must be >= 1")
        if self.csi not in ("perfect", "mmse"):
            raise ValueError("csi must be 'perfect' or 'mmse'")
        if self.csi == "mmse" and self.tau < self.K:
            raise ValueError("pilot length tau must be >= K")
        if self.csi == "mmse" and self.tau >= self.csi_T:
            raise ValueError("pilot length tau must be below the coherence length csi_T")
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not all(math.isfinite(r) for r in self.rho_grid_db):
            raise ValueError("rho_grid_db must be finite")
        if self.scenario.startswith("MU") and min(self.M_grid) < self.K + 1:
            raise ValueError(f"M={min(self.M_grid)} too small for K={self.K}")
        if not {self.policy.low, self.policy.high} <= set(PRESETS.values()):
            # a CSV header names its formats, and only a preset's name reads back
            raise ValueError(f"formats must be presets; known: {sorted(PRESETS)}")

    @property
    def tau(self) -> int:
        return self.K if self.csi_tau is None else self.csi_tau


# -- settings: one table of config keys, and their text forms ---------------

def _int_list(text: str):
    return tuple(int(v) for v in str(text).split(","))


def _float_list(text: str):
    return tuple(float(v) for v in str(text).split(","))


def _optional_int(text):
    return None if text in ("", "none") else int(text)


class _Key(NamedTuple):
    field: str  # the ExperimentConfig or PrecisionPolicy field it sets
    parse: Callable  # inverts _show; numeric ones also type-check flags
    choices: tuple | None = None
    help: str | None = None


# Every config key, in the order a sweep CSV's "# key = value" header lists
# them; each is also the flag "--" + key with "_" as "-".
_KEYS = {
    "scenario": _Key("scenario", str, _SCENARIOS),
    "M_grid": _Key("M_grid", _int_list, help="comma-separated antenna counts"),
    "K": _Key("K", int),
    "rho_grid_db": _Key("rho_grid_db", _float_list, help="comma-separated SNRs in dB"),
    "format": _Key("low", get_format, help="working format name"),
    "format_high": _Key("high", get_format),
    "mode": _Key("mode", PolicyMode, tuple(m.value for m in PolicyMode)),
    "block_size": _Key("block_size", int),
    "rounding": _Key("rounding", RoundingMode, tuple(m.value for m in RoundingMode)),
    "range_mode": _Key("range_mode", RangeMode, tuple(m.value for m in RangeMode)),
    "lambda": _Key("lam", float),
    "trials": _Key("trials", int),
    "seed": _Key("seed", int),
    "csi": _Key("csi", str, ("perfect", "mmse")),
    "csi_T": _Key("csi_T", int),
    "csi_tau": _Key("csi_tau", _optional_int),
}
_POLICY_FIELDS = {f.name for f in fields(PrecisionPolicy)}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _show(value) -> str:
    """Text of a setting or CSV cell; the key parsers invert it."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(_show(v) for v in value)
    if isinstance(value, FloatFormat):
        return value.name
    if isinstance(value, Enum):
        return value.value
    return repr(float(value)) if isinstance(value, float) else str(value)


def _shown(*owners) -> dict:
    """Text of every key set by a field of one of ``owners``, in table order."""
    return {
        key: _show(vars(owner)[spec.field])
        for key, spec in _KEYS.items()
        for owner in owners
        if spec.field in vars(owner)
    }


def parse_config_file(path) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def _parsed(values: dict, names) -> dict:
    """Parsed settings of ``values`` for the fields in ``names``, by field."""
    return {
        spec.field: spec.parse(values[key])
        for key, spec in _KEYS.items()
        if key in values and spec.field in names
    }


def build_policy(values: dict) -> PrecisionPolicy:
    """PrecisionPolicy from config/flag settings; unset fields keep defaults, low=fp16."""
    return PrecisionPolicy(**{"low": FP16, **_parsed(values, _POLICY_FIELDS)})


def build_config(values: dict) -> ExperimentConfig:
    """ExperimentConfig from settings; unset fields keep defaults, M_grid=64,128,256."""
    kw = {"M_grid": (64, 128, 256), **_parsed(values, _CONFIG_FIELDS)}
    return ExperimentConfig(policy=build_policy(values), **kw)


@dataclass
class SweepResult:
    """Per-grid-point aggregates of a sweep, ready for CSV serialization."""

    config: ExperimentConfig
    rows: list = field(default_factory=list)


# Sweep CSV columns, in order, with the type ``read_csv`` reads each back as.
_COLUMNS = {
    "scenario": str, "M": int, "K": int, "rho_db": float, "format": str, "mode": str,
    "block_size": int, "lambda": float, "mean_rate": float, "rate_stderr": float,
    "median_rel_err": float, "p99_rel_err": float, "bound_violation_rate": float,
    "breakdown_rate": float, "trials": int, "seed": int,
}
CSV_COLUMNS = list(_COLUMNS)


def draw_channel(M: int, K: int, rng, size=()) -> np.ndarray:
    """iid CN(0, 1) channel matrix of shape size + (M, K), full precision."""
    if M < 1 or K < 1:
        raise ValueError("M and K must be positive")
    return _noise(rng, tuple(size) + (M, K))


def estimate_channel_mmse(H, tau: int, rho: float, rng) -> np.ndarray:
    """MMSE pilot estimate of H with per-entry error variance 1/(tau*rho + 1).

    Hhat = c (H + w) with w iid CN(0, 1/(tau*rho)) and c = tau*rho/(tau*rho+1);
    the estimation error H - Hhat is independent of Hhat with entries
    CN(0, 1/(tau*rho + 1)).
    """
    if tau < 1 or not 0 < rho < math.inf:
        raise ValueError("tau >= 1 and a finite rho > 0 required")
    H = np.asarray(H, dtype=np.complex128)
    p = tau * rho
    w = _noise(rng, H.shape, math.sqrt(2.0 * p))
    np.add(H, w, out=w)
    return np.multiply(p / (p + 1.0), w, out=w)


def _reference_policy(policy: PrecisionPolicy) -> PrecisionPolicy:
    """Same algorithmic path (mode, block size), all rounding disabled."""
    return replace(
        policy,
        low=FP64,
        high=FP64,
        rounding=RoundingMode.NEAREST_EVEN,
        range_mode=RangeMode.UNBOUNDED,
    )


def _unit_symbols(rng, shape):
    return np.exp(2j * np.pi * rng.random(shape))


def _pilot_factor(config: ExperimentConfig) -> float:
    if config.csi == "mmse":
        return (config.csi_T - config.tau) / config.csi_T
    return 1.0


def _paired(name: str, core, inputs, policy: PrecisionPolicy, rng_round, **kw):
    """Round ``inputs`` once, in order, and run the transceiver ``name`` on
    them twice, through its ``core``.

    The rounding (``kernels._rounded``) is ``round_input``'s, and its C pass
    is also the check: a part that is not finite raises ValueError under
    ``name`` once every input is rounded, as at a public entry under
    nearest-even.  The first run is under ``policy`` with the keywords
    ``kw``, the second under ``_reference_policy(policy)``, which rounds and
    draws nothing.  Returns the rounded inputs and the two outputs.
    """
    q = _rounded(name, policy, rng_round, *inputs)
    return q, core(*q, policy, rng_round, **kw), core(*q, _reference_policy(policy))


def _trials(draw, run, trials: int, chunk: int, policy: PrecisionPolicy) -> dict:
    """Run ``trials`` trials in chunks of at most ``chunk``; join the per-trial
    arrays of the dicts that ``run`` returns.

    ``draw(c)`` makes the draws of a chunk of ``c`` trials, a tuple of arrays
    with the trials on their first axis; chunks fix the draw stream.  ``run``
    takes the same slab of trials of each array; slabs bound memory, each
    holding at most ``_SLAB_ENTRIES`` entries of the largest array.  Every
    kernel and reduction works per trial, so under nearest-even a slab gives
    the bits of the whole chunk.  Under stochastic rounding the slab is the
    whole chunk, since each call lays its uniforms out across all its lanes.
    """
    parts = []
    for done in range(0, trials, chunk):
        c = min(chunk, trials - done)
        arrays = draw(c)
        step = c
        if policy.rounding is not RoundingMode.STOCHASTIC:
            step = max(1, _SLAB_ENTRIES // max(a.size // c for a in arrays))
        parts += [run(*(a[i:i + step] for a in arrays)) for i in range(0, c, step)]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def _draw(c, M, rho, config, rng):
    """A chunk's draws, in the stream's order: channel, symbols, the uplink
    noise, and the pilot noise of an MMSE estimate.  Returns the channel, the
    symbols, the noise (uplink only) and the channel the receiver uses."""
    single = config.scenario in ("SIMO", "MISO")
    H = draw_channel(M, 1 if single else config.K, rng, (c,))
    H = H[..., 0] if single else H
    x = _unit_symbols(rng, (c,) if single else (c, config.K))
    noise = (_noise(rng, (c, M)),) if config.scenario.endswith("SIMO") else ()
    Hc = H if config.csi == "perfect" else estimate_channel_mmse(H, config.tau, rho, rng)
    return (H, x, *noise, Hc)


# -- per-scenario slab runs ---------------------------------------------------
# Each takes a slab of _draw's arrays and returns a dict of per-trial arrays:
#   rate        per-trial achievable rate (sum over users), bits/s/Hz
#   rel_err     relative rounding error of the transceiver output
#   err_abs     absolute rounding error (2-norm)
#   scale       lambda-independent factor multiplying the bound constant
#   kappa       spectral condition number of the Gram matrix (MU only)
#   breakdown   Cholesky breakdown flags
# The uplink ones form the received signal in place in the noise array.


def _slab_simo(h, x, noise, comb, rho, config, rng_round):
    z = np.multiply(math.sqrt(rho), h)
    np.multiply(z, x[:, None], out=z)
    z = np.add(z, noise, out=noise)  # the rebinding frees the signal's slab
    (hq, zq), r_fp, r_ref = _paired("mrc_combine", _inner, (comb, z), config.policy, rng_round)
    err = np.abs(np.asarray(r_fp) - np.asarray(r_ref))
    hn = _norm(hq)
    noise_p = hn**2
    if config.csi == "perfect":
        sig = rho * noise_p**2
    else:
        sig = rho * np.abs(_gram(hq[..., None], h[..., None])[..., 0, 0]) ** 2
    sinr = sig / (noise_p + err**2)
    return {
        "rate": np.log2(1.0 + sinr),
        "rel_err": err / np.abs(np.asarray(r_ref)),
        "err_abs": err,
        "scale": hn * _norm(zq),
        "breakdown": np.zeros(len(h), dtype=bool),
    }


def _slab_miso(h, x, comb, rho, config, rng_round):
    hn = comb / _norm(comb)[:, None]
    _, ds, s_ref = _paired("mrt_precode", _mrt, (hn, x), config.policy, rng_round)
    ds -= s_ref  # in place in s_fp, which nothing else reads
    err = _norm(ds)
    # received y = sqrt(rho) h^H s + n with unit-power symbol and noise
    sig = rho * np.abs(_gram(h[..., None], s_ref[..., None])[..., 0, 0]) ** 2
    interference = rho * np.abs(_gram(h[..., None], ds[..., None])[..., 0, 0]) ** 2
    sinr = sig / (interference + 1.0)
    return {
        "rate": np.log2(1.0 + sinr),
        "rel_err": err,  # |x_d| = 1, so this is already the relative measure
        "err_abs": err,
        "scale": np.ones(len(h)),
        "breakdown": np.zeros(len(h), dtype=bool),
    }


def _gain_powers(Geff):
    """Own and cross gain powers of each user: |diagonal|^2 and the rest of its row."""
    diag = np.abs(np.diagonal(Geff, axis1=-2, axis2=-1)) ** 2
    return diag, np.sum(np.abs(Geff) ** 2, axis=-1) - diag


def _zf_result(sinr, d, out_ref, G, breakdown) -> dict:
    """Per-trial dict of a zero-forcing slab, with the reference norm as ``scale``."""
    err = _norm(d)
    ref_norm = _norm(out_ref)
    return {
        "rate": np.sum(np.log2(1.0 + sinr), axis=-1),
        "rel_err": err / ref_norm,
        "err_abs": err,
        "scale": ref_norm,
        "kappa": np.linalg.cond(G, 2),
        "ref_norm": ref_norm,
        "breakdown": breakdown,
    }


def _slab_mu_simo(H, x, noise, Hc, rho, config, rng_round):
    z = np.einsum("cmk,ck->cm", H, x)
    np.multiply(math.sqrt(rho), z, out=z)
    z = np.add(z, noise, out=noise)  # the rebinding frees the signal's slab
    (Hq, _), (r_fp, breakdown), r_ref = _paired(
        "zf_detect_ne", _zf_detect, (Hc, z), config.policy, rng_round, error="mask"
    )
    dr = r_fp - r_ref
    G = _gram(Hq, Hq)
    dinv = np.diagonal(np.linalg.inv(G), axis1=-2, axis2=-1).real
    if config.csi == "perfect":
        sinr = rho / (dinv + np.abs(dr) ** 2)
    else:
        diag, cross = _gain_powers(np.linalg.solve(G, _gram(Hq, H)))
        sinr = rho * diag / (rho * cross + dinv + np.abs(dr) ** 2)
    out = _zf_result(sinr, dr, r_ref, G, breakdown)
    out["scale"] = out["kappa"] * out["ref_norm"]  # the bound constant c_u carries no kappa
    return out


def _slab_mu_miso(H, x, Hc, rho, config, rng_round):
    (Hq, _), (s_fp, breakdown), s_ref = _paired(
        "zf_precode_ne", _zf_precode, (Hc, x), config.policy, rng_round, error="mask"
    )
    ds = s_fp - s_ref
    beta = H.shape[-2] - config.K
    leak = rho * np.abs(_gram(H, ds[..., None])[..., 0]) ** 2
    G = _gram(Hq, Hq)
    if config.csi == "perfect":
        sinr = rho * beta / (leak + 1.0)
    else:
        # effective gain of user k from the precoder built on the estimate
        S = np.linalg.solve(G, _gram(Hq, H))
        diag, cross = _gain_powers(np.swapaxes(S, -1, -2).conj())
        sinr = rho * beta * diag / (rho * beta * cross + leak + 1.0)
    return _zf_result(sinr, ds, s_ref, G, breakdown)  # the bound constant c_d carries kappa


_SLABS = {
    "SIMO": _slab_simo,
    "MISO": _slab_miso,
    "MU-SIMO": _slab_mu_simo,
    "MU-MISO": _slab_mu_miso,
}


def _collect_point(config: ExperimentConfig, M: int, rho: float, grid_index: int):
    """Run all trials of one grid point; returns concatenated per-trial arrays."""
    ss = np.random.SeedSequence(config.seed, spawn_key=(grid_index,))
    ss_draw, ss_round = ss.spawn(2)
    rng = np.random.default_rng(ss_draw)
    rng_round = np.random.default_rng(ss_round)
    chunk = _CHUNK_MU if config.scenario.startswith("MU") else _CHUNK_SINGLE
    run = _SLABS[config.scenario]
    return _trials(
        lambda c: _draw(c, M, rho, config, rng),
        lambda *slab: run(*slab, rho, config, rng_round),
        config.trials, chunk, config.policy,
    )


def _grid(config: ExperimentConfig):
    """Yield (M, rho_db, per-trial data) for every grid point, M-major."""
    points = itertools.product(config.M_grid, config.rho_grid_db)
    for gi, (M, rho_db) in enumerate(points):
        yield M, rho_db, _collect_point(config, M, 10.0 ** (rho_db / 10.0), gi)


def _bound_constant(config: ExperimentConfig, M: int, lam: float, kappa=None):
    """Per-trial bound on err_abs, divided by the recorded scale factor."""
    u = config.policy.working.unit_roundoff
    scen = config.scenario
    if scen == "SIMO":
        return bounds.delta_simo(M, u, lam)
    if scen == "MISO":
        return bounds.delta_miso(u, lam)
    if scen == "MU-SIMO":
        return bounds.c_u(M, config.K, u, lam)
    # MU-MISO: the constant depends on the per-trial condition number
    return bounds.c_d(M, config.K, u, lam, kappa)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Monte Carlo rate/error statistics over the (M, rho) grid."""
    result = SweepResult(config)
    policy = config.policy
    if policy.mode is PolicyMode.MIXED:
        fmt_name = f"{policy.low.name}+{policy.high.name}"
    else:
        fmt_name = policy.working.name
    pilot = _pilot_factor(config)
    for M, rho_db, data in _grid(config):
        ok = ~data["breakdown"]
        n_ok = int(np.sum(ok))
        rate = pilot * data["rate"][ok]
        rel = data["rel_err"][ok]
        const = _bound_constant(config, M, config.lam, data.get("kappa"))
        viol = data["err_abs"] > np.asarray(const) * data["scale"]
        row = {
            "scenario": config.scenario,
            "M": M,
            "K": 1 if config.scenario in ("SIMO", "MISO") else config.K,
            "rho_db": rho_db,
            "format": fmt_name,
            "mode": policy.mode.value,
            "block_size": policy.block_size if policy.mode is PolicyMode.MIXED else 0,
            "lambda": config.lam,
            "mean_rate": float(np.mean(rate)) if n_ok else 0.0,
            "rate_stderr": float(np.std(rate) / math.sqrt(n_ok)) if n_ok else 0.0,
            "median_rel_err": float(np.median(rel)) if n_ok else math.nan,
            "p99_rel_err": float(np.percentile(rel, 99)) if n_ok else math.nan,
            "bound_violation_rate": float(np.mean(viol[ok])) if n_ok else math.nan,
            "breakdown_rate": float(np.mean(data["breakdown"])),
            "trials": config.trials,
            "seed": config.seed,
        }
        result.rows.append(row)
    return result


def verify_bounds(config: ExperimentConfig, lambdas=(0.5, 1.0, 3.0)) -> list:
    """Empirical failure rate of the probabilistic error bound per lambda.

    Returns one report dict per grid point with violation rates for each
    lambda and, for the single-user scenarios, the deterministic worst-case
    variant (which should never be violated).
    """
    for lam in lambdas:
        bounds._check_lam(lam)
    reports = []
    u = config.policy.working.unit_roundoff
    for M, rho_db, data in _grid(config):
        ok = ~data["breakdown"]
        err = data["err_abs"][ok]
        scale = data["scale"][ok]
        kappa = data["kappa"][ok] if "kappa" in data else None
        rates = {}
        for lam in lambdas:
            const = _bound_constant(config, M, lam, kappa)
            rates[lam] = float(np.mean(err > np.asarray(const) * scale))
        det = None
        if config.scenario in ("SIMO", "MISO"):
            n_red = 2 * M if config.scenario == "SIMO" else 2
            det = float(np.mean(err > bounds._det_constant(n_red, u) * scale))
        reports.append(
            {
                "scenario": config.scenario,
                "M": M,
                "rho_db": rho_db,
                "violation_rates": rates,
                "deterministic_violation_rate": det,
                "trials": int(np.sum(ok)),
            }
        )
    return reports


def inner_product_violation_study(
    n: int,
    policy: PrecisionPolicy,
    trials: int = 10_000,
    seed: int = 0,
    lambdas=(0.5, 1.0, 3.0),
) -> dict:
    """Violation rates of the inner-product error bound on random unit vectors.

    Checks |fl(a^H b) - a^H b| <= sqrt(2) gamma_{2n}(lambda) ||a|| ||b|| per
    trial for each lambda, plus the deterministic 2n*u/(1 - 2n*u) variant.
    """
    if n < 1 or trials < 1:
        raise ValueError("n >= 1 and trials >= 1 required")
    for lam in lambdas:
        bounds._check_lam(lam)
    ss = np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    rng_round = np.random.default_rng(ss.spawn(1)[0])
    u = policy.working.unit_roundoff

    def draw(c):
        return draw_channel(n, 1, rng, (c,))[..., 0], draw_channel(n, 1, rng, (c,))[..., 0]

    def run(a, b):
        a /= _norm(a)[:, None]
        b /= _norm(b)[:, None]
        (aq, bq), s_fp, s_ref = _paired("inner_product_fp", _inner, (a, b), policy, rng_round)
        norms = _norm(aq) * _norm(bq)
        return {"err": np.abs(s_fp - s_ref) / norms}

    err = _trials(draw, run, trials, _CHUNK_SINGLE, policy)["err"]
    rates = {
        lam: float(np.mean(err > bounds.delta_simo(n, u, lam)))
        for lam in lambdas
    }
    det = float(np.mean(err > bounds._det_constant(2 * n, u)))
    return {"n": n, "trials": trials, "violation_rates": rates, "deterministic": det}


# -- CSV serialization -------------------------------------------------------

def emit_csv(result: SweepResult, path) -> None:
    """Write one row per grid point under the config that made them.

    The ``# key = value`` header lists every config key; with the ``# ``
    stripped it is a config file from which ``build_config`` (and so
    ``fpmimo sweep --config``) builds this config again.
    """
    cfg = result.config
    lines = [f"# {key} = {text}" for key, text in _shown(cfg, cfg.policy).items()]
    lines.append(",".join(CSV_COLUMNS))
    lines += [",".join(_show(row[c]) for c in CSV_COLUMNS) for row in result.rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> list:
    """Parse a sweep CSV back into a list of row dicts (inverse of emit_csv)."""
    with open(path) as fh:
        lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
    header = lines[0].split(",") if lines else []
    return [{n: _COLUMNS[n](c) for n, c in zip(header, line.split(","))} for line in lines[1:]]
