import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fpmimo.harness as harness
from fpmimo.formats import FP16, FP32, FP64, FloatFormat, RoundingMode
from fpmimo.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    draw_channel,
    emit_csv,
    estimate_channel_mmse,
    inner_product_violation_study,
    read_csv,
    run_sweep,
    verify_bounds,
)
from fpmimo.kernels import (
    PrecisionPolicy, _noise, _norm, _settled, inner_product_fp, matvec_fp, round_input,
)
from fpmimo.transceiver import mrt_precode

POL16 = PrecisionPolicy.uniform(FP16)
POL64 = PrecisionPolicy.uniform(FP64)


class TestDrawChannel:
    def test_column_power(self):
        rng = np.random.default_rng(0)
        H = draw_channel(64, 4, rng, (2000,))
        col_power = np.mean(np.linalg.norm(H[:, :, 0], axis=-1) ** 2)
        assert col_power == pytest.approx(64, rel=0.02)

    def test_gram_inverse_trace(self):
        # E{tr((H^H H)^-1)} = K/(M-K) for the complex Wishart inverse
        rng = np.random.default_rng(1)
        M, K = 32, 4
        H = draw_channel(M, K, rng, (5000,))
        G = np.einsum("smk,sml->skl", H.conj(), H)
        tr = np.trace(np.linalg.inv(G), axis1=-2, axis2=-1).real
        assert np.mean(tr) == pytest.approx(K / (M - K), rel=0.05)

    def test_reproducible(self):
        a = draw_channel(8, 2, np.random.default_rng(3), (4,))
        b = draw_channel(8, 2, np.random.default_rng(3), (4,))
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            draw_channel(0, 1, np.random.default_rng(0))


class TestMmseEstimate:
    def test_error_variance(self):
        rng = np.random.default_rng(4)
        tau, rho = 4, 10.0
        H = draw_channel(32, 4, rng, (2000,))
        Hh = estimate_channel_mmse(H, tau, rho, rng)
        err_var = np.mean(np.abs(H - Hh) ** 2)
        assert err_var == pytest.approx(1 / (tau * rho + 1), rel=0.05)  # 1/41

    def test_error_independent_of_estimate(self):
        rng = np.random.default_rng(5)
        H = draw_channel(16, 2, rng, (20000,))
        Hh = estimate_channel_mmse(H, 4, 10.0, rng)
        err = (H - Hh).ravel()
        est = Hh.ravel()
        corr = np.abs(np.mean(err * est.conj())) / (np.std(err) * np.std(est))
        assert corr < 0.02

    def test_high_snr_limit(self):
        rng = np.random.default_rng(6)
        H = draw_channel(8, 2, rng, (100,))
        Hh = estimate_channel_mmse(H, 4, 1e9, rng)
        assert np.max(np.abs(H - Hh)) < 1e-3

    def test_bits_and_state_of_the_expression_with_temporaries(self):
        # 65536 entries: each part's draw is split over the C core's threads
        H = draw_channel(256, 4, np.random.default_rng(8), (64,))
        H_in = H.copy()
        tau, rho = 4, 10.0
        rng, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        Hh = estimate_channel_mmse(H, tau, rho, rng)
        p = tau * rho
        ref = (p / (p + 1.0)) * (H + _noise(rng_ref, H.shape, math.sqrt(2.0 * p)))
        assert (Hh.dtype, Hh.shape, Hh.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert H.tobytes() == H_in.tobytes()  # the caller's channel is not written into

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_snr_outside_positive_finite_before_drawing(self, rho):
        rng = np.random.default_rng(7)
        H = draw_channel(8, 2, rng, (3,))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="rho"):
            estimate_channel_mmse(H, 4, rho, rng)
        assert rng.bit_generator.state == state


class TestRunSweep:
    def test_fp64_simo_closed_form(self):
        cfg = ExperimentConfig("SIMO", (100,), POL64, trials=2000, lam=3.0)
        row = run_sweep(cfg).rows[0]
        assert row["mean_rate"] == pytest.approx(math.log2(1 + 10.0 * 100), rel=0.02)
        assert row["median_rel_err"] == 0.0
        assert row["bound_violation_rate"] == 0.0
        assert row["breakdown_rate"] == 0.0

    def test_fp64_mu_miso_exact(self):
        M, K = 64, 4
        cfg = ExperimentConfig("MU-MISO", (M,), POL64, K=K, trials=50)
        row = run_sweep(cfg).rows[0]
        assert row["mean_rate"] == pytest.approx(K * math.log2(1 + 10.0 * (M - K)), rel=1e-9)

    def test_reproducible(self):
        cfg = ExperimentConfig("MU-SIMO", (32,), POL16, trials=60, seed=9)
        r1 = run_sweep(cfg).rows
        r2 = run_sweep(cfg).rows
        assert r1 == r2

    @pytest.mark.parametrize("scenario", ["SIMO", "MISO", "MU-SIMO", "MU-MISO"])
    def test_stochastic_reproducible(self, scenario):
        pol = PrecisionPolicy.uniform(FP16, rounding=RoundingMode.STOCHASTIC)
        cfg = ExperimentConfig(scenario, (16,), pol, K=2, trials=20, seed=4)
        rows = run_sweep(cfg).rows
        assert rows == run_sweep(cfg).rows
        assert math.isfinite(rows[0]["mean_rate"])

    def test_row_schema(self):
        cfg = ExperimentConfig("MISO", (16, 32), POL16, trials=20, rho_grid_db=(0.0, 10.0))
        rows = run_sweep(cfg).rows
        assert len(rows) == 4
        for row in rows:
            assert list(row) == CSV_COLUMNS

    def test_mixed_mode_row_labels(self):
        mix = PrecisionPolicy.mixed(FP16, FP32, 32)
        cfg = ExperimentConfig("SIMO", (64,), mix, trials=20)
        row = run_sweep(cfg).rows[0]
        assert row["format"] == "fp16+fp32"
        assert row["mode"] == "mixed"
        assert row["block_size"] == 32

    def test_imperfect_below_perfect(self):
        cfg_p = ExperimentConfig("MU-SIMO", (64,), POL64, trials=100)
        cfg_i = ExperimentConfig("MU-SIMO", (64,), POL64, trials=100, csi="mmse")
        assert run_sweep(cfg_i).rows[0]["mean_rate"] < run_sweep(cfg_p).rows[0]["mean_rate"]

    def test_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            ExperimentConfig("UPLINK", (8,), POL16)
        with pytest.raises(ValueError, match="tau"):
            ExperimentConfig("MU-SIMO", (8,), POL16, K=4, csi="mmse", csi_tau=2)
        with pytest.raises(ValueError, match="too small"):
            run_sweep(ExperimentConfig("MU-SIMO", (4,), POL16, K=4, trials=5))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_lambda(self, lam):
        with pytest.raises(ValueError, match="lam"):
            ExperimentConfig("SIMO", (8,), POL16, lam=lam)

    @pytest.mark.parametrize("rho_db", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_snr(self, rho_db):
        with pytest.raises(ValueError, match="rho_grid_db"):
            ExperimentConfig("SIMO", (8,), POL16, rho_grid_db=(10.0, rho_db))

    def test_rejects_pilots_filling_the_coherence_block(self):
        ExperimentConfig("MU-SIMO", (8,), POL16, K=4, csi="mmse", csi_tau=195)
        for tau in (196, 300):
            with pytest.raises(ValueError, match="csi_T"):
                ExperimentConfig("MU-SIMO", (8,), POL16, K=4, csi="mmse", csi_tau=tau)

    def test_rejects_small_mu_array_at_construction(self):
        ExperimentConfig("MU-MISO", (5, 64), POL16, K=4)
        with pytest.raises(ValueError, match="M=4 too small for K=4"):
            ExperimentConfig("MU-MISO", (64, 4), POL16, K=4)

    def test_rejects_nonpositive_antenna_count_at_construction(self):
        with pytest.raises(ValueError, match="antenna counts"):
            ExperimentConfig("SIMO", (16, 0), POL16)

    def test_rejects_nonpositive_user_count(self):
        with pytest.raises(ValueError, match="K must be >= 1"):
            ExperimentConfig("SIMO", (16,), POL16, K=0)

    @pytest.mark.parametrize("kw", [
        {"trials": 2.5}, {"K": 2.5}, {"seed": 1.5}, {"M_grid": (8, 16.0)},
        {"csi": "mmse", "csi_T": 10.5}, {"csi": "mmse", "csi_tau": 4.5}, {"trials": "3"},
    ], ids=str)
    def test_rejects_non_integer_counts(self, kw):
        name = next(k for k in kw if k != "csi")
        with pytest.raises(ValueError, match=f"{name}.* must be an integer"):
            ExperimentConfig(**{"scenario": "SIMO", "M_grid": (8,), "policy": POL16, **kw})

    def test_numpy_integers_are_counts(self, tmp_path):
        i = np.int64
        config = ExperimentConfig("MU-SIMO", (i(8),), POL16, K=i(2), trials=i(3), seed=i(1),
                                  csi="mmse", csi_T=i(20), csi_tau=i(4))
        plain = ExperimentConfig("MU-SIMO", (8,), POL16, K=2, trials=3, seed=1,
                                 csi="mmse", csi_T=20, csi_tau=4)
        for name, cfg in (("numpy", config), ("plain", plain)):
            emit_csv(run_sweep(cfg), tmp_path / f"{name}.csv")
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_rejects_non_preset_formats(self):
        # its CSV header would name a format that build_config cannot read back
        e4m3 = FloatFormat("e4m3", 4, -6, 8)
        for policy in (
            PrecisionPolicy.uniform(e4m3),
            PrecisionPolicy(low=e4m3),
            PrecisionPolicy.mixed(FP16, e4m3, 8),
            PrecisionPolicy(low=FP16, high=FloatFormat("fp64", 53, -1022, 1000)),
        ):
            with pytest.raises(ValueError, match="presets; known.*bfloat16.*fp16.*fp32.*fp64"):
                ExperimentConfig("SIMO", (16,), policy)
        rebuilt = PrecisionPolicy.uniform(FloatFormat("fp16", 11, -14, 15))
        assert ExperimentConfig("SIMO", (16,), rebuilt).policy == POL16


class TestVerifyBounds:
    def test_lambda_ordering_and_fp64(self):
        cfg = ExperimentConfig("SIMO", (100,), POL16, trials=500)
        rep = verify_bounds(cfg)[0]
        rates = rep["violation_rates"]
        assert rates[0.5] >= rates[1.0] >= rates[3.0]
        assert rep["deterministic_violation_rate"] == 0.0
        cfg64 = ExperimentConfig("SIMO", (100,), POL64, trials=200)
        rep64 = verify_bounds(cfg64)[0]
        assert all(v == 0.0 for v in rep64["violation_rates"].values())

    def test_mu_reports(self):
        cfg = ExperimentConfig("MU-SIMO", (32,), POL16, trials=100)
        rep = verify_bounds(cfg)[0]
        assert set(rep["violation_rates"]) == {0.5, 1.0, 3.0}
        assert rep["deterministic_violation_rate"] is None

    def test_inner_study(self):
        rep = inner_product_violation_study(200, POL16, trials=300, seed=1)
        assert rep["deterministic"] == 0.0
        r = rep["violation_rates"]
        assert r[0.5] >= r[1.0] >= r[3.0]

    @pytest.mark.parametrize("n", [0, -1])
    def test_inner_study_rejects_nonpositive_length(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            inner_product_violation_study(n, POL16, trials=10)

    def test_inner_study_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials >= 1"):
            inner_product_violation_study(8, POL16, trials=0)

    @pytest.mark.parametrize("lambdas", [(1.0, 0.0), (-1.0,), (math.nan,), (1.0, math.inf)],
                             ids=str)
    def test_lambdas_are_checked_before_any_trial(self, monkeypatch, lambdas):
        def no_trials(*args):
            raise AssertionError("a trial ran before the lambdas were checked")

        monkeypatch.setattr(harness, "_trials", no_trials)
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            verify_bounds(ExperimentConfig("SIMO", (8,), POL16, trials=5), lambdas)
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            inner_product_violation_study(8, POL16, trials=5, lambdas=lambdas)


class TestCsv:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig("SIMO", (16, 32), POL16, trials=30, seed=5)
        result = run_sweep(cfg)
        path = tmp_path / "out.csv"
        emit_csv(result, path)
        rows = read_csv(path)
        assert rows == result.rows

    def test_header_contains_seed_and_config(self, tmp_path):
        cfg = ExperimentConfig("MISO", (16,), POL16, trials=10, seed=77)
        path = tmp_path / "out.csv"
        emit_csv(run_sweep(cfg), path)
        text = path.read_text()
        assert "# seed = 77" in text
        assert "# scenario = MISO" in text
        assert text.count("\n# ") >= 10

    def test_bit_identical_for_fixed_seed(self, tmp_path):
        cfg = ExperimentConfig("MU-MISO", (16,), POL16, trials=25, seed=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), p1)
        emit_csv(run_sweep(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


# The core through which the harness runs each transceiver.
_CORES = {"mrc_combine": "_inner", "mrt_precode": "_mrt", "zf_detect_ne": "_zf_detect",
          "zf_precode_ne": "_zf_precode", "inner_product_fp": "_inner"}


@pytest.mark.parametrize("rounding", [RoundingMode.NEAREST_EVEN, RoundingMode.STOCHASTIC])
@pytest.mark.parametrize(
    "scenario, name",
    [
        ("SIMO", "mrc_combine"),
        ("MISO", "mrt_precode"),
        ("MU-SIMO", "zf_detect_ne"),
        ("MU-MISO", "zf_precode_ne"),
        ("study", "inner_product_fp"),
    ],
)
def test_reference_run_repeats_policy_run(monkeypatch, scenario, name, rounding):
    """Each policy run is followed by an fp64 run on byte-identical inputs,
    both through the core of the transceiver ``name``."""
    policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
    core = _CORES[name]
    inner = getattr(harness, core)
    signature = inspect.signature(inner)
    calls = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        # the inputs: ``out`` is the pooled buffer each run writes its result into
        arrays = {k: v.copy() for k, v in bound.items()
                  if isinstance(v, np.ndarray) and k != "out"}
        calls.append((arrays, bound["policy"]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, core, spy)
    if scenario == "study":
        inner_product_violation_study(16, policy, trials=8)
    else:
        run_sweep(ExperimentConfig(scenario, (16,), policy, K=2, trials=8))
    assert calls and len(calls) % 2 == 0
    for (arrays, pol), (ref_arrays, ref_pol) in zip(calls[::2], calls[1::2]):
        assert pol == policy
        assert ref_pol == harness._reference_policy(policy)
        assert arrays and arrays.keys() == ref_arrays.keys()
        for key, a in arrays.items():
            b = ref_arrays[key]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("scenario", ["SIMO", "MISO", "MU-SIMO", "MU-MISO", "study"])
def test_paired_runs_pass_over_no_m_entry_operand_beyond_the_rounding(
        monkeypatch, roundings, scenario, rounding):
    """The paired run's rounding (``_rounded``) is its inputs' one pass, and
    their check, under either rounding mode: no other pass over an M-entry
    operand follows.  The zero-forcing runs round their K-sized Gram, and c
    in detection, the reference run included."""
    M = 20
    policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
    rounded, paired = harness._rounded, set()

    def spy(*args, **kwargs):
        start = len(roundings)
        out = rounded(*args, **kwargs)
        paired.update(range(start, len(roundings)))
        return out

    monkeypatch.setattr(harness, "_rounded", spy)
    if scenario == "study":
        inner_product_violation_study(M, policy, trials=8)
    else:
        run_sweep(ExperimentConfig(scenario, (M,), policy, K=2, trials=8))
    beyond = [(shape, drawn) for i, (_, shape, drawn) in enumerate(roundings) if i not in paired]
    assert paired
    assert [shape for shape, _ in beyond if M in shape] == []
    assert any(not drawn for _, drawn in beyond) == scenario.startswith("MU")


@pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
def test_paired_rejects_a_non_finite_input_with_the_generator_untouched(rounding):
    """A NaN in the first input raises under the transceiver's name, under
    stochastic rounding before any draw."""
    rng = np.random.default_rng(21)
    a, b = (rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16)) for _ in range(2))
    a[0, 0] = math.nan
    policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
    g = np.random.default_rng(5)
    before = g.bit_generator.state
    with pytest.raises(ValueError, match="^mrc_combine requires finite input$"):
        harness._paired("mrc_combine", harness._inner, (a, b), policy, g)
    assert g.bit_generator.state == before


@pytest.mark.parametrize(
    "policy", [PrecisionPolicy.uniform(FP16, rounding=RoundingMode.STOCHASTIC),
               PrecisionPolicy.mixed(FP16, FP32, 4, rounding=RoundingMode.STOCHASTIC)],
    ids=["fp16-stochastic", "fp16+fp32-b4-stochastic"],
)
@pytest.mark.parametrize("name", ["mrc_combine", "mrt_precode", "zf_detect_ne", "zf_precode_ne"])
def test_public_call_equals_the_paired_run(name, policy):
    """A public transceiver enters its operands as the paired run does and
    computes in the same core, so its bytes and the generator's end state
    are those of the paired run's policy run."""
    rng = np.random.default_rng(23)
    lanes, M, K = 5, 24, 3

    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h = c(lanes, M)
    inputs = {
        "mrc_combine": (h, c(lanes, M)),
        "mrt_precode": (h / np.linalg.norm(h, axis=-1, keepdims=True), c(lanes)),
        "zf_detect_ne": (c(lanes, M, K), c(lanes, M)),
        "zf_precode_ne": (c(lanes, M, K), c(lanes, K)),
    }[name]
    kw = dict(prenormalized=True) if name == "mrt_precode" else {}
    g, want = np.random.default_rng(9), np.random.default_rng(9)
    got = getattr(harness, name)(*inputs, policy, g, **kw)
    _, out, _ = harness._paired(name, getattr(harness, _CORES[name]), inputs, policy, want)
    if name.startswith("zf"):  # the public call settles the breakdown as the harness does
        out = _settled(out, K, "raise")
    assert (got.dtype, got.shape, got.tobytes()) == (out.dtype, out.shape, out.tobytes())
    assert g.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
def test_normalizing_mrt_equals_the_slab_path(rounding):
    """``mrt_precode`` normalizes h as ``_slab_miso`` does, by ``_norm``, so
    the public call gives the bytes and generator end state of the slab's
    path: the unit rows of ``_norm(h, unit=)``, then the paired run's policy
    run."""
    rng = np.random.default_rng(24)
    h = rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))
    x = np.exp(2j * np.pi * rng.random(6))
    policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
    g, want = np.random.default_rng(9), np.random.default_rng(9)
    got = harness.mrt_precode(h, x, policy, g)
    hn = np.empty_like(h)
    _norm(h, unit=hn)
    _, out, _ = harness._paired("mrt_precode", harness._mrt, (hn, x), policy, want)
    assert (got.dtype, got.shape, got.tobytes()) == (out.dtype, out.shape, out.tobytes())
    assert g.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["zf_detect_ne", "zf_precode_ne"])
def test_paired_overflowing_gram_raises_at_the_factor(name, rounding):
    """With H near 1e154 the Gram overflows the carrier; the factor's check
    of it raises under the transceiver's name in the paired run as in the
    public transceiver."""
    rng = np.random.default_rng(22)
    lanes, M, K = 3, 16, 2
    H = 1e154 * (rng.standard_normal((lanes, M, K)) + 1j * rng.standard_normal((lanes, M, K)))
    y = rng.standard_normal((lanes, M if name == "zf_detect_ne" else K)) + 0.5j
    policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
    core = getattr(harness, _CORES[name])
    with pytest.raises(ValueError, match=f"^{name} requires finite input$"):
        harness._paired(name, core, (H, y), policy, np.random.default_rng(3))


# -- slabs: the per-slab run gives the bits of the whole chunk ---------------

POL_MIXED = PrecisionPolicy.mixed(FP16, FP32, 8)
POL_SR = PrecisionPolicy.uniform(FP16, rounding=RoundingMode.STOCHASTIC)
_SLAB_VARIANTS = {
    "fp16": dict(policy=POL16),
    "mixed-b8": dict(policy=POL_MIXED),
    "mmse": dict(policy=POL16, csi="mmse"),
}


def _slab_run(monkeypatch, entries: int, work):
    """``work()`` with slabs of at most ``entries`` entries; returns its
    result and the trial count of every slab, in order."""
    sizes = []
    trials = harness._trials

    def counted_trials(draw, run, *rest):
        def counted(*slab):
            sizes.append(len(slab[0]))
            return run(*slab)

        return trials(draw, counted, *rest)

    with monkeypatch.context() as m:
        m.setattr(harness, "_SLAB_ENTRIES", entries)
        m.setattr(harness, "_trials", counted_trials)
        return work(), sizes


def _slab_sizes(trials: int, chunk: int, slab: int, points: int = 1) -> list:
    """The slab sizes of ``points`` grid points with ``trials`` trials each."""
    one = []
    for done in range(0, trials, chunk):
        c = min(chunk, trials - done)
        one += [min(slab, c - i) for i in range(0, c, slab)]
    return one * points


def _csv_bytes(cfg, path) -> bytes:
    emit_csv(run_sweep(cfg), path)
    return path.read_bytes()


@pytest.mark.parametrize("variant", list(_SLAB_VARIANTS))
@pytest.mark.parametrize("scenario", ["SIMO", "MISO", "MU-SIMO", "MU-MISO"])
def test_slabs_give_the_bytes_of_the_whole_chunk(monkeypatch, tmp_path, scenario, variant):
    """Slabs of 1 trial, of 7 (the last one ragged) and of the whole chunk
    write the same sweep CSV; the MU points span two chunks (64 + 6)."""
    mu = scenario.startswith("MU")
    M, trials = (16, 70) if mu else (24, 20)
    chunk = harness._CHUNK_MU if mu else harness._CHUNK_SINGLE
    cfg = ExperimentConfig(scenario, (M,), K=2, rho_grid_db=(0.0, 10.0), trials=trials,
                           seed=3, **_SLAB_VARIANTS[variant])
    entries = M * cfg.K if mu else M  # per trial, of the largest array: the channel
    outputs, sizes = {}, {}
    for slab in (1, 7, chunk):
        outputs[slab], sizes[slab] = _slab_run(
            monkeypatch, slab * entries, lambda: _csv_bytes(cfg, tmp_path / f"{slab}.csv"))
    assert outputs[1] == outputs[chunk]
    assert outputs[7] == outputs[chunk]
    for slab, seen in sizes.items():
        assert seen == _slab_sizes(trials, chunk, slab, points=2)


@pytest.mark.parametrize("policy", [POL16, POL_MIXED], ids=["fp16", "mixed-b8"])
def test_slabs_give_the_inner_study_of_the_whole_chunk(monkeypatch, policy):
    n, trials = 16, 20
    outputs, sizes = {}, {}
    for slab in (1, 7, harness._CHUNK_SINGLE):
        outputs[slab], sizes[slab] = _slab_run(
            monkeypatch, slab * n,
            lambda: inner_product_violation_study(n, policy, trials=trials, seed=2))
    assert outputs[1] == outputs[7] == outputs[harness._CHUNK_SINGLE]
    for slab, seen in sizes.items():
        assert seen == _slab_sizes(trials, harness._CHUNK_SINGLE, slab)


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("scenario", ["SIMO", "MISO", "MU-SIMO", "MU-MISO"])
def test_stochastic_runs_whole_chunks_under_any_slab_budget(monkeypatch, tmp_path, scenario):
    """Each stochastic call lays its uniforms out across the whole chunk, so
    the slab is the chunk, whatever the budget, and the golden bytes hold."""
    mu = scenario.startswith("MU")
    grid = dict(M_grid=(8, 16), K=2) if mu else dict(M_grid=(16, 64))
    cfg = ExperimentConfig(scenario, policy=POL_SR, rho_grid_db=(0.0, 10.0), trials=16,
                           seed=0, **grid)
    golden = (_GOLDEN / f"{scenario.lower()}_stochastic.csv").read_bytes()
    for entries in (1, 7 * 16):
        out, sizes = _slab_run(monkeypatch, entries, lambda: _csv_bytes(cfg, tmp_path / "sr.csv"))
        assert out == golden
        assert sizes == [16] * 4
    study, sizes = _slab_run(monkeypatch, 1,
                             lambda: inner_product_violation_study(16, POL_SR, trials=20, seed=2))
    assert sizes == [20]
    assert study == inner_product_violation_study(16, POL_SR, trials=20, seed=2)


# -- the pool: reused full-size arrays, one set per thread ------------------

def _in_fresh_thread(fn):
    """``fn()`` on a new thread, whose pool starts empty; its result, or its
    exception raised here."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result(timeout=600)


def _pool_bytes() -> int:
    return sum(b.nbytes for b in harness._POOL.buffers.values())


def test_point_memory_is_its_draws_plus_a_few_slabs():
    """A MISO point at M = 10000 holds the 1024-trial chunk's 164 MB channel
    and a few slab-sized arrays, not five chunk-sized arrays (about 820 MB),
    and keeps them pooled when it returns, since they fit in _POOL_KEPT.

    numpy reports its buffers to ``tracemalloc``, so the peak does not
    depend on the host's allocator.  It is about 230 MB when ``_normal``
    splits the channel's draws over the C core's threads and 246 MB on one
    thread, where each part passes through one more 82 MB array.  The point
    runs on a fresh thread, so its pool starts cold whatever ran before.
    """
    M, trials = 10_000, 1024
    cfg = ExperimentConfig("MISO", (M,), POL16, trials=trials)

    def point():
        tracemalloc.start()
        try:
            harness._collect_point(cfg, M, 10.0, 0)
            return tracemalloc.get_traced_memory()[1], _pool_bytes()
        finally:
            tracemalloc.stop()

    peak, kept = _in_fresh_thread(point)
    assert peak < 260e6
    assert 200e6 < kept <= harness._POOL_KEPT  # the chunk's channel and four slabs


def test_a_pool_past_its_bound_is_released_when_the_point_returns(monkeypatch):
    """A stochastic point's slab is its whole chunk: at M = 10000 and 512
    trials its channel, direction, rounded direction and the two MRT
    outputs are five 82 MB arrays, past _POOL_KEPT, so the thread lets go
    of them when the point returns."""
    M = 10_000
    cfg = ExperimentConfig("MISO", (M,), POL_SR, trials=512)
    pooled, largest = harness._pooled, []

    def spy(role, shape):
        out = pooled(role, shape)
        largest.append(_pool_bytes())
        return out

    monkeypatch.setattr(harness, "_pooled", spy)
    kept = _in_fresh_thread(lambda: (harness._collect_point(cfg, M, 10.0, 0), _pool_bytes())[1])
    assert max(largest) > 5 * 80e6 > harness._POOL_KEPT
    assert kept == 0


def test_public_results_share_no_memory_with_the_pool_or_their_last_result():
    """The public draws, kernels and transceivers return fresh arrays, also
    in a thread whose pool holds every role of the harness's slabs."""
    for scenario in ("SIMO", "MISO", "MU-SIMO", "MU-MISO"):
        cfg = ExperimentConfig(scenario, (16,), POL16, K=2, trials=8, csi="mmse")
        harness._collect_point(cfg, 16, 10.0, 0)
    rng = np.random.default_rng(0)
    H = draw_channel(16, 2, rng, (8,))
    h, x = H[..., 0], np.exp(2j * np.pi * rng.random(8))
    calls = {
        "draw_channel": lambda: draw_channel(16, 2, rng, (8,)),
        "estimate_channel_mmse": lambda: estimate_channel_mmse(H, 4, 10.0, rng),
        "mrt_precode": lambda: mrt_precode(h, x, POL16),
        "inner_product_fp": lambda: inner_product_fp(h, h, POL16),
        "matvec_fp": lambda: matvec_fp(H, H[:, 0], POL16),
        "round_input": lambda: round_input(h, POL16),
    }
    for name, call in calls.items():
        first, second = call(), call()
        pool = list(harness._POOL.buffers.values())
        assert len(pool) >= 8, name
        for out in (first, second):
            assert not any(np.shares_memory(out, b) for b in pool), name
        assert not np.shares_memory(first, second), name


@pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("scenario", ["SIMO", "MISO", "MU-SIMO", "MU-MISO"])
def test_pooled_runs_leave_earlier_results_and_repeat(monkeypatch, tmp_path, scenario,
                                                      rounding):
    """A point's result, one slab of one chunk, keeps its bytes after the
    next point has run in the same thread; and a sweep run twice in one
    thread writes the same CSV, with slabs of 7 trials, so that each point
    reuses its buffers slab after slab and chunk after chunk."""
    M = 16
    policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
    cfg = ExperimentConfig(scenario, (M, 2 * M), policy, K=2, rho_grid_db=(0.0, 10.0),
                           trials=40, seed=4, csi="mmse")
    first = harness._collect_point(cfg, M, 10.0, 0)
    saved = {k: v.copy() for k, v in first.items()}
    harness._collect_point(cfg, M, 1.0, 3)  # the same M: the same buffers, not grown ones
    for key, value in saved.items():
        assert first[key].tobytes() == value.tobytes(), key
    monkeypatch.setattr(harness, "_SLAB_ENTRIES", 7 * M * 2)
    cfg = replace(cfg, trials=70)
    assert _csv_bytes(cfg, tmp_path / "a.csv") == _csv_bytes(cfg, tmp_path / "b.csv")


def test_threads_running_sweeps_at_once_write_the_sequential_bytes(tmp_path):
    """Three threads, more than the cores of a small host, each run the same
    MISO and SIMO sweeps at once, with a short switch interval; each writes
    the CSV bytes of a sequential run, so no thread reads another's pool."""
    configs = [
        ExperimentConfig("MISO", (64, 2048), POL16, rho_grid_db=(0.0, 10.0), trials=300),
        ExperimentConfig("SIMO", (64, 2048), POL16, trials=300, csi="mmse"),
        ExperimentConfig("SIMO", (64,), POL_SR, trials=100, seed=5),
    ]
    want = [_csv_bytes(cfg, tmp_path / f"want{i}.csv") for i, cfg in enumerate(configs)]

    def sweeps(t):
        return [_csv_bytes(cfg, tmp_path / f"{t}-{i}.csv") for i, cfg in enumerate(configs)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            got = [f.result(timeout=600) for f in [pool.submit(sweeps, t) for t in range(3)]]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3


# Runs a MISO point twice on a fresh thread of a fresh interpreter, whose
# allocator holds no freed pages yet, with numpy's huge-page advice off, so
# that each 4 KiB page faults apart; prints each run's minor faults.
_FAULTS = textwrap.dedent("""
    import json, resource
    from concurrent.futures import ThreadPoolExecutor
    from numpy._core.multiarray import _set_madvise_hugepage
    import fpmimo.harness as harness
    from fpmimo import FP16, ExperimentConfig, PrecisionPolicy

    M = 4096
    cfg = ExperimentConfig("MISO", (M,), PrecisionPolicy.uniform(FP16), trials=256)

    def faults():
        counts = []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            harness._collect_point(cfg, M, 10.0, 0)
            counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return counts

    _set_madvise_hugepage(False)
    with ThreadPoolExecutor(1) as pool:
        print(json.dumps(pool.submit(faults).result()))
""")


def test_the_second_point_in_a_thread_faults_in_few_pages():
    """A MISO point at M = 4096 and 256 trials holds five 17 MB arrays.  Run
    twice in a fresh thread, the second run reuses the first one's pages: it
    makes at most a tenth of the first run's minor page faults."""
    src = str(Path(harness.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _FAULTS], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout)
    if first < 2000:
        pytest.skip(f"the first run made {first} faults for about 84 MB: the host backs "
                    f"them with huge pages")
    assert second <= first / 10
