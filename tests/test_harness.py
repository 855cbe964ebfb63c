import inspect
import math
import tracemalloc
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
from fpmimo.kernels import PrecisionPolicy, _noise

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
        arrays = {k: v.copy() for k, v in bound.items() if isinstance(v, np.ndarray)}
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
    their check.  Beyond it the only passes over an M-entry operand are the
    stochastic policy run's stage roundings, which take draws; the
    zero-forcing runs also enter their K-sized stage outputs, the reference
    run included."""
    M = 20
    policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
    rounded, paired = harness._rounded, set()

    def spy(*args):
        start = len(roundings)
        out = rounded(*args)
        paired.update(range(start, len(roundings)))
        return out

    monkeypatch.setattr(harness, "_rounded", spy)
    if scenario == "study":
        inner_product_violation_study(M, policy, trials=8)
    else:
        run_sweep(ExperimentConfig(scenario, (M,), policy, K=2, trials=8))
    beyond = [(shape, drawn) for i, (_, shape, drawn) in enumerate(roundings) if i not in paired]
    assert paired
    assert [shape for shape, drawn in beyond if M in shape and not drawn] == []
    assert any(not drawn for _, drawn in beyond) == scenario.startswith("MU")


@pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
def test_paired_rejects_a_non_finite_input_once_every_input_is_rounded(rounding):
    """A NaN in the first input raises under the transceiver's name, with the
    generator where the rounding of both inputs leaves it."""
    rng = np.random.default_rng(21)
    a, b = (rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16)) for _ in range(2))
    a[0, 0] = math.nan
    policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
    g, want = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(ValueError, match="^mrc_combine requires finite input$"):
        harness._paired("mrc_combine", harness._inner, (a, b), policy, g)
    if rounding is RoundingMode.STOCHASTIC:
        want.random(2 * a.size)
        want.random(2 * b.size)
    assert g.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["zf_detect_ne", "zf_precode_ne"])
def test_paired_overflowing_gram_raises_at_the_factor(name, rounding):
    """With H near 1e154 the Gram overflows the carrier; the factor's check
    of it raises in the paired run as in the public transceiver."""
    rng = np.random.default_rng(22)
    lanes, M, K = 3, 16, 2
    H = 1e154 * (rng.standard_normal((lanes, M, K)) + 1j * rng.standard_normal((lanes, M, K)))
    y = rng.standard_normal((lanes, M if name == "zf_detect_ne" else K)) + 0.5j
    policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
    core = getattr(harness, _CORES[name])
    with pytest.raises(ValueError, match="^cholesky_fp requires finite input$"):
        harness._paired(name, core, (H, y), policy, np.random.default_rng(3), error="mask")


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


def test_point_memory_is_its_draws_plus_a_few_slabs():
    """A MISO point at M = 10000 holds the 1024-trial chunk's 164 MB channel
    and a few slab-sized arrays, not five chunk-sized arrays (about 820 MB).

    numpy reports its buffers to ``tracemalloc``, so the peak does not
    depend on the host's allocator.  It is about 230 MB when ``_normal``
    splits the channel's draws over the C core's threads and 246 MB on one
    thread, where each part passes through one more 82 MB array.
    """
    M, trials = 10_000, 1024
    cfg = ExperimentConfig("MISO", (M,), POL16, trials=trials)
    tracemalloc.start()
    try:
        harness._collect_point(cfg, M, 10.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 260e6
