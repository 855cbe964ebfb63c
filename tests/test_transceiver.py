import json
import math

import numpy as np
import pytest

from fpmimo.bounds import c_u, delta_miso, delta_simo
from fpmimo import harness, kernels
from fpmimo.formats import BFLOAT16, FP16, FP32, FP64, RoundingMode, _round
from fpmimo.kernels import PrecisionPolicy, round_input
from fpmimo.transceiver import mrc_combine, mrt_precode, zf_detect_ne, zf_precode_ne

POL16 = PrecisionPolicy.uniform(FP16)
POL64 = PrecisionPolicy.uniform(FP64)


def _channel(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


class TestMrc:
    def test_basis_channel_exact(self):
        rng = np.random.default_rng(0)
        z = np.round(_channel(rng, 8) * 64) / 64
        e1 = np.zeros(8, dtype=complex)
        e1[0] = 1.0
        assert mrc_combine(e1, z, POL16) == z[0]

    def test_fp64_reference(self):
        rng = np.random.default_rng(1)
        h, z = _channel(rng, 100), _channel(rng, 100)
        from fpmimo.kernels import inner_product_fp

        assert mrc_combine(h, z, POL64) == inner_product_fp(h, z, POL64)

    def test_error_bound(self):
        rng = np.random.default_rng(2)
        M, trials = 100, 2000
        h, z = _channel(rng, trials, M), _channel(rng, trials, M)
        hq, zq = round_input(h, POL16), round_input(z, POL16)
        err = np.abs(mrc_combine(hq, zq, POL16) - mrc_combine(hq, zq, POL64))
        bound = delta_simo(M, FP16.unit_roundoff, 3.0) * np.linalg.norm(hq, axis=-1) * np.linalg.norm(zq, axis=-1)
        assert np.mean(err <= bound) >= 0.99


class TestMrt:
    def test_basis_channel(self):
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        s = mrt_precode(e1, 1.0 + 0j, POL16)
        assert np.array_equal(s, e1)

    def test_zero_symbol(self):
        rng = np.random.default_rng(3)
        h = _channel(rng, 16)
        assert np.all(mrt_precode(h, 0.0 + 0j, POL16) == 0)

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            mrt_precode(np.zeros(4, dtype=complex), 1.0 + 0j, POL16)

    def test_norm_that_overflows_rejected(self):
        """A finite h whose norm overflows would divide into a precoder of
        zeros."""
        h = np.ones(8, dtype=complex)
        h[-1] = 1e155
        with pytest.raises(ValueError, match="^mrt_precode requires a channel whose norm does not overflow$"):
            mrt_precode(h, 1.0 + 0j, POL16)

    def test_fp64_norm_does_not_depend_on_the_layout(self):
        """The norm is ``kernels._norm`` of h's C-contiguous copy, so h in C
        and in Fortran order gives the same bytes."""
        h = _channel(np.random.default_rng(5), 64, 300)
        x = _channel(np.random.default_rng(6), 64)
        got = mrt_precode(np.asfortranarray(h), x, POL64)
        assert got.tobytes() == mrt_precode(h, x, POL64).tobytes()

    def test_error_independent_of_m(self):
        rng = np.random.default_rng(4)
        bound = delta_miso(FP16.unit_roundoff, 3.0)
        meds = []
        for M in (100, 1000):
            h = _channel(rng, 500, M)
            x = np.exp(2j * np.pi * rng.random(500))
            hn = round_input(h / np.linalg.norm(h, axis=-1, keepdims=True), POL16)
            xq = round_input(x, POL16)
            s = mrt_precode(hn, xq, POL16, prenormalized=True)
            ref = mrt_precode(hn, xq, POL64, prenormalized=True)
            err = np.linalg.norm(s - ref, axis=-1)
            assert np.mean(err <= bound) >= 0.99
            meds.append(np.median(err))
        # medians within a factor of 1.5 across a 10x change in M
        assert meds[1] < 1.5 * meds[0]


class TestZfDetect:
    def test_orthonormal_01_channel_exact(self):
        rng = np.random.default_rng(5)
        K, M = 3, 8
        H = np.zeros((M, K), dtype=complex)
        H[:K, :K] = np.eye(K)
        z = np.round(_channel(rng, M) * 64) / 64
        r = zf_detect_ne(H, z, POL16)
        assert np.array_equal(r, z[:K])

    def test_k1_matches_scaled_mrc(self):
        rng = np.random.default_rng(6)
        h = _channel(rng, 64)
        z = _channel(rng, 64)
        r = zf_detect_ne(h[:, None], z, POL64)[0]
        expected = np.vdot(h, z) / np.vdot(h, h)
        assert r == pytest.approx(expected, rel=1e-12)

    def test_zero_forcing_full_precision(self):
        rng = np.random.default_rng(7)
        M, K = 64, 4
        H = _channel(rng, M, K)
        x = _channel(rng, K)
        z = H @ x  # noiseless uplink, unit gain
        r = zf_detect_ne(H, z, POL64)
        assert np.linalg.norm(r - x) / np.linalg.norm(x) < 1e-10

    def test_error_bound_fp16(self):
        rng = np.random.default_rng(8)
        M, K, trials = 256, 4, 500
        H = _channel(rng, trials, M, K)
        z = _channel(rng, trials, M)
        Hq, zq = round_input(H, POL16), round_input(z, POL16)
        r, bd = zf_detect_ne(Hq, zq, POL16, error="mask")
        ref = zf_detect_ne(Hq, zq, POL64)
        assert not bd.any()
        G = np.einsum("smk,sml->skl", Hq.conj(), Hq)
        kappa = np.linalg.cond(G, 2)
        err = np.linalg.norm(r - ref, axis=-1)
        bound = c_u(M, K, FP16.unit_roundoff, 1.0) * kappa * np.linalg.norm(ref, axis=-1)
        assert np.mean(err <= bound) >= 0.99

    def test_precision_monotonicity(self):
        rng = np.random.default_rng(9)
        M, K, trials = 64, 4, 200
        H = _channel(rng, trials, M, K)
        z = _channel(rng, trials, M)
        ref = zf_detect_ne(H, z, POL64)
        meds = []
        for fmt in (BFLOAT16, FP16, FP32, FP64):
            pol = PrecisionPolicy.uniform(fmt)
            r, bd = zf_detect_ne(H, z, pol, error="mask")
            ok = ~bd
            meds.append(np.median(np.linalg.norm((r - ref)[ok], axis=-1)))
        assert meds[0] > meds[1] > meds[2] > meds[3] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="antenna count"):
            zf_detect_ne(np.ones((8, 2)), np.ones(7), POL16)


class TestZfPrecode:
    def test_orthonormal_01_channel_exact(self):
        rng = np.random.default_rng(10)
        K, M = 3, 8
        H = np.zeros((M, K), dtype=complex)
        H[:K, :K] = np.eye(K)
        x = np.round(_channel(rng, K) * 64) / 64
        s = zf_precode_ne(H, x, POL16, normalize=False)
        assert np.array_equal(s[:K], x)
        assert np.all(s[K:] == 0)

    def test_k1_proportional_to_mrt_direction(self):
        rng = np.random.default_rng(11)
        h = _channel(rng, 32)
        s = zf_precode_ne(h[:, None], np.array([1.0 + 0j]), POL64, normalize=False)
        expected = h / np.vdot(h, h).real
        assert np.allclose(s, expected, rtol=1e-12)

    def test_normalization_scale(self):
        rng = np.random.default_rng(12)
        M, K = 32, 4
        H = _channel(rng, M, K)
        x = _channel(rng, K)
        s0 = zf_precode_ne(H, x, POL64, normalize=False)
        s1 = zf_precode_ne(H, x, POL64, normalize=True)
        assert np.allclose(s1, math.sqrt(M - K) * s0, rtol=1e-15)

    def test_zero_forcing_property(self):
        rng = np.random.default_rng(13)
        M, K = 64, 4
        H = _channel(rng, M, K)
        x = _channel(rng, K)
        s = zf_precode_ne(H, x, POL64, normalize=False)
        # the effective downlink channel H^H s reproduces the symbols
        assert np.linalg.norm(H.conj().T @ s - x) / np.linalg.norm(x) < 1e-10

    def test_mean_power_matches_beta(self):
        # E{||P x||^2} = K/(M-K), so sqrt(M-K)-scaled output has unit-ish power
        rng = np.random.default_rng(14)
        M, K, trials = 64, 4, 2000
        H = _channel(rng, trials, M, K)
        x = np.exp(2j * np.pi * rng.random((trials, K)))
        s = zf_precode_ne(H, x, POL64, normalize=True)
        mean_power = np.mean(np.linalg.norm(s, axis=-1) ** 2)
        assert mean_power == pytest.approx(K, rel=0.1)

    def test_breakdown_mask_shapes(self):
        rng = np.random.default_rng(15)
        H = _channel(rng, 4, 16, 3)
        x = _channel(rng, 4, 3)
        s, bd = zf_precode_ne(H, x, POL16, error="mask")
        assert s.shape == (4, 16) and bd.shape == (4,)


_ROUNDED_POLICIES = [
    PrecisionPolicy.uniform(FP16, rounding=rounding) for rounding in RoundingMode
] + [PrecisionPolicy.mixed(FP16, FP32, 8, rounding=rounding) for rounding in RoundingMode]
_ROUNDED_IDS = [f"{form}-{m.value}" for form in ("fp16", "fp16+fp32-b8") for m in RoundingMode]


class TestZfChannelRounding:
    @pytest.mark.parametrize("paired", [False, True], ids=["public", "paired"])
    @pytest.mark.parametrize("policy", _ROUNDED_POLICIES, ids=_ROUNDED_IDS)
    @pytest.mark.parametrize("zf", [zf_detect_ne, zf_precode_ne])
    def test_each_value_is_rounded_once(self, monkeypatch, zf, policy, paired):
        """A zero-forcing call rounds each value into the working format once:
        H and the right-hand side as they enter, the Gram C as the factor takes
        it and, in detection, c, whose sums may be of the high format.  R, q, e
        and the entered x_d go on unrounded.  The paired run's reference run
        rounds only C, and c in detection."""
        lanes, M, K = 3, 16, 4
        shapes = []

        def spy(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return _round(x, *args, **kwargs)

        monkeypatch.setattr(kernels, "_round", spy)
        rng = np.random.default_rng(16)
        detect = zf is zf_detect_ne
        H = _channel(rng, lanes, M, K)
        y = _channel(rng, lanes, M if detect else K)
        stages = [(lanes, K, K), (lanes, K)] if detect else [(lanes, K, K)]
        if paired:
            core = harness._zf_detect if detect else harness._zf_precode
            harness._paired(zf.__name__, core, (H, y), policy, np.random.default_rng(1))
        else:
            zf(H, y, policy, np.random.default_rng(1))
        assert shapes == [H.shape, y.shape] + stages * (2 if paired else 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("zf", [zf_detect_ne, zf_precode_ne])
    def test_non_finite_right_hand_side_rejected_before_any_draw(self, zf, rounding, bad):
        """A right-hand side of 2^17 entries and more, so that its check splits
        over the core's threads, with its last entry not finite."""
        rng = np.random.default_rng(18)
        lanes, M, K = (1 << 16) + 1, 4, 2
        H = _channel(rng, lanes, M, K)
        y = _channel(rng, lanes, M if zf is zf_detect_ne else K)
        y.flat[-1] = bad
        policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
        g = np.random.default_rng(3)
        before = g.bit_generator.state
        with pytest.raises(ValueError, match=f"^{zf.__name__} requires finite input$"):
            zf(H, y, policy, g)
        assert g.bit_generator.state == before

    @pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("zf", [zf_detect_ne, zf_precode_ne])
    def test_overflowing_gram_raises_at_the_factor(self, zf, rounding):
        """With H near 1e154 the Gram overflows the carrier, and the check of
        the Gram as the factor takes it raises under the transceiver's name."""
        rng = np.random.default_rng(20)
        lanes, M, K = 3, 16, 2
        H = 1e154 * _channel(rng, lanes, M, K)
        y = _channel(rng, lanes, M if zf is zf_detect_ne else K)
        policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
        with pytest.raises(ValueError, match=f"^{zf.__name__} requires finite input$"):
            zf(H, y, policy, np.random.default_rng(3))

    @pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("fmt", [FP16, BFLOAT16], ids=str)
    @pytest.mark.parametrize("zf", [zf_detect_ne, zf_precode_ne])
    def test_masked_breakdown(self, zf, fmt, rounding):
        rng = np.random.default_rng(17)
        lanes, M, K = 6, 16, 3
        H = _channel(rng, lanes, M, K)
        y = _channel(rng, lanes, M if zf is zf_detect_ne else K)
        singular = [1, 4]
        H[singular, :, 2] = 0.0  # a zero column: the Gram matrix is singular
        policy = PrecisionPolicy.uniform(fmt, rounding=rounding)
        out, bd = zf(H, y, policy, np.random.default_rng(2), error="mask")
        assert bd.tolist() == [lane in singular for lane in range(lanes)]
        assert np.isfinite(out).all()
        if rounding is RoundingMode.NEAREST_EVEN:
            keep = [lane for lane in range(lanes) if lane not in singular]
            ref, bd_ref = zf(H[keep], y[keep], policy, error="mask")
            assert not bd_ref.any()
            np.testing.assert_array_equal(out[keep].view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.SFC64],
                         ids=lambda b: b.__name__)
@pytest.mark.parametrize("zf", [zf_detect_ne, zf_precode_ne])
def test_stochastic_breakdown_raises_after_the_solves(zf, bit_generator):
    """A zero-forcing call raises its breakdown after the solves, at the
    smallest broken column, with the output and generator end state of the
    mask call, whatever the bit generator."""
    rng = np.random.default_rng(21)
    lanes, M, K = 5, 16, 3
    H = _channel(rng, lanes, M, K)
    y = _channel(rng, lanes, M if zf is zf_detect_ne else K)
    H[[1, 3], :, 1] = 0.0  # a zero column: the factor breaks down at column 1
    policy = PrecisionPolicy.uniform(FP16, rounding=RoundingMode.STOCHASTIC)
    g, want = (np.random.Generator(bit_generator(4)) for _ in range(2))
    _, bd = zf(H, y, policy, want, error="mask")
    with pytest.raises(kernels.CholeskyBreakdownError) as exc:
        zf(H, y, policy, g)
    assert (exc.value.pivot_index, bd.tolist()) == (1, [False, True, False, True, False])
    assert json.dumps(g.bit_generator.state, default=np.ndarray.tolist) \
        == json.dumps(want.bit_generator.state, default=np.ndarray.tolist)


def _entry_cases():
    """(name, call(policy, rng=None), operands, operands entered as given) for each
    public transceiver, with M = 24 antennas, K = 3 users and 5 lanes.  The
    normalizing MRT enters h / ||h|| in place of h."""
    rng = np.random.default_rng(19)
    h, z, H = _channel(rng, 5, 24), _channel(rng, 5, 24), _channel(rng, 5, 24, 3)
    x, x_k = _channel(rng, 5), _channel(rng, 5, 3)
    return {
        "mrc_combine": (lambda p, g=None: mrc_combine(h, z, p, g), (h, z), (h, z)),
        "mrt_precode": (lambda p, g=None: mrt_precode(h, x, p, g), (h, x), (x,)),
        "mrt_precode-prenormalized":
            (lambda p, g=None: mrt_precode(h, x, p, g, prenormalized=True), (h, x), (h, x)),
        "zf_detect_ne": (lambda p, g=None: zf_detect_ne(H, z, p, g), (H, z), (H, z)),
        "zf_precode_ne": (lambda p, g=None: zf_precode_ne(H, x_k, p, g), (H, x_k), (H, x_k)),
    }


@pytest.mark.parametrize("name", list(_entry_cases()))
def test_each_outside_operand_enters_by_one_rounding(roundings, name):
    """Under nearest-even a public transceiver enters each operand it is
    given by one ``fp_round`` pass, which is also its check, and makes no
    other pass over an M-entry operand (H^T, the normalized channel); the
    zero-forcing ones round only their K-sized Gram, and c in detection
    (see ``test_each_value_is_rounded_once``)."""
    call, operands, as_given = _entry_cases()[name]
    call(POL16)
    for x in as_given:
        assert [address for address, _, _ in roundings].count(x.ctypes.data) == 1
    assert sum(24 in shape for _, shape, _ in roundings) == sum(24 in x.shape for x in operands)


@pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", list(_entry_cases()))
def test_each_outside_operand_is_checked_once(roundings, monkeypatch, name, rounding):
    """A public transceiver checks each operand it is given once: by its
    ``fp_round`` pass under nearest-even, by one ``np.isfinite`` pass under
    stochastic rounding, before the ``fp_round`` passes that take draws.  The
    normalizing MRT checks h by ``np.isfinite`` before its norm."""
    isfinite, checked = np.isfinite, []

    def spy(x, *args, **kwargs):
        if isinstance(x, np.ndarray):
            checked.append(x.ctypes.data)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    call, operands, _ = _entry_cases()[name]
    call(PrecisionPolicy.uniform(FP16, rounding=rounding), np.random.default_rng(4))
    rounded = [address for address, _, drawn in roundings if not drawn]
    for x in operands:
        assert checked.count(x.ctypes.data) + rounded.count(x.ctypes.data) == 1


class TestZfKeywords:
    @pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("case", ["detect-error", "precode-error", "precode-m-le-k"])
    def test_bad_keyword_raises_before_any_rounding_or_draw(self, roundings, case, rounding):
        """A bad ``error``, or power normalization with M <= K, raises before
        H is rounded or the generator moves."""
        rng = np.random.default_rng(24)
        M = 3 if case == "precode-m-le-k" else 8
        H, x = _channel(rng, 2, M, 3), _channel(rng, 2, 3)
        policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
        call, message = {
            "detect-error": (lambda g: zf_detect_ne(H, _channel(rng, 2, M), policy, g, error="bogus"),
                             "error must be 'raise' or 'mask'"),
            "precode-error": (lambda g: zf_precode_ne(H, x, policy, g, error="bogus"),
                              "error must be 'raise' or 'mask'"),
            "precode-m-le-k": (lambda g: zf_precode_ne(H, x, policy, g, error="mask"),
                               "power normalization requires M > K"),
        }[case]
        g = np.random.default_rng(3)
        before = g.bit_generator.state
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(g)
        assert roundings == []
        assert g.bit_generator.state == before

    @pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("zf", [zf_detect_ne, zf_precode_ne])
    def test_flat_channel_raises_before_any_rounding_or_draw(self, roundings, zf, rounding):
        """A 1-D H raises a ValueError that says H has too few dimensions, not
        an IndexError or a complaint about the user count, before H is
        rounded or the generator moves."""
        rng = np.random.default_rng(25)
        H, v = _channel(rng, 8), _channel(rng, 8)
        g = np.random.default_rng(3)
        before = g.bit_generator.state
        with pytest.raises(ValueError, match=r"^H has too few dimensions \(1 < 2\)$"):
            zf(H, v, PrecisionPolicy.uniform(FP16, rounding=rounding), g)
        assert roundings == []
        assert g.bit_generator.state == before


# the public call in either error mode, and the paired run, which has none
_CALLS = pytest.mark.parametrize("paired, error", [(False, "raise"), (False, "mask"), (True, None)],
                                 ids=["raise-public", "mask-public", "paired"])


class TestZfOverflow:
    @_CALLS
    @pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("zf", [zf_detect_ne, zf_precode_ne])
    def test_overflowing_solution_raises(self, zf, rounding, error, paired):
        """With K = 1, M = 4 and h = 1e-150, a signal of 1e300 gives a solution
        past the carrier's range; the solve's check raises on it."""
        detect = zf is zf_detect_ne
        H = np.full((4, 1), 1e-150, dtype=complex)
        y = np.full(4 if detect else 1, 1e300, dtype=complex)
        policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
        g = np.random.default_rng(5)
        with pytest.raises(ValueError, match="^trisolve_fp gave a non-finite solution$"):
            if paired:
                core = harness._zf_detect if detect else harness._zf_precode
                harness._paired(zf.__name__, core, (H, y), policy, g)
            else:
                zf(H, y, policy, g, error=error)

    @_CALLS
    @pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
    def test_overflowing_right_hand_side_raises_under_the_transceivers_name(
            self, rounding, error, paired):
        """With H = 100 and a signal of 1e307 over M = 4, c = H^H z overflows
        the carrier; it is entered under the name of the transceiver."""
        H = np.full((4, 1), 100, dtype=complex)
        z = np.full(4, 1e307, dtype=complex)
        policy = PrecisionPolicy.uniform(FP16, rounding=rounding)
        g = np.random.default_rng(5)
        with pytest.raises(ValueError, match="^zf_detect_ne requires finite input$"):
            if paired:
                harness._paired("zf_detect_ne", harness._zf_detect, (H, z), policy, g)
            else:
                zf_detect_ne(H, z, policy, g, error=error)
