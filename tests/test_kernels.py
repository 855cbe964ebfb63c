import math

import numpy as np
import pytest

import fpmimo.kernels as kernels
from fpmimo.bounds import gamma_n, xi_bn
from fpmimo.formats import BFLOAT16, FP16, FP32, FP64, RangeMode, RoundingMode, round_to_format
from fpmimo.kernels import (
    CholeskyBreakdownError,
    PolicyMode,
    PrecisionPolicy,
    _dot,
    _gram,
    cholesky_fp,
    inner_product_fp,
    matmul_fp,
    matvec_fp,
    round_input,
    trisolve_fp,
)
from fpmimo.transceiver import mrc_combine, mrt_precode, zf_detect_ne, zf_precode_ne

POL16 = PrecisionPolicy.uniform(FP16)
POL64 = PrecisionPolicy.uniform(FP64)
MIX = PrecisionPolicy.mixed(FP16, FP32, 32)


def _unit_vectors(rng, trials, n):
    v = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _seq_ref(a, b):
    """Plain 64-bit reference with the contractual summation order."""
    ar, ai = np.conj(a).real, np.conj(a).imag
    br, bi = b.real, b.imag
    re = im = 0.0
    for k in range(a.shape[-1]):
        re = re + ar[k] * br[k]
        re = re - ai[k] * bi[k]
        im = im + ar[k] * bi[k]
        im = im + ai[k] * br[k]
    return re + 1j * im


class TestPolicy:
    def test_uniform_working(self):
        assert POL16.working is FP16
        assert MIX.working is FP16

    def test_mixed_requires_block(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(low=FP16, high=FP32, mode=PolicyMode.MIXED, block_size=0)


class TestInnerProduct:
    def test_basis_vector_exact(self):
        rng = np.random.default_rng(0)
        b = _unit_vectors(rng, 1, 8)[0]
        bq = np.round(b * 64) / 64  # exactly representable in fp16
        e1 = np.zeros(8, dtype=complex)
        e1[0] = 1.0
        assert inner_product_fp(e1, bq, POL16) == bq[0]

    def test_fp64_matches_sequential_reference(self):
        rng = np.random.default_rng(1)
        a = _unit_vectors(rng, 1, 50)[0]
        b = _unit_vectors(rng, 1, 50)[0]
        assert inner_product_fp(a, b, POL64) == _seq_ref(a, b)

    def test_reproducible(self):
        rng = np.random.default_rng(2)
        a = _unit_vectors(rng, 1, 100)[0]
        b = _unit_vectors(rng, 1, 100)[0]
        assert inner_product_fp(a, b, POL16) == inner_product_fp(a, b, POL16)
        srng1 = np.random.default_rng(7)
        srng2 = np.random.default_rng(7)
        st = PrecisionPolicy(low=FP16, high=FP16, rounding=RoundingMode.STOCHASTIC)
        assert inner_product_fp(a, b, st, srng1) == inner_product_fp(a, b, st, srng2)

    def test_error_bound_holds(self):
        rng = np.random.default_rng(3)
        n, trials = 1000, 2000
        a = _unit_vectors(rng, trials, n)
        b = _unit_vectors(rng, trials, n)
        got = inner_product_fp(a, b, POL16)
        ref = inner_product_fp(a, b, POL64)
        # norms of the rounded inputs
        from fpmimo.kernels import round_input

        na = np.linalg.norm(round_input(a, POL16), axis=-1)
        nb = np.linalg.norm(round_input(b, POL16), axis=-1)
        bound = math.sqrt(2) * gamma_n(2 * n, FP16.unit_roundoff, 1.0) * na * nb
        frac = np.mean(np.abs(got - ref) <= bound)
        assert frac >= 0.99

    def test_deterministic_bound_never_violated(self):
        rng = np.random.default_rng(4)
        n, trials = 200, 500
        a = _unit_vectors(rng, trials, n)
        b = _unit_vectors(rng, trials, n)
        got = inner_product_fp(a, b, POL16)
        ref = inner_product_fp(a, b, POL64)
        u = FP16.unit_roundoff
        det = 2 * n * u / (1 - 2 * n * u)
        assert np.all(np.abs(got - ref) <= math.sqrt(2) * det * 1.0001)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            inner_product_fp(np.ones(3), np.ones(4), POL16)


class TestMatvecMatmul:
    def test_identity(self):
        rng = np.random.default_rng(5)
        x = np.round(_unit_vectors(rng, 1, 6)[0] * 64) / 64
        assert np.array_equal(matvec_fp(np.eye(6), x, POL16), x)

    def test_row_matches_inner_product(self):
        rng = np.random.default_rng(6)
        a = _unit_vectors(rng, 1, 40)[0]
        x = _unit_vectors(rng, 1, 40)[0]
        y = matvec_fp(np.conj(a)[None, :], x, POL16)
        assert y[0] == inner_product_fp(a, x, POL16)

    def test_matmul_identity(self):
        rng = np.random.default_rng(7)
        A = _unit_vectors(rng, 4, 5)
        from fpmimo.kernels import round_input

        Aq = round_input(A, POL16)
        assert np.array_equal(matmul_fp(Aq, np.eye(5), POL16), Aq)

    def test_matmul_1xn_nx1(self):
        rng = np.random.default_rng(8)
        a = _unit_vectors(rng, 1, 30)[0]
        b = _unit_vectors(rng, 1, 30)[0]
        C = matmul_fp(np.conj(a)[None, :], b[:, None], POL16)
        assert C[0, 0] == inner_product_fp(a, b, POL16)

    def test_matvec_error_bound(self):
        rng = np.random.default_rng(9)
        m, n = 256, 4
        A = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(2)
        x = _unit_vectors(rng, 1, n)[0]
        got = matvec_fp(A, x, POL16)
        ref = matvec_fp(A, x, POL64)
        from fpmimo.kernels import round_input

        Aq = round_input(A, POL16)
        xq = round_input(x, POL16)
        bound = (
            math.sqrt(2 * min(m, n))
            * gamma_n(2 * n, FP16.unit_roundoff, 3.0)
            * np.linalg.norm(Aq, 2)
            * np.linalg.norm(xq)
        )
        assert np.linalg.norm(got - ref) <= bound

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim mismatch"):
            matvec_fp(np.ones((3, 4)), np.ones(5), POL16)
        with pytest.raises(ValueError, match="dim mismatch"):
            matmul_fp(np.ones((3, 4)), np.ones((5, 2)), POL16)


class TestBlockedMixed:
    def test_single_block_equals_uniform_low(self):
        rng = np.random.default_rng(10)
        n = 20
        a = _unit_vectors(rng, 1, n)[0]
        b = _unit_vectors(rng, 1, n)[0]
        wide = PrecisionPolicy.mixed(FP16, FP32, 2 * n)
        assert inner_product_fp(a, b, wide) == inner_product_fp(a, b, POL16)

    def test_b1_all_high_precision(self):
        rng = np.random.default_rng(11)
        n = 20
        a = _unit_vectors(rng, 1, n)[0]
        b = _unit_vectors(rng, 1, n)[0]
        b1 = PrecisionPolicy.mixed(FP16, FP64, 1)
        # products rounded to fp16, all additions exact (fp64 high)
        got = inner_product_fp(a, b, b1)
        from fpmimo.kernels import round_input

        aq = round_input(a, POL16)
        bq = round_input(b, POL16)
        from fpmimo.formats import round_to_format

        ar, ai = np.conj(aq).real, np.conj(aq).imag
        br, bi = bq.real, bq.imag
        r = lambda v: round_to_format(v, FP16)  # noqa: E731
        re = np.sum(
            np.stack([r(ar * br), -np.asarray(r(ai * bi))], -1).reshape(-1)
        )
        im = np.sum(np.stack([r(ar * bi), r(ai * br)], -1).reshape(-1))
        assert got == pytest.approx(re + 1j * im, rel=1e-15)

    def test_error_bound(self):
        rng = np.random.default_rng(12)
        n, trials = 1000, 500
        a = _unit_vectors(rng, trials, n)
        b = _unit_vectors(rng, trials, n)
        got = inner_product_fp(a, b, MIX)
        ref = inner_product_fp(a, b, POL64)
        bound = math.sqrt(2) * xi_bn(32, n, FP16.unit_roundoff, FP32.unit_roundoff, 1.0)
        frac = np.mean(np.abs(got - ref) <= bound)
        assert frac >= 0.99

    def test_ragged_last_block(self):
        rng = np.random.default_rng(13)
        n = 37  # 2n = 74 = 2*32 + 10
        a = _unit_vectors(rng, 1, n)[0]
        b = _unit_vectors(rng, 1, n)[0]
        got = inner_product_fp(a, b, MIX)
        ref = inner_product_fp(a, b, POL64)
        assert abs(got - ref) <= math.sqrt(2) * xi_bn(
            32, n, FP16.unit_roundoff, FP32.unit_roundoff, 3.0
        )

    def test_matmul_entrywise(self):
        rng = np.random.default_rng(14)
        H = (rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))) / math.sqrt(2)
        C = matmul_fp(H.conj().T, H, MIX)
        a = H[:, 0]
        assert C[0, 0] == inner_product_fp(a, a, MIX)


class TestCholesky:
    def test_identity(self):
        R = cholesky_fp(np.eye(4), POL16)
        assert np.array_equal(R, np.eye(4))

    def test_diagonal(self):
        R = cholesky_fp(np.diag([4.0, 9.0]), POL16)
        assert np.array_equal(R, np.diag([2.0, 3.0]))

    def test_fp64_residual(self):
        rng = np.random.default_rng(15)
        H = (rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))) / math.sqrt(2)
        C = H.conj().T @ H
        C = 0.5 * (C + C.conj().T)
        R = cholesky_fp(C, POL64)
        assert np.allclose(R.conj().T @ R, C, atol=1e-12)
        assert np.all(np.triu(R) == R)  # upper triangular
        assert np.all(np.diag(R).real > 0)
        assert np.all(np.diag(R).imag == 0)

    def test_fp16_backward_error(self):
        rng = np.random.default_rng(16)
        trials = 200
        H = (rng.standard_normal((trials, 64, 4)) + 1j * rng.standard_normal((trials, 64, 4))) / math.sqrt(2)
        C = np.einsum("smk,sml->skl", H.conj(), H)
        from fpmimo.kernels import round_input

        Cq = round_input(C, POL16)
        Cq = 0.5 * (Cq + np.conj(np.swapaxes(Cq, -1, -2)))
        Cq = round_input(Cq, POL16)
        R = cholesky_fp(Cq, POL16)
        resid = np.einsum("skj,skl->sjl", R.conj(), R) - Cq
        rel = np.linalg.norm(resid, axis=(-2, -1)) / np.linalg.norm(Cq, axis=(-2, -1))
        K, u = 4, FP16.unit_roundoff
        factor = 2 * K * gamma_n(2 * K + 1, u, 3.0)
        bound = factor / (1 - factor)
        assert np.mean(rel <= bound) >= 0.99

    def test_breakdown_raises_with_pivot(self):
        C = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(CholeskyBreakdownError) as e:
            cholesky_fp(C, POL16)
        assert e.value.pivot_index == 1

    def test_breakdown_mask(self):
        good = np.eye(2)
        bad = np.array([[1.0, 0.0], [0.0, -1.0]])
        C = np.stack([good, bad]).astype(complex)
        R, mask = cholesky_fp(C, POL16, error="mask")
        assert list(mask) == [False, True]
        assert np.array_equal(R[0], np.eye(2))

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            cholesky_fp(np.ones((2, 3)), POL16)

    @pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
    @pytest.mark.parametrize("rounding", list(RoundingMode), ids=lambda m: m.value)
    def test_ignores_lower_triangle(self, rounding, range_mode):
        """The zero-forcing Gram leaves the lower triangle unreduced; the factor must not read it."""
        rng = np.random.default_rng(24)
        H = rng.standard_normal((3, 2, 6, 4)) + 1j * rng.standard_normal((3, 2, 6, 4))
        C = np.conj(np.swapaxes(H, -1, -2)) @ H
        C[0, 1, 2, 2] = -5.0  # a breakdown in the middle of the factorization
        lower = np.tril(np.ones((4, 4), dtype=bool), -1)
        kw = dict(rounding=rounding, range_mode=range_mode)
        for policy in (PrecisionPolicy.uniform(FP16, **kw), PrecisionPolicy.mixed(FP16, FP32, 3, **kw)):
            for error, Cs in (("raise", C[1:]), ("raise", C), ("mask", C)):
                outcomes = []
                for fill in (None, 7.0, 1e300):
                    Cf = Cs.copy()
                    if fill is not None:
                        Cf[..., lower] = fill
                    g = np.random.default_rng(6)
                    try:
                        out = cholesky_fp(Cf, policy, g, error=error)
                        got = [a.tobytes() for a in (out if error == "mask" else (out,))]
                    except CholeskyBreakdownError as exc:
                        got = exc.pivot_index
                    outcomes.append((got, g.bit_generator.state))
                assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0], (error, policy)


class TestTrisolve:
    def test_identity(self):
        rhs = np.array([1.0 + 1j, 2.0 - 1j])
        assert np.array_equal(trisolve_fp(np.eye(2), rhs, "upper", POL16), rhs)
        assert np.array_equal(trisolve_fp(np.eye(2), rhs, "lower-conjugate", POL16), rhs)

    def test_scalar_divide(self):
        assert trisolve_fp(np.array([[2.0]]), np.array([6.0 + 0j]), "upper", POL16)[0] == 3.0

    def test_round_trip_fp64(self):
        rng = np.random.default_rng(17)
        H = (rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))) / math.sqrt(2)
        C = H.conj().T @ H
        R = cholesky_fp(C, POL64)
        rhs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = trisolve_fp(R, rhs, "lower-conjugate", POL64)
        x = trisolve_fp(R, q, "upper", POL64)
        assert np.allclose(C @ x, rhs, atol=1e-10)

    def test_zero_diagonal(self):
        with pytest.raises(ZeroDivisionError):
            trisolve_fp(np.diag([1.0, 0.0]), np.ones(2, dtype=complex), "upper", POL16)

    @pytest.mark.parametrize("side", ["upper", "lower-conjugate"])
    def test_overflowing_solution_raises(self, side):
        """1e300 / 1e-150 overflows the carrier; the solve raises rather than
        returning inf."""
        with pytest.raises(ValueError, match="^trisolve_fp gave a non-finite solution$"):
            trisolve_fp(np.array([[1e-150]]), np.array([1e300]), side, POL16)

    @pytest.mark.parametrize("side", ["upper", "lower-conjugate"])
    def test_diagonal_flushed_to_zero_on_entry(self, side):
        """Strict fp16 flushes a diagonal below x_min to 0 as it rounds R, so
        the check reads the rounded R; an unbounded policy keeps it nonzero."""
        R, rhs = np.array([[1e-6, 0.5], [0.0, 1.0]]), np.ones(2, dtype=complex)
        strict = PrecisionPolicy.uniform(FP16, range_mode=RangeMode.STRICT_IEEE)
        with pytest.raises(ZeroDivisionError):
            trisolve_fp(R, rhs, side, strict)
        assert np.isfinite(trisolve_fp(R, rhs, side, POL16)).all()

    def test_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            trisolve_fp(np.eye(2), np.ones(2), "left", POL16)


class TestPrecisionOrdering:
    def test_error_shrinks_with_precision(self):
        rng = np.random.default_rng(18)
        n, trials = 500, 200
        a = _unit_vectors(rng, trials, n)
        b = _unit_vectors(rng, trials, n)
        ref = inner_product_fp(a, b, POL64)
        medians = []
        for fmt in (BFLOAT16, FP16, FP32):
            got = inner_product_fp(a, b, PrecisionPolicy.uniform(fmt))
            medians.append(np.median(np.abs(got - ref)))
        assert medians[0] > medians[1] > medians[2] > 0


# -- inputs: never written, and checked for finiteness -----------------------

def _entry_cases():
    """(name, call(policy, rng, *args), args) for each array entry point."""
    rng = np.random.default_rng(31)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    H = cn(3, 6, 2)
    C = np.conj(np.swapaxes(H, -1, -2)) @ H
    R = np.conj(np.swapaxes(np.linalg.cholesky(C), -1, -2))  # upper, real diagonal
    return [
        ("round_to_format", lambda p, g, x: round_to_format(x, p.working, p.rounding, rng=g),
         (rng.standard_normal((3, 5)),)),
        ("round_input-real", lambda p, g, x: round_input(x, p, g), (rng.standard_normal((3, 5)),)),
        ("round_input-complex", lambda p, g, x: round_input(x, p, g), (cn(3, 5),)),
        ("inner_product_fp", lambda p, g, a, b: inner_product_fp(a, b, p, g), (cn(3, 40), cn(3, 40))),
        ("matvec_fp", lambda p, g, A, x: matvec_fp(A, x, p, g), (cn(3, 2, 6), cn(3, 6))),
        ("matmul_fp", lambda p, g, A, B: matmul_fp(A, B, p, g), (cn(3, 2, 6), H)),
        ("cholesky_fp", lambda p, g, C: cholesky_fp(C, p, g), (C,)),
        ("trisolve_fp-lower", lambda p, g, R, b: trisolve_fp(R, b, "lower-conjugate", p, g),
         (R, cn(3, 2))),
        ("trisolve_fp-upper", lambda p, g, R, b: trisolve_fp(R, b, "upper", p, g), (R, cn(3, 2))),
        ("mrc_combine", lambda p, g, h, z: mrc_combine(h, z, p, g), (cn(3, 40), cn(3, 40))),
        ("mrt_precode", lambda p, g, h, x: mrt_precode(h, x, p, g), (cn(3, 50), cn(3))),
        ("mrt_precode-prenormalized",
         lambda p, g, h, x: mrt_precode(h, x, p, g, prenormalized=True), (cn(3, 50), cn(3))),
        ("zf_detect_ne", lambda p, g, H, z: zf_detect_ne(H, z, p, g), (H, cn(3, 6))),
        ("zf_precode_ne", lambda p, g, H, x: zf_precode_ne(H, x, p, g), (H, cn(3, 2))),
    ]


ENTRY_CASES = _entry_cases()
ENTRY_POLICIES = [
    POL16,
    POL64,  # the fp64 passthrough returns a real argument itself
    MIX,
    PrecisionPolicy.uniform(FP16, rounding=RoundingMode.STOCHASTIC),
]


@pytest.mark.parametrize(
    "policy", ENTRY_POLICIES, ids=["fp16", "fp64", "fp16+fp32", "fp16-stochastic"]
)
@pytest.mark.parametrize("call,args", [pytest.param(c, a, id=n) for n, c, a in ENTRY_CASES])
def test_inputs_left_unchanged(call, args, policy):
    before = [a.copy() for a in args]
    call(policy, np.random.default_rng(5), *args)
    for a, b in zip(args, before):
        assert a.tobytes() == b.tobytes()


CHECKED_OPERANDS = [
    pytest.param(n.split("-")[0], c, a, j, id=f"{n}-arg{j}")
    for n, c, a in ENTRY_CASES
    if not n.startswith("round_")  # round_input is unchecked; round_to_format has its own test
    for j in range(len(a))
]


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name,call,args,arg", CHECKED_OPERANDS)
def test_non_finite_input_rejected(name, call, args, arg, bad):
    args = [a.copy() for a in args]
    args[arg].flat[-1] = complex(1.0, bad)
    with pytest.raises(ValueError, match=f"{name} requires finite input"):
        call(POL16, None, *args)


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("inf", [math.inf, -math.inf], ids=["+inf", "-inf"])
@pytest.mark.parametrize("name,call,args,arg", CHECKED_OPERANDS)
def test_infinity_rejected_under_the_strict_range(name, call, args, arg, inf, part):
    """The strict range rounds an infinity to x_max, so the entry's rounding
    checks what it reads as well as what it writes."""
    args = [a.copy() for a in args]
    getattr(args[arg], part).flat[-1] = inf
    policy = PrecisionPolicy.uniform(FP16, range_mode=RangeMode.STRICT_IEEE)
    with pytest.raises(ValueError, match=f"^{name} requires finite input$"):
        call(policy, None, *args)


@pytest.mark.parametrize(
    "policy", [POL16, PrecisionPolicy.uniform(FP16, rounding=RoundingMode.STOCHASTIC)],
    ids=["fp16", "fp16-stochastic"],
)
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("name,call,args,arg", [
    p for p in CHECKED_OPERANDS
    # the norm of such an h overflows, which raises its own error before any rounding
    if p.id != "mrt_precode-arg0"
])
def test_finite_input_that_rounds_to_infinity_rejected(name, call, args, arg, part, policy):
    """The largest double rounds up to inf in fp16's significand under the
    unbounded range (under stochastic rounding for all but a 2^-42 share of
    uniforms); the entry raises on it, as the paired run's does, and returns
    no NaN."""
    args = [a.copy() for a in args]
    getattr(args[arg], part).flat[-1] = np.finfo(np.float64).max
    with pytest.raises(ValueError, match=f"^{name} requires finite input$"):
        call(policy, np.random.default_rng(7), *args)


def _split_cases():
    """(name, call(policy, rng, *args), args) for each array entry point, each
    operand of at least 2^17 complex entries, so that every rounding of it
    splits over the core's threads, of unrounded values."""
    rng = np.random.default_rng(32)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    L = (1 << 16) + 1
    return [
        ("inner_product_fp", lambda p, g, a, b: inner_product_fp(a, b, p, g),
         (cn(2049, 64), cn(2049, 64))),
        ("matvec_fp", lambda p, g, A, x: matvec_fp(A, x, p, g), (cn(L, 2, 2), cn(L, 2))),
        ("matmul_fp", lambda p, g, A, B: matmul_fp(A, B, p, g), (cn(L // 2, 2, 2), cn(L // 2, 2, 2))),
        ("cholesky_fp", lambda p, g, C: cholesky_fp(C, p, g), (cn(L // 2, 2, 2),)),
        ("trisolve_fp", lambda p, g, R, b: trisolve_fp(R, b, "upper", p, g), (cn(L, 2, 2), cn(L, 2))),
        ("mrt_precode", lambda p, g, h, x: mrt_precode(h, x, p, g), (cn(L, 2), cn(2 * L))),
        ("mrt_precode", lambda p, g, h, x: mrt_precode(h, x, p, g, prenormalized=True),
         (cn(L, 2), cn(2 * L))),
    ]


@pytest.mark.parametrize(
    "policy", [POL16, PrecisionPolicy.uniform(FP16, rounding=RoundingMode.STOCHASTIC)],
    ids=["fp16", "fp16-stochastic"],
)
def test_non_finite_input_in_the_last_range_rejected_before_any_draw(policy):
    """Every entry moves as it rounds, so a check that stopped at a moved
    entry would miss the non-finite last one; the generator is left
    untouched."""
    for name, call, args in _split_cases():
        for arg in range(len(args)):
            bad = [a.copy() if j == arg else a for j, a in enumerate(args)]
            bad[arg].flat[-1] = complex(1.0, math.nan)
            rng = np.random.default_rng(6)
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match=f"{name} requires finite input"):
                call(policy, rng, *bad)
            assert rng.bit_generator.state == before, (name, arg)


# -- round_input: a copy, with the bits of what rounding would not change ----

ENTRY_FORMATS = [(fmt, rm) for fmt in (FP16, BFLOAT16, FP32) for rm in RangeMode]


def _spread(rng, shape):
    """Complex values whose magnitudes span 10^-12 to 10^12, past the strict
    range of each low format at both ends."""
    scale = 10.0 ** rng.uniform(-12, 12, shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


@pytest.mark.parametrize("fmt,range_mode", ENTRY_FORMATS, ids=lambda v: str(getattr(v, "value", v)))
def test_round_input_copies_a_rounded_operand_bit_for_bit(fmt, range_mode):
    policy = PrecisionPolicy.uniform(fmt, range_mode=range_mode)
    x = round_input(_spread(np.random.default_rng(33), (40, 300)), policy)
    y = round_input(x.T.copy(), policy)  # C-contiguous again
    for z in (x, y, x[0], x[:0]):  # two dimensions; one; no entries
        got = round_input(z, policy)
        assert got is not z and got.tobytes() == z.tobytes()


@pytest.mark.parametrize("fmt,range_mode", ENTRY_FORMATS, ids=lambda v: str(getattr(v, "value", v)))
def test_round_input_copies_what_rounding_changes(fmt, range_mode):
    policy = PrecisionPolicy.uniform(fmt, range_mode=range_mode)
    rng = np.random.default_rng(34)
    n = (1 << 18) + 3  # splits over every thread count the core allows
    x = round_input(_spread(rng, n), policy)

    def bits(z):
        return np.ascontiguousarray(z).view(np.uint64)

    moved = x.copy()  # one unrounded entry, in the last thread's range
    moved[-1] = 1.0 + 2.0**-30 + 0.5j
    got = round_input(moved, policy)
    assert got is not moved and got[-1] == 1.0 + 0.5j
    np.testing.assert_array_equal(bits(got[:-1]), bits(x[:-1]))

    for part in ("real", "imag"):  # a -0.0 part, which the join makes +0.0
        signed = x.copy()
        signed[n // 3] = 1.0 + 1.0j
        getattr(signed, part)[n // 3] = -0.0
        got = round_input(signed, policy)
        assert got is not signed, part
        assert not np.signbit(getattr(got, part)[n // 3]), part
        np.testing.assert_array_equal(bits(got[: n // 3]), bits(x[: n // 3]))

    for view in (x[::2], x[::-1], x[:-1].reshape(-1, 3)[:, :2]):  # not C-contiguous
        got = round_input(view, policy)
        assert got is not view
        np.testing.assert_array_equal(bits(got), bits(view))

    stochastic = PrecisionPolicy.uniform(fmt, rounding=RoundingMode.STOCHASTIC, range_mode=range_mode)
    rng, other = np.random.default_rng(35), np.random.default_rng(35)
    got = round_input(x, stochastic, rng)
    assert got is not x
    np.testing.assert_array_equal(bits(got), bits(x))
    other.random(2 * n)  # one uniform per part, as every stochastic call draws them
    assert rng.bit_generator.state == other.bit_generator.state


def _unaligned(x):
    """A copy of ``x`` one byte past an aligned address."""
    out = np.zeros(x.nbytes + 1, dtype=np.uint8)[1:].view(x.dtype).reshape(x.shape)
    out[...] = x
    assert not out.flags.aligned
    return out


@pytest.mark.parametrize("policy", [POL16, MIX, POL64], ids=["fp16", "fp16+fp32", "fp64"])
def test_unaligned_operands_give_the_bytes_of_aligned_ones(policy):
    """The C core reads its operands by memcpy, so nothing is copied to align
    them."""
    rng = np.random.default_rng(36)
    a, b = (rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40)) for _ in range(2))
    C = np.conj(a[:, :4].T) @ a[:, :4]
    aq = round_input(a, policy)
    for got, want in [
        (round_input(_unaligned(a), policy), aq),
        (round_input(_unaligned(a.real), policy), round_input(a.real, policy)),
        (_dot(_unaligned(aq), _unaligned(aq), policy, None), _dot(aq, aq, policy, None)),
        (inner_product_fp(_unaligned(a), _unaligned(b), policy), inner_product_fp(a, b, policy)),
        (cholesky_fp(_unaligned(C), policy), cholesky_fp(C, policy)),
    ]:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
@pytest.mark.parametrize("range_mode", list(RangeMode), ids=lambda r: r.value)
@pytest.mark.parametrize("fmt", [FP16, BFLOAT16, FP64], ids=lambda f: f.name)
def test_one_term_blocks_give_the_bytes_of_one_whole_block(fmt, range_mode, n):
    """A uniform policy runs ``fp_dot``'s b = 1 copy (its carrier copy for
    unbounded fp64); ``mixed(f, f, 2n)`` runs the blocked loop on one block
    of 2n terms, with no padding: the same sums in the same order.  Operands
    spread over the range, so that sums overflow and products fall below it;
    an inner product and the upper Gram."""
    rng = np.random.default_rng([n, fmt.significand_bits])
    uniform = PrecisionPolicy.uniform(fmt, range_mode=range_mode)
    one_block = PrecisionPolicy.mixed(fmt, fmt, 2 * n, range_mode=range_mode)
    top = fmt.exponent_max // 2

    def spread(shape):
        return round_input(_cn(rng, shape) * 2.0 ** rng.integers(-top, top, shape), uniform)

    a, d = spread((9, n)), spread((9, n))
    _assert_same_bits(_dot(a, d, uniform, None, conj=True), _dot(a, d, one_block, None, conj=True))
    Ht = np.swapaxes(spread((3, n, 4)), -1, -2)
    gram = (Ht[..., :, None, :], Ht[..., None, :, :])
    _assert_same_bits(_dot(*gram, uniform, None, upper=True, conj=True),
                      _dot(*gram, one_block, None, upper=True, conj=True))


# -- the unrounded Gram products: numpy's bits ------------------------------

# Each call form the harness and the bounds use, as (numpy's contraction of
# the conjugated first operand with the second, the same through _gram); a is
# (..., M, K) and b (..., M, N).
GRAM_FORMS = {
    "gram": (lambda a, b: np.einsum("...mk,...ml->...kl", a.conj(), a), lambda a, b: _gram(a, a)),
    "cross": (lambda a, b: np.einsum("...mk,...ml->...kl", a.conj(), b), _gram),
    "cmk,cm->ck": (lambda a, b: np.einsum("...mk,...m->...k", a.conj(), b[..., 0]),
                   lambda a, b: _gram(a, b[..., :1])[..., 0]),
    "cm,cm->c": (lambda a, b: np.einsum("...m,...m->...", a[..., 0].conj(), b[..., 0]),
                 lambda a, b: _gram(a[..., :1], b[..., :1])[..., 0, 0]),
}
# every sign of zero and infinity, and entries whose products overflow; a NaN
# entry's sign and payload are the C core's (test_gram_of_a_nan_operand_is_nan)
SPECIALS = np.array([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308])


def _cn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _salted(rng, x):
    """x with about a quarter of its real and imaginary parts set to SPECIALS."""
    parts = x.view(np.float64).copy()
    hit = rng.random(parts.shape) < 0.25
    parts[hit] = rng.choice(SPECIALS, hit.sum())
    return parts.view(np.complex128)


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


@pytest.mark.parametrize("form", GRAM_FORMS)
@pytest.mark.parametrize("K,N", [(k, n) for k in (1, 3, 4) for n in (1, 3, 4)])
@pytest.mark.parametrize("M", [1, 2, 7, 256])
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)], ids=["rank0", "rank1", "rank2"])
def test_gram_matches_numpy_bits(batch, M, K, N, form):
    rng = np.random.default_rng([M, K, N, len(batch)])
    a, b = _cn(rng, (*batch, M, K)), _cn(rng, (*batch, M, N))
    want, got = GRAM_FORMS[form]
    _assert_same_bits(got(a, b), want(a, b))
    a, b = _salted(rng, a), _salted(rng, b)
    _assert_same_bits(got(a, b), want(a, b))


@pytest.mark.parametrize("form", GRAM_FORMS)
@pytest.mark.parametrize("L,M,K,N", [(143, 256, 4, 4), (143, 256, 4, 1), (11, 10000, 1, 1)])
def test_gram_split_over_threads_matches_numpy_bits(L, M, K, N, form):
    """Calls large enough to split, into ranges of unequal length at every
    thread count the core allows."""
    assert L * M * K * N > 1 << 16 and all(L % t for t in range(2, 9))
    rng = np.random.default_rng([L, M, K, N])
    a, b = _salted(rng, _cn(rng, (L, M, K))), _salted(rng, _cn(rng, (L, M, N)))
    want, got = GRAM_FORMS[form]
    _assert_same_bits(got(a, b), want(a, b))


@pytest.mark.parametrize("form", GRAM_FORMS)
def test_gram_of_a_nan_operand_is_nan(form):
    """An entry that sums over a NaN part is NaN, as numpy's is; the others
    keep numpy's bits."""
    rng = np.random.default_rng(25)
    a, b = _cn(rng, (3, 7, 4)), _cn(rng, (3, 7, 4))
    a.imag[1, 2, 0] = b.real[2, 6, 0] = math.nan
    want, got = GRAM_FORMS[form]
    with np.errstate(invalid="ignore"):
        w, g = want(a, b), got(a, b)
    nan = np.isnan(w)
    assert nan.any() and np.array_equal(np.isnan(g), nan)
    np.testing.assert_array_equal(g[~nan].view(np.uint64), w[~nan].view(np.uint64))


def test_gram_rejects_mismatched_shapes():
    for a, b in [(np.ones((2, 3, 4)), np.ones((2, 5, 4))), (np.ones((2, 3, 4)), np.ones((3, 3, 4))),
                 (np.ones(3), np.ones(3))]:
        with pytest.raises(ValueError, match="shape mismatch"):
            _gram(a, b)


_OUT_CALLS = {
    "_round": lambda out: kernels._round(
        np.ones((3, 4), complex), FP16, RoundingMode.NEAREST_EVEN, RangeMode.UNBOUNDED, None,
        out=out),
    "_noise": lambda out: kernels._noise(np.random.default_rng(0), (3, 4), out=out),
    "_dot": lambda out: kernels._dot(np.ones((3, 4, 5), complex), np.ones(5, complex), POL16,
                                     None, out=out),
}


@pytest.mark.parametrize("name", list(_OUT_CALLS))
def test_out_is_written_only_when_c_contiguous_of_the_result_type(name):
    """The private ``out=`` of the cores that write a C-order result: the
    result goes into a fitting array; a strided one, one of another shape
    or another dtype raises ValueError and is not written."""
    call = _OUT_CALLS[name]
    want = call(None)
    out = np.full((3, 4), 7 + 7j)
    assert call(out) is out
    assert out.tobytes() == want.tobytes()
    for bad in (np.full((3, 8), 7 + 7j)[:, ::2], np.full((4, 3), 7 + 7j), np.full((3, 4), 7.0)):
        before = bad.copy()
        with pytest.raises(ValueError, match="^out must be C-contiguous"):
            call(bad)
        assert bad.tobytes() == before.tobytes()
