"""Complex linear-algebra kernels with per-operation rounding.

Every scalar multiply, add, subtract, divide, and square root inside these
kernels is rounded by the C core of :mod:`fpmimo._core`, which reads and
writes complex128 directly: elementwise through ``round_input``, which is
``formats._round`` under the policy, and fused into the loops of the
reductions (the zero-forcing Gram on its upper triangle alone), the Cholesky
factorization and the triangular solves.  Complex reductions are computed on
their 2n-term real expansion, summed strictly in index order.  The one
rounded complex multiply is the one-term reduction: ``_cmul`` in MRT
precoding, its six steps in C inside the factor and the solves.  Under
stochastic rounding each kernel draws one block of uniforms after rounding
its inputs, laid out as the comment of its entry in ``_core.c`` says.  Every
complex result is stored as its two parts, each one rounded real operation,
so a signed zero keeps its sign.  ``inner_product_fp`` conjugates inside the
reduction (``fp_dot``'s conj flag), making no conjugated copy.

Each public kernel and transceiver enters the operands it is given by
``_rounded``, as the harness's paired run enters its inputs: each operand is
rounded into a fresh array (the paired run's into the harness's reused
buffers, its ``out=``) by one ``fp_round`` pass, which is also the
check, raising ValueError on a part that is not finite once rounded or,
under the strict range, before.  Under stochastic rounding ``_rounded``
first checks every operand by ``np.isfinite``, so a bad one raises before
any draw.  The call then computes on the entered operands, in a private
core where another caller needs it (``_inner``, ``_chol``, ``_solve``;
``transceiver._mrt``, ``_zf_detect``, ``_zf_precode``).  A core rounds nothing
it is given, and each value once: it enters only the zero-forcing Gram and c,
which may hold high-format sums, under the transceiver's name, and ``_solve``
checks its solution.  The paired run calls a core twice on the inputs it
rounded; under the fp64 reference policy nothing is drawn, and ``fp_dot``
sums in its carrier loop.

The harness's fp64 side runs in the C core too, with numpy's bits and no
full-size temporary.  ``_gram`` is ``fp_gram``: the fp64 Gram products A^H B
of the harness's rate analysis and the bounds' condition-number sampler, in
the order of numpy's contraction ``"...mk,...ml->...kl"`` of ``A.conj()`` and
``B``, on numbers.  ``_norm`` is ``fp_norm``, the package's one fp64 norm, in
fused form: each term ``fma(re, re, im*im)``, the row summed in numpy's
pairwise order; numpy.linalg's ``norm(x, axis=-1)`` gives these bits where
its complex multiply fuses.  With ``unit=`` it also writes each row times
the reciprocal of its norm, with the bits of numpy's division on finite
nonzero parts, while the row is in cache: the package's one normalization.
Every Gaussian draw of the package goes through ``_normal``, ``rng.standard_normal`` byte for byte and to the
same end state, which hands PCG64 draws to the C core's ``fp_normal``: numpy's
ziggurat, its fast path inline (tables read back from ``libnpyrandom.a``), split
across threads, into an output of any stride; the CN draws of channels
and noise are ``_noise``, drawn into the parts of their complex output and
scaled in place by ``fp_cn``.

All kernels accept leading batch dimensions and vectorize across them; the
scalar reduction order along the contraction axis is part of the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import _core
from .formats import (
    FP64, FloatFormat, RangeMode, RoundingMode, _c_format, _out, _round, _uniforms,
)

__all__ = [
    "PolicyMode",
    "PrecisionPolicy",
    "CholeskyBreakdownError",
    "round_input",
    "inner_product_fp",
    "matvec_fp",
    "matmul_fp",
    "cholesky_fp",
    "trisolve_fp",
]


class PolicyMode(Enum):
    UNIFORM_LOW = "uniform-low"
    MIXED = "mixed"


@dataclass(frozen=True)
class PrecisionPolicy:
    """Which format and rounding mode each stage of a computation uses."""

    low: FloatFormat
    high: FloatFormat = FP64
    mode: PolicyMode = PolicyMode.UNIFORM_LOW
    block_size: int = 32
    rounding: RoundingMode = RoundingMode.NEAREST_EVEN
    range_mode: RangeMode = RangeMode.UNBOUNDED

    def __post_init__(self) -> None:
        if self.mode is PolicyMode.MIXED and self.block_size < 1:
            raise ValueError("mixed mode requires block_size >= 1")

    @classmethod
    def uniform(cls, fmt: FloatFormat, **kw) -> "PrecisionPolicy":
        return cls(low=fmt, high=fmt, mode=PolicyMode.UNIFORM_LOW, **kw)

    @classmethod
    def mixed(cls, low: FloatFormat, high: FloatFormat, block_size: int, **kw) -> "PrecisionPolicy":
        return cls(low=low, high=high, mode=PolicyMode.MIXED, block_size=block_size, **kw)

    @property
    def working(self) -> FloatFormat:
        """Format of products and (for mixed mode) intra-block arithmetic."""
        return self.low


class CholeskyBreakdownError(ArithmeticError):
    """A pivot became non-positive at the working precision."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(
            f"matrix numerically not positive definite (pivot {pivot_index})"
        )


def _gram(A, B):
    """A^H B in fp64 with the bits of numpy's contraction ``"...mk,...ml->...kl"``
    of ``A.conj()`` and ``B``, in the C core (``fp_gram``).  A NaN operand
    gives a NaN entry, of the C core's sign and payload, not numpy's.

    A has shape (..., M, K) and B (..., M, N), with the same batch shape; each
    entry is summed over m in order.  An inner product a^H b over the last
    axis is ``_gram(a[..., None], b[..., None])[..., 0, 0]``.
    """
    A = np.ascontiguousarray(A, dtype=np.complex128)
    B = np.ascontiguousarray(B, dtype=np.complex128)
    if A.ndim < 2 or A.shape[:-1] != B.shape[:-1]:
        raise ValueError(f"shape mismatch: A is {A.shape}, B is {B.shape}")
    *batch, M, K = A.shape
    N = B.shape[-1]
    out = np.empty((*batch, K, N), dtype=np.complex128)
    _core.lib().fp_gram(math.prod(batch), M, K, N, A.ctypes.data, B.ctypes.data, out.ctypes.data)
    return out


def _norm(x, unit=None):
    """The 2-norms of the rows of a complex ``x`` (its last axis), in the C
    core (``fp_norm``): the package's one fp64 norm.

    Each is sqrt(0.0 + the sum of fma(re, re, im*im) over the row, in the
    pairwise order of numpy's ``add.reduce``), on the C-contiguous copy of
    ``x``, so the bits do not depend on its layout; a C-contiguous ``x`` is
    read in place.  numpy.linalg's ``norm(x, axis=-1)`` of that copy gives
    them where numpy's complex multiply fuses a product into its sum (x86-64
    with FMA).  A 0-d ``x`` raises ValueError.

    With ``unit``, a C-contiguous complex128 array of ``x``'s shape (``x``
    itself, for one in place), each part of each row times the reciprocal of
    the row's norm is also written there, as the row is read: numpy's bits
    of ``x / _norm(x)[..., None]`` on finite nonzero parts, a zero keeping its
    sign, and a zero norm giving infinities, and NaN for a zero part.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim < 1:  # before ascontiguousarray, which makes a 0-d array 1-d
        raise ValueError("a norm needs at least one dimension")
    x = np.ascontiguousarray(x)
    *lanes, n = x.shape
    out = np.empty(lanes)
    if unit is not None:
        unit = _out(unit, x.shape, np.complex128)
    _core.lib().fp_norm(out.size, n, x.ctypes.data, out.ctypes.data,
                        None if unit is None else unit.ctypes.data)
    return out if out.ndim else out[()]


# Draws below this many go to numpy, as fp_normal's fixed cost (~15 us, the
# state's round trip) exceeds its saving: on a 2-vCPU Xeon VM, 1024 draws took
# 19 us by numpy and 23 us by fp_normal, 2048 draws 37 us and 31 us.
_NORMAL_SPLIT = 1 << 11
_U64 = (1 << 64) - 1


def _normal(rng, shape: tuple, out=None):
    """``rng.standard_normal(shape)`` byte for byte, leaving ``rng`` in the
    state numpy leaves it in.

    At least ``_NORMAL_SPLIT`` draws from a generator on an exact
    :class:`numpy.random.PCG64` go to the C core (:func:`_split_normal`),
    split across its threads when it has two or more.  Every other call is
    ``rng.standard_normal``'s.  With ``out``, a one-dimensional float64
    array of that many entries at any stride, the draws go into it in C order
    (numpy's are copied in, the C core's written there), and it is returned.
    """
    if out is not None and (out.dtype != np.float64 or out.shape != (math.prod(shape),)):
        raise ValueError(f"out must be float64 of shape ({math.prod(shape)},)")
    if type(rng.bit_generator) is np.random.PCG64 and math.prod(shape) >= _NORMAL_SPLIT:
        return _split_normal(rng, shape, _core.threads(), out)
    x = rng.standard_normal(shape)
    if out is None:
        return x
    out[...] = x.reshape(-1)
    return out


def _split_normal(rng, shape: tuple, pieces: int, out=None):
    """``rng.standard_normal(shape)`` for a generator on a PCG64, by the C
    core's ``fp_normal`` in rounds of ``pieces`` pieces, with numpy's own
    ziggurat and numpy's bits whatever ``pieces`` is, into a fresh array or
    into ``out`` as :func:`_normal` says.  The generator ends in its entry
    state advanced by the words the draws took, with its ``has_uint32`` and
    ``uinteger`` as they were; the generator's lock is held from reading the
    state to setting it, as numpy holds it for a draw."""
    if out is None:
        out = np.empty(shape)
    flat = out.reshape(-1)  # a view: out is fresh or one-dimensional
    bg = rng.bit_generator
    with bg.lock:
        state = bg.state
        pcg = state["state"]
        s, inc = pcg["state"], pcg["inc"]
        words = np.array([s >> 64, s & _U64, inc >> 64, inc & _U64], dtype=np.uint64)
        _core.lib().fp_normal(flat.size, pieces, words.ctypes.data, flat.ctypes.data,
                              flat.strides[0], words.ctypes.data)
        pcg["state"] = int(words[0]) << 64 | int(words[1])
        bg.state = state
    return out


def _noise(rng, shape: tuple, d: float = math.sqrt(2.0), out=None):
    """iid complex normals (re + 1j*im) / d, re and im standard normal:
    CN(0, 1) for the default d, CN(0, 2/d^2) for any.

    All real parts are drawn before the imaginary ones, straight into the
    parts of the complex output, which the C core's ``fp_cn`` then scales in
    place, each part times 1 / d: numpy's bits of ``(1j*im + re) / d`` on
    finite nonzero parts, which every draw is.  The output is a fresh array,
    or ``out``, a C-contiguous complex128 array of ``shape``, when given.
    """
    z = _out(out, shape, np.complex128)
    flat = z.reshape(-1)
    _normal(rng, flat.shape, flat.real)
    _normal(rng, flat.shape, flat.imag)
    _core.lib().fp_cn(flat.size, flat.ctypes.data, d)
    return z


def _rounded(name: str, policy: PrecisionPolicy, rng, *operands, out=None) -> list:
    """The operands of a call entered: each rounded by ``_round`` under the
    policy, in order, as ``round_input`` rounds it, into a fresh array or,
    with ``out``, into its array for that operand (as ``_round``'s); then
    ValueError if a part of a result, or under the strict range of an
    operand, is not finite.  The rounding's C pass makes that check as it
    goes.  Under stochastic rounding each operand is first checked by
    ``np.isfinite``, so that a bad one raises before any draw.  This is the
    one entry of every public kernel and transceiver, and of the harness's
    paired run."""
    if policy.rounding is RoundingMode.STOCHASTIC and not all(np.isfinite(x).all() for x in operands):
        raise ValueError(f"{name} requires finite input")
    found = np.zeros(1, dtype=np.int64)
    q = [_round(x, policy.working, policy.rounding, policy.range_mode, rng, found, out=o)
         for x, o in zip(operands, out or [None] * len(operands))]
    if found[0]:
        raise ValueError(f"{name} requires finite input")
    return q


def round_input(x, policy: PrecisionPolicy, rng=None):
    """Round a real or complex array into the policy's working format, by
    ``formats._round``.

    The kernels enter their operands by the same rounding (``_rounded``,
    which also checks them); rounding twice is a no-op, so callers may
    pre-round to separate representation error from arithmetic error.  It
    does no finiteness check, and it never writes into ``x``.  A real ``x``
    is rounded as float64, and under an fp64 nearest-even unbounded policy a
    float64 ``x`` comes back as itself.  A complex ``x`` is rounded as
    complex128, each part on its own, into a fresh array (a scalar for 0-d):
    a part that rounding keeps, a signed zero included, is copied bit for
    bit, and a finite part beside an infinite or NaN one keeps its value,
    so under fp64's nearest-even policy the copy has ``x``'s bytes.  Under
    stochastic rounding it draws all real-part uniforms, in C order, before
    the imaginary ones.  Either is read through its strides.
    """
    x = np.asarray(x)
    x = np.asarray(x, dtype=np.complex128 if np.iscomplexobj(x) else np.float64)
    return _round(x, policy.working, policy.rounding, policy.range_mode, rng)


def _dot(a, d, policy: PrecisionPolicy, rng, upper: bool = False, conj: bool = False,
         out=None):
    """Rounded sum_i a_i d_i over the last axis, in the C core; with
    ``conj=True`` sum_i conj(a_i) d_i, with the bits of the sum on numpy's
    conjugate of ``a``.

    Each product of the 2n-term real expansions is rounded in the working
    format.  A uniform policy sums each expansion sequentially in the
    working format.  A mixed policy sums blocks of ``block_size`` terms in
    the low format, the ragged last block padded with +0.0, and adds the
    block sums sequentially in the high format.  Stochastic draws follow the
    order of the elementwise evaluation: the products, then the real-part
    sums, then the imaginary-part sums, in-block steps before block steps.
    ``upper=True`` reduces only the lanes on and above the diagonal of the
    last two lane axes, leaving 0 below it, with the draws of the full call.
    The result is a fresh array, or ``out``, a C-contiguous complex128 array
    of the lanes' shape, when given.
    """
    shape = np.broadcast_shapes(a.shape, d.shape)
    lanes, n = shape[:-1], shape[-1]
    if n == 0:
        raise ValueError("a reduction needs at least one term")
    a = np.broadcast_to(np.asarray(a, dtype=np.complex128), shape)
    d = np.broadcast_to(np.asarray(d, dtype=np.complex128), shape)
    mixed = policy.mode is PolicyMode.MIXED
    b = policy.block_size if mixed else 1
    high = policy.high if mixed else policy.low
    count = math.prod(lanes)
    g = -(-2 * n // b)
    u = _uniforms(policy.rounding, rng, count * (4 * n + 2 * ((b - 1) * g + g - 1)))
    out = _out(out, lanes, np.complex128)
    geom = np.array([*lanes, *a.strides, *d.strides], dtype=np.int64)
    _core.lib().fp_dot(
        len(lanes), geom.ctypes.data, n, a.ctypes.data, d.ctypes.data,
        _c_format(policy.low, policy.range_mode), _c_format(high, policy.range_mode),
        b, None if u is None else u.ctypes.data, upper, conj, out.ctypes.data,
    )
    return out if out.ndim else out[()]


def _as_complex(x, name: str, ndim: int):
    """``x`` as complex128, or ValueError if it has fewer than ``ndim``
    dimensions (a vector 1, a matrix 2), before any rounding or draw."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim < ndim:
        raise ValueError(f"{name} has too few dimensions ({x.ndim} < {ndim})")
    return x


def inner_product_fp(a, b, policy: PrecisionPolicy, rng=None):
    """Finite-precision a^H b; ``a`` and ``b`` are complex with shape (..., n).

    A uniform policy sums the 2n-term real expansions sequentially in the
    working format.  A mixed policy uses blocked summation with block size
    b: products and size-b intra-block partial sums run in the low format,
    and the ceil(2n/b) partial results are combined sequentially in the
    high format.
    """
    return _inner_call("inner_product_fp", a, b, policy, rng)


def _inner_call(name: str, a, b, policy: PrecisionPolicy, rng=None):
    """The body of :func:`inner_product_fp`, entering its operands under ``name``."""
    a = _as_complex(a, "a", 1)
    b = _as_complex(b, "b", 1)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"length mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    out = _inner(*_rounded(name, policy, rng, a, b), policy, rng)
    if np.ndim(out) == 0:
        return complex(out)
    return out


def _inner(a, b, policy: PrecisionPolicy, rng=None):
    """The core of :func:`inner_product_fp` on entered operands."""
    return _dot(a, b, policy, rng, conj=True)


def matvec_fp(A, x, policy: PrecisionPolicy, rng=None):
    """y = A x, each row reduced like an inner product (mixed-aware)."""
    A = _as_complex(A, "A", 2)
    x = _as_complex(x, "x", 1)
    if A.shape[-1] != x.shape[-1]:
        raise ValueError(f"dim mismatch: A is ...x{A.shape[-1]}, x has {x.shape[-1]}")
    A, x = _rounded("matvec_fp", policy, rng, A, x)
    return _dot(A, x[..., None, :], policy, rng)


def matmul_fp(A, B, policy: PrecisionPolicy, rng=None):
    """C = A B, entrywise finite-precision inner products (mixed-aware)."""
    A = _as_complex(A, "A", 2)
    B = _as_complex(B, "B", 2)
    if A.shape[-1] != B.shape[-2]:
        raise ValueError(f"dim mismatch: A is ...x{A.shape[-1]}, B is {B.shape[-2]}x...")
    A, B = _rounded("matmul_fp", policy, rng, A, B)
    Bt = np.swapaxes(B, -1, -2)  # (..., p, n)
    return _dot(A[..., :, None, :], Bt[..., None, :, :], policy, rng)


# -- the rounded complex multiply -------------------------------------------

def _cmul(a, b, policy: PrecisionPolicy, rng, out=None):
    """a * b as 4 rounded real multiplies and 2 rounded adds in the working format.

    The naive scheme (no 3-multiply trick) is the one-term reduction of
    :func:`_dot`: its error expands into the 2-term real inner-product model.
    ``out`` is as :func:`_dot`'s.
    """
    if policy.mode is PolicyMode.MIXED:
        policy = replace(policy, mode=PolicyMode.UNIFORM_LOW)
    return _dot(a[..., None], b[..., None], policy, rng, out=out)


def cholesky_fp(C, policy: PrecisionPolicy, rng=None, error: str = "raise"):
    """Cholesky factorization C = R^H R with every operation rounded.

    ``C`` is Hermitian with shape (..., K, K); ``R`` comes back upper
    triangular with real positive diagonal.  Row-oriented order, in the C
    core (``fp_chol``); the reduction over previously computed rows is
    sequential.  Only the upper triangle of ``C`` and the real part of its
    diagonal are read, though all of ``C`` is checked and rounded on entry.

    A non-positive pivot becomes 1.0, so a broken lane's (meaningless) R
    stays solvable, and the factorization runs to its end in every lane.
    Then ``error="mask"`` returns ``(R, breakdown)``, ``breakdown`` a
    boolean array over the batch, and ``error="raise"`` raises
    :class:`CholeskyBreakdownError` at the smallest column that broke down
    in any lane, leaving the rng where the mask call leaves it.
    """
    if error not in ("raise", "mask"):
        raise ValueError("error must be 'raise' or 'mask'")
    C = _as_complex(C, "C", 2)
    if C.shape[-2] != C.shape[-1]:
        raise ValueError("C must be square")
    (C,) = _rounded("cholesky_fp", policy, rng, C)
    return _settled(_chol(C, policy, rng), C.shape[-1], error)


def _chol(C, policy: PrecisionPolicy, rng=None):
    """The core of :func:`cholesky_fp` on an entered C: R and, for each lane,
    the first column whose pivot was not positive, or K (see ``_settled``)."""
    K = C.shape[-1]
    batch, lanes = C.shape[:-2], math.prod(C.shape[:-2])
    R, broken = np.empty(C.shape, dtype=np.complex128), np.empty(batch, dtype=np.int64)
    steps = K + 3 * K * (K - 1) + 4 * K * (K - 1) * (K - 2) // 3  # fp_chol's, per lane
    u = _uniforms(policy.rounding, rng, lanes * steps)
    _core.lib().fp_chol(lanes, K, C.ctypes.data, _c_format(policy.working, policy.range_mode),
                        None if u is None else u.ctypes.data, R.ctypes.data, broken.ctypes.data)
    return R, broken


def _settled(result, K: int, error: str):
    """A factoring core's ``(out, broken)``, ``broken`` per lane the first
    column whose pivot was not positive or K, as its public call returns it:
    ``(out, broken < K)`` under ``error="mask"``; else ``out``, or
    :class:`CholeskyBreakdownError` at the smallest broken column."""
    out, broken = result
    mask = broken < K
    if error == "mask":
        return out, mask
    if mask.any():
        raise CholeskyBreakdownError(int(broken.min()))
    return out


def trisolve_fp(R, rhs, side: str, policy: PrecisionPolicy, rng=None):
    """Solve a triangular system from an upper factor R, every op rounded.

    side="lower-conjugate" solves R^H q = rhs (forward substitution);
    side="upper" solves R x = rhs (back substitution).  Assumes the real
    diagonal produced by :func:`cholesky_fp`; a diagonal entry that is 0 once
    rounded (a strict-IEEE flush) raises ZeroDivisionError before the
    solve's draws, and a solution with a part that is not finite (one that
    overflows) raises ValueError.  The substitution runs in the C core
    (``fp_trisolve``).
    """
    if side not in ("lower-conjugate", "upper"):
        raise ValueError("side must be 'lower-conjugate' or 'upper'")
    R = _as_complex(R, "R", 2)
    rhs = _as_complex(rhs, "rhs", 1)
    K = R.shape[-1]
    if R.shape[-2] != K or rhs.shape[-1] != K:
        raise ValueError("shape mismatch between R and rhs")
    R, rhs = _rounded("trisolve_fp", policy, rng, R, rhs)
    if np.any(np.diagonal(R, axis1=-2, axis2=-1).real == 0):
        raise ZeroDivisionError("zero diagonal entry in triangular solve")
    return _solve(R, rhs, side, policy, rng)


def _solve(R, rhs, side: str, policy: PrecisionPolicy, rng=None):
    """The core of :func:`trisolve_fp` on an entered factor and right-hand
    side, whose diagonal has no 0 (``_chol``'s pivots are positive)."""
    K = R.shape[-1]
    batch = np.broadcast_shapes(R.shape[:-2], rhs.shape[:-1])
    lanes = math.prod(batch)
    R = np.ascontiguousarray(np.broadcast_to(R, batch + (K, K)))
    rhs = np.ascontiguousarray(np.broadcast_to(rhs, batch + (K,)))
    x = np.empty(batch + (K,), dtype=np.complex128)
    u = _uniforms(policy.rounding, rng, lanes * 2 * K * (2 * K - 1))  # fp_trisolve's, per lane
    _core.lib().fp_trisolve(lanes, K, side == "upper", R.ctypes.data, rhs.ctypes.data,
                            _c_format(policy.working, policy.range_mode),
                            None if u is None else u.ctypes.data, x.ctypes.data)
    if not np.isfinite(x).all():
        raise ValueError("trisolve_fp gave a non-finite solution")
    return x
