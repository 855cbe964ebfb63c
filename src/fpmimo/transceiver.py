"""Finite-precision transceiver procedures.

Four linear transceivers parameterized by a :class:`PrecisionPolicy`:
matched-filter combining (MRC) and precoding (MRT) for single-user links,
and normal-equations zero-forcing detection/precoding for multi-user links.
The zero-forcing pair never forms (H^H H)^-1 explicitly: it factorizes the
Gram matrix by Cholesky and runs two triangular solves.

All operations accept leading batch dimensions on their array arguments.

Each public transceiver enters each operand it is given once, by
``kernels._rounded``, as the harness's paired run enters its inputs, and
calls its core (MRC's is ``kernels._inner``), which the paired run calls
directly on the inputs it rounded.  A core rounds none of its operands
again; the zero-forcing cores conjugate H inside their reductions, forming
no H^H, round only C and c, which under a mixed policy hold sums of the high
format, under their own name, factor C by ``kernels._chol`` and pass R, q
and e to ``kernels._solve``, which checks its result.  They return the
factor's breakdown per lane, which the public call settles, after the solves.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import (
    PrecisionPolicy,
    _as_complex,
    _chol,
    _cmul,
    _dot,
    _inner_call,
    _norm,
    _rounded,
    _settled,
    _solve,
)

__all__ = ["mrc_combine", "mrt_precode", "zf_detect_ne", "zf_precode_ne"]


def mrc_combine(h, z, policy: PrecisionPolicy, rng=None):
    """Matched-filter combining r = h^H z under the policy.

    ``h`` and ``z`` have shape (..., M).  Uniform policies reduce
    sequentially; a mixed policy uses the blocked summation architecture.
    """
    return _inner_call("mrc_combine", h, z, policy, rng)


def mrt_precode(h, x_d, policy: PrecisionPolicy, rng=None, prenormalized=False):
    """Matched-filter precoding s = (h/||h||) * x_d, shape (..., M).

    The direction h/||h|| is carried in full precision: ``kernels._norm``
    (the harness's, with bits that do not depend on the layout of ``h``)
    writes it into a fresh array as it takes the norm, each part times the
    reciprocal of the norm, with numpy's bits of ``h / _norm(h)[..., None]``
    on finite nonzero parts.  Only the per-entry complex scalar products run
    at the working format (4 rounded real multiplies + 2 rounded additions
    per entry), so the error does not grow with M.
    ``prenormalized=True`` skips the normalization (the caller already
    passes a unit-norm direction), which lets a full-precision rerun consume
    bit-identical inputs.  Non-finite ``h`` or ``x_d``, a norm of ``h`` that
    overflows, or a zero ``h`` raises ValueError.
    """
    h = np.asarray(h, dtype=np.complex128)
    x_d = np.asarray(x_d, dtype=np.complex128)
    if not prenormalized:
        if not np.isfinite(h).all():  # before the norm, which would turn a bad h into NaN
            raise ValueError("mrt_precode requires finite input")
        unit = np.empty(h.shape, dtype=np.complex128)
        nrm = _norm(h, unit=unit)
        if not np.isfinite(nrm).all():  # else the direction would be a precoder of zeros
            raise ValueError("mrt_precode requires a channel whose norm does not overflow")
        if np.any(nrm == 0):
            raise ValueError("mrt_precode requires a nonzero channel")
        h = unit
    return _mrt(*_rounded("mrt_precode", policy, rng, h, x_d), policy, rng)


def _mrt(hn, x_d, policy: PrecisionPolicy, rng=None, out=None):
    """The core of :func:`mrt_precode` on an entered direction and symbols,
    into a fresh array or ``out`` (see ``kernels._dot``)."""
    return _cmul(hn, x_d[..., None], policy, rng, out=out)


def _factor(name: str, H, policy: PrecisionPolicy, rng):
    """``kernels._chol`` of H^H H from the entered H: R and its breakdown per
    lane.  The Gram, which may hold sums of the high format, is entered under
    the transceiver's ``name``.  A broken lane keeps its unit pivots, so it
    stays solvable; its result is discarded upstream."""
    return _chol(*_rounded(name, policy, rng, _upper_gram(H, policy, rng)), policy, rng)


def _upper_gram(H, policy: PrecisionPolicy, rng):
    """H^H H from the entered H on and above the diagonal, bit for bit, and 0
    below it, which the factor does not read (see ``kernels._dot``)."""
    Ht = np.swapaxes(H, -1, -2)
    return _dot(Ht[..., :, None, :], Ht[..., None, :, :], policy, rng, upper=True, conj=True)


def zf_detect_ne(H, z, policy: PrecisionPolicy, rng=None, error: str = "raise"):
    """Zero-forcing detection via the normal equations.

    Computes c = fl(H^H z), C = fl(H^H H), then solves C r = c by Cholesky
    factorization and forward/back substitution, every operation rounded.
    ``H`` has shape (..., M, K), ``z`` shape (..., M); returns r of shape
    (..., K).  A lane whose factor breaks down is solved on its unit pivots
    (see :func:`~fpmimo.kernels.cholesky_fp`); then ``error="mask"`` returns
    (r, breakdown_mask), and ``error="raise"`` raises CholeskyBreakdownError.
    A non-finite ``H`` or ``z``, an ``H`` of fewer than two dimensions or a
    bad ``error`` raises ValueError before any draw, an overflowing solution
    after, before any breakdown raises.
    """
    H = _as_complex(H, "H", 2)
    z = _as_complex(z, "z", 1)
    if H.shape[-2] != z.shape[-1]:
        raise ValueError("H and z disagree on the antenna count")
    if error not in ("raise", "mask"):
        raise ValueError("error must be 'raise' or 'mask'")
    H, z = _rounded("zf_detect_ne", policy, rng, H, z)
    return _settled(_zf_detect(H, z, policy, rng), H.shape[-1], error)


def _zf_detect(H, z, policy: PrecisionPolicy, rng=None):
    """The core of :func:`zf_detect_ne` on an entered channel and signal: r,
    and the factor's breakdown per lane (see ``kernels._settled``)."""
    c = _dot(np.swapaxes(H, -1, -2), z[..., None, :], policy, rng, conj=True)
    R, broken = _factor("zf_detect_ne", H, policy, rng)
    (c,) = _rounded("zf_detect_ne", policy, rng, c)  # its sums may be of the high format
    q = _solve(R, c, "lower-conjugate", policy, rng)
    return _solve(R, q, "upper", policy, rng), broken


def zf_precode_ne(
    H,
    x_d,
    policy: PrecisionPolicy,
    rng=None,
    error: str = "raise",
    normalize: bool = True,
):
    """Zero-forcing precoding via the normal equations.

    Solves (H^H H) e = x_d by Cholesky + two triangular solves, then forms
    s = fl(H e).  ``normalize=True`` applies the full-precision power
    normalization sqrt(M - K) (the analytic expectation of the zero-forcing
    precoder's power).  ``H`` is (..., M, K), ``x_d`` is (..., K); returns s
    of shape (..., M).  A breakdown is handled as in :func:`zf_detect_ne`.
    A non-finite ``H`` or ``x_d``, an ``H`` of fewer than two dimensions, a
    bad ``error`` or M <= K with ``normalize`` raises ValueError before any
    draw; so does, after them and before any breakdown raises, a solution
    that overflows.
    """
    H = _as_complex(H, "H", 2)
    x_d = _as_complex(x_d, "x_d", 1)
    if x_d.shape[-1] != H.shape[-1]:
        raise ValueError("x_d and H disagree on the user count")
    if error not in ("raise", "mask"):
        raise ValueError("error must be 'raise' or 'mask'")
    if normalize and H.shape[-2] <= H.shape[-1]:
        raise ValueError("power normalization requires M > K")
    H, x_d = _rounded("zf_precode_ne", policy, rng, H, x_d)
    return _settled(_zf_precode(H, x_d, policy, rng, normalize), H.shape[-1], error)


def _zf_precode(H, x_d, policy: PrecisionPolicy, rng=None, normalize: bool = True):
    """The core of :func:`zf_precode_ne` on an entered channel and symbols:
    s, and the factor's breakdown per lane (see ``kernels._settled``)."""
    M, K = H.shape[-2], H.shape[-1]
    R, broken = _factor("zf_precode_ne", H, policy, rng)
    q = _solve(R, x_d, "lower-conjugate", policy, rng)
    e = _solve(R, q, "upper", policy, rng)
    s = _dot(H, e[..., None, :], policy, rng)
    if normalize:
        s = math.sqrt(M - K) * s
    return s, broken
