"""Finite-precision transceiver procedures.

Four linear transceivers parameterized by a :class:`PrecisionPolicy`:
matched-filter combining (MRC) and precoding (MRT) for single-user links,
and normal-equations zero-forcing detection/precoding for multi-user links.
The zero-forcing pair never forms (H^H H)^-1 explicitly: it factorizes the
Gram matrix by Cholesky and runs two triangular solves.

All operations accept leading batch dimensions on their array arguments.

Each public transceiver enters each operand it is given once, by
``kernels._checked``, and calls its core (MRC's is ``kernels._inner``),
which the harness's paired run calls directly on the inputs it rounded.  A
core checks none of its operands; the zero-forcing cores conjugate H inside
their reductions, forming no H^H, and check only what their stages compute
(C, R, c, q and e), as the kernels that read them always have.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import (
    PrecisionPolicy,
    _checked,
    _cmul,
    _dot,
    _finite,
    _stage,
    _trisolve,
    cholesky_fp,
    inner_product_fp,
    trisolve_fp,
)

__all__ = ["mrc_combine", "mrt_precode", "zf_detect_ne", "zf_precode_ne"]


def mrc_combine(h, z, policy: PrecisionPolicy, rng=None):
    """Matched-filter combining r = h^H z under the policy.

    ``h`` and ``z`` have shape (..., M).  Uniform policies reduce
    sequentially; a mixed policy uses the blocked summation architecture.
    """
    return inner_product_fp(h, z, policy, rng)


def mrt_precode(h, x_d, policy: PrecisionPolicy, rng=None, prenormalized=False):
    """Matched-filter precoding s = (h/||h||) * x_d, shape (..., M).

    The norm and the division are carried in full precision; only the
    per-entry complex scalar products run at the working format (4 rounded
    real multiplies + 2 rounded additions per entry), so the error does not
    grow with M.  ``prenormalized=True`` skips the norm division (the caller
    already passes a unit-norm direction), which lets a full-precision rerun
    consume bit-identical inputs.  Non-finite ``h`` or ``x_d`` raises
    ValueError.
    """
    h = np.asarray(h, dtype=np.complex128)
    x_d = np.asarray(x_d, dtype=np.complex128)
    if not prenormalized:
        _finite("mrt_precode", h)  # before the norm, which would turn a bad h into NaN
        nrm = np.linalg.norm(h, axis=-1, keepdims=True)
        if np.any(nrm == 0):
            raise ValueError("mrt_precode requires a nonzero channel")
        h = h / nrm
    return _mrt(*_checked("mrt_precode", policy, h, x_d), policy, rng)


def _mrt(hn, x_d, policy: PrecisionPolicy, rng=None):
    """The core of :func:`mrt_precode` on an entered direction and symbols."""
    hn, x = _stage(policy, rng, hn, x_d[..., None])
    return _cmul(hn, x, policy, rng)


def _factor(H, policy: PrecisionPolicy, rng, error: str):
    """The Cholesky factor R of H^H H from the entered H, and the breakdown
    mask (None unless ``error="mask"``).

    A broken lane keeps the unit pivots ``cholesky_fp`` gave it, so it stays
    solvable; its result is discarded upstream."""
    # the factor checks C as it takes it
    out = cholesky_fp(_upper_gram(H, policy, rng), policy, rng, error=error)
    return out if error == "mask" else (out, None)


def _upper_gram(H, policy: PrecisionPolicy, rng):
    """H^H H from the entered H on and above the diagonal, bit for bit, and 0
    below it, which the factor does not read (see ``kernels._dot``)."""
    Ht, H = _stage(policy, rng, np.swapaxes(H, -1, -2), H)
    return _dot(Ht[..., :, None, :], np.swapaxes(H, -1, -2)[..., None, :, :], policy, rng,
                upper=True, conj=True)


def zf_detect_ne(H, z, policy: PrecisionPolicy, rng=None, error: str = "raise"):
    """Zero-forcing detection via the normal equations.

    Computes c = fl(H^H z), C = fl(H^H H), then solves C r = c by Cholesky
    factorization and forward/back substitution, every operation rounded.
    ``H`` has shape (..., M, K), ``z`` shape (..., M); returns r of shape
    (..., K).  With ``error="mask"`` returns (r, breakdown_mask) instead of
    raising on a non-positive pivot.  A non-finite ``H`` or ``z`` raises
    ValueError before any draw or reduction.
    """
    H = np.asarray(H, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    if H.shape[-2] != z.shape[-1]:
        raise ValueError("H and z disagree on the antenna count")
    z, H = _checked("zf_detect_ne", policy, z, H)
    return _zf_detect(H, z, policy, rng, error)


def _zf_detect(H, z, policy: PrecisionPolicy, rng=None, error: str = "raise"):
    """The core of :func:`zf_detect_ne` on an entered channel and signal."""
    (H,) = _stage(policy, rng, H)
    Ht, zc = _stage(policy, rng, np.swapaxes(H, -1, -2), z)
    c = _dot(Ht, zc[..., None, :], policy, rng, conj=True)
    R, breakdown = _factor(H, policy, rng, error)
    q = trisolve_fp(R, c, "lower-conjugate", policy, rng)  # which checks R and c
    r = trisolve_fp(R, q, "upper", policy, rng)
    if error == "mask":
        return r, breakdown
    return r


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
    of shape (..., M).  A non-finite ``H`` or ``x_d`` raises ValueError
    before any draw or reduction.
    """
    H = np.asarray(H, dtype=np.complex128)
    x_d = np.asarray(x_d, dtype=np.complex128)
    if x_d.shape[-1] != H.shape[-1]:
        raise ValueError("x_d and H disagree on the user count")
    x_d, H = _checked("zf_precode_ne", policy, x_d, H)
    return _zf_precode(H, x_d, policy, rng, error, normalize)


def _zf_precode(H, x_d, policy: PrecisionPolicy, rng=None, error: str = "raise",
                normalize: bool = True):
    """The core of :func:`zf_precode_ne` on an entered channel and symbols."""
    M, K = H.shape[-2], H.shape[-1]
    (H,) = _stage(policy, rng, H)
    R, breakdown = _factor(H, policy, rng, error)
    q = _trisolve(*_stage(policy, rng, *_checked("trisolve_fp", policy, R), x_d),
                  "lower-conjugate", policy, rng)
    e = trisolve_fp(R, q, "upper", policy, rng)
    H, e = _stage(policy, rng, H, *_checked("matvec_fp", policy, e))
    s = _dot(H, e[..., None, :], policy, rng)
    if normalize:
        if M <= K:
            raise ValueError("power normalization requires M > K")
        s = math.sqrt(M - K) * s
    if error == "mask":
        return s, breakdown
    return s
