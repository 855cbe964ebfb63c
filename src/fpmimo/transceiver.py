"""Finite-precision transceiver procedures.

Four linear transceivers parameterized by a :class:`PrecisionPolicy`:
matched-filter combining (MRC) and precoding (MRT) for single-user links,
and normal-equations zero-forcing detection/precoding for multi-user links.
The zero-forcing pair never forms (H^H H)^-1 explicitly: it factorizes the
Gram matrix by Cholesky and runs two triangular solves.

All operations accept leading batch dimensions on their array arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import (
    PrecisionPolicy,
    _cmul,
    _enter,
    _finite,
    _matmul,
    cholesky_fp,
    inner_product_fp,
    matvec_fp,
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
        _finite("mrt_precode", policy, h, x_d)
        nrm = np.linalg.norm(h, axis=-1, keepdims=True)
        if np.any(nrm == 0):
            raise ValueError("mrt_precode requires a nonzero channel")
        h = h / nrm
    hn, x = _enter("mrt_precode", policy, rng, h, x_d[..., None])
    return _cmul(hn, x, policy, rng)


def _channel(name: str, H, rhs, policy: PrecisionPolicy, rng):
    """H, entered once for every kernel of the call, and H^H, C-ordered:
    under nearest-even the kernels keep both as they are.  The right-hand
    side ``rhs`` is checked for finiteness first, so a non-finite one raises
    under ``name`` before anything is rounded or drawn."""
    _finite(name, policy, rhs)
    (H,) = _enter(name, policy, rng, H)
    return H, np.conj(np.swapaxes(H, -1, -2), order="C")


def _gram_solve(H, Hh, rhs, policy: PrecisionPolicy, rng, error: str):
    """Solve (H^H H) y = rhs through Cholesky + two triangular solves.

    A broken lane solves with the unit pivots ``cholesky_fp`` gave it; its
    result is discarded upstream."""
    C = _matmul(Hh, H, policy, rng, upper=True)  # the factor reads only the upper triangle
    out = cholesky_fp(C, policy, rng, error=error)
    R, breakdown = out if error == "mask" else (out, None)
    q = trisolve_fp(R, rhs, "lower-conjugate", policy, rng)
    y = trisolve_fp(R, q, "upper", policy, rng)
    return y, breakdown


def zf_detect_ne(H, z, policy: PrecisionPolicy, rng=None, error: str = "raise"):
    """Zero-forcing detection via the normal equations.

    Computes c = fl(H^H z), C = fl(H^H H), then solves C r = c by Cholesky
    factorization and forward/back substitution, every operation rounded.
    ``H`` has shape (..., M, K), ``z`` shape (..., M); returns r of shape
    (..., K).  With ``error="mask"`` returns (r, breakdown_mask) instead of
    raising on a non-positive pivot.
    """
    H = np.asarray(H, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    if H.shape[-2] != z.shape[-1]:
        raise ValueError("H and z disagree on the antenna count")
    H, Hh = _channel("zf_detect_ne", H, z, policy, rng)
    c = matvec_fp(Hh, z, policy, rng)
    r, breakdown = _gram_solve(H, Hh, c, policy, rng, error)
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
    of shape (..., M).
    """
    H = np.asarray(H, dtype=np.complex128)
    x_d = np.asarray(x_d, dtype=np.complex128)
    M, K = H.shape[-2], H.shape[-1]
    if x_d.shape[-1] != K:
        raise ValueError("x_d and H disagree on the user count")
    H, Hh = _channel("zf_precode_ne", H, x_d, policy, rng)
    e, breakdown = _gram_solve(H, Hh, x_d, policy, rng, error)
    s = matvec_fp(H, e, policy, rng)
    if normalize:
        if M <= K:
            raise ValueError("power normalization requires M > K")
        s = math.sqrt(M - K) * s
    if error == "mask":
        return s, breakdown
    return s
