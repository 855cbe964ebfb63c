"""Finite-precision transceiver procedures.

Four linear transceivers parameterized by a :class:`PrecisionPolicy`:
matched-filter combining (MRC) and precoding (MRT) for single-user links,
and normal-equations zero-forcing detection/precoding for multi-user links.
The zero-forcing pair never forms (H^H H)^-1 explicitly: it factorizes the
Gram matrix by Cholesky and runs two triangular solves.

All operations accept leading batch dimensions on their array arguments.

Each public transceiver scans each operand it is given once, enters it and
calls its core (MRC's is ``kernels._inner``), which the harness's paired run
calls directly.  A core scans none of its operands, nor H^H, the conjugate
of the entered H; it checks only what its stages compute (the zero-forcing
C, R, c, q and e), as the kernels that read them always have.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import (
    _MOVED,
    PrecisionPolicy,
    _checked,
    _cmul,
    _dot,
    _entered,
    _finite,
    _product,
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
    found = _finite("mrt_precode", policy, h, x_d)
    if not prenormalized:
        nrm = np.linalg.norm(h, axis=-1, keepdims=True)
        if np.any(nrm == 0):
            raise ValueError("mrt_precode requires a nonzero channel")
        h, found[0] = h / nrm, _MOVED  # a quotient of checked values: rounded, not scanned
    return _mrt(*_entered(policy, (h, x_d), found), policy, rng)


def _mrt(hn, x_d, policy: PrecisionPolicy, rng=None):
    """The core of :func:`mrt_precode` on an entered direction and symbols."""
    hn, x = _stage(policy, rng, hn, x_d[..., None])
    return _cmul(hn, x, policy, rng)


def _factor(H, Hh, policy: PrecisionPolicy, rng, error: str):
    """The Cholesky factor R of H^H H from the entered H and its conjugate
    transpose Hh, and the breakdown mask (None unless ``error="mask"``).

    A broken lane keeps the unit pivots ``cholesky_fp`` gave it, so it stays
    solvable; its result is discarded upstream."""
    # the factor reads only the upper triangle, and checks C as it takes it
    C = _product(*_stage(policy, rng, Hh, H), policy, rng, upper=True)
    out = cholesky_fp(C, policy, rng, error=error)
    return out if error == "mask" else (out, None)


def zf_detect_ne(H, z, policy: PrecisionPolicy, rng=None, error: str = "raise"):
    """Zero-forcing detection via the normal equations.

    Computes c = fl(H^H z), C = fl(H^H H), then solves C r = c by Cholesky
    factorization and forward/back substitution, every operation rounded.
    ``H`` has shape (..., M, K), ``z`` shape (..., M); returns r of shape
    (..., K).  With ``error="mask"`` returns (r, breakdown_mask) instead of
    raising on a non-positive pivot.  A non-finite ``H`` or ``z`` raises
    ValueError before anything is rounded or drawn.
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
    Hh = np.conj(np.swapaxes(H, -1, -2), order="C")
    Hc, zc = _stage(policy, rng, Hh, z)
    c = _dot(Hc, zc[..., None, :], policy, rng)
    R, breakdown = _factor(H, Hh, policy, rng, error)
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
    before anything is rounded or drawn.
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
    R, breakdown = _factor(H, np.conj(np.swapaxes(H, -1, -2), order="C"), policy, rng, error)
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
