"""Floating-point format emulation on a 64-bit carrier.

A target format is described by its significand width ``t`` (bits, implicit
leading bit included), and its exponent range.  Every emulated operation is
computed exactly in 64-bit arithmetic and the result's significand is then
rounded to ``t`` bits by the C core of :mod:`fpmimo._core`.  Double rounding
is exact for all supported presets because ``t <= 24`` for the low-precision
formats and ``t = 53`` is a pass-through.

All rounding entry points accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _core

__all__ = [
    "FloatFormat",
    "RoundingMode",
    "RangeMode",
    "BFLOAT16",
    "FP16",
    "FP32",
    "FP64",
    "PRESETS",
    "get_format",
    "round_to_format",
]


class RoundingMode(Enum):
    """How the infinitely-precise result is mapped onto the target grid."""

    NEAREST_EVEN = "nearest-even"
    STOCHASTIC = "stochastic"


class RangeMode(Enum):
    """Exponent-range handling.

    UNBOUNDED rounds the significand only (no overflow/underflow), which is
    the default model used throughout the error analysis.  STRICT_IEEE clamps
    magnitudes above ``x_max`` and flushes magnitudes below the smallest
    normalized number to zero.
    """

    UNBOUNDED = "unbounded"
    STRICT_IEEE = "strict-ieee"


@dataclass(frozen=True)
class FloatFormat:
    """A binary floating-point number format.

    ``significand_bits`` counts the implicit leading bit, so fp64 has 53.
    The unit roundoff is ``u = 2**-t`` (half the spacing at 1.0).
    """

    name: str
    significand_bits: int
    exponent_min: int
    exponent_max: int

    def __post_init__(self) -> None:
        t = self.significand_bits
        if t < 2:
            raise ValueError(f"significand_bits must be >= 2, got {t}")
        if t > 53:
            raise ValueError(
                f"significand_bits must be <= 53 (64-bit carrier), got {t}"
            )
        if self.exponent_min >= self.exponent_max:
            raise ValueError("exponent_min must be below exponent_max")

    @property
    def unit_roundoff(self) -> float:
        return 0.5 * 2.0 ** (1 - self.significand_bits)

    @property
    def x_min(self) -> float:
        """Smallest positive normalized number."""
        return 2.0**self.exponent_min

    @property
    def x_max(self) -> float:
        """Largest finite number."""
        return (2.0 - 2.0 ** (1 - self.significand_bits)) * 2.0**self.exponent_max

    @property
    def is_carrier(self) -> bool:
        """True when rounding into this format is a no-op on the carrier."""
        return self.significand_bits == 53

    def __str__(self) -> str:
        return self.name


BFLOAT16 = FloatFormat("bfloat16", 8, -126, 127)
FP16 = FloatFormat("fp16", 11, -14, 15)
FP32 = FloatFormat("fp32", 24, -126, 127)
FP64 = FloatFormat("fp64", 53, -1022, 1023)

PRESETS = {f.name: f for f in (BFLOAT16, FP16, FP32, FP64)}


def get_format(name: str) -> FloatFormat:
    """Look up a preset by name ("bfloat16", "fp16", "fp32", "fp64")."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown format {name!r}; known: {sorted(PRESETS)}"
        ) from None


@functools.cache
def _c_format(fmt: FloatFormat, range_mode: RangeMode) -> _core.Format:
    """``fmt`` and ``range_mode`` as the C core reads them."""
    strict = range_mode is RangeMode.STRICT_IEEE
    return _core.Format(fmt.significand_bits, strict, fmt.x_min, fmt.x_max)


def _uniforms(mode: RoundingMode, rng, size: int):
    """The ``size`` uniforms stochastic rounding consumes, or None for nearest-even."""
    if mode is RoundingMode.NEAREST_EVEN:
        return None
    if rng is None:
        raise ValueError("stochastic rounding requires an rng")
    return rng.random(size)


def _out(out, shape: tuple, dtype):
    """A fresh array of ``shape`` and ``dtype``, or ``out`` once checked to
    be a C-contiguous one, which the C core writes in C order."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != tuple(shape) or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous {np.dtype(dtype)} of shape {tuple(shape)}")
    return out


def _round(x, fmt: FloatFormat, mode: RoundingMode, range_mode: RangeMode, rng, found=None,
           out=None):
    """The elementwise rounding core behind :func:`round_to_format` and the kernels.

    A real ``x`` is rounded as float64, a complex one as complex128, both
    parts of each entry, joined by ``join_to``; one C pass (``fp_round``)
    reads ``x`` through its shape and strides, so no view is copied.  It does
    not raise on a non-finite value, which propagates, and it never writes
    into ``x``.  The result is a fresh array (a scalar for a 0-d input,
    except a real one under the strict range), or ``out``, a C-contiguous
    array of ``x``'s shape and carrier dtype that does not overlap ``x``,
    when given; the real fp64 nearest-even unbounded passthrough returns
    ``x`` itself either way.  With
    ``found``, a one-entry int64 array, the C pass also sets ``found[0]``
    to 1 if some part of the result is not finite or, under the strict
    range, which clamps an infinity, some part of ``x``, so that one pass
    rounds and checks; the passthrough makes no pass and sets nothing.
    Stochastic rounding takes one draw per part per call, all real parts'
    before the imaginary ones, so callers must keep the order of their calls
    to reproduce a stream.
    """
    parts = 2 if np.iscomplexobj(x) else 1
    if (parts == 1 and fmt.is_carrier and mode is RoundingMode.NEAREST_EVEN
            and range_mode is RangeMode.UNBOUNDED):
        return x
    x = np.asarray(x, dtype=np.complex128 if parts == 2 else np.float64)
    out = _out(out, x.shape, x.dtype)
    u = _uniforms(mode, rng, parts * x.size)
    geom = np.array([*x.shape, *x.strides], dtype=np.int64)
    _core.lib().fp_round(
        x.ndim, geom.ctypes.data, parts, x.ctypes.data, out.ctypes.data,
        _c_format(fmt, range_mode), None if u is None else u.ctypes.data,
        None if found is None else found.ctypes.data,
    )
    if out.ndim or (parts == 1 and range_mode is RangeMode.STRICT_IEEE):
        return out
    return out[()]  # [()] turns a 0-d result into a scalar


def round_to_format(
    x,
    fmt: FloatFormat,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    range_mode: RangeMode = RangeMode.UNBOUNDED,
    rng=None,
):
    """Round real carrier value(s) into ``fmt``.

    Raises ValueError on non-finite input.  Idempotent, monotone under
    nearest-even, and exact on representable inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("round_to_format requires finite input")
    y = _round(x, fmt, mode, range_mode, rng)
    if np.ndim(y) == 0:
        return float(y)
    return y
