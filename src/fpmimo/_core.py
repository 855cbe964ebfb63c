"""Build and load the rounding primitive in ``_core.c``.

The C source is compiled on first use, not at import, with the C compiler
Python was built with, by :func:`compile_command`.  It links numpy's static
``libnpyrandom.a`` (the C API of ``numpy.random``), whose ziggurat
``fp_normal`` calls, and reads ``numpy/random/bitgen.h`` from numpy's include
directory.  The shared library goes into the ``__pycache__`` directory beside
the source, named by the sha256 of the source, the compile command and the
bytes of ``libnpyrandom.a``, so an edited source or command, or another
numpy, builds afresh and an unchanged one loads the cached build.  A failed
build, or a missing ``libnpyrandom.a``, raises :class:`RuntimeError` with the
command and the compiler's output or the library's path; there is no
pure-Python fallback.  It is built with ``-pthread``: a large call splits its
lanes, or its normal draws, over as many threads as the process may use CPUs
when the library loads (at most eight; ``fp_threads`` reports the count, and
:func:`threads` returns it), with the bits of one thread.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shlex
import sysconfig
from pathlib import Path

SOURCE = Path(__file__).with_name("_core.c")
# -ffp-contract=off keeps every product and sum a separately rounded operation;
# -pthread links the threads that the lanes of a large call are split over
COMMAND = (
    *shlex.split(sysconfig.get_config_var("CC") or "cc"),
    "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread",
)


class Format(ctypes.Structure):
    """A target format as ``_core.c`` reads it (its ``fmt_t``)."""

    _fields_ = [
        ("t", ctypes.c_int),
        ("strict", ctypes.c_int),
        ("x_min", ctypes.c_double),
        ("x_max", ctypes.c_double),
    ]


def _npyrandom() -> Path:
    """numpy's static ``libnpyrandom.a``, the C API of ``numpy.random``."""
    import numpy as np

    path = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
    if not path.is_file():
        raise RuntimeError(f"numpy's random C library is missing: {path}")
    return path


def compile_command(source, out) -> list[str]:
    """The full compile command of ``source`` into the shared library ``out``.

    ``COMMAND``, numpy's include directory (for ``numpy/random/bitgen.h``),
    the output and the source, and then, after the source so that the linker
    takes what it calls from them, numpy's ``libnpyrandom.a`` and libm.  A
    missing ``libnpyrandom.a`` raises :class:`RuntimeError` naming its path.
    """
    import numpy as np

    return [*COMMAND, f"-I{np.get_include()}", "-o", str(out), str(source), str(_npyrandom()),
            "-lm"]


def build() -> Path:
    """Compile ``SOURCE`` with :func:`compile_command` unless a build of both,
    and of the ``libnpyrandom.a`` it links, is cached."""
    # imported here, so that importing fpmimo does not pay for them
    import hashlib
    import subprocess
    import tempfile

    command = "\0".join(compile_command(SOURCE, "")).encode()
    digest = hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), command, _npyrandom().read_bytes()])
    ).hexdigest()
    cache = SOURCE.parent / "__pycache__"
    target = cache / f"{SOURCE.stem}-{digest}.so"
    if target.exists():
        return target
    cache.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{SOURCE.stem}-", suffix=".tmp", dir=cache)
    os.close(fd)
    command = compile_command(SOURCE, tmp)
    try:
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(f"cannot run {shlex.join(command)}: {exc}") from exc
        if proc.returncode != 0:
            raise RuntimeError(
                f"compiling {SOURCE.name} failed (exit {proc.returncode}): "
                f"{shlex.join(command)}\n{proc.stderr}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return target


@functools.cache
def lib() -> ctypes.CDLL:
    """The loaded library, built on the first call of the process."""
    so = ctypes.CDLL(str(build()))
    i64, ptr, fmt, flag = ctypes.c_int64, ctypes.c_void_p, ctypes.POINTER(Format), ctypes.c_int
    f64 = ctypes.c_double
    for fn, argtypes in (
        (so.fp_round, [i64, ptr, i64, ptr, ptr, fmt, ptr, ptr]),
        (so.fp_cn, [i64, ptr, f64]),
        (so.fp_dot, [i64, ptr, i64, ptr, ptr, fmt, fmt, i64, ptr, flag, flag, ptr]),
        (so.fp_chol, [i64, i64, ptr, fmt, ptr, ptr, ptr]),
        (so.fp_trisolve, [i64, i64, flag, ptr, ptr, fmt, ptr, ptr]),
        (so.fp_gram, [i64, i64, i64, i64, ptr, ptr, ptr]),
        (so.fp_threads, [ptr]),
        (so.fp_norm, [i64, i64, ptr, ptr, ptr]),
        (so.fp_normal, [i64, i64, ptr, ptr, i64, ptr]),
    ):
        fn.argtypes, fn.restype = argtypes, None
    return so


@functools.cache
def threads() -> int:
    """The most threads one call of the library runs on (``fp_threads``)."""
    count = ctypes.c_int64()
    lib().fp_threads(ctypes.byref(count))
    return count.value
