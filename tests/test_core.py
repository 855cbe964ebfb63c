"""The build-on-first-use loader of the C rounding core (``fpmimo._core``)."""

import ast
import ctypes
import os
import re
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fpmimo import _core


@pytest.fixture
def source(tmp_path, monkeypatch):
    """A copy of ``_core.c`` that the loader builds in place of the package's."""
    copy = tmp_path / "_core.c"
    shutil.copy(_core.SOURCE, copy)
    monkeypatch.setattr(_core, "SOURCE", copy)
    return copy


def test_build_is_cached_by_source_hash(source):
    first = _core.build()
    assert first.parent == source.parent / "__pycache__"
    assert re.fullmatch(r"_core-[0-9a-f]{64}\.so", first.name)
    assert _core.build() == first
    mtime = first.stat().st_mtime_ns

    source.write_text(source.read_text() + "/* edited */\n")
    second = _core.build()
    assert second != first and second.parent == first.parent
    assert first.stat().st_mtime_ns == mtime  # the old build is left as it was
    assert ctypes.CDLL(str(second)).fp_round  # the new build loads
    assert sorted(p.name for p in first.parent.iterdir()) == sorted([first.name, second.name])


def test_failing_compiler_names_command_and_quotes_stderr(source, monkeypatch):
    fail = "import sys; sys.stderr.write('cc: fatal error: no input\\n'); sys.exit(3)"
    monkeypatch.setattr(_core, "COMMAND", (sys.executable, "-c", fail))
    with pytest.raises(RuntimeError) as info:
        _core.build()
    message = str(info.value)
    assert "exit 3" in message
    assert f"{sys.executable} -c" in message and str(source) in message
    assert "cc: fatal error: no input" in message
    assert list((source.parent / "__pycache__").iterdir()) == []  # no partial build


def test_missing_compiler_names_command(source, monkeypatch):
    missing = str(source.parent / "no-such-cc")
    monkeypatch.setattr(_core, "COMMAND", (missing, "-O2"))
    with pytest.raises(RuntimeError, match=f"cannot run {re.escape(missing)} -O2"):
        _core.build()


def test_missing_npyrandom_names_its_path(source, monkeypatch):
    fake = source.parent / "numpy" / "random" / "__init__.py"
    monkeypatch.setattr(np.random, "__file__", str(fake))
    missing = fake.with_name("lib") / "libnpyrandom.a"
    with pytest.raises(RuntimeError, match=f"missing: {re.escape(str(missing))}$"):
        _core.build()
    assert not (source.parent / "__pycache__").exists()


def test_build_is_cached_by_npyrandom_bytes(source, monkeypatch):
    """Another numpy at the same path builds afresh."""
    lib = source.parent / "libnpyrandom.a"
    shutil.copy(_core._npyrandom(), lib)
    monkeypatch.setattr(_core, "_npyrandom", lambda: lib)
    first = _core.build()
    assert _core.build() == first
    lib.write_bytes(b"!<arch>\n")  # an empty archive
    second = _core.build()
    assert second != first and second.parent == first.parent


def test_source_compiles_without_warnings(tmp_path):
    """New entry points must not land with unused arguments or other -Wall -Wextra warnings.

    It compiles and links what ``build`` does, by its command."""
    copy = tmp_path / "_core.c"
    shutil.copy(_core.SOURCE, copy)
    command = [*_core.compile_command(copy, tmp_path / "core.so"), "-Wall", "-Wextra", "-Werror"]
    proc = subprocess.run(command, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_entry_point_is_declared():
    """ctypes would pass an undeclared entry's arguments as C ints, truncating 64-bit ones."""
    entries = re.findall(r"^void (fp_\w+)\(([^)]*)\)", _core.SOURCE.read_text(), re.M)
    required = {"fp_round", "fp_dot", "fp_chol", "fp_trisolve", "fp_gram", "fp_normal",
                "fp_norm", "fp_cn"}
    assert required <= {name for name, _ in entries}
    so = _core.lib()
    for name, params in entries:
        fn = getattr(so, name)
        assert fn.argtypes is not None and len(fn.argtypes) == len(params.split(",")), name
        assert fn.restype is None, name


def _divides_by_norm(node) -> bool:
    """``node`` is a division, ``/``, ``/=`` or ``np.divide``, by a call of ``_norm``."""
    if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.Div):
        divisors = [node.right if isinstance(node, ast.BinOp) else node.value]
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "divide":
        divisors = node.args[1:2]
    else:
        return False
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_norm"
               for d in divisors for n in ast.walk(d))


def test_no_module_calls_numpys_norm():
    """``kernels._norm`` is the package's one fp64 norm: numpy's depends on the
    array's layout.  A row over its norm is ``_norm``'s ``unit=`` output,
    written while the row is read, not a division by ``_norm(`` by hand."""
    modules = sorted(_core.SOURCE.parent.glob("*.py"))
    calls = [f"{py.name}:{i}" for py in modules
             for i, line in enumerate(py.read_text().splitlines(), 1) if "linalg.norm" in line]
    calls += [f"{py.name}:{node.lineno}" for py in modules
              for node in ast.walk(ast.parse(py.read_text())) if _divides_by_norm(node)]
    assert calls == []


def test_build_names_no_instruction_set():
    """The library must load on any x86-64, FMA or not: FMA comes only from
    the norm's dispatched clone, never from a flag of the build, and no
    product and sum fuse unless an fma() says so."""
    for command in (_core.COMMAND, _core.compile_command("core.c", "core.so")):
        isa = [flag for flag in command if re.match(r"-march=|-mfma$|-mavx", flag)]
        assert isa == [] and "-ffp-contract=off" in command, command


def test_thread_count_stays_within_affinity():
    assert 1 <= _core.threads() <= min(len(os.sched_getaffinity(0)), 8)


# Pins itself to one CPU when asked, before the core loads, then prints the
# core's thread count and writes a MISO point at M = 10000, a stochastic
# mixed-precision SIMO point and an MMSE MU-MISO point as sweep CSVs, the
# repr of a Monte Carlo upsilon (fp_gram's Gram products) as a text file, and
# the report of `verify --inner-n` (fp_norm's row norms and fp_dot's
# conjugate).  On all CPUs their large normal draws are fp_normal's, split
# over threads; on one, numpy's.
_CHILD = textwrap.dedent("""
    import contextlib, os, sys
    if sys.argv[1] == "pin":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from fpmimo import _core, bounds, cli
    from fpmimo.formats import FP16, FP32, RoundingMode
    from fpmimo.harness import ExperimentConfig, emit_csv, run_sweep
    from fpmimo.kernels import PrecisionPolicy

    mixed = PrecisionPolicy.mixed(FP16, FP32, 32, rounding=RoundingMode.STOCHASTIC)
    configs = {
        "miso": ExperimentConfig("MISO", (10000,), PrecisionPolicy.uniform(FP16), trials=40, seed=2),
        "simo": ExperimentConfig("SIMO", (1024,), mixed, trials=200, seed=3),
        "mu-miso": ExperimentConfig("MU-MISO", (256,), PrecisionPolicy.uniform(FP16), K=4,
                                    csi="mmse", trials=200, seed=4),
    }
    for name, config in configs.items():
        emit_csv(run_sweep(config), f"{sys.argv[2]}-{name}.csv")
    with open(f"{sys.argv[2]}-upsilon.txt", "w") as f:
        f.write(repr(bounds.upsilon(64, 4, samples=20000)))
    with open(f"{sys.argv[2]}-inner.json", "w") as f, contextlib.redirect_stdout(f):
        cli.main(["verify", "--inner-n", "300", "--trials", "3000", "--seed", "6",
                  "--lambdas", "0.002,0.005,0.01"])
    print(_core.threads())
""")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_one_cpu_gives_the_bytes_of_all(tmp_path):
    """The lanes, and the normal draws, a call splits over threads give the bits of one thread."""
    src = str(_core.SOURCE.parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    counts = {}
    for how in ("pin", "all"):
        proc = subprocess.run([sys.executable, "-c", _CHILD, how, str(tmp_path / how)],
                              capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        counts[how] = int(proc.stdout)
    assert counts == {"pin": 1, "all": _core.threads()}
    assert counts["all"] > 1
    for name in ("miso.csv", "simo.csv", "mu-miso.csv", "upsilon.txt", "inner.json"):
        pinned = (tmp_path / f"pin-{name}").read_bytes()
        assert pinned == (tmp_path / f"all-{name}").read_bytes(), name


# Makes one threaded call of each kind, an fp_dot reduction over 4000 x 100
# and an fp_normal draw of 2^17 normals split over pieces, then forks and
# makes the same calls in the forked child, which must give the same bytes
# and exit; a core whose threads live on past a call (a pool a fork does not
# copy) could hang the child here, and then the child is killed after 60 s.
_FORK_CHILD = textwrap.dedent("""
    import os, signal, time
    import numpy as np
    from fpmimo import _core
    from fpmimo.formats import FP16
    from fpmimo.kernels import PrecisionPolicy, _normal, inner_product_fp

    def calls():
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4000, 100)) + 1j * rng.standard_normal((4000, 100))
        inner = inner_product_fp(a, a[::-1], PrecisionPolicy.uniform(FP16))
        return inner.tobytes() + _normal(np.random.default_rng(4), (1 << 17,)).tobytes()

    before = calls()
    pid = os.fork()
    if pid == 0:
        os._exit(0 if calls() == before else 1)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise SystemExit("the forked child hung")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status[1]) == 0, status
    print(_core.threads())
""")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_threaded_calls_work_in_a_forked_child():
    """The core starts its threads in each call and joins them before it
    returns, so a child forked after a threaded call can make one too."""
    src = str(_core.SOURCE.parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FORK_CHILD], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == _core.threads() > 1
