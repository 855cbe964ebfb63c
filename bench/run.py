"""Run one workload of the fpmimo benchmark and print its metrics.

    python3 bench/run.py --workload simo-mrc --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; fpmimo is imported from the
checkout's ``src``.  Workloads: simo-mrc, mu-zf, miso-mrt, bounds-cli (see
``bench/README.md`` for why each exists and which layer it stresses);
``--workload all`` runs the four one after the other, each in a fresh
interpreter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they
are the per-layer ones, from a traced run that also reports its own overhead
and checks that tracing leaves the outputs and the counts unchanged.  The lines
before it give the spread over passes, the failed ratio, which output check
ran and the environment stamp.

    python3 bench/run.py --pin --workload simo-mrc --seed 0

runs one pass and records its output digests in ``bench/golden.json``.  Do
this only to re-baseline on purpose: a pinned seed is then checked bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up as a user pays it: a fresh interpreter imports fpmimo (numpy and
# scipy come with it) and builds the workload's configs.  Measured several
# times per run and reported as the median, because a single interpreter
# start varies with the page cache and the machine's load.
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[3:5]; import workloads; "
    "workloads.build(sys.argv[1], int(sys.argv[2]))"
)


def _blas_threads(nproc: int) -> int:
    """Cap BLAS threads at the cores this process may use; must run before numpy loads."""
    threads = nproc
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < threads:
            threads = int(value)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fpmimo").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(name: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, name, str(seed), str(SRC), str(BENCH)],
            cwd=ROOT, check=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def run_passes(wl, seconds: float, min_passes: int, tracer=None):
    """Repeat whole passes while the next one is expected to end within ``seconds``.

    Returns the wall time of each pass, its operations and, when traced, its
    per-layer metrics.  Outputs are checked and metrics computed outside the
    timed region.
    """
    walls, ops, layers = [], [], []
    start = time.perf_counter()
    while True:
        first = tracer.count if tracer else 0
        t0 = time.perf_counter()
        out = wl.run_pass()
        walls.append(time.perf_counter() - t0)
        ops.append(wl.ops(out))
        if tracer:
            layers.append(tracer.metrics(first, tracer.count))
        if len(walls) >= min_passes and time.perf_counter() - start + walls[-1] > seconds:
            return walls, ops, layers


def _warm_up(wl) -> list:
    """One untimed pass: lazy imports, first calls and the allocator's growth to
    the workload's array sizes are paid here, not in the timed passes."""
    return wl.ops(wl.run_pass())


def failures(passes: list, expected: list, label: str) -> list:
    """One line for every operation that raised, failed a structural check or
    produced digests other than ``expected``."""
    bad = []
    for p, ops in enumerate(passes):
        for op, want in zip(ops, expected):
            if op.problem:
                bad.append(f"{label} {p} {op.name}: {op.problem}")
            elif op.digests != want:
                bad.append(f"{label} {p} {op.name}: output digest differs")
    return bad


def _spread(label: str, values: list, unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{label}: median {statistics.median(values):.6g} {unit}, "
            f"quartiles {q[0]:.6g}..{q[2]:.6g}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}")


def _golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def pin(wl, name: str, seed: int) -> int:
    ops = wl.ops(wl.run_pass())
    bad = [op for op in ops if op.problem]
    for op in bad:
        print(f"not pinned: {op.name}: {op.problem}", file=sys.stderr)
    if bad:
        return 1
    golden = _golden()
    golden.setdefault(name, {})[str(seed)] = [op.digests for op in ops]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(ops)} operations of {name} for seed {seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's output digests instead of measuring")
    args = parser.parse_args(argv)

    if not (SRC / "fpmimo" / "__init__.py").is_file():
        print(f"error: no fpmimo sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import fpmimo
    if Path(fpmimo.__file__).resolve().parent != SRC / "fpmimo":
        print(f"error: imported fpmimo from {fpmimo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload == "all":
        # each workload in its own fresh interpreter, one after the other
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
                + ["--pin"] * args.pin,
                cwd=ROOT,
            ).returncode
            for name in workloads.NAMES
        ]
        return max(codes)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads.WORKDIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed)
    if args.pin:
        return pin(wl, args.workload, args.seed)

    pinned = _golden().get(args.workload, {}).get(str(args.seed))
    setup = measure_setup(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    warm = _warm_up(wl)
    remaining = args.seconds - (time.perf_counter() - start)
    walls, passes, _ = run_passes(wl, remaining / (1 + args.trace), 2)
    passes.insert(0, warm)
    expected = pinned or [op.digests for op in warm]
    bad = failures(passes, expected, "pass")
    attempted = sum(len(ops) for ops in passes)
    notes = []
    if tracer:
        tracer.install()
        try:
            t_walls, t_passes, layers = run_passes(wl, remaining / 2, 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(workloads.WORKDIR / f"spans-{args.workload}-seed{args.seed}.tsv")
        bad += failures(t_passes, expected, "traced pass")
        attempted += sum(len(ops) for ops in t_passes)
        if [op.digests for op in t_passes[0]] != [op.digests for op in passes[0]]:
            notes.append("self-check failed: traced outputs differ from untraced outputs")
        for key in tracing.EXACT_COUNTS:
            if len({m[key] for m in layers}) != 1:
                notes.append(f"self-check failed: {key} differs between traced passes")
        # counts stay whole numbers; they repeat exactly, so median_low is their value
        values = {
            k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                [m[k] for m in layers])
            for k, v in layers[0].items()
        }
        values["trace.overhead_s"] = statistics.median(t_walls) - statistics.median(walls)
        reported = spec["per_layer"]
    else:
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "trials_per_s": wl.trials_per_pass / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        reported = spec["end_to_end"]

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }
    print("env " + json.dumps(env))
    if pinned:
        print(f"check: bit-exact, sha256 of every output against bench/golden.json "
              f"for seed {args.seed}, plus structural checks")
    else:
        print(f"check: structural (no pinned digests for seed {args.seed}): row and "
              f"trial counts, finite non-negative mean_rate, CLI output shape, and "
              f"identical digests on every pass")
    print(_spread("untraced pass wall_s", walls, "s"))
    if tracer:
        print(_spread("traced pass wall_s", t_walls, "s"))
        print(f"self-checks {'FAILED' if notes else 'passed'}: traced outputs equal "
              f"untraced outputs; {', '.join(tracing.EXACT_COUNTS)} repeat across "
              f"{len(layers)} traced passes")
    print(_spread("setup_s", setup, "s"))
    for line in bad[:20]:
        print("failed: " + line)
    for note in notes:
        print(note)
    print(f"failed_ratio = {len(bad) / attempted} ratio ({len(bad)} of {attempted} operations)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not bad and not notes,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
