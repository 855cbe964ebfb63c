"""The benchmark's workloads: fixed inputs built from a seed, run through fpmimo's
public entry points, and the checks on their outputs.

Every workload is a list of operations.  An operation is one grid point of a
sweep (one ``emit_csv`` row) or one ``fpmimo.cli.main`` command.  A pass runs
every operation once; the outputs of a pass are reduced to sha256 digests and
to a structural verdict by the workload's ``ops`` method, outside the timed region.

The harness entry points are looked up on their modules at call time
(``harness.run_sweep``, ``cli.main``), so the tracing wrappers in
``tracing.py`` see these calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
from pathlib import Path

import fpmimo.cli as cli
import fpmimo.harness as harness
from fpmimo import BFLOAT16, FP16, FP32, ExperimentConfig, PrecisionPolicy

NAMES = ("simo-mrc", "mu-zf", "miso-mrt", "bounds-cli")

# Relative to the checkout root, which is the working directory of a run: the
# path is echoed in ``fpmimo sweep`` output, so it must not depend on where the
# checkout lives.
WORKDIR = Path("bench/_work")


@dataclasses.dataclass
class Op:
    """Outcome of one operation: its output digests and a structural problem, if any."""

    name: str
    digests: list
    problem: str | None = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_rows(text: str) -> list:
    """Data lines of an ``emit_csv`` file, column header included first."""
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _row_problem(header: str, row: str, trials: int) -> str | None:
    cells = dict(zip(header.split(","), row.split(",")))
    try:
        rate = float(cells["mean_rate"])
        n = int(cells["trials"])
    except (KeyError, ValueError) as exc:
        return f"unparsable row: {exc!r}"
    if n != trials:
        return f"trials {n} != {trials}"
    if not (math.isfinite(rate) and rate >= 0.0):
        return f"mean_rate {rate} is not finite and non-negative"
    return None


def _sweep_ops(label: str, text: str, n_points: int, trials: int) -> list:
    lines = _csv_rows(text)
    header, rows = (lines[0], lines[1:]) if lines else ("", [])
    ops = []
    for j in range(n_points):
        if j < len(rows):
            ops.append(Op(f"{label}[{j}]", [_sha(rows[j])], _row_problem(header, rows[j], trials)))
        else:
            ops.append(Op(f"{label}[{j}]", [], "missing row"))
    return ops


class SweepWorkload:
    """``run_sweep`` + ``emit_csv`` over a fixed list of configs."""

    def __init__(self, name: str, configs: list):
        self.name = name
        self.configs = configs
        self.trials_per_pass = sum(
            c.trials * len(c.M_grid) * len(c.rho_grid_db) for c in configs
        )

    def run_pass(self) -> list:
        out = []
        for i, cfg in enumerate(self.configs):
            path = WORKDIR / f"{self.name}-{i}.csv"
            try:
                harness.emit_csv(harness.run_sweep(cfg), path)
                out.append((cfg, path, None))
            except Exception as exc:  # a failed sweep counts against failed_ratio
                out.append((cfg, path, repr(exc)))
        return out

    def ops(self, out: list) -> list:
        ops = []
        for i, (cfg, path, err) in enumerate(out):
            n_points = len(cfg.M_grid) * len(cfg.rho_grid_db)
            label = f"{cfg.scenario}/{i}"
            if err is not None:
                ops.extend(Op(f"{label}[{j}]", [], err) for j in range(n_points))
            else:
                ops.extend(_sweep_ops(label, path.read_text(), n_points, cfg.trials))
        return ops


_BOUND_LINE = re.compile(r"^(\w+) = (\S+)\n$")


class CliWorkload:
    """In-process ``fpmimo.cli.main`` commands: bounds, verify and sweep -o."""

    def __init__(self, seed: int):
        s = str(seed)
        self.csv = str(WORKDIR / "bounds-cli.csv")
        self.sweep_points, self.sweep_trials = 2, 256
        self.verify_points, self.verify_trials = 1, 128
        # (kind, argv, Monte-Carlo trials the command draws)
        self.commands = [
            ("bounds", ["bounds", "upsilon", "--M", "64", "--K", "4",
                        "--samples", "20000", "--seed", s], 20000),
            ("bounds", ["bounds", "lb_sumrate_mu_miso", "--M", "256", "--K", "4",
                        "--samples", "10000", "--seed", s], 10000),
            ("bounds", ["bounds", "upsilon", "--M", "256", "--K", "2",
                        "--method", "quadrature"], 0),
            ("verify", ["verify", "--scenario", "MU-SIMO", "--M-grid", "64", "--K", "4",
                        "--trials", str(self.verify_trials), "--seed", s],
             self.verify_trials * self.verify_points),
            ("sweep", ["sweep", "--scenario", "SIMO", "--M-grid", "64,256",
                       "--trials", str(self.sweep_trials), "--seed", s, "-o", self.csv],
             self.sweep_trials * self.sweep_points),
        ]
        self.trials_per_pass = sum(c[2] for c in self.commands)

    @staticmethod
    def _call(argv: list) -> tuple:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            err = None if rc == 0 else f"exit code {rc}"
        except (Exception, SystemExit) as exc:  # argparse exits; count it, keep going
            err = repr(exc)
        return buf.getvalue(), err

    def run_pass(self) -> list:
        return [(kind, argv, *self._call(argv)) for kind, argv, _ in self.commands]

    def ops(self, out: list) -> list:
        ops = []
        for kind, argv, stdout, err in out:
            op = Op(" ".join(argv[:2]), [_sha(stdout)], err)
            if err is None:
                op.problem = self._stdout_problem(kind, stdout)
            if kind == "sweep" and op.problem is None:
                rows = _sweep_ops(op.name, Path(self.csv).read_text(),
                                  self.sweep_points, self.sweep_trials)
                op.digests += [d for r in rows for d in r.digests]
                op.problem = next((r.problem for r in rows if r.problem), None)
            ops.append(op)
        return ops

    def _stdout_problem(self, kind: str, stdout: str) -> str | None:
        if kind == "bounds":
            m = _BOUND_LINE.match(stdout)
            if not m:
                return f"unexpected output {stdout!r}"
            try:
                value = float(m.group(2))
            except ValueError:
                return f"unexpected output {stdout!r}"
            return None if math.isfinite(value) and value >= 0 else f"bad value {value}"
        if kind == "verify":
            try:
                reports = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return f"unparsable report: {exc}"
            if len(reports) != self.verify_points:
                return f"{len(reports)} reports, expected {self.verify_points}"
            rates = [r for rep in reports for r in rep["violation_rates"].values()]
            return None if all(0.0 <= r <= 1.0 for r in rates) else "violation rate out of [0, 1]"
        expected = f"wrote {self.sweep_points} rows to {self.csv}\n"
        return None if stdout == expected else f"unexpected output {stdout!r}"


def build(name: str, seed: int):
    """The workload ``name`` with inputs drawn from ``seed``."""
    fp16 = PrecisionPolicy.uniform(FP16)
    mixed = PrecisionPolicy.mixed(FP16, FP32, block_size=32)
    if name == "simo-mrc":
        grid = (256, 1024, 4096)
        return SweepWorkload(name, [
            ExperimentConfig("SIMO", grid, fp16, trials=512, seed=seed),
            ExperimentConfig("SIMO", grid, mixed, trials=512, seed=seed),
        ])
    if name == "mu-zf":
        return SweepWorkload(name, [
            ExperimentConfig("MU-SIMO", (64, 256), fp16, K=4, trials=256, seed=seed),
            ExperimentConfig("MU-MISO", (64, 256), fp16, K=4, trials=256, seed=seed),
            ExperimentConfig("MU-SIMO", (256,), mixed, K=4, trials=256, seed=seed,
                             csi="mmse"),
        ])
    if name == "miso-mrt":
        return SweepWorkload(name, [
            ExperimentConfig("MISO", (10000,), fp16, trials=512, seed=seed),
            ExperimentConfig("MISO", (10000,), PrecisionPolicy.uniform(BFLOAT16),
                             trials=512, seed=seed),
        ])
    if name == "bounds-cli":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
