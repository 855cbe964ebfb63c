"""Byte-identity checks against committed golden outputs.

Every file under ``tests/golden/`` was written by this module from a fixed
configuration.  A change to the package may not alter a single byte of them;
a change that alters a result on purpose says so and rewrites them with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose bytes change and prints their names.

Sweeps cover each scenario with fp16 uniform, fp16+fp32 mixed (b=8), MMSE
channel estimates and fp16 stochastic rounding; ``bounds.txt`` holds the stdout of
``fpmimo bounds <name> --samples 2000`` for every evaluator.  The ``cli_*``
files pin the settings path of the command line: a ``sweep --config`` with
every config key set, one with only the scenario set (its header echoes every
default), ``verify`` on a small MU-SIMO grid, ``verify --inner-n`` and ``cost``.

The ``#`` header of every CSV golden is the config that made it: with ``# ``
stripped and passed to ``sweep --config``, it writes the golden again.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from fpmimo.cli import build_config, main, parse_config_file
from fpmimo.formats import FP16, FP32, RoundingMode
from fpmimo.harness import ExperimentConfig, SweepResult, emit_csv, run_sweep
from fpmimo.kernels import PrecisionPolicy

GOLDEN = Path(__file__).parent / "golden"

_GRIDS = {
    "SIMO": dict(M_grid=(16, 64)),
    "MISO": dict(M_grid=(16, 64)),
    "MU-SIMO": dict(M_grid=(8, 16), K=2),
    "MU-MISO": dict(M_grid=(8, 16), K=2),
}
_VARIANTS = {
    "fp16": dict(policy=PrecisionPolicy.uniform(FP16)),
    "mixed-b8": dict(policy=PrecisionPolicy.mixed(FP16, FP32, 8)),
    "mmse": dict(policy=PrecisionPolicy.uniform(FP16), csi="mmse"),
    "stochastic": dict(
        policy=PrecisionPolicy.uniform(FP16, rounding=RoundingMode.STOCHASTIC)
    ),
}
SWEEPS = {
    f"{scenario.lower()}_{variant}.csv": ExperimentConfig(
        scenario, rho_grid_db=(0.0, 10.0), trials=16, seed=0, **grid, **kw
    )
    for scenario, grid in _GRIDS.items()
    for variant, kw in _VARIANTS.items()
}

# sweep --config file contents
CLI_SWEEPS = {
    "cli_sweep_all-keys.csv": (
        "scenario = MU-SIMO\n"
        "M_grid = 8,16\n"
        "K = 2\n"
        "rho_grid_db = 0,10\n"
        "format = fp16\n"
        "format_high = fp32\n"
        "mode = mixed\n"
        "block_size = 4\n"
        "rounding = stochastic\n"
        "range_mode = strict-ieee\n"
        "lambda = 3\n"
        "trials = 16\n"
        "seed = 7\n"
        "csi = mmse\n"
        "csi_T = 100\n"
        "csi_tau = 4\n"
    ),
    "cli_sweep_defaults.csv": "scenario = SIMO\n",
}
CLI_STDOUT = {
    "cli_verify_mu-simo.json": [
        "verify", "--scenario", "MU-SIMO", "--M-grid", "8,16", "--K", "2",
        "--rho-grid-db", "0,10", "--trials", "32", "--seed", "1",
        "--lambdas", "0.02,0.05,1",
    ],
    "cli_verify_inner-n.json": [
        "verify", "--inner-n", "512", "--trials", "300", "--seed", "2",
        "--lambdas", "0.001,0.01,0.05",
    ],
    "cli_cost.txt": ["cost"],
}

EVALUATORS = (
    "gamma_n",
    "gamma_n_det",
    "xi_bn",
    "delta_simo",
    "delta_miso",
    "lb_rate_simo",
    "lb_rate_miso",
    "rate_gap",
    "m_max_simo",
    "c1_u",
    "c_u",
    "c_d",
    "upsilon",
    "lb_sumrate_mu_simo",
    "lb_sumrate_mu_miso",
)


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _bounds_stdout(name: str) -> str:
    return _stdout(["bounds", name, "--samples", "2000"])


def _write_config(text: str, workdir: Path) -> Path:
    cfg = workdir / "experiment.cfg"
    cfg.write_text(text)
    return cfg


def _sweep_config(text: str, workdir: Path) -> bytes:
    """The CSV that ``sweep --config`` writes for the config file ``text``."""
    out = workdir / "out.csv"
    _stdout(["sweep", "--config", str(_write_config(text, workdir)), "-o", str(out)])
    return out.read_bytes()


def _header(csv_text: str) -> str:
    """The ``#`` lines of a sweep CSV with ``# `` stripped: a config file."""
    return "".join(line[2:] + "\n" for line in csv_text.splitlines() if line.startswith("# "))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv(name, tmp_path):
    path = tmp_path / name
    emit_csv(run_sweep(SWEEPS[name]), path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", EVALUATORS)
def test_bounds_stdout(name):
    lines = (GOLDEN / "bounds.txt").read_text().splitlines(keepends=True)
    golden = [line for line in lines if line.startswith(f"{name} = ")]
    assert len(golden) == 1
    assert _bounds_stdout(name) == golden[0]


@pytest.mark.parametrize("name", sorted(CLI_SWEEPS))
def test_cli_sweep_csv(name, tmp_path):
    assert _sweep_config(CLI_SWEEPS[name], tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.csv")))
def test_csv_reruns_from_its_header(name, tmp_path):
    golden = (GOLDEN / name).read_bytes()
    assert _sweep_config(_header(golden.decode()), tmp_path) == golden


def test_int_built_config_reruns_from_its_header(tmp_path):
    cfg = ExperimentConfig(
        "SIMO", (16,), PrecisionPolicy.uniform(FP16), rho_grid_db=(10,), lam=3, trials=8
    )
    path = tmp_path / "int-built.csv"
    emit_csv(run_sweep(cfg), path)
    first = path.read_bytes()
    assert b"# lambda = 3.0\n" in first and b"# rho_grid_db = 10.0\n" in first
    assert _sweep_config(_header(first.decode()), tmp_path) == first


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_header_builds_its_config(name, tmp_path):
    path = tmp_path / name
    emit_csv(SweepResult(SWEEPS[name]), path)
    values = parse_config_file(_write_config(_header(path.read_text()), tmp_path))
    assert build_config(values) == SWEEPS[name]


@pytest.mark.parametrize("name", sorted(CLI_STDOUT))
def test_cli_stdout(name):
    assert _stdout(CLI_STDOUT[name]) == (GOLDEN / name).read_text()


def _write_all() -> None:
    """Rewrite each golden whose bytes change, and print its name."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outputs = {}
        for name, config in SWEEPS.items():
            emit_csv(run_sweep(config), tmp / name)
            outputs[name] = (tmp / name).read_bytes()
        outputs["bounds.txt"] = "".join(_bounds_stdout(n) for n in EVALUATORS).encode()
        outputs.update((name, _sweep_config(text, tmp)) for name, text in CLI_SWEEPS.items())
        outputs.update((name, _stdout(argv).encode()) for name, argv in CLI_STDOUT.items())
    GOLDEN.mkdir(exist_ok=True)
    for name, data in outputs.items():
        path = GOLDEN / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            print(name)


if __name__ == "__main__":
    _write_all()
