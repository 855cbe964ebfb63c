"""Byte-identity checks against committed golden outputs.

Every file under ``tests/golden/`` was written by this module from a fixed
configuration.  A change to the package may not alter a single byte of them;
a change that alters a result on purpose says so and rewrites them with

    PYTHONPATH=src python tests/test_golden.py

Sweeps cover each scenario with fp16 uniform, fp16+fp32 mixed (b=8), MMSE
channel estimates and fp16 stochastic rounding; ``bounds.txt`` holds the stdout of
``fpmimo bounds <name> --samples 2000`` for every evaluator.
"""

import contextlib
import io
from pathlib import Path

import pytest

from fpmimo.cli import main
from fpmimo.formats import FP16, FP32, RoundingMode
from fpmimo.harness import ExperimentConfig, emit_csv, run_sweep
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


def _bounds_stdout(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["bounds", name, "--samples", "2000"])
    return out.getvalue()


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


def _write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, config in SWEEPS.items():
        emit_csv(run_sweep(config), GOLDEN / name)
    (GOLDEN / "bounds.txt").write_text("".join(_bounds_stdout(n) for n in EVALUATORS))


if __name__ == "__main__":
    _write_all()
