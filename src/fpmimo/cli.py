"""Command-line front end.

Subcommands:
  sweep   run a Monte Carlo experiment (config file and/or flags), write CSV
  bounds  evaluate any analytical bound for given parameters
  verify  empirical bound-violation study over lambda
  cost    operation-count table of the summation architectures

Config files are flat ``key = value`` text; every key corresponds to an
ExperimentConfig or PrecisionPolicy field (the key table in
``fpmimo.harness``), and command-line flags override file values.  The
``#`` header of a sweep CSV is such a file with ``# `` before each line.
Rejected input (a ValueError) prints ``error: <message>`` on stderr and
returns status 2, as argparse's own usage errors exit.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds
from .formats import get_format
from .harness import (
    _KEYS,
    ExperimentConfig,
    _optional_int,
    _parsed,
    _shown,
    build_config,
    build_policy,
    emit_csv,
    inner_product_violation_study,
    parse_config_file,
    run_sweep,
    verify_bounds,
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for key, spec in _KEYS.items():
        numeric = spec.parse in (int, float, _optional_int)
        p.add_argument("--" + key.replace("_", "-"), dest=key, choices=spec.choices,
                       type=spec.parse if numeric else None, help=spec.help)


def _gather_values(args) -> dict:
    """Config-file settings, overridden by the flags given."""
    values = parse_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in _KEYS and v is not None)
    return values


def _gather_config(args) -> ExperimentConfig:
    values = _gather_values(args)
    if "scenario" not in values:
        raise ValueError("a scenario is required (flag or config file)")
    return build_config(values)


def _cmd_sweep(args) -> int:
    config = _gather_config(args)
    result = run_sweep(config)
    emit_csv(result, args.output)
    print(f"wrote {len(result.rows)} rows to {args.output}")
    return 0


def _cmd_verify(args) -> int:
    lambdas = tuple(float(v) for v in args.lambdas.split(","))
    if args.inner_n is not None:
        values = _gather_values(args)
        policy = build_policy(values)
        report = inner_product_violation_study(
            args.inner_n, policy, lambdas=lambdas, **_parsed(values, {"trials", "seed"}),
        )
        print(json.dumps({**report, **_shown(policy)}, indent=2))
        return 0
    config = _gather_config(args)
    print(json.dumps(verify_bounds(config, lambdas), indent=2))
    return 0


def _lb_sumrate_mu_simo(a, u, u_h):
    ups = bounds.upsilon(a.M, a.K, "monte-carlo", samples=a.samples, seed=a.seed)
    return bounds.lb_sumrate_mu_simo(a.M, a.K, a.rho, u, a.lambda_, ups).value_bits


def _lb_sumrate_mu_miso(a, u, u_h):
    ecd = bounds.expected_cd_sq(a.M, a.K, u, a.lambda_, samples=a.samples, seed=a.seed)
    return bounds.lb_sumrate_mu_miso(a.M, a.K, a.rho, u, a.lambda_, ecd).value_bits


# name -> evaluator(parsed flags, unit roundoff of --format, of --format-high)
_EVALUATORS = {
    "gamma_n": lambda a, u, u_h: bounds.gamma_n(a.n, u, a.lambda_),
    "gamma_n_det": lambda a, u, u_h: bounds.gamma_n_det(a.n, u),
    "xi_bn": lambda a, u, u_h: bounds.xi_bn(a.block_size, a.n, u, u_h, a.lambda_),
    "delta_simo": lambda a, u, u_h: bounds.delta_simo(a.M, u, a.lambda_),
    "delta_miso": lambda a, u, u_h: bounds.delta_miso(u, a.lambda_),
    "lb_rate_simo": lambda a, u, u_h: bounds.lb_rate_simo(a.M, a.rho, u, a.lambda_).value_bits,
    "lb_rate_miso": lambda a, u, u_h: bounds.lb_rate_miso(a.M, a.rho, u, a.lambda_).value_bits,
    "rate_gap": lambda a, u, u_h: bounds.rate_gap(a.M, a.rho, u, a.lambda_),
    "m_max_simo": lambda a, u, u_h: bounds.m_max_simo(a.rho, u, a.lambda_),
    "c1_u": lambda a, u, u_h: bounds.c1_u(a.M, a.K, u, a.lambda_),
    "c_u": lambda a, u, u_h: bounds.c_u(a.M, a.K, u, a.lambda_),
    "c_d": lambda a, u, u_h: bounds.c_d(a.M, a.K, u, a.lambda_, a.kappa2),
    "upsilon": lambda a, u, u_h: bounds.upsilon(
        a.M, a.K, a.method, samples=a.samples, seed=a.seed
    ),
    "lb_sumrate_mu_simo": _lb_sumrate_mu_simo,
    "lb_sumrate_mu_miso": _lb_sumrate_mu_miso,
}


def _cmd_bounds(args) -> int:
    u = get_format(args.format).unit_roundoff
    u_h = get_format(args.format_high).unit_roundoff
    value = _EVALUATORS[args.evaluator](args, u, u_h)
    print(f"{args.evaluator} = {value}")
    return 0


def _cmd_cost(args) -> int:
    table = bounds.cost_model(args.m, args.n, args.p, args.block_size, args.G)
    print("arch,sums,mults,total")
    for key in ("C_m", "C_l", "C_h"):
        c = table[key]
        print(f"{key},{c.sums},{c.mults},{c.total}")
    print(f"# mixed summation overhead vs C_l: "
          f"{100.0 * bounds.cost_overhead(args.n, args.block_size, args.G):.4f}%")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpmimo",
        description="Finite-precision arithmetic emulation for massive MIMO transceivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep and write CSV")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--output", "-o", required=True, help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="evaluate an analytical bound")
    p_bounds.add_argument("evaluator", choices=_EVALUATORS)
    p_bounds.add_argument("--format", default="fp16")
    p_bounds.add_argument("--format-high", dest="format_high", default="fp32")
    p_bounds.add_argument("--lambda", dest="lambda_", type=float, default=1.0)
    p_bounds.add_argument("--M", type=int, default=128)
    p_bounds.add_argument("--K", type=int, default=4)
    p_bounds.add_argument("--n", type=int, default=1000)
    p_bounds.add_argument("--block-size", dest="block_size", type=int, default=32)
    p_bounds.add_argument("--rho", type=float, default=10.0, help="linear SNR")
    p_bounds.add_argument("--kappa2", type=float, default=1.0)
    p_bounds.add_argument("--method", choices=["monte-carlo", "quadrature"],
                          default="monte-carlo")
    p_bounds.add_argument("--samples", type=int, default=100000)
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="empirical bound-violation rates")
    _add_config_flags(p_verify)
    p_verify.add_argument("--lambdas", default="0.5,1,3")
    p_verify.add_argument("--inner-n", dest="inner_n", type=int,
                          help="study raw inner products of this length instead")
    p_verify.set_defaults(func=_cmd_verify)

    p_cost = sub.add_parser("cost", help="operation-count model table")
    p_cost.add_argument("--m", type=int, default=1)
    p_cost.add_argument("--n", type=int, default=1000)
    p_cost.add_argument("--p", type=int, default=1)
    p_cost.add_argument("--block-size", dest="block_size", type=int, default=32)
    p_cost.add_argument("--G", type=int, default=2)
    p_cost.set_defaults(func=_cmd_cost)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # rejected input: a message and argparse's status
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
