"""Command-line interface.

Subcommands: ``sample`` (generate data), ``dist`` (distance between two
sample files), ``fit`` (run an estimator), ``fisher`` (print a Fisher
matrix), ``experiment`` (Monte Carlo sweep to CSV). Exit codes: 0 success,
1 usage error, 2 numerical failure or unreadable input.
"""

import argparse
import json
import sys
from dataclasses import fields
from functools import cache

from .circular import discrete_from_sample, load_sample, save_sample
from .estimate import EstimatorSpec, mle, wasserstein_fit
from .families import (
    FAMILIES, PARAM_NAMES, FamilyParams, family_fisher, family_sample, free_param_names,
)
from .harness import _ESTIMATORS, ExperimentConfig, run_experiment
from .transport import grid_cdf_of, w1_grid, wp_general


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_theta_flags(p):
    for attr, name in PARAM_NAMES.items():
        p.add_argument(f"--{name}", dest=attr, type=float)


def _theta_from_args(args) -> FamilyParams:
    kwargs = {attr: getattr(args, attr) for attr in PARAM_NAMES}
    return FamilyParams(args.family, **{k: v for k, v in kwargs.items() if v is not None})


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


@cache
def build_parser() -> _Parser:
    parser = _Parser(prog="circwass")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[], help="generate data from a family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    _add_theta_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("dist", help="Wasserstein distance between two sample files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument(
        "--method", choices=("auto", "grid"), default="auto",
        help="auto is exact for any p, sizes and tied angles; grid needs p = 1",
    )
    p.add_argument("--grid-size", type=int, default=1024)

    p = sub.add_parser("fit", help="fit a family to a sample file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--estimator", required=True, choices=tuple(_ESTIMATORS))
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true")
    # EstimatorSpec holds the defaults; a flag given replaces its field
    p.add_argument("--seed", type=int)
    p.add_argument("--de-pop", type=int)
    p.add_argument("--de-gens", type=int, help="0 runs Powell alone")
    p.add_argument("--tol", type=float)
    p.add_argument("--D", dest="points", type=int, help="grid size (defaults to n)")

    p = sub.add_parser("fisher", help="print the Fisher information matrix")
    p.add_argument("--family", required=True, choices=("vm", "wc", "ssvm"))
    _add_theta_flags(p)

    p = sub.add_parser("experiment", help="run a Monte Carlo sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wide", action="store_true")
    p.add_argument("--workers", type=_positive_int, default=1)

    return parser


def _cmd_sample(args) -> int:
    theta = _theta_from_args(args)
    sample = family_sample(theta, args.n, args.seed)
    if args.out:
        save_sample(sample, args.out)
    else:
        for a in sample.angles:
            print(repr(float(a)))
    return 0


def _cmd_dist(args) -> int:
    sa = load_sample(args.a)
    sb = load_sample(args.b)
    if args.method == "grid":
        if args.p != 1.0:
            raise ValueError("grid method requires p = 1")
        val = w1_grid(grid_cdf_of(sa, args.grid_size), grid_cdf_of(sb, args.grid_size))
    else:
        val = wp_general(discrete_from_sample(sa), discrete_from_sample(sb), args.p)
    print(repr(val))
    return 0


def _cmd_fit(args) -> int:
    sample = load_sample(args.data)
    w_fields = _ESTIMATORS[args.estimator][1]
    flags = vars(args)
    given = {f.name: flags[f.name] for f in fields(EstimatorSpec) if flags.get(f.name) is not None}
    spec = EstimatorSpec(**(w_fields or {}), **given)
    fit = mle if w_fields is None else wasserstein_fit
    res = fit(sample, args.family, spec)
    payload = {
        "family": args.family,
        "estimator": args.estimator,
        "theta_hat": {
            PARAM_NAMES[name]: getattr(res.theta_hat, name)
            for name in free_param_names(args.family)
        },
        "objective": res.objective,
        "evaluations": res.evaluations,
        "converged": res.converged,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    return 0


def _cmd_fisher(args) -> int:
    theta = _theta_from_args(args)
    mat = family_fisher(theta)
    for row in mat:
        print("  ".join(f"{v:.6f}" for v in row))
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    # open --out first: an unwritable path should fail before the sweep runs
    with open(args.out, "w") as fh:
        table = run_experiment(cfg, workers=args.workers)
        fh.write(table.to_wide_csv() if args.wide else table.to_csv())
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "dist": _cmd_dist,
    "fit": _cmd_fit,
    "fisher": _cmd_fisher,
    "experiment": _cmd_experiment,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())
