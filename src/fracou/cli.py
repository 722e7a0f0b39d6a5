"""Command-line front end.

Subcommands: eval (special-function tables), mixing (moments and condition
checks as JSON), simulate (path ensembles as CSV + JSON sidecar), diagnose
(convergence checks as JSON reports).  Exit codes: 0 success/pass, 2 invalid
parameters, 3 accuracy failure, 4 truncation tolerance unachievable,
5 diagnostic fail, 6 diagnostic inconclusive.

Seeds are mandatory wherever randomness is involved; reruns of the same
command line are bit-identical.  FRACOU_THREADS sets the worker count for
path generation and can only change runtimes, never output bits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import diagnostics as diag
from . import simulate as sim
from .errors import AccuracyError, DomainError, TruncationError
from .kernels import MeanKernel, mean_kernel_values
from .mixing import GammaMixing, check_condition, moment_frac, moment_int, sample_alphas
from .special_functions import FractionalOrder, ml_one_values

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ACCURACY = 3
EXIT_TRUNCATION = 4
EXIT_FAIL = 5
EXIT_INCONCLUSIVE = 6


def _emit(path: str, body: str) -> None:
    """Write body to the file at path, or to stdout for "-"."""
    if path == "-":
        sys.stdout.write(body)
    else:
        with open(path, "w") as fh:
            fh.write(body)


def cmd_eval(args) -> int:
    if args.xmin < 0 or args.xmax <= args.xmin or args.points < 2:
        print("eval requires 0 <= xmin < xmax and points >= 2",
              file=sys.stderr)
        return EXIT_USAGE
    side = None if args.out == "-" else sim.sidecar_path(args.out)
    rho = float(FractionalOrder(args.rho))
    xs = np.linspace(args.xmin, args.xmax, args.points)
    if args.function == "ml":
        ys = ml_one_values(rho, xs)
    else:
        if args.mu is None:
            print("eval gml requires --mu", file=sys.stderr)
            return EXIT_USAGE
        # the table axis is the function argument: column two is G(-x),
        # the mean kernel at t = (lam x)^(1/rho)
        mk = MeanKernel(rho, GammaMixing(args.mu, args.lam))
        ys = mean_kernel_values(mk, (args.lam * xs) ** (1.0 / rho))
    config = {"command": "eval", "function": args.function, "rho": args.rho,
              "mu": args.mu, "lam": args.lam, "xmin": args.xmin,
              "xmax": args.xmax, "points": args.points}
    _emit(args.out, "x,value\n" + "".join(f"{float(x)!r},{float(y)!r}\n"
                                          for x, y in zip(xs, ys)))
    if side is not None:
        _emit(side, json.dumps(config, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_mixing(args) -> int:
    params = GammaMixing(args.mu, args.lam)
    out = {
        "mu": args.mu,
        "lam": args.lam,
        "moments_int": {str(n): moment_int(params, n)
                        for n in range(args.moments + 1)},
        "condition_mu_gt_half_inv_rho": {},
    }
    for p in args.frac or []:
        try:
            out.setdefault("moments_frac", {})[str(p)] = moment_frac(params, p)
        except DomainError:
            out.setdefault("moments_frac", {})[str(p)] = None
    for rho in args.rho:
        out["condition_mu_gt_half_inv_rho"][str(rho)] = \
            check_condition(params, rho)
    _emit(args.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.paths < 1:
        raise DomainError(f"--paths must be >= 1, got {args.paths}")
    grid = sim.TimeGrid(0.0, args.T, args.steps)
    mix = GammaMixing(args.mu, args.lam)
    mk = MeanKernel(args.rho, mix)
    config = {"command": "simulate", "process": args.process, "rho": args.rho,
              "mu": args.mu, "lam": args.lam, "T": args.T,
              "steps": args.steps, "paths": args.paths, "seed": args.seed,
              "n_components": args.n_components, "tol": args.tol}
    if args.process in ("component", "empirical", "xi"):
        alphas = sample_alphas(mix, args.n_components, args.seed)

    if args.process == "component":
        ens = sim.simulate_component_paths(alphas, args.rho, grid, args.seed)
    elif args.process == "empirical":
        ens = sim.simulate_empirical_mean_paths(alphas, args.rho, grid,
                                                args.seed, args.paths)
    elif args.process == "limit":
        ens = sim.simulate_limit_paths(mk, grid, args.seed, args.paths)
    elif args.process == "stationary":
        ens = sim.simulate_stationary_paths(mk, grid, args.seed, args.tol,
                                            n_paths=args.paths)
    else:  # xi; argparse restricts the choices
        ens = sim.simulate_stationary_paths(alphas, grid, args.seed, args.tol,
                                            rho=args.rho)
    # the certified truncation of the two-sided processes
    config.update({k: ens.meta[k] for k in ("t_trunc", "tail_bound")
                   if k in ens.meta})
    ens.meta["config"] = config
    ens.to_csv(args.out)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    grid = sim.TimeGrid(0.0, args.T, args.steps)
    try:
        n_list = [int(v) for v in args.n.split(",")]
    except ValueError:
        raise DomainError(f"--n must list integers, got {args.n!r}") from None
    if args.check == "l2sup":
        rep = diag.check_l2_sup_convergence(args.rho, args.mu, args.lam,
                                            n_list, grid, args.mc, args.seed)
    elif args.check == "tightness":
        rep = diag.check_tightness(args.rho, args.mu, args.lam, grid, n_list,
                                   args.mc, args.seed)
    elif args.check == "pathwise":
        rep = diag.check_pathwise_conditions(args.rho, args.mu, args.lam,
                                             n_list, grid, args.seed)
    elif args.check == "cauchy":
        t_list = np.geomspace(args.tmin, args.tmax, args.tpoints)
        rep = diag.check_cauchy_decay(args.rho, args.mu, args.lam, t_list,
                                      args.mc, args.seed)
    elif args.check == "stationarity":
        rep = diag.check_stationarity(args.rho, args.mu, args.lam, grid,
                                      args.mc, args.seed, args.tol)
    elif args.check == "mixing-remark":
        rep = diag.check_mixing_condition_remark(args.mu, args.lam, args.rho)
    else:  # pragma: no cover
        return EXIT_USAGE

    _emit(args.out, rep.to_json())
    if args.out != "-":
        sys.stdout.write(rep.to_text())
    if rep.verdict == "pass":
        return EXIT_OK
    if rep.verdict == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fracou",
        description="Gamma-mixed fractional Ornstein-Uhlenbeck toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="tabulate special functions")
    pe.add_argument("function", choices=["ml", "gml"],
                    help="ml: E_rho(-x); gml: Pochhammer-weighted G(-x)")
    pe.add_argument("--rho", type=float, required=True)
    pe.add_argument("--mu", type=float, default=None)
    pe.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    pe.add_argument("--xmin", type=float, default=0.0)
    pe.add_argument("--xmax", type=float, required=True)
    pe.add_argument("--points", type=int, default=600)
    pe.add_argument("--out", default="-")
    pe.set_defaults(func=cmd_eval)

    pm = sub.add_parser("mixing", help="moments and admissibility checks")
    pm.add_argument("--mu", type=float, required=True)
    pm.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    pm.add_argument("--rho", type=float, nargs="+", default=[1.0])
    pm.add_argument("--moments", type=int, default=4)
    pm.add_argument("--frac", type=float, nargs="*")
    pm.add_argument("--out", default="-")
    pm.set_defaults(func=cmd_mixing)

    ps = sub.add_parser("simulate", help="simulate path ensembles")
    ps.add_argument("--process", required=True,
                    choices=["component", "empirical", "limit", "stationary",
                             "xi"])
    ps.add_argument("--rho", type=float, required=True)
    ps.add_argument("--mu", type=float, required=True)
    ps.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    ps.add_argument("--T", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--paths", type=int, default=1)
    ps.add_argument("--n-components", type=int, default=10)
    ps.add_argument("--tol", type=float, default=1e-3,
                    help="certified tail tolerance for history truncation")
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_simulate)

    pd = sub.add_parser("diagnose", help="run a convergence check")
    pd.add_argument("check", choices=["l2sup", "tightness", "pathwise",
                                      "cauchy", "stationarity",
                                      "mixing-remark"])
    pd.add_argument("--rho", type=float, required=True)
    pd.add_argument("--mu", type=float, required=True)
    pd.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    pd.add_argument("--n", default="10,100,1000")
    pd.add_argument("--mc", type=int, default=2000)
    pd.add_argument("--T", type=float, default=2.0)
    pd.add_argument("--steps", type=int, default=500)
    pd.add_argument("--tol", type=float, default=1e-3)
    pd.add_argument("--tmin", type=float, default=10.0)
    pd.add_argument("--tmax", type=float, default=1000.0)
    pd.add_argument("--tpoints", type=int, default=8)
    pd.add_argument("--seed", type=int, required=True)
    pd.add_argument("--out", default="-")
    pd.set_defaults(func=cmd_diagnose)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except TruncationError as exc:
        print(f"truncation tolerance unachievable: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION


if __name__ == "__main__":
    sys.exit(main())
