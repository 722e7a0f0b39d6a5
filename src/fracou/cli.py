"""Command-line front end.

Subcommands: eval (special-function tables), mixing (moments and condition
checks as JSON), simulate (path ensembles as CSV + JSON sidecar), diagnose
(convergence checks as JSON reports).  Exit codes: 0 success/pass, 2 invalid
parameters or an output that cannot be written, 3 accuracy failure,
4 truncation tolerance unachievable, 5 diagnostic fail, 6 diagnostic
inconclusive.

Seeds are mandatory wherever randomness is involved; reruns of the same
command line are bit-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from functools import lru_cache

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
# highest --moments order: bounds the run time and output of one mixing call
MAX_MOMENTS = 10_000


def _emit(path: str, body: str) -> None:
    """Write body to the file at path, or to stdout for "-"."""
    if path == "-":
        sys.stdout.write(body)
    else:
        with open(path, "w") as fh:
            fh.write(body)


def cmd_eval(args) -> int:
    if not (0 <= args.xmin < args.xmax and 2 <= args.points <= 16 * sim._DRIVER_CELLS):
        raise DomainError(f"eval requires 0 <= xmin < xmax (got {args.xmin}, {args.xmax}) "
                          f"and --points in [2, {16 * sim._DRIVER_CELLS}] (got {args.points})")
    side = None if args.out == "-" else sim.sidecar_path(args.out)
    rho = float(FractionalOrder(args.rho))
    xs = np.linspace(args.xmin, args.xmax, args.points)
    if args.function == "ml":
        ys = ml_one_values(rho, xs)
    else:
        if args.mu is None:
            raise DomainError("eval gml requires --mu")
        # the table axis is the function argument: column two is G(-x),
        # the mean kernel at t = (lam x)^(1/rho)
        mk = MeanKernel(rho, GammaMixing(args.mu, args.lam))
        ys = mean_kernel_values(mk, (args.lam * xs) ** (1.0 / rho))
    config = {"command": "eval", "function": args.function, "rho": args.rho,
              "mu": args.mu, "lam": args.lam, "xmin": args.xmin,
              "xmax": args.xmax, "points": args.points}
    with (open(args.out, "w") if args.out != "-"
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write("x,value\n")
        sim.write_csv_rows(fh, xs, np.asarray(ys, dtype=float)[None, :])
    if side is not None:
        _emit(side, json.dumps(config, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_mixing(args) -> int:
    if not 0 <= args.moments <= MAX_MOMENTS:
        raise DomainError(f"--moments must be in [0, {MAX_MOMENTS}], "
                          f"got {args.moments}")
    params = GammaMixing(args.mu, args.lam)
    out = {
        "mu": args.mu,
        "lam": args.lam,
        "moments_int": {str(n): moment_int(params, n)
                        for n in range(args.moments + 1)},
        "condition_mu_gt_half_inv_rho": {},
    }
    for p in args.frac or []:
        # null marks a divergent moment; any other DomainError exits 2
        out.setdefault("moments_frac", {})[str(p)] = (
            None if p <= -params.mu else moment_frac(params, p))
    for rho in args.rho:
        out["condition_mu_gt_half_inv_rho"][str(rho)] = \
            check_condition(params, rho)
    _emit(args.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    # the rates of component and xi share one driver: one path each
    if args.paths < 1 or args.paths > 1 and args.process in ("component", "xi"):
        raise DomainError("--paths must be >= 1, and 1 for component and xi; "
                          f"got {args.paths}")
    # before any allocation: a kernel row, the rates, the output table
    rows, table = args.steps + 1, 16 * sim._DRIVER_CELLS
    cols = "n_components" if args.process == "component" else "paths"
    for flag, size, cap in (("steps", rows, sim._DRIVER_CELLS),
                            ("n_components", args.n_components, table),
                            (cols, getattr(args, cols) * rows, table)):
        if size > cap:
            raise DomainError(f"--{flag.replace('_', '-')} asks for {size} values, over {cap}")
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
    # the certified truncation of the two-sided processes and the variance
    # their coarse history cells lose, at most
    config.update({k: ens.meta[k]
                   for k in ("t_trunc", "tail_bound", "disc_var_bound")
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
        # geometric spacing needs finite ends > 0; the check rejects the rest
        ends = np.array([args.tmin, args.tmax])
        t_list = (np.geomspace(*ends, max(args.tpoints, 0))
                  if np.all((ends > 0.0) & (ends < np.inf)) else ends)
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


@lru_cache(maxsize=1)
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
    pm.add_argument("--rho", type=float, nargs="+", default=(1.0,))
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


def _check_finite(args) -> None:
    """DomainError naming the first float flag, lists included, that is nan
    or infinite: no such value is meaningful, and JSON has none."""
    for name, value in vars(args).items():
        values = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise DomainError(f"--{name.replace('_', '-')} must be finite, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite(args)
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
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
