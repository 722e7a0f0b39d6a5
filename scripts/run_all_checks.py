#!/usr/bin/env python3
"""Run the full desk-scale diagnostic battery and write JSON reports.

Usage: python scripts/run_all_checks.py [--seed N] [--outdir reports]
"""

import argparse
import pathlib
import sys
from functools import partial

import numpy as np

from fracou import diagnostics as dg
from fracou.simulate import TimeGrid

# (rho, tol) of the check_stationarity jobs, at mu 4, lam 1
STATIONARITY = {"stationarity_19": (1.9, 5e-3), "stationarity_1": (1.0, 2e-3)}
# (rho, mu) of the check_cauchy_decay jobs, at lam 1
CAUCHY = {"cauchy_mu4": (1.9, 4.0), "cauchy_mu04": (1.9, 0.4),
          "cauchy_mu1": (1.0, 1.0)}


def stationarity_job(name: str, seed: int, rows: int = 5000):
    """The check_stationarity job called name, on rows draws."""
    rho, tol = STATIONARITY[name]
    return dg.check_stationarity(rho, 4.0, 1.0, TimeGrid(0.0, 2.0, 200), rows,
                                 seed, tol)


def cauchy_job(name: str, seed: int, mc: int = 2000, t_points: int = 8):
    """The check_cauchy_decay job called name, on mc draws and t_points
    shift times from 10 to 1000."""
    rho, mu = CAUCHY[name]
    return dg.check_cauchy_decay(rho, mu, 1.0,
                                 np.geomspace(10.0, 1000.0, t_points), mc,
                                 seed)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--mc", type=int, default=2000)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = TimeGrid(0.0, 2.0, 500)

    jobs = [
        ("l2sup", lambda: dg.check_l2_sup_convergence(
            1.9, 4.0, 1.0, [10, 100, 1000], grid, args.mc, args.seed)),
        ("tightness", lambda: dg.check_tightness(
            1.9, 4.0, 1.0, grid, [1000, 10000], args.mc, args.seed)),
        ("pathwise", lambda: dg.check_pathwise_conditions(
            1.9, 4.0, 1.0, [100, 1000, 10000], TimeGrid(0.0, 2.0, 100),
            args.seed)),
        *((name, partial(cauchy_job, name, args.seed, args.mc))
          for name in CAUCHY),
        *((name, partial(stationarity_job, name, args.seed))
          for name in STATIONARITY),
        ("mixing_remark", lambda: dg.check_mixing_condition_remark(
            3.0, 1.0, 1.9)),
    ]

    worst = 0
    for name, job in jobs:
        rep = job()
        (outdir / f"{name}.json").write_text(rep.to_json())
        status = {"pass": 0, "inconclusive": 6, "fail": 5}[rep.verdict]
        worst = max(worst, status)
        print(f"{name:18s} {rep.verdict:12s} {rep.runtime_seconds:7.1f}s")
    return worst


if __name__ == "__main__":
    sys.exit(main())
