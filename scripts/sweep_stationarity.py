#!/usr/bin/env python3
"""Count stationarity and cauchy verdicts over many seeds.

Runs the check_stationarity and check_cauchy_decay jobs of run_all_checks.py
for seeds 1-40, at the size the benchmark's diagnostic battery uses
(stationarity on 400 rows; cauchy on 200 draws and 4 shift times) and at
the size of run_all_checks.py (5000 rows; 2000 draws and 8 shift times),
and prints the fail and inconclusive counts with the seeds behind them.
Both checks read coarse history cells, all marginals of one check from one
draw of the driver (simulate._marginal_draws).  Exits 1 when any run fails.

Usage: PYTHONPATH=src python scripts/sweep_stationarity.py
"""

import sys
from functools import partial

from run_all_checks import CAUCHY, STATIONARITY, cauchy_job, stationarity_job

SEEDS = range(1, 41)
# (label, jobs): the battery's size, then the script's
SIZES = [
    ("battery", {**{n: partial(stationarity_job, n, rows=400)
                    for n in STATIONARITY},
                 **{n: partial(cauchy_job, n, mc=200, t_points=4)
                    for n in CAUCHY}}),
    ("script", {**{n: partial(stationarity_job, n, rows=5000)
                   for n in STATIONARITY},
                **{n: partial(cauchy_job, n, mc=2000, t_points=8)
                   for n in CAUCHY}}),
]


def main() -> int:
    any_fail = False
    for size, jobs in SIZES:
        for name, job in jobs.items():
            seen = {"fail": [], "inconclusive": []}
            for seed in SEEDS:
                verdict = job(seed=seed).verdict
                if verdict in seen:
                    seen[verdict].append(seed)
            any_fail = any_fail or bool(seen["fail"])
            print(f"{name:16s} {size:8s} seeds {SEEDS[0]}..{SEEDS[-1]}: "
                  f"fail {len(seen['fail'])} {seen['fail']}  "
                  f"inconclusive {len(seen['inconclusive'])} "
                  f"{seen['inconclusive']}", flush=True)
    return int(any_fail)


if __name__ == "__main__":
    sys.exit(main())
