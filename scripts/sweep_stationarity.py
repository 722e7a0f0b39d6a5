#!/usr/bin/env python3
"""Count stationarity verdicts over many seeds.

Runs the check_stationarity jobs of run_all_checks.py for seeds 1-40, at
400 rows (the size the benchmark's diagnostic battery uses) and at 5000 rows
(the size of run_all_checks.py), and prints the fail and inconclusive counts
with the seeds behind them.  Exits 1 when any run fails.

Usage: PYTHONPATH=src python scripts/sweep_stationarity.py
"""

import sys

from run_all_checks import STATIONARITY, stationarity_job

SEEDS = range(1, 41)
ROWS = (400, 5000)


def main() -> int:
    any_fail = False
    for rows in ROWS:
        for name in STATIONARITY:
            seen = {"fail": [], "inconclusive": []}
            for seed in SEEDS:
                verdict = stationarity_job(name, seed, rows).verdict
                if verdict in seen:
                    seen[verdict].append(seed)
            any_fail = any_fail or bool(seen["fail"])
            print(f"{name:16s} rows {rows:5d}  seeds {SEEDS[0]}..{SEEDS[-1]}: "
                  f"fail {len(seen['fail'])} {seen['fail']}  "
                  f"inconclusive {len(seen['inconclusive'])} "
                  f"{seen['inconclusive']}", flush=True)
    return int(any_fail)


if __name__ == "__main__":
    sys.exit(main())
