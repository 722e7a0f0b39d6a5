#!/usr/bin/env python3
"""Run one workload once per seed and report how steady each metric is.

For every metric: the median and quartiles over the runs
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) as a share
of the median, next to the metric's bound in BENCHMARK.json.  An end-to-end
metric is steady here when its spread is below a third of its bound
(``setup_s`` is held only to its median).  With --trace 1 it also reports
every count metric that does not read the same on every run; the two ratios
in REPEATING must.

Usage, from the root of the checkout:

    python3 perfbench/steadiness.py --workload path_ensembles --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATING = ("kernels.unique_cell_ratio", "simulate.history_useful_ratio")


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    runs, walls = [], []
    for seed in seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.monotonic()
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.monotonic() - t0)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            return 1
        result = json.loads(r.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} wall={walls[-1]:.1f}s", flush=True)

    specs = bench["per_layer" if args.trace else "end_to_end"]
    print(f"\n{args.workload}: {len(runs)} runs, seconds={args.seconds}, "
          f"run wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
    print(f"{'metric':<46}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
          f"{'bound/3':>9}")
    unsteady = []
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        third = spec["bound"] / 3 if "bound" in spec else None
        flag = ""
        if third is not None and spec["name"] != "setup_s" and spread >= third:
            flag = "  UNSTEADY"
            unsteady.append(spec["name"])
        if args.trace and spec["unit"] in ("count", "B", "ratio") \
                and spec["name"] != "trace.overhead_ratio" and len(set(values)) > 1:
            flag = "  varies across runs"
            if spec["name"] in REPEATING:
                unsteady.append(spec["name"])
        print(f"{spec['name']:<46}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.4f}{third if third is not None else float('nan'):>9.4f}"
              f"{flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"all correct: {all(r['correct'] for r in runs)}; failed operations: "
          f"{failed} of {sum(r['attempted'] for r in runs)}")
    return 1 if unsteady or failed else 0


if __name__ == "__main__":
    sys.exit(main())
