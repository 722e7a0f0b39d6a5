#!/usr/bin/env python3
"""fracou benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

Usage, from the root of a checkout (no pip install needed):

    python3 perfbench/run.py --workload kernel_tables --seed 1 --seconds 12 --trace 0

Each run starts fresh interpreters (perfbench/worker.py) one after another,
with ``src`` on PYTHONPATH and FRACOU_THREADS set explicitly.  An untraced
run starts three, so that set-up (import plus the cold first pass) is
measured three times; each then runs warm passes for a third of --seconds.
A traced run starts one, which runs traced warm passes and then untraced
ones to measure the tracing overhead.  Every output is checked outside the
timed region.  Human-readable lines come first; the last line of standard
output is the JSON result.  Exit code 0 means a result was printed, which
may still say ``"correct": false``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("kernel_tables", "path_ensembles", "diagnostic_battery")
# FRACOU_THREADS per workload, never above nproc
THREADS = {"kernel_tables": 1, "path_ensembles": 2, "diagnostic_battery": 1}
SETUP_WORKERS = 3
DEADLINE_S = 170.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def code_identity() -> dict:
    sha = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    h = hashlib.sha256()
    for p in sorted((SRC / "fracou").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def run_worker(args, index, threads, tmp, trace, deadline) -> dict:
    wdir = tmp / f"w{index}"
    wdir.mkdir()
    out = wdir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["FRACOU_THREADS"] = str(threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["TMPDIR"] = str(wdir)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / (1 if trace
                                                                     else SETUP_WORKERS)),
           "--trace", str(trace), "--full-check", "1" if index == 0 else "0",
           "--src", str(SRC), "--tmp", str(wdir), "--out", str(out)]
    r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    if r.returncode != 0 or not out.exists():
        sys.stderr.write(r.stderr[-4000:])
        raise RuntimeError(f"worker {index} exited with code {r.returncode}")
    return json.loads(out.read_text())


def report(args, threads, workers) -> int:
    first = workers[0]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    for i, w in enumerate(workers[1:], 1):
        for name, a, b in zip(first["job_samples"], first["digests"], w["digests"]):
            if a != b:
                failed += 1
                problems.append(f"{name}: worker {i} output differs from worker 0")
    samples = {
        "setup_s": [w["setup_scaled"] for w in workers],
        "pass_s": [p["scaled_wall"] for w in workers for p in w["passes"]["plain"]],
        "cpu_s": [p["scaled_cpu"] for w in workers for p in w["passes"]["plain"]],
        "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
    }
    units = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        metrics = {k: (v, unit, n) for k, (v, unit, n) in first["layers"].items()}
    else:
        metrics = {k: (statistics.median(v), units[k], len(v))
                   for k, v in samples.items()}
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio", attempted)

    info = {**machine(), **first["versions"], **code_identity()}
    print(f"fracou benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"FRACOU_THREADS={threads} workers={len(workers)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        for name, (v, unit, n) in sorted(metrics.items()):
            print(f"{name:<46}{v:>16.6g}  {unit:<6} samples={n}")
    else:
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}  unit   samples")
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            print(f"{name:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}  "
                  f"{units[name]:<6} {len(values)}")
        print(f"{'ok_ratio':<14}{metrics['ok_ratio'][0]:>12.6f}{'':24}  ratio  "
              f"{attempted}")
        plain = [p for w in workers for p in w["passes"]["plain"]]
        slowdown = [j[2] for w in workers for runs in w["job_samples"].values()
                    for j in runs]
        print("  times are divided, job by job, by the host slowdown that the "
              "probes around each job saw (worker.py)")
        print(f"  unscaled: set-up median {statistics.median(w['setup_s'] for w in workers):.4f}"
              f" s; warm pass median {statistics.median(p['wall'] for p in plain):.4f}"
              f" s wall, {statistics.median(p['cpu'] for p in plain):.4f} s CPU; "
              f"host slowdown median {statistics.median(slowdown):.3f}")
        print(f"  fail_ratio {failed / attempted:.6f} ({failed} of {attempted} "
              f"operations failed); inconclusive verdicts: {first['inconclusive']}")
    for name, runs in first["job_samples"].items():
        if runs:
            print(f"job {name:<28} {statistics.median(r[0] for r in runs):10.4f} s"
                  f"  (worker 0 median, unscaled, runs={len(runs)})")
    for p in problems[:20]:
        print("problem: " + p)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "fracou" / "__init__.py").is_file():
        print(f"no fracou package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    threads = min(THREADS[args.workload], os.cpu_count() or 1)
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        n = 1 if args.trace else SETUP_WORKERS
        workers = [run_worker(args, i, threads, tmp, args.trace, deadline)
                   for i in range(n)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    return report(args, threads, workers)


if __name__ == "__main__":
    sys.exit(main())
