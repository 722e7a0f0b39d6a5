"""One benchmark worker: a fresh interpreter that pays what a CLI user pays.

It times ``import fracou`` and the workload's first (cold) pass, which
builds the regime thresholds, the gap and mixing interpolants and the
envelope constants; then it runs warm passes until its share of the run
length is used.  Outputs are checked after every pass, outside the timed
region.  The result goes to the JSON file named by --out.

Only the standard library is imported before ``import fracou`` is timed.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


# probe time taken as the nominal host speed: scaled times are seconds on a
# host that runs the probe in this time
PROBE_NOMINAL_S = 1e-3


def probe() -> float:
    """Wall seconds of a fixed reference loop, independent of fracou.

    Hosts shared with other tenants alternate between fast and contended
    phases, up to 1.6x apart and from seconds to minutes long.  A probe
    before and after every job is contended along with the job, so dividing
    the job's time by the host slowdown the probes saw takes most of that
    swing out.  The loop mixes numpy transcendental work with an
    interpreter loop, as the library does.
    """
    import numpy as np

    t = time.perf_counter()
    np.exp(np.sin(np.linspace(0.0, 1.0, 30_000))).sum()
    s = 0
    for i in range(7_500):
        s += i * i
    return time.perf_counter() - t


def run_pass(jobs):
    """Time one pass over the job list; a job that raises is recorded.

    Returns the pass timing, the outputs, the errors and each job's
    (wall, CPU, slowdown) with slowdown the mean of the probes around the
    job over PROBE_NOMINAL_S.  Probe time is not part of any job's time.
    """
    outs, errors, job_s = [], [], []
    before = probe()
    for job in jobs:
        jc, jt = time.process_time(), time.perf_counter()
        try:
            outs.append(job.run())
            errors.append(None)
        except Exception as exc:  # a failed operation, counted and reported
            outs.append(None)
            errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - jt, time.process_time() - jc
        after = probe()
        job_s.append((wall, cpu, (before + after) / 2.0 / PROBE_NOMINAL_S))
        before = after
    timing = {"wall": sum(j[0] for j in job_s), "cpu": sum(j[1] for j in job_s),
              "scaled_wall": sum(j[0] / j[2] for j in job_s),
              "scaled_cpu": sum(j[1] / j[2] for j in job_s)}
    return timing, outs, errors, job_s


class Ledger:
    """Counts operations and holds every pass to the first pass's digests."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.digests = [None] * len(jobs)
        self.attempted = 0
        self.problems = []
        self.failed = 0
        self.inconclusive = 0

    def record(self, outs, errors, full_check):
        for i, (job, out, err) in enumerate(zip(self.jobs, outs, errors)):
            self.attempted += 1
            problems = [err] if err else []
            if not problems:
                problems += job.verify(out)
                if getattr(out, "verdict", None) == "inconclusive" and full_check:
                    self.inconclusive += 1
            if not problems:
                digest = job.digest(out).hex()
                if self.digests[i] is None:
                    self.digests[i] = digest
                elif digest != self.digests[i]:
                    problems.append(f"{job.name}: output differs from the first pass")
            if not problems and full_check:
                try:
                    problems += job.check(out)
                except Exception:
                    problems.append(f"{job.name}: check raised\n"
                                    + traceback.format_exc())
            if problems:
                self.failed += 1
                self.problems += problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full-check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--src", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import fracou
    import_s = time.perf_counter() - t0

    expected = os.path.join(os.path.realpath(args.src), "fracou")
    if os.path.dirname(os.path.realpath(fracou.__file__)) != expected:
        print(f"fracou imported from {fracou.__file__}, not {expected}",
              file=sys.stderr)
        return 2

    import mpmath
    import numpy
    import scipy

    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    ledger = Ledger(jobs)
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer(workloads)
        tracer.install()

    timing, outs, errors, cold_jobs = run_pass(jobs)
    setup_s = import_s + timing["wall"]
    # the import is scaled by the slowdown of the probes around the first job
    setup_scaled = import_s / cold_jobs[0][2] + timing["scaled_wall"]
    if tracer:
        tracer.uninstall()
        cold_summary = layertrace.summarize(tracer.take())
    ledger.record(outs, errors, full_check=bool(args.full_check))
    del outs

    # warm passes until this worker's share of the run length is used; a
    # traced run alternates traced and untraced passes for the overhead ratio
    order = ("traced", "plain") if tracer else ("plain",)
    passes = {"traced": [], "plain": []}
    summaries = []
    job_samples = [[] for _ in jobs]  # (wall, CPU, slowdown) of untraced runs
    started, k = time.perf_counter(), 0
    while k < len(order) or time.perf_counter() - started < args.seconds:
        phase = order[k % len(order)]
        if phase == "traced":
            tracer.install()
        timing, outs, errors, job_s = run_pass(jobs)
        if phase == "traced":
            tracer.uninstall()
            summaries.append(layertrace.summarize(tracer.take()))
        ledger.record(outs, errors, full_check=False)
        del outs
        passes[phase].append(timing)
        if phase == "plain":
            for acc, s in zip(job_samples, job_s):
                acc.append(s)
        k += 1

    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "setup_scaled": setup_scaled,
        "passes": passes,
        "job_samples": {job.name: s for job, s in zip(jobs, job_samples)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "inconclusive": ledger.inconclusive,
        "digests": ledger.digests,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
    }
    if tracer:
        layers, problems = layertrace.per_layer(
            import_s, cold_summary, summaries,
            [p["scaled_wall"] for p in passes["traced"]],
            [p["scaled_wall"] for p in passes["plain"]])
        result["layers"] = layers
        result["problems"] += problems
        result["failed"] += len(problems)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
