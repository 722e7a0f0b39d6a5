"""The benchmark's three workloads: seeded inputs, job lists and output checks.

A workload is a fixed list of jobs.  One pass runs every job once; the
worker times each job and adds the times up per pass.  Each job has three
parts:

* ``run``: the timed call into the library (public functions or
  ``fracou.cli.main``);
* ``verify``: a cheap check made after every pass (exit code, verdict);
* ``check``: the full output check against independent references, made on
  the first pass of the first worker, outside the timed region.

``digest`` fingerprints a job's output, so that every later pass and every
other worker can be held to byte-identical output.

Inputs come from the workload seed through the benchmark's own generator;
the library only ever sees the generated arrays and command lines.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats

from fracou import cli
from fracou import diagnostics as dg
from fracou.kernels import (
    MeanKernel,
    empirical_kernel_values,
    mean_kernel_deriv_values,
    mean_kernel_values,
    stationary_variance,
)
from fracou.mixing import GammaMixing, sample_alphas
from fracou.simulate import TimeGrid
from fracou.special_functions import ml_one_values, ml_two_values

import oracle

# Regime edges (largest series-certified x, smallest asymptotic-certified x)
# of the library at the commit that defined this benchmark.  They are frozen
# here so that a band always means the same inputs, whatever the library's
# dispatch later does; the band a point belongs to is never read from the
# library's own method labels.
REGIME_EDGES = {
    ("ml_one", 1.2): (17.02, 42.88),
    ("ml_one", 1.5): (35.85, 109.73),
    ("ml_one", 1.9): (93.11, 384.09),
    ("ml_two", 1.2): (16.06, 41.66),
    ("ml_two", 1.5): (31.03, 98.47),
    ("ml_two", 1.9): (117.02, 305.61),
}


def bands(fn: str, rho: float) -> dict:
    """Open x intervals of the three bands, kept 0.1% clear of each edge."""
    e_s, e_a = REGIME_EDGES[(fn, rho)]
    return {"small_x": (0.0, 0.999 * e_s),
            "mid_x": (1.001 * e_s, 0.999 * e_a),
            "large_x": (1.001 * e_a, 4.0 * e_a)}


def band_of(fn: str, rho: float, x: np.ndarray) -> str | None:
    """The band holding every point of x, or None."""
    key = (fn, float(rho))
    if key not in REGIME_EDGES or x.size == 0:
        return None
    lo, hi = float(x.min()), float(x.max())
    for name, (a, b) in bands(*key).items():
        if a <= lo and hi <= b:
            return name
    return None


TOL = 1e-8  # absolute error allowed against every reference
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# fixed lags whose values are stored in reference.json; the largest lag of
# each table is among them, so every seed builds the same cached tables
MK_REF_LAGS = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
               500.0, 1000.0, 1500.0, 2000.0)
MKD_REF_LAGS = (0.01, 0.1, 0.5, 1.0, 1.5, 2.0)
GML_REF_ROWS = tuple(range(0, 300, 23))


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    digest: Callable[[object], bytes]
    verify: Callable[[object], list] = lambda out: []
    check: Callable[[object], list] = lambda out: []


def _array_digest(out) -> bytes:
    h = hashlib.sha256()
    for a in out if isinstance(out, tuple) else (out,):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _subsample(n: int, k: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, k).astype(int))


def _compare(label: str, got, want, tol: float = TOL) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want)
    if not np.all(np.isfinite(got)) or float(err.max(initial=0.0)) > tol:
        i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        return [f"{label}: error {float(err[i]):.3e} > {tol:g} at index {i}"]
    return []


def _load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _cli_table_job(name: str, argv: list, path: str, check) -> Job:
    def run():
        return cli.main(argv + ["--out", path])

    def digest(rc):
        h = hashlib.sha256(str(rc).encode())
        for p in (path, os.path.splitext(path)[0] + ".json"):
            with open(p, "rb") as fh:
                h.update(fh.read())
        return h.digest()

    def verify(rc):
        return [] if rc == 0 else [f"{name}: exit code {rc}"]

    return Job(name, run, digest, verify, lambda rc: check(np.loadtxt(
        path, delimiter=",", skiprows=1, ndmin=2)))


def _band_job(fn: str, rho: float, band: str, x: np.ndarray) -> Job:
    beta = 1.0 if fn == "ml_one" else rho
    idx = _subsample(x.size, 6)

    def check(values):
        want = [oracle.ml(rho, float(x[i]), beta) for i in idx]
        return _compare(f"{fn} rho={rho} {band}", values[idx], want)

    if fn == "ml_one":
        run = lambda: ml_one_values(rho, x)  # noqa: E731
    else:
        run = lambda: ml_two_values(rho, x)  # noqa: E731
    return Job(f"{fn}_{rho}_{band}", run, _array_digest, check=check)


# ---------------------------------------------------------------------------
# kernel_tables
# ---------------------------------------------------------------------------


def kernel_tables(seed: int, tmpdir: str) -> list:
    """Special-function and kernel-table throughput in large batches.

    Single-threaded; no random draws, no convolution.
    """
    rng = np.random.default_rng([seed, 1])
    jobs = []

    def check_ml(table):
        rows = _subsample(table.shape[0], 12)
        want = [oracle.ml(1.9, float(table[i, 0])) for i in rows]
        return _compare("eval ml", table[rows, 1], want)

    def check_gml(table):
        ref = _load_reference()["gml"]
        rows = list(GML_REF_ROWS)
        return (_compare("eval gml x", table[rows, 0], ref["x"], 0.0)
                + _compare("eval gml", table[rows, 1], ref["value"]))

    jobs.append(_cli_table_job(
        "eval_ml", ["eval", "ml", "--rho", "1.9", "--xmax", "60",
                    "--points", "600"],
        os.path.join(tmpdir, "ml.csv"), check_ml))
    jobs.append(_cli_table_job(
        "eval_gml", ["eval", "gml", "--rho", "1.9", "--mu", "4", "--xmax", "30",
                     "--points", "300"],
        os.path.join(tmpdir, "gml.csv"), check_gml))

    for fn, per_rho in (("ml_one", 100_000), ("ml_two", 25_000)):
        for rho in (1.2, 1.5, 1.9):
            for band, (a, b) in bands(fn, rho).items():
                x = np.sort(rng.uniform(a, b, per_rho // 3))
                jobs.append(_band_job(fn, rho, band, x))

    x_cf = np.sort(rng.uniform(0.0, 400.0, 20_000))

    def closed_forms():
        return (ml_one_values(1.0, x_cf), ml_two_values(1.0, x_cf),
                ml_one_values(2.0, x_cf), ml_two_values(2.0, x_cf))

    def check_closed_forms(out):
        idx = _subsample(x_cf.size, 64)
        problems = []
        for values, (rho, beta) in zip(out, ((1.0, 1.0), (1.0, 1.0),
                                             (2.0, 1.0), (2.0, 2.0))):
            want = [oracle.ml(rho, float(x_cf[i]), beta) for i in idx]
            problems += _compare(f"closed form rho={rho} beta={beta}",
                                 values[idx], want)
        return problems

    jobs.append(Job("closed_forms", closed_forms, _array_digest,
                    check=check_closed_forms))

    rates = np.sort(rng.gamma(4.0, 1.0, 250))
    lags = np.linspace(0.0, 2.0, 2001)

    def check_fn(f_n):
        problems = [] if f_n[0] == 1.0 else [f"f_n(0) = {f_n[0]!r}, not 1"]
        for j in (500, 1000, 2000):
            want = math.fsum(oracle.ml(1.9, float(a) * lags[j] ** 1.9)
                             for a in rates) / rates.size
            problems += _compare(f"f_n(t={lags[j]})", f_n[j], want)
        return problems

    jobs.append(Job("empirical_kernel_values",
                    lambda: empirical_kernel_values(rates, 1.9, lags),
                    _array_digest, check=check_fn))

    mk = MeanKernel(1.9, GammaMixing(4.0, 1.0))
    mk_lags = np.concatenate([np.sort(rng.uniform(0.0, 2000.0, 100_000)),
                              MK_REF_LAGS])
    mkd_lags = np.concatenate([np.sort(rng.uniform(1e-3, 2.0, 1000)),
                               MKD_REF_LAGS])

    def check_ref(key, n_ref):
        def check(values):
            return _compare(key, values[-n_ref:], _load_reference()[key])
        return check

    jobs.append(Job("mean_kernel_values",
                    lambda: mean_kernel_values(mk, mk_lags), _array_digest,
                    check=check_ref("mean_kernel", len(MK_REF_LAGS))))
    jobs.append(Job("mean_kernel_deriv_values",
                    lambda: mean_kernel_deriv_values(mk, mkd_lags),
                    _array_digest,
                    check=check_ref("mean_kernel_deriv", len(MKD_REF_LAGS))))
    return jobs


# ---------------------------------------------------------------------------
# path_ensembles
# ---------------------------------------------------------------------------


# two-sided tail mass of 4 standard errors under the normal law
_FOUR_SE = 2.0 * stats.norm.sf(4.0)


def _endpoint_variance_check(label, col, sigma2) -> list:
    """Sample variance of Gaussian endpoints against the law's variance.

    "Within 4 SE" at the exact chi-square law of the sample variance: for
    few paths the normal approximation of that law would flag a correct
    ensemble on a few seeds in a thousand.
    """
    dof = col.size - 1
    var = float(np.var(col, ddof=1))
    lo = sigma2 * stats.chi2.ppf(_FOUR_SE / 2.0, dof) / dof
    hi = sigma2 * stats.chi2.isf(_FOUR_SE / 2.0, dof) / dof
    if not lo <= var <= hi:
        return [f"{label}: endpoint variance {var:.5g} outside the 4-SE range "
                f"[{lo:.5g}, {hi:.5g}] around {sigma2:.5g}"]
    return []


def path_ensembles(seed: int, tmpdir: str) -> list:
    """The README `simulate` lines through the CLI, CSV + sidecar on disk."""
    base = ["simulate", "--mu", "4", "--lambda", "1", "--seed", str(seed)]
    long_grid = ["--T", "2", "--steps", "2000"]
    lines = {
        "limit": ["--process", "limit", "--rho", "1", *long_grid,
                  "--paths", "25"],
        "stationary": ["--process", "stationary", "--rho", "1.9", *long_grid,
                       "--paths", "10", "--tol", "1e-4"],
        "component": ["--process", "component", "--rho", "1.9", *long_grid,
                      "--n-components", "100"],
        "empirical": ["--process", "empirical", "--rho", "1.9", *long_grid,
                      "--paths", "5", "--n-components", "100"],
        # 100 x 100 cells stay under the FFT cut-over: the direct branch
        "limit_short": ["--process", "limit", "--rho", "1", "--T", "0.5",
                        "--steps", "100", "--paths", "100"],
    }

    def shape_check(name, table, T, steps, cols, starts_at_zero):
        problems = []
        if table.shape != (steps + 1, cols + 1):
            return [f"{name}: CSV shape {table.shape}, want "
                    f"{(steps + 1, cols + 1)}"]
        if not np.all(np.isfinite(table)):
            problems.append(f"{name}: non-finite values")
        if np.max(np.abs(table[:, 0] - np.linspace(0.0, T, steps + 1))) > 1e-12:
            problems.append(f"{name}: time column off the grid")
        if starts_at_zero and np.any(table[0, 1:] != 0.0):
            problems.append(f"{name}: paths do not start at 0")
        return problems

    def checker(name):
        def check(table):
            if name == "limit":
                p = shape_check(name, table, 2.0, 2000, 25, True)
                return p or _endpoint_variance_check(
                    name, table[-1, 1:],
                    oracle.gamma_mixed_exp_variance(4.0, 1.0, 2.0))
            if name == "limit_short":
                p = shape_check(name, table, 0.5, 100, 100, True)
                return p or _endpoint_variance_check(
                    name, table[-1, 1:],
                    oracle.gamma_mixed_exp_variance(4.0, 1.0, 0.5))
            if name == "stationary":
                p = shape_check(name, table, 2.0, 2000, 10, False)
                mk = MeanKernel(1.9, GammaMixing(4.0, 1.0))
                return p or _endpoint_variance_check(
                    name, table[-1, 1:], stationary_variance(mk, 1e-4))
            if name == "component":
                return shape_check(name, table, 2.0, 2000, 100, True)
            p = shape_check(name, table, 2.0, 2000, 5, True)
            # Var Y(T) of the discretized empirical mean given its rates:
            # sum of f_n(lag)^2 dt over the lags dt..T
            rates = sample_alphas(GammaMixing(4.0, 1.0), 100, seed)
            f_n = empirical_kernel_values(rates, 1.9,
                                          np.linspace(0.0, 2.0, 2001))
            return p or _endpoint_variance_check(
                name, table[-1, 1:], float(np.sum(f_n[1:] ** 2)) * 1e-3)
        return check

    jobs = []
    for name, flags in lines.items():
        path = os.path.join(tmpdir, f"{name}.csv")
        jobs.append(_cli_table_job(name, base + flags, path, checker(name)))
    return jobs


# ---------------------------------------------------------------------------
# diagnostic_battery
# ---------------------------------------------------------------------------

# Monte Carlo sizes of scripts/run_all_checks.py scaled by 1/10 (mc) and
# about 1/12 (stationarity rows), four shift times instead of eight and
# tightness n = 100, 1000 instead of 1000, 10000, so that a pass fits the
# run length.  The l2sup and pathwise jobs are left out: their verdicts
# compare one rate draw's kernel gap across n as if it had to shrink, and
# fail on some seeds at the script's own sizes (see perfbench/README.md).
BATTERY_MC = 200
BATTERY_STATIONARY_ROWS = 400


def diagnostic_battery(seed: int, tmpdir: str) -> list:
    """Seven of the nine run_all_checks.py jobs through fracou.diagnostics."""
    mc = BATTERY_MC
    grid = TimeGrid(0.0, 2.0, 500)
    short = TimeGrid(0.0, 2.0, 200)
    t_list = np.geomspace(10.0, 1000.0, 4)
    calls = {
        "tightness": lambda: dg.check_tightness(
            1.9, 4.0, 1.0, grid, [100, 1000], mc, seed),
        "cauchy_mu4": lambda: dg.check_cauchy_decay(
            1.9, 4.0, 1.0, t_list, mc, seed),
        "cauchy_mu04": lambda: dg.check_cauchy_decay(
            1.9, 0.4, 1.0, t_list, mc, seed),
        "cauchy_mu1": lambda: dg.check_cauchy_decay(
            1.0, 1.0, 1.0, t_list, mc, seed),
        "stationarity_19": lambda: dg.check_stationarity(
            1.9, 4.0, 1.0, short, BATTERY_STATIONARY_ROWS, seed, 5e-3),
        "stationarity_1": lambda: dg.check_stationarity(
            1.0, 4.0, 1.0, short, BATTERY_STATIONARY_ROWS, seed, 2e-3),
        "mixing_remark": lambda: dg.check_mixing_condition_remark(
            3.0, 1.0, 1.9),
    }

    def verify(rep):
        return [f"{rep.check_name}: verdict fail"] if rep.verdict == "fail" else []

    return [Job(name, call, lambda rep: rep.to_json().encode(), verify)
            for name, call in calls.items()]


WORKLOADS = {
    "kernel_tables": kernel_tables,
    "path_ensembles": path_ensembles,
    "diagnostic_battery": diagnostic_battery,
}
