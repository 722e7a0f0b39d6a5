"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime against the declared desk-scale budget."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fracou import diagnostics as dg
from fracou import simulate as sim
from fracou.errors import AccuracyError
from fracou.kernels import (
    MeanKernel,
    ResolventKernel,
    bound_m,
    empirical_kernel_values,
    mean_kernel_values,
    resolvent_l2_norm,
    resolvent_values,
    stationary_variance,
    variance_integral,
    volterra_residual,
)
from fracou.mixing import GammaMixing, sample_alphas
from fracou.simulate import TimeGrid
from fracou.special_functions import (
    _asym_many,
    _regime_thresholds,
    _series_many,
    g_rho_quadrature,
    g_rho_series,
    ml_one_values,
    ml_two_values,
)

MIX = GammaMixing(4.0, 1.0)
MK19 = MeanKernel(1.9, MIX)


class Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds
        self.t0 = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.t0
        line = (f"ACCEPTANCE {self.number:02d} PASS "
                f"({elapsed:.1f}s < {self.seconds:.0f}s): {self.description}")
        print(line)
        assert elapsed < self.seconds, f"budget exceeded: {line}"


def var_se(var, n):
    return var * math.sqrt(2.0 / (n - 1))


def test_criterion_01_special_function_identities():
    b = Budget(1, "closed-form identities and the derivative identity", 5.0)
    xs = np.linspace(0.0, 50.0, 1000)
    assert np.max(np.abs(ml_one_values(1.0, xs) - np.exp(-xs))) <= 1e-12
    assert np.max(np.abs(ml_one_values(2.0, xs) - np.cos(np.sqrt(xs)))) <= 1e-12
    h = 1e-5
    grid = np.linspace(0.1, 20.0, 80)
    for rho in (1.2, 1.5, 1.9):
        fd = (ml_one_values(rho, grid + h) - ml_one_values(rho, grid - h)) / (2 * h)
        exact = -ml_two_values(rho, grid) / rho
        assert np.max(np.abs(fd - exact)) <= 1e-6
    b.done()


def test_criterion_02_triple_agreement():
    b = Budget(2, "series/asymptotic/quadrature agreement", 10.0)
    # direct series vs the mixing panels on [0, 10] wherever the series
    # certifies; past its certified range it must raise, and the panels
    # carry on alone
    t_cert = 0.0
    for t in np.linspace(0.0, 10.0, 101):
        try:
            gs = g_rho_series(1.9, 4.0, -(t**1.9))
        except AccuracyError:
            break
        gq = g_rho_quadrature(1.9, 4.0, 1.0, float(t))
        tol = gs.est_abs_error + gq.est_abs_error
        assert abs(gs.value - gq.value) <= tol
        t_cert = t
    assert t_cert >= 3.0
    with pytest.raises(AccuracyError):
        g_rho_series(1.9, 4.0, -(10.0**1.9))
    # series vs complete asymptotics across the crossover band
    for rho in (1.2, 1.5, 1.9):
        lo, _ = _regime_thresholds(rho, 1.0)
        band = np.linspace(0.8 * lo, 1.2 * lo, 25)
        sv, se, _, _ = _series_many(rho, 1.0, band)
        av, ae, _ = _asym_many(rho, 1.0, band)
        assert np.all(np.abs(sv - av) <= se + ae)
    b.done()


def test_criterion_03_volterra_residual_grid():
    b = Budget(3, "resolvent identity residual on the 27-point grid", 30.0)
    worst = 0.0
    for rho in (1.1, 1.5, 1.9):
        for alpha in (0.5, 1.0, 4.0):
            for t in (0.1, 1.0, 5.0):
                r = abs(volterra_residual(ResolventKernel(alpha, rho), t))
                worst = max(worst, r)
    assert worst <= 1e-6, f"worst residual {worst:.2e}"
    b.done()


def test_criterion_04_figure_reproduction():
    b = Budget(4, "oscillation figure and mixed-kernel figure data", 5.0)
    xs = np.linspace(0.0, 60.0, 600)
    vals = ml_one_values(1.9, xs)
    signs = np.sign(vals[vals != 0.0])
    assert int(np.sum(np.diff(signs) != 0)) >= 2
    wide = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 2000)])
    weighted = np.abs(ml_one_values(1.9, wide)) * (1.0 + wide)
    assert np.isfinite(weighted).all()
    assert weighted.max() <= bound_m(1.9)
    zs = np.linspace(0.0, 30.0, 120)
    gvals = np.array([g_rho_quadrature(1.9, 4.0, 1.0, z ** (1 / 1.9)).value
                      for z in zs])
    assert gvals.min() < 0.0
    assert abs(gvals[-1]) < 0.05 * abs(gvals.min())
    b.done()


def test_criterion_05_monte_carlo_variance_law():
    b = Budget(5, "marginal variance law for all six processes", 300.0)
    n_mc = 10**4
    grid = TimeGrid(0.0, 2.0, 2000)
    lag = grid.times()
    results = []

    # deterministic-bias allowances: half a grid cell of the squared kernel
    # for the left-endpoint scheme, plus the certified truncation tolerance
    # for the two-sided processes
    dt_bias = 0.5 * grid.dt

    # component process at alpha = 1
    kern = resolvent_values(ResolventKernel(1.0, 1.9), lag)
    samp = sim.marginal_samples(kern, [1000, 2000], n_mc, 101, grid.dt)
    fine = np.linspace(0.0, 2.0, 4001)
    s2 = resolvent_values(ResolventKernel(1.0, 1.9), fine) ** 2
    for col, t in ((0, 1.0), (1, 2.0)):
        target = float(np.trapezoid(s2[fine <= t], fine[fine <= t]))
        results.append(("X_k", t, samp[:, col].var(ddof=1), target, dt_bias))

    # empirical mean over n = 100 rates, conditional on the rates
    alphas = sample_alphas(MIX, 100, 11)
    fn = empirical_kernel_values(alphas, 1.9, lag)
    samp = sim.marginal_samples(fn, [2000], n_mc, 102, grid.dt)
    fn_fine = empirical_kernel_values(alphas, 1.9, fine)
    results.append(("Y_n", 2.0, samp[:, 0].var(ddof=1),
                    float(np.trapezoid(fn_fine**2, fine)), dt_bias))

    # aggregation limit
    gk = mean_kernel_values(MK19, lag)
    samp = sim.marginal_samples(gk, [2000], n_mc, 103, grid.dt)
    results.append(("Y", 2.0, samp[:, 0].var(ddof=1),
                    variance_integral(MK19, 2.0), dt_bias))

    # shifted-start value at the origin
    samp = sim.y_minus_s_at_zero(MK19, 2.0, n_mc, 104, n_steps=2000)
    results.append(("Y_-s(0)", 2.0, samp.var(ddof=1),
                    variance_integral(MK19, 2.0), dt_bias))

    # stationary component at alpha = 1
    tail_tol = 2.5e-3
    t_hist = sim._certified_history((1.9, np.array([1.0])), grid, tail_tol)
    n_hist = int(t_hist / grid.dt)
    kern = resolvent_values(ResolventKernel(1.0, 1.9),
                            np.arange(n_hist + 1) * grid.dt)
    samp = sim.stationary_marginal_samples(kern, [0], n_hist, n_mc, 105,
                                           grid.dt)
    results.append(("xi_k", 0.0, samp[:, 0].var(ddof=1),
                    resolvent_l2_norm(ResolventKernel(1.0, 1.9)),
                    dt_bias + tail_tol))

    # stationary aggregate
    tail_tol = 5e-3
    t_hist = sim._certified_history(MK19, grid, tail_tol)
    n_hist = int(t_hist / grid.dt)
    kern = mean_kernel_values(MK19, np.arange(n_hist + 2001) * grid.dt)
    samp = sim.stationary_marginal_samples(kern, [2000], n_hist, n_mc, 106,
                                           grid.dt)
    results.append(("eta", 2.0, samp[:, 0].var(ddof=1),
                    stationary_variance(MK19, 1e-4), dt_bias + tail_tol))

    for name, t, mc, target, allow in results:
        z = abs(mc - target) / var_se(target, n_mc)
        print(f"  {name:8s} t={t:4.1f}  mc={mc:.5f} target={target:.5f} z={z:.2f}")
        assert abs(mc - target) <= 3.0 * var_se(target, n_mc) + allow, \
            f"{name}: |{mc:.5f} - {target:.5f}| exceeds 3 se"
    b.done()


def test_criterion_06_l2_sup_shadow():
    b = Budget(6, "sup-norm gap decreases and obeys the kernel-gap bound", 180.0)
    rep = dg.check_l2_sup_convergence(1.9, 4.0, 1.0, [10, 100, 1000],
                                      TimeGrid(0.0, 2.0, 500), 2000, 1)
    print("  " + "; ".join(f"n={r['n']}: {r['statistic']:.2e} <= "
                           f"{r['bound']:.2e}" for r in rep.estimates))
    assert rep.verdict == "pass"
    stats = [r["statistic"] for r in rep.estimates]
    assert stats[0] > stats[1] > stats[2]
    b.done()


def test_criterion_07_tightness():
    b = Budget(7, "increment ratios below K_n and K_n near its limit", 180.0)
    rep = dg.check_tightness(1.9, 4.0, 1.0, TimeGrid(0.0, 2.0, 500),
                             [1000, 10000], 2000, 1)
    assert rep.verdict == "pass"
    ratios = [r["ratio"] for r in rep.estimates if "ratio" in r]
    assert len(ratios) == 50
    assert max(ratios) <= rep.bound
    note = rep.notes[0]
    print("  " + note + f"; max pair ratio {max(ratios):.3f}")
    b.done()


def test_criterion_08_cauchy_decay_rates():
    b = Budget(8, "tail-difference decay exponents and mu=1 envelope", 60.0)
    t_list = np.geomspace(10.0, 1000.0, 8)
    rep = dg.check_cauchy_decay(1.9, 4.0, 1.0, t_list, 400, 1)
    slope = [r for r in rep.estimates if "slope" in r][0]["slope"]
    assert rep.verdict == "pass"
    assert abs(slope - (1.0 - 2.0 * 1.9)) <= 0.1
    print(f"  mu=4.0: slope {slope:.3f} vs {1 - 3.8}")
    rep = dg.check_cauchy_decay(1.9, 0.4, 1.0, t_list, 400, 1)
    slope = [r for r in rep.estimates if "slope" in r][0]["slope"]
    assert rep.verdict == "pass"
    assert abs(slope - (1.0 - 2.0 * 1.9 * 0.4)) <= 0.1
    print(f"  mu=0.4: slope {slope:.3f} vs {1 - 2 * 1.9 * 0.4:.2f}")
    rep = dg.check_cauchy_decay(1.0, 1.0, 1.0, t_list, 400, 1)
    assert rep.verdict == "pass"
    row = [r for r in rep.estimates if "envelope_ratio_min" in r][0]
    assert 0.5 <= row["envelope_ratio_min"] <= row["envelope_ratio_max"] <= 2.0
    print(f"  mu=1.0: envelope ratio in [{row['envelope_ratio_min']:.3f}, "
          f"{row['envelope_ratio_max']:.3f}]")
    b.done()


def test_criterion_09_stationarity():
    b = Budget(9, "flat stationary variance and the limit-variance law", 180.0)
    rep = dg.check_stationarity(1.9, 4.0, 1.0, TimeGrid(0.0, 2.0, 200),
                                10**4, 1, 5e-3)
    assert rep.verdict == "pass"
    vs = [r["eta_var"] for r in rep.estimates if "eta_var" in r]
    assert len(vs) == 10
    print(f"  rho=1.9: eta variance spread [{min(vs):.4f}, {max(vs):.4f}], "
          f"sigma^2 = {rep.bound:.4f}")
    rep1 = dg.check_stationarity(1.0, 4.0, 1.0, TimeGrid(0.0, 2.0, 200),
                                 10**4, 1, 2e-3)
    assert rep1.verdict == "pass"
    assert rep1.bound == pytest.approx(1.0 / 7.0, abs=2e-3)
    yrow = [r for r in rep1.estimates if "y_var" in r][0]
    assert abs(yrow["y_var"] - 1.0 / 7.0) <= \
        3.0 * var_se(1.0 / 7.0, 10**4) + 2e-3
    print(f"  rho=1.0: Var Y(20) = {yrow['y_var']:.5f} vs 1/7 = {1 / 7:.5f}")
    b.done()


CLI_COMMANDS = [
    ["eval", "ml", "--rho", "1.9", "--xmax", "40", "--points", "200"],
    ["eval", "gml", "--rho", "1.9", "--mu", "4", "--xmax", "20",
     "--points", "60"],
    ["mixing", "--mu", "4", "--lam", "2", "--rho", "1.9", "--frac", "0.5"],
    ["simulate", "--process", "limit", "--rho", "1.9", "--mu", "4",
     "--lambda", "1", "--T", "1", "--steps", "200", "--paths", "4",
     "--seed", "9"],
    # 64 paths: one normal_rows call of 64 rows
    ["simulate", "--process", "stationary", "--rho", "1.9", "--mu", "4",
     "--lambda", "1", "--T", "0.5", "--steps", "50", "--paths", "64",
     "--tol", "1e-3", "--seed", "9"],
    ["diagnose", "mixing-remark", "--rho", "1.9", "--mu", "3", "--lam", "1",
     "--seed", "1"],
]


def test_criterion_10_cli_determinism(tmp_path, cli_env):
    b = Budget(10, "bit-identical CLI reruns under 1, 4 and 8 threads", 120.0)
    for i, args in enumerate(CLI_COMMANDS):
        blobs = []
        for threads in ("1", "4", "8"):
            tag = f"c{i}_t{threads}"
            if args[0] in ("eval", "simulate", "diagnose"):
                out = tmp_path / f"{tag}.out"
                full = args + ["--out", str(out)]
            else:
                out = None
                full = args
            r = subprocess.run([sys.executable, "-m", "fracou.cli", *full],
                               capture_output=True, text=True,
                               env=cli_env(threads))
            assert r.returncode == 0, r.stderr
            blob = r.stdout.encode()
            if out is not None:
                blob += out.read_bytes()
            if args[0] in ("eval", "simulate"):
                # every evaluation and simulation writes a JSON sidecar
                side = out.with_suffix(".json")
                assert side.exists(), f"command {i} wrote no sidecar"
                blob += side.read_bytes()
            blobs.append(blob)
        assert blobs[0] == blobs[1] == blobs[2], f"command {i} not deterministic"
    b.done()
