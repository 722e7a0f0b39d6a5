import decimal
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sp_fft, signal, stats

from fracou import _rng
from fracou import diagnostics as dg
from fracou import kernels as kn
from fracou import simulate as sim
from fracou import special_functions as sf
from fracou.errors import DomainError, TruncationError
from fracou.kernels import (
    MeanKernel,
    ResolventKernel,
    mean_kernel,
    mean_kernel_values,
    resolvent_l2_norm,
    resolvent_values,
    stationary_variance,
    variance_integral,
)
from fracou.mixing import GammaMixing, sample_alphas

MIX = GammaMixing(4.0, 1.0)
MK19 = MeanKernel(1.9, MIX)


def var_se(var, n):
    return var * math.sqrt(2.0 / (n - 1))


def test_time_grid():
    g = sim.TimeGrid(0.0, 2.0, 4)
    assert g.dt == 0.5
    assert np.allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(DomainError):
        sim.TimeGrid(1.0, 1.0, 4)
    for n_steps in (0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            sim.TimeGrid(0.0, 1.0, n_steps)


def test_float_step_count_is_stored_as_an_integer():
    g, whole = sim.TimeGrid(0.0, 1.0, 10.0), sim.TimeGrid(0.0, 1.0, 10)
    assert type(g.n_steps) is int and g == whole
    assert np.array_equal(sim.brownian_increments(g, 3),
                          sim.brownian_increments(whole, 3))
    assert np.array_equal(sim.simulate_component_paths([1.0], 1.9, g, 3).values,
                          sim.simulate_component_paths([1.0], 1.9, whole, 3).values)


def test_brownian_increments_stats_and_determinism():
    g = sim.TimeGrid(0.0, 1.0, 1000)
    dw = sim.brownian_increments(g, 3)
    assert np.array_equal(dw, sim.brownian_increments(g, 3))
    assert not np.array_equal(dw, sim.brownian_increments(g, 3, rep=1))
    big = sim._increment_matrix(3, 1000, 1000, g.dt)
    v = big.ravel().var(ddof=1)
    assert abs(v - g.dt) < 4.0 * var_se(g.dt, big.size)
    # the summed path over [0, 1] has unit variance
    totals = big.sum(axis=1)
    assert abs(totals.var(ddof=1) - 1.0) < 4.0 * var_se(1.0, 1000)


def test_thread_env_does_not_change_bits(monkeypatch):
    # the library reads no environment variable: FRACOU_THREADS, which the
    # benchmark still exports, changes no bit even on a host of 8 cores
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    g = sim.TimeGrid(0.0, 1.0, 256)
    ref = sim._increment_matrix(5, 128, 256, g.dt)
    for n in ("4", "8"):
        monkeypatch.setenv("FRACOU_THREADS", n)
        assert np.array_equal(sim._increment_matrix(5, 128, 256, g.dt), ref)


def test_normal_rows_are_counters_of_one_namespace_key(monkeypatch):
    # row r is the Philox counter [0, 0, r, 0] of the key of (seed, tags),
    # whatever the offset, the call's shape and FRACOU_THREADS
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    key = _rng._key(3, ("w",))
    want = np.array([np.random.Generator(np.random.Philox(
        key=key, counter=[0, 0, 4 + r, 0])).standard_normal(1000)
        for r in range(6)])
    for n in ("1", "2"):
        monkeypatch.setenv("FRACOU_THREADS", n)
        assert np.array_equal(
            _rng.normal_rows(3, ("w",), 6, 1000, row_offset=4), want)
    assert np.array_equal(_rng.normal_rows(3, ("w",), 2, 1000, row_offset=7),
                          want[3:5])
    with pytest.raises(DomainError):
        _rng.normal_rows(3, ("w",), 2, 5, row_offset=-1)


def test_zero_rate_component_is_brownian():
    g = sim.TimeGrid(0.0, 2.0, 500)
    ens = sim.simulate_component_paths([0.0], 1.9, g, 7)
    w = np.concatenate([[0.0], np.cumsum(sim.brownian_increments(g, 7))])
    assert np.max(np.abs(ens.values[0] - w)) < 1e-12
    assert ens.values[0, 0] == 0.0


def test_component_requires_supported_order_and_origin():
    g = sim.TimeGrid(0.0, 1.0, 10)
    with pytest.raises(DomainError):
        sim.simulate_component_paths([1.0], 0.8, g, 1)
    with pytest.raises(DomainError):
        sim.simulate_component_paths([1.0], 1.5, sim.TimeGrid(1.0, 2.0, 10), 1)


def test_exact_ou_oracle_correlation_and_strong_error():
    alpha = 2.0
    errs = {}
    for n_steps in (20, 200, 2000):
        g = sim.TimeGrid(0.0, 2.0, n_steps)
        dw = sim.brownian_increments(g, 11)
        ens = sim.simulate_component_paths([alpha], 1.0, g, 11)
        # exact one-step transition with variance-matched innovation on the
        # same driver
        sig = math.sqrt((1.0 - math.exp(-2 * alpha * g.dt)) / (2 * alpha))
        x = np.zeros(n_steps + 1)
        e = math.exp(-alpha * g.dt)
        for j in range(n_steps):
            x[j + 1] = e * x[j] + sig * dw[j] / math.sqrt(g.dt)
        errs[g.dt] = float(np.sqrt(np.mean((x - ens.values[0]) ** 2)))
        if n_steps == 2000:
            c = np.corrcoef(x[1:], ens.values[0][1:])[0, 1]
            assert c >= 0.999
    dts = sorted(errs)
    slope = np.polyfit(np.log(dts), np.log([errs[d] for d in dts]), 1)[0]
    assert slope >= 0.45  # at least square-root strong order


def test_component_variance_matches_kernel_integral():
    g = sim.TimeGrid(0.0, 2.0, 1000)
    kern = resolvent_values(ResolventKernel(1.0, 1.9), g.times())
    n_mc = 3000
    samples = sim.marginal_samples(kern, [500, 1000], n_mc, 23, g.dt)
    for col, t in ((0, 1.0), (1, 2.0)):
        target = np.trapezoid(
            resolvent_values(ResolventKernel(1.0, 1.9),
                             np.linspace(0, t, 2001)) ** 2,
            np.linspace(0, t, 2001))
        v = samples[:, col].var(ddof=1)
        assert abs(v - target) < 3.0 * var_se(target, n_mc) + 2e-3


def test_bilinearity_exact():
    g = sim.TimeGrid(0.0, 1.0, 400)
    alphas = sample_alphas(MIX, 50, 2)
    ens = sim.simulate_component_paths(alphas, 1.9, g, 9)
    mean_path = sim.empirical_mean_path(ens)
    from fracou.kernels import empirical_kernel_values

    fn = empirical_kernel_values(alphas, 1.9, g.times())
    dw = sim.brownian_increments(g, 9)
    direct = sim._convolve_rows(fn[None, :], dw[None, :])[0]
    assert np.max(np.abs(mean_path - direct)) < 1e-12


def test_single_path_mean_identity():
    g = sim.TimeGrid(0.0, 1.0, 100)
    ens = sim.simulate_component_paths([1.3], 1.9, g, 4)
    assert np.array_equal(sim.empirical_mean_path(ens), ens.values[0])


def test_kernel_tables_do_not_depend_on_their_chunks(monkeypatch):
    alphas = sample_alphas(MIX, 40, seed=2)
    lags = np.linspace(0.0, 30.0, 301)  # series, gap and asymptotic regimes
    assert alphas.size * lags.size <= kn._BLOCK
    grid = sim.TimeGrid(0.0, 2.0, 300)

    def tables():
        pathwise = dg.check_pathwise_conditions(1.9, 4.0, 1.0, [10, 40], grid, 2)
        return (kn.empirical_kernel_values(alphas, 1.9, lags),
                sim._resolvent_lag_rows(alphas, 1.9, lags),
                np.array([[r["sup_deriv_gap"], r["sup_deriv"]]
                          for r in pathwise.estimates[:2]]))

    whole = tables()
    monkeypatch.setattr(kn, "_BLOCK", 7 * alphas.size + 3)  # 7 lags a block
    for a, b in zip(whole, tables()):
        assert a.tobytes() == b.tobytes()


def test_batch_paths_do_not_depend_on_the_block_size(monkeypatch):
    # every path that works through _BLOCK points (or cells, or values) at a
    # time, at its own size and at 7: the same bytes
    x = np.linspace(0.0, 300.0, 200)  # series, gap and asymptotic at rho 1.5
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 2000.0, 120)])
    alphas = sample_alphas(MIX, 30, seed=5)
    lags = np.linspace(0.0, 3.0, 80)
    # rho 1.2: the largest rate sends some lags past the series to their cells
    assert np.any(alphas.max() * lags**1.2 > sf._regime_thresholds(1.2, 1.0)[0])
    g = sim.TimeGrid(0.0, 2.0, 300)  # 300 x 300 cells: the FFT branch
    rows = sim._resolvent_lag_rows(alphas[:5], 1.9, g.times())
    dws = sim._increment_matrix(3, 5, g.n_steps, g.dt)
    hist = sim._resolvent_lag_rows(alphas[:5], 1.9, np.arange(401) * 0.01)

    def outputs():
        csv = io.StringIO()
        sim.write_csv_rows(csv, g.times()[:50], rows[:3, :50])
        layout = sim._history_layout(hist, 0, 100, 300, 0.01)
        return (sf.ml_one_values(1.5, x), sf.ml_two_values(1.5, x),
                sf.ml_one_values(1.5, x.reshape(20, 10)),
                sf.ml_two_values(1.9, x.reshape(20, 10)),
                kn.mean_kernel_values(MK19, ts),
                kn.mean_kernel_deriv_values(MK19, ts[1:]),
                sim._resolvent_lag_rows(alphas, 1.9, lags),
                kn.empirical_kernel_values(alphas, 1.2, lags),
                sim._convolve_rows(rows, dws[:1]),
                sim._convolve_rows(rows[:1], dws, start=40),
                np.frombuffer(csv.getvalue().encode(), np.uint8),
                layout.levels, layout.starts, np.array(layout.disc_var_bound))

    whole = outputs()
    for module in (sf, kn, sim):
        monkeypatch.setattr(module, "_BLOCK", 7)
    for a, b in zip(whole, outputs(), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_batch_paths_hold_their_output_plus_one_block():
    # a call holds its inputs, its kernel table and its output, plus one
    # block: not one temporary per point of the batch
    alphas = sample_alphas(MIX, 400, seed=3)
    g = sim.TimeGrid(0.0, 2.0, 4000)
    x = np.linspace(0.0, 600.0, 10**6)
    calls = [lambda: sim.simulate_component_paths(alphas, 1.9, g, 1).values,
             lambda: sim.simulate_limit_paths(MK19, g, 1, 1000).values,
             lambda: sf.ml_one_values(1.5, x)]
    sim.simulate_component_paths(alphas[:2], 1.9, g, 1)  # cached tables first
    sim.simulate_limit_paths(MK19, g, 1, 2)
    sf.ml_one_values(1.5, x[::1000])
    for call, bound in zip(calls, (2.5, 2.5, 3.5)):
        peak, out = _peak_bytes(call)
        assert peak <= bound * out.nbytes, (peak / out.nbytes, bound)


def test_fft_matches_direct(monkeypatch):
    g = sim.TimeGrid(0.0, 2.0, 700)
    kern = sim._resolvent_lag_rows(np.array([0.5, 1.0, 4.0]), 1.9, g.times())
    dw = sim.brownian_increments(g, 5)[None, :]
    f = sim._convolve_rows(kern, dw)  # 700 x 700 cells: past the cut-over
    monkeypatch.setattr(sim, "_FFT_CUTOVER", np.inf)
    d = sim._convolve_rows(kern, dw)
    assert np.max(np.abs(d - f)) < 1e-10


def test_limit_path_shares_driver_and_variance():
    g = sim.TimeGrid(0.0, 2.0, 1000)
    y = sim.simulate_limit_path(MK19, g, 31)
    assert y[0] == 0.0
    kern = mean_kernel_values(MK19, g.times())
    dw = sim.brownian_increments(g, 31)
    assert np.max(np.abs(y - sim._convolve_rows(kern[None, :], dw[None, :])[0])) == 0.0
    n_mc = 3000
    samples = sim.marginal_samples(kern, [1000], n_mc, 31, g.dt)
    target = variance_integral(MK19, 2.0)
    assert abs(samples.var(ddof=1) - target) < 3.0 * var_se(target, n_mc) + 2e-3


@pytest.mark.parametrize("n_steps", [50, 400])  # direct and FFT branches
def test_vectorized_paths_match_per_replication_reference(n_steps):
    g = sim.TimeGrid(0.0, 2.0, n_steps)
    alphas = sample_alphas(MIX, 30, 6)
    emp = sim.simulate_empirical_mean_paths(alphas, 1.9, g, 6, n_paths=5)
    lim = sim.simulate_limit_paths(MK19, g, 6, n_paths=5)
    assert emp.labels == [{"process": "empirical", "rep": r}
                          for r in range(5)]
    assert lim.meta == {"process": "limit", "seed": 6}
    dw_matrix = sim._increment_matrix(6, 5, n_steps, g.dt)
    kern = mean_kernel_values(MK19, g.times())
    for r in range(5):
        dw = sim.brownian_increments(g, 6, rep=r)
        assert np.array_equal(dw_matrix[r], dw)
        # Y_n the long way: a rates x lags table per replication, averaged
        ens = sim.simulate_component_paths(alphas, 1.9, g, 6, rep=r)
        assert np.max(np.abs(emp.values[r] - sim.empirical_mean_path(ens))) < 1e-12
        # the limit the long way: the mean kernel rebuilt for every path and
        # convolved as before, so the same arithmetic gives the same bits
        conv = (signal.fftconvolve if n_steps**2 >= sim._FFT_CUTOVER
                else np.convolve)
        ref = conv(mean_kernel_values(MK19, g.times())[1:], dw)
        assert lim.values[r, 0] == 0.0
        assert np.array_equal(lim.values[r, 1:], ref[:n_steps])
        assert np.array_equal(sim.simulate_limit_path(MK19, g, 6, rep=r),
                              lim.values[r])
    whole = sim._convolve_rows(kern[None, :], dw_matrix)
    assert np.array_equal(lim.values, whole)
    # an ensemble starting at replication 2 holds rows 2.. of this one
    later = sim.simulate_limit_paths(MK19, g, 6, n_paths=3, rep0=2)
    assert later.labels == [{"process": "limit", "rep": r} for r in (2, 3, 4)]
    assert np.array_equal(later.values, lim.values[2:])


def test_import_and_readme_eval_and_mixing_lines_load_no_scipy(cli_env,
                                                               tmp_path):
    # scipy is a test dependency only: with its import blocked, the package
    # imports and the README eval, mixing and simulate lines run
    code = """
import sys
sys.modules['scipy'] = None
import fracou
from fracou import cli
out = sys.argv[1]
assert cli.main(['eval', 'ml', '--rho', '1.9', '--xmax', '60', '--points',
                 '600', '--out', out + '/ml.csv']) == 0
assert cli.main(['eval', 'gml', '--rho', '1.9', '--mu', '4', '--xmax', '30',
                 '--out', out + '/gml.csv']) == 0
assert cli.main(['mixing', '--mu', '4', '--lam', '2', '--rho', '1.9',
                 '--frac', '0.5', '-1.0', '--out', out + '/mixing.json']) == 0
assert cli.main(['simulate', '--process', 'limit', '--rho', '1', '--mu', '4',
                 '--lambda', '1', '--T', '2', '--steps', '2000', '--paths',
                 '100', '--seed', '7', '--out', out + '/paths.csv']) == 0
assert cli.main(['simulate', '--process', 'stationary', '--rho', '1.9',
                 '--mu', '4', '--lambda', '1', '--T', '2', '--steps', '2000',
                 '--paths', '50', '--tol', '1e-4', '--seed', '7',
                 '--out', out + '/eta.csv']) == 0
# the blocking entry is the only scipy module
print(sorted(m for m in sys.modules if m.startswith('scipy')))
"""
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                       capture_output=True, text=True, env=cli_env("1"))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["['scipy']"]


def test_integrals_leave_quadpack_unloaded(cli_env):
    # with scipy blocked, every integral of the library runs on the panel
    # integrator
    code = """
import sys
sys.modules['scipy'] = None
from fracou import diagnostics as dg, kernels as kn
from fracou.mixing import GammaMixing
mk = kn.MeanKernel(1.9, GammaMixing(4.0, 1.0))
kn.variance_integral(mk, 3.0)
kn.stationary_variance(mk, 1e-3)
kn.resolvent_l2_norm(kn.ResolventKernel(1.0, 1.5))
kn.volterra_residual(kn.ResolventKernel(1.0, 1.9), 2.0)
dg.check_cauchy_decay(1.9, 4.0, 1.0, [4.0, 8.0], 20, 1)
dg.check_mixing_condition_remark(3.0, 1.0, 1.9)
print(sorted(m for m in sys.modules if m.startswith('scipy')))
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=cli_env("1"))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["['scipy']"]


def test_exact_gaussian_sampler(exact_gaussian_oracle):
    g = sim.TimeGrid(0.0, 1.0, 12)
    values, variances = exact_gaussian_oracle(
        lambda u: mean_kernel(MK19, u), g.times(), 4000, 17)
    # marginal variances from the covariance build match the quadrature
    # formula before any sampling noise enters
    for idx in (4, 8, 12):
        assert variances[idx] == pytest.approx(
            variance_integral(MK19, g.times()[idx]), abs=1e-8)
    # two-sample agreement with increment quadrature at t = T
    fine = sim.TimeGrid(0.0, 1.0, 1000)
    kern = mean_kernel_values(MK19, fine.times())
    inc = sim.marginal_samples(kern, [1000], 4000, 19, fine.dt)[:, 0]
    ks = stats.ks_2samp(values[:, -1], inc)
    assert ks.pvalue > 0.01
    # zero kernel gives identically zero paths
    zero, _ = exact_gaussian_oracle(lambda u: 0.0, g.times(), 5, 3)
    assert np.all(zero == 0.0)


def test_y_minus_s_at_zero():
    n_mc = 4000
    samples = sim.y_minus_s_at_zero(MK19, 2.0, n_mc, 13)
    target = variance_integral(MK19, 2.0)
    assert abs(samples.mean()) < 3.0 * math.sqrt(target / n_mc)
    assert abs(samples.var(ddof=1) - target) < 3.0 * var_se(target, n_mc) + 2e-3
    # large shifts approach the stationary variance
    far = sim.y_minus_s_at_zero(MK19, 40.0, n_mc, 13, n_steps=8000)
    sig2 = stationary_variance(MK19, 1e-4)
    assert abs(far.var(ddof=1) - sig2) < 3.0 * var_se(sig2, n_mc) + 5e-3
    for s, n_steps in ((0.0, None), (-1.0, None), (float("nan"), None),
                       (float("inf"), None), (1.0, 0), (1.0, -3), (1.0, 2.5),
                       (1.0, float("inf"))):
        with pytest.raises(DomainError):
            sim.y_minus_s_at_zero(MK19, s, 10, 13, n_steps=n_steps)


def test_y_minus_s_at_zero_is_the_history_only_convolution():
    dv = 0.01
    kern = mean_kernel_values(MK19, np.arange(301) * dv)
    y_b = sim.y_minus_s_at_zero(MK19, 3.0, 50, 13, n_steps=300)
    want = sim.stationary_marginal_samples(kern, [0], 300, 50, 13, dv)[:, 0]
    assert y_b.tobytes() == want.tobytes()
    # each shift weights the fine cells of the one bridge tree by the
    # kernel's mean over the layout cell they lie in, at left-end lags
    fine = _rng.tree_cells(13, ("wtilde",), 50, np.zeros(300, dtype=int),
                           np.arange(300))
    y_a = sim.y_minus_s_at_zero(MK19, 1.0, 50, 13, n_steps=100)
    bounds = []
    for y, n in ((y_b, 300), (y_a, 100)):
        layout = sim._history_layout(kern[: n + 1], 0, 0, n, dv)
        means = np.add.reduceat(kern[1 : n + 1], layout.starts) / layout.widths
        weights = np.repeat(means, layout.widths)
        assert np.max(np.abs(y - fine[:, :n] @ weights * math.sqrt(dv))) < 1e-13
        assert y.meta["disc_var_bound"] == layout.disc_var_bound
        bounds.append(layout.disc_var_bound)
    # so Y_{-b}(0) - Y_{-a}(0) is the kernel at the left ends of the cells
    # beyond a / dv against those backward cells, up to the two layouts'
    # projection errors, each of variance at most its disc_var_bound
    gap = fine[:, 100:] @ kern[101:] * math.sqrt(dv)
    err = (y_b - y_a) - gap
    assert float(np.mean(err**2)) <= 3.0 * (math.sqrt(bounds[0])
                                             + math.sqrt(bounds[1])) ** 2


@pytest.mark.parametrize("n_paths", [0, -2])
def test_empty_or_negative_replications_are_domain_errors(n_paths):
    g = sim.TimeGrid(0.0, 1.0, 10)
    kern = mean_kernel_values(MK19, np.arange(31) * g.dt)
    calls = [
        lambda: sim.simulate_limit_paths(MK19, g, 1, n_paths=n_paths),
        lambda: sim.simulate_empirical_mean_paths([1.0, 2.0], 1.9, g, 1,
                                                  n_paths=n_paths),
        lambda: sim.simulate_stationary_paths(MK19, g, 1, 1e-2,
                                              n_paths=n_paths),
        lambda: sim.simulate_stationary_mean_paths([1.0, 2.0], 1.9, g, 1,
                                                   1e-2, n_paths=n_paths),
        lambda: sim.y_minus_s_at_zero(MK19, 1.0, n_paths, 1),
        lambda: sim.marginal_samples(kern, [10], n_paths, 1, g.dt),
        lambda: sim.stationary_marginal_samples(kern, [10], 20, n_paths, 1,
                                                g.dt),
        # a negative first replication is no row either
        lambda: sim.simulate_limit_paths(MK19, g, 1, rep0=n_paths - 1),
        lambda: sim.brownian_increments(g, 1, rep=n_paths - 1),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_stationary_aggregate_flat_variance_and_lag_covariance():
    g = sim.TimeGrid(0.0, 2.0, 100)
    n_mc = 4000
    ens = sim.simulate_stationary_paths(MK19, g, 5, 1e-3, n_paths=n_mc)
    assert ens.meta["tail_bound"] < 1e-3
    v = ens.values.var(axis=0, ddof=1)
    sig2 = stationary_variance(MK19, 1e-4)
    assert np.max(np.abs(v - sig2)) < 4.0 * var_se(sig2, n_mc) + 1e-3
    # lag covariance depends only on the lag
    lag = 25
    c1 = np.cov(ens.values[:, 0], ens.values[:, lag])[0, 1]
    c2 = np.cov(ens.values[:, 50], ens.values[:, 50 + lag])[0, 1]
    se = 2.0 * sig2 / math.sqrt(n_mc)
    assert abs(c1 - c2) < 4.0 * se


def test_stationary_component_variance():
    g = sim.TimeGrid(0.0, 0.5, 25)
    target = resolvent_l2_norm(ResolventKernel(1.0, 1.9))
    n_mc = 800
    vals = np.empty(n_mc)
    n_hist_probe = sim.simulate_stationary_paths(
        np.array([1.0]), g, 5, 1e-3, rho=1.9)
    assert n_hist_probe.meta["t_trunc"] >= 8.0
    kern = resolvent_values(ResolventKernel(1.0, 1.9),
                            np.arange(int(n_hist_probe.meta["t_trunc"] / g.dt)
                                      + g.n_steps + 1) * g.dt)
    samples = sim.stationary_marginal_samples(
        kern, [g.n_steps], int(n_hist_probe.meta["t_trunc"] / g.dt),
        n_mc, 5, g.dt)
    v = samples[:, 0].var(ddof=1)
    assert abs(v - target) < 3.0 * var_se(target, n_mc) + 1e-2


@pytest.mark.parametrize("n_paths", [0, -3, 7])
def test_component_rates_take_one_path_each(n_paths):
    # explicit rates draw one path per rate on one driver, so any other
    # replication count is an error rather than silently ignored
    g = sim.TimeGrid(0.0, 0.5, 25)
    with pytest.raises(DomainError):
        sim.simulate_stationary_paths(np.array([1.0, 2.0]), g, 5, 1e-2,
                                      rho=1.9, n_paths=n_paths)


def test_empirical_stationary_mean_converges():
    g = sim.TimeGrid(0.0, 1.0, 50)
    alphas = sample_alphas(MIX, 100, 8)
    gaps = {}
    reps = 40
    eta = sim.simulate_stationary_paths(MK19, g, 77, 1e-2, n_paths=reps)
    for n in (10, 100):
        eta_n = sim.simulate_stationary_mean_paths(alphas[:n], 1.9, g, 77,
                                                   1e-2, n_paths=reps)
        gaps[n] = float(np.mean(np.mean((eta_n.values - eta.values) ** 2,
                                        axis=1)))
    assert gaps[100] < gaps[10]


def test_stationary_mean_paths_are_means_of_component_paths(monkeypatch):
    g = sim.TimeGrid(0.0, 0.5, 25)
    alphas = sample_alphas(MIX, 7, 3)
    layouts, history_layout = [], sim._history_layout
    monkeypatch.setattr(sim, "_history_layout",
                        lambda *args: layouts.append(history_layout(*args))
                        or layouts[-1])
    batch = sim.simulate_stationary_mean_paths(alphas, 1.9, g, 11, 1e-2,
                                               n_paths=3, rep=2)
    assert batch.labels == [{"process": "xi_mean", "rep": r} for r in (2, 3, 4)]
    # the f_n row certifies a shorter history than the slowest component
    own = sim.simulate_stationary_paths(alphas, g, 11, 1e-2, rho=1.9, rep=2)
    assert batch.meta["t_trunc"] < own.meta["t_trunc"]
    # on the batch's history, its depth and its cells, the components
    # average to the batch
    monkeypatch.setattr(sim, "_certified_history",
                        lambda kernel, grid, tol: batch.meta["t_trunc"])
    monkeypatch.setattr(sim, "_history_layout", lambda *args: layouts[0])
    for r in range(3):
        ens = sim.simulate_stationary_paths(alphas, g, 11, 1e-2, rho=1.9,
                                            rep=2 + r)
        assert ens.meta["t_trunc"] == batch.meta["t_trunc"]
        assert np.max(np.abs(batch.values[r] - sim.empirical_mean_path(ens))) \
            < 1e-12 * np.max(np.abs(ens.values))


def test_truncation_error_raised():
    # the head integral's allowance alone exceeds tol = 1e-12, so the search
    # is refused before it builds anything: within 16 MB
    g = sim.TimeGrid(0.0, 1.0, 10)
    mk = MeanKernel(1.9, GammaMixing(0.6, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError):
            sim.simulate_stationary_paths(mk, g, 1, 1e-12, n_paths=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_csv_and_sidecar_roundtrip(tmp_path):
    g = sim.TimeGrid(0.0, 1.0, 8)
    ens = sim.simulate_component_paths([0.5, 2.0], 1.9, g, 3)
    out = tmp_path / "paths.csv"
    ens.to_csv(str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,path_0,path_1"
    parsed = np.array([[float(v) for v in row.split(",")]
                       for row in lines[1:]])
    assert np.array_equal(parsed[:, 1:], ens.values.T)
    # the streamed rows are byte-equal to the whole file built by one join
    joined = "\n".join(
        ["t,path_0,path_1"]
        + [",".join([repr(float(t))] + [repr(float(v)) for v in ens.values[:, j]])
           for j, t in enumerate(g.times())]) + "\n"
    assert out.read_bytes() == joined.encode()
    side = json.loads((tmp_path / "paths.json").read_text())
    assert side["grid"]["n_steps"] == 8
    assert side["labels"][1]["alpha"] == 2.0
    # bit-identical rerun
    ens2 = sim.simulate_component_paths([0.5, 2.0], 1.9, g, 3)
    out2 = tmp_path / "paths2.csv"
    ens2.to_csv(str(out2))
    assert out.read_text() == out2.read_text()
    # a data file ending in .json would be overwritten by its own sidecar
    with pytest.raises(DomainError):
        ens.to_csv(str(tmp_path / "clash.json"))
    assert not (tmp_path / "clash.json").exists()


def test_stationary_mean_gap_matches_kernel_gap_integral():
    # with one shared two-sided driver the mean-square gap between the
    # n-component stationary mean and the aggregate equals the squared
    # kernel-gap integral over the half line
    from fracou.kernels import empirical_kernel_values

    alphas = sample_alphas(MIX, 30, 44)
    dt = 0.02
    n_hist = int(sim._certified_history(MK19, sim.TimeGrid(0.0, 1.0, 50),
                                        5e-3) / dt)
    lags = np.arange(n_hist + 1) * dt
    fn = empirical_kernel_values(alphas, 1.9, lags)
    gk = mean_kernel_values(MK19, lags)
    n_mc = 3000
    samples = sim.stationary_marginal_samples(fn - gk, [0], n_hist, n_mc,
                                              45, dt)
    mc = float(samples[:, 0].var(ddof=1))
    det = float(np.trapezoid((fn - gk) ** 2, lags))
    assert abs(mc - det) < 3.0 * var_se(det, n_mc) + 1e-3


# the size rule picks the branch; a cut-over of 0 or infinity forces one
@pytest.mark.parametrize("cutover", [np.inf, 0], ids=["direct", "fft"])
def test_windowed_convolution_matches_np_convolve(monkeypatch, cutover):
    monkeypatch.setattr(sim, "_FFT_CUTOVER", cutover)
    rng = np.random.default_rng(4)
    for _ in range(12):
        n = int(rng.integers(1, 300))
        n_kern, n_dw = [(1, int(rng.integers(1, 5))), (3, 3),
                        (int(rng.integers(1, 5)), 1)][int(rng.integers(3))]
        kern = rng.standard_normal((n_kern, int(rng.integers(2, 2 * n + 3))))
        dw = rng.standard_normal((n_dw, n))
        start = int(rng.integers(0, n + 1))
        got = sim._convolve_rows(kern, dw, start=start)
        assert got.shape == (max(n_kern, n_dw), n + 1 - start)
        for r in range(got.shape[0]):
            full = np.concatenate([[0.0], np.convolve(
                kern[min(r, n_kern - 1), 1:], dw[min(r, n_dw - 1)])[:n]])
            scale = np.max(np.abs(full)) + 1.0
            assert np.max(np.abs(got[r] - full[start:])) < 1e-12 * scale


def test_unwindowed_fft_keeps_the_full_length_transform():
    # start=0 transforms at the full linear-convolution length, as paths
    # started at t = 0 always have
    rng = np.random.default_rng(5)
    kern, dw = rng.standard_normal((1, 401)), rng.standard_normal((3, 400))
    size = sp_fft.next_fast_len(400 + 400 - 1, real=True)
    ref = sp_fft.irfft(sp_fft.rfft(kern[:, 1:], size, axis=1)
                       * sp_fft.rfft(dw, size, axis=1), size, axis=1)
    got = sim._convolve_rows(kern, dw)  # 400 x 400 cells: the FFT branch
    assert np.all(got[:, 0] == 0.0)
    assert got[:, 1:].tobytes() == ref[:, :400].tobytes()


def test_fft_lengths_are_those_of_scipy():
    # the 5-smooth lengths scipy.fft.next_fast_len(real=True) picks, so the
    # transforms keep their sizes and their bits
    for n in [*range(1, 2**16 + 1), 10**6, 10**6 + 1, 1234567, 2**20 + 1,
              3**13 + 2, 5**9 + 1]:
        assert sim._fast_len(n) == sp_fft.next_fast_len(n, real=True), n


def test_engine_bits_do_not_depend_on_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rng = np.random.default_rng(6)
    kern, dw = rng.standard_normal((1, 5001)), rng.standard_normal((7, 5000))
    runs = []
    for n in ("1", "2"):
        monkeypatch.setenv("FRACOU_THREADS", n)
        runs.append((_rng.normal_rows(3, ("w",), 10, 2**18).tobytes(),
                     sim._convolve_rows(kern, dw, start=1200).tobytes(),
                     sim._convolve_rows(kern, dw).tobytes()))
    assert runs[0] == runs[1]


def test_marginal_samples_read_the_simulated_paths():
    g = sim.TimeGrid(0.0, 1.0, 100)
    idx = [0, 1, 37, 100]
    ens = sim.simulate_stationary_paths(MK19, g, 12, 1e-2, n_paths=6, rep=3)
    n_hist = int(round(ens.meta["t_trunc"] / g.dt))
    kern = mean_kernel_values(MK19, np.arange(n_hist + 101) * g.dt)
    eta = sim.stationary_marginal_samples(kern, idx, n_hist, 6, 12, g.dt,
                                          rep0=3)
    assert np.max(np.abs(eta - ens.values[:, idx])) < 1e-12
    lim = sim.simulate_limit_paths(MK19, g, 12, n_paths=6, rep0=3)
    y = sim.marginal_samples(mean_kernel_values(MK19, g.times()), idx, 6, 12,
                             g.dt, rep0=3)
    assert np.max(np.abs(y - lim.values[:, idx])) < 1e-12


def test_lag_weights_are_the_per_time_cell_means():
    # one reduceat over the gathered windows adds each cell's lags in the
    # order a reduceat per time does, so the weights agree bit for bit
    kern = mean_kernel_values(MK19, np.arange(601) * 0.01)
    layout = sim._history_layout(kern, 0, 100, 500, 0.01)
    j = np.array([100, 0, 37, 37, 99])
    back, _ = sim._lag_weights(kern, j, layout, 100)
    for col, t in enumerate(j):
        want = np.add.reduceat(kern[t + 1 : t + 501], layout.starts)
        assert back[:, col].tobytes() == (want / layout.widths).tobytes()


def test_many_index_marginals_stay_inside_the_cell_bound(monkeypatch):
    kern = mean_kernel_values(MK19, np.arange(301) * 0.01)
    idx = np.arange(0, 101, 3)  # 34 times
    whole = sim.stationary_marginal_samples(kern, idx, 200, 25, 8, 0.01)
    n_cells = sim._history_layout(kern, 0, 99, 200, 0.01).levels.size
    blocks, driver = [], []
    lag_weights, driver_blocks = sim._lag_weights, sim._driver_blocks

    def counted(kern, j, layout, n_steps):
        w = lag_weights(kern, j, layout, n_steps)
        blocks.append(w[0].size + w[1].size)
        return w

    def counted_driver(*args):
        for r0, r1, back, fwd in driver_blocks(*args):
            assert back.shape == (r1 - r0, n_cells)
            driver.append(back.size + fwd.size)
            yield r0, r1, back, fwd

    monkeypatch.setattr(sim, "_DRIVER_CELLS", 1000)
    monkeypatch.setattr(sim, "_lag_weights", counted)
    monkeypatch.setattr(sim, "_driver_blocks", counted_driver)
    chunked = sim.stationary_marginal_samples(kern, idx, 200, 25, 8, 0.01)
    # n_cells + 99 driver cells per replication, 1000 at most per block
    per_block = 1000 // (n_cells + 99)
    assert len(driver) == -(-25 // per_block) and max(driver) <= 1000
    assert len(blocks) == len(driver) * -(-34 // per_block)
    assert max(blocks) <= 1000
    assert np.max(np.abs(chunked - whole)) < 1e-13 * np.max(np.abs(whole))


def _shared_draw_requests():
    """Requests of _marginal_draws: three shifts whose layouts overlap, as
    the cauchy check draws them; a flat row whose one coarse cell no other
    request has beside a rough row of fine cells only; and a request with
    forward cells beside history-only ones."""
    dv = 2e-3
    kern = mean_kernel_values(MK19, np.arange(2001) * dv)
    shifts = [(kern[: n + 1], [0], n, dv) for n in (500, 1000, 2000)]
    flat = (np.ones(65), [0], 64, 0.01)
    rough = (np.r_[0.0, np.tile([1.0, -1.0], 8)], [0], 8, 0.01)
    g = sim.TimeGrid(0.0, 1.0, 100)
    fwd = (mean_kernel_values(MK19, np.arange(401) * g.dt),
           [0, 17, 50, 100], 300, g.dt)
    return {"overlapping": shifts, "disjoint": [flat, rough],
            "forward": [fwd] + shifts[:2]}


@pytest.mark.parametrize("case,cap", [
    ("overlapping", None), ("disjoint", None), ("forward", None),
    ("overlapping", 3000), ("disjoint", 100), ("forward", 3000)])
def test_a_shared_draw_gives_each_request_its_lone_bits(case, cap,
                                                        monkeypatch):
    requests = _shared_draw_requests()[case]
    layouts = [sim._history_layout(np.asarray(k), min(t), max(t), n, dt)
               for k, t, n, dt in requests]
    cells = [set(zip(l.starts.tolist(), l.levels.tolist())) for l in layouts]
    if case == "overlapping":
        assert cells[0] & cells[1] and cells[1] & cells[2]
    if case == "disjoint":
        assert not cells[0] & cells[1]
    if cap is not None:
        # the union's rows split into blocks shorter than every lone
        # call's, so that the lone calls' blocks straddle them
        monkeypatch.setattr(sim, "_DRIVER_CELLS", cap)
        union = set().union(*cells)
        steps = [sim._row_step(len(c), max(t))
                 for c, (_, t, _, _) in zip(cells, requests)]
        most = max(max(t) for _, t, _, _ in requests)
        assert sim._row_step(len(union), most) < min(min(steps), 37)
    for n_paths, rep0 in ((37, 5), (1, 3)):
        shared = sim._marginal_draws(requests, n_paths, 19, rep0)
        for (kern, t, n_hist, dt), got in zip(requests, shared):
            lone = sim.stationary_marginal_samples(kern, t, n_hist, n_paths,
                                                   19, dt, rep0)
            assert got.tobytes() == lone.tobytes()
            assert got.meta == lone.meta


def test_marginal_kernel_rows_past_the_cap_are_refused_before_a_draw(
        monkeypatch):
    monkeypatch.setattr(sim, "_DRIVER_CELLS", 300)
    n = sim._DRIVER_CELLS - 1
    y = sim.y_minus_s_at_zero(MK19, 1.0, 5, 2, n)
    kern = mean_kernel_values(MK19, np.arange(n + 1) * (1.0 / n))
    want = sim.stationary_marginal_samples(kern, [0], n, 5, 2, 1.0 / n)
    assert y.tobytes() == want[:, 0].tobytes()

    def nothing(*args):
        raise AssertionError("no kernel row or draw past the cap")

    monkeypatch.setattr(sim, "mean_kernel_values", nothing)
    monkeypatch.setattr(sim, "_driver_blocks", nothing)
    with pytest.raises(DomainError, match="301 lags"):
        sim.y_minus_s_at_zero(MK19, 1.0, 5, 2, n + 1)
    # history, output times and lag 0 count; the row may be longer
    with pytest.raises(DomainError, match="301 lags"):
        sim.stationary_marginal_samples(np.ones(400), [0, 50], 250, 5, 2, 0.1)


def test_certified_history_is_the_shortest_certified_64th():
    g = sim.TimeGrid(0.0, 2.0, 200)
    m = kn.bound_m(1.9)
    mk1 = MeanKernel(1.0, MIX)

    def envelope_depth(tail, tol):
        # the envelope-only search of the certifier this one replaced
        T, lo, hi = max(8.0 * g.dt, 8.0), 64, 64
        while not tail(T) < tol:
            T, lo = 2.0 * T, 32
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if tail(mid * T / 64) < tol else (mid, hi)
        return hi * T / 64

    def pair_tail(T):
        return m * m * T ** (1.0 - 3.8) / 2.8

    # kernel, tol, envelope tail, largest depth expected
    cases = [(MK19, 5e-3, lambda T: kn.tail_variance_bound(MK19, T), 4.0),
             (MK19, 1e-4, lambda T: kn.tail_variance_bound(MK19, T), 6.0),
             (mk1, 2e-3, lambda T: kn.tail_variance_bound(mk1, T), 1.0),
             ((1.9, np.array([1.0, 3.0])), 2.5e-3, pair_tail, 120.0)]
    for kernel, tol, envelope, most in cases:
        depth = sim._certified_history(kernel, g, tol)
        bracket = 0.5 * 2.0 ** math.ceil(math.log2(depth / 0.5))
        assert depth / (bracket / 64) == int(depth / (bracket / 64))
        tail = kn._tail_bound(kernel, tol)
        assert tail(depth) < tol <= tail(depth - bracket / 64)
        assert depth <= min(most, envelope_depth(envelope, tol))


def test_stationary_mean_paths_certify_their_rates_once(monkeypatch):
    # the depth search and meta's tail_bound read one Gram sum and one set
    # of head integrals
    alphas = sample_alphas(MIX, 40, 31)
    g = sim.TimeGrid(0.0, 1.0, 100)
    kn._rate_terms.cache_clear()
    norms, pieces = [], []
    l2_norm, head_piece = kn._l2_norm, kn._head_piece
    monkeypatch.setattr(kn, "_l2_norm", lambda k: norms.append(k) or l2_norm(k))
    monkeypatch.setattr(kn, "_head_piece",
                        lambda k, a, b: pieces.append((a, b)) or head_piece(k, a, b))
    ens = sim.simulate_stationary_mean_paths(alphas, 1.9, g, 5, 1e-2, n_paths=2)
    assert len(norms) == 1
    assert pieces and len(pieces) == len(set(pieces))
    kn._rate_terms.cache_clear()
    tail = kn._tail_bound((1.9, alphas), 1e-2)
    assert ens.meta["tail_bound"] == tail(ens.meta["t_trunc"]) < 1e-2
    assert len(norms) == 2
    kn._rate_terms.cache_clear()  # holds the counting _head_piece


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_coarse_tree_cells_are_sums_of_their_fine_cells(depth):
    # 300 coarse cells reach past four spans of tree nodes at every level
    n = 300
    fine_levels = np.zeros(n << depth, dtype=int)
    for row in (0, 7):
        fine = _rng.tree_cells(21, ("wtilde",), 1, fine_levels,
                               np.arange(n << depth), row_offset=row)
        coarse = _rng.tree_cells(21, ("wtilde",), 1, np.full(n, depth),
                                 np.arange(n), row_offset=row)
        sums = fine.reshape(n, 1 << depth).sum(axis=1)
        assert np.max(np.abs(coarse[0] - sums)) < 1e-13
        # a row is its counter's, whatever other rows a call draws
        many = _rng.tree_cells(21, ("wtilde",), 9, np.full(n, depth),
                               np.arange(n))
        assert np.array_equal(many[row], coarse[0])
    # cells of mixed levels are the cells of one-level calls
    mixed = _rng.tree_cells(21, ("wtilde",), 3, [0, depth, 3], [5, 40, 2])
    for c, (level, node) in enumerate(((0, 5), (depth, 40), (3, 2))):
        alone = _rng.tree_cells(21, ("wtilde",), 3, [level], [node])
        assert np.array_equal(mixed[:, c], alone[:, 0])
    with pytest.raises(DomainError):
        _rng.tree_cells(21, ("wtilde",), 1, [_rng.TREE_TOP + 1], [0])


def _exact_shortfall(kern, layout, t, dt):
    # dt sum over cells of sum (K - mean K)^2 at output time t, summed
    # exactly, the mean taken by fsum
    total = []
    for a, w in zip(layout.starts.tolist(), layout.widths.tolist()):
        lags = kern[t + a + 1 : t + a + 1 + w].tolist()
        mean = math.fsum(lags) / w
        total.append(math.fsum((k - mean) ** 2 for k in lags))
    return dt * math.fsum(total)


def test_disc_var_bound_is_the_exact_shortfall():
    dv, n = 2e-3, 10000
    kern = mean_kernel_values(MK19, np.arange(n + 1) * dv)
    y = sim.y_minus_s_at_zero(MK19, 20.0, 30, 4, n)
    layout = sim._history_layout(kern, 0, 0, n, dv)
    # aligned dyadic cells that tile the history, far fewer than fine cells
    assert np.array_equal(np.cumsum(layout.widths)[:-1], layout.starts[1:])
    assert layout.starts[0] == 0 and layout.widths.sum() == n
    assert np.all(layout.starts % layout.widths == 0)
    assert layout.levels.size < n / 20
    exact = _exact_shortfall(kern, layout, 0, dv)
    bound = y.meta["disc_var_bound"]
    assert bound == layout.disc_var_bound
    assert exact <= bound <= exact * (1 + 1e-12) + 1e-12 * n * dv
    assert bound <= sim._SHORTFALL * dv
    # a layout for a window of output times bounds the shortfall at each
    g = sim.TimeGrid(0.0, 1.0, 100)
    kern = mean_kernel_values(MK19, np.arange(400 + 101) * g.dt)
    window = sim._history_layout(kern, 0, 100, 400, g.dt)
    worst = max(_exact_shortfall(kern, window, t, g.dt) for t in range(101))
    assert worst <= window.disc_var_bound <= sim._SHORTFALL * g.dt
    ens = sim.simulate_stationary_paths(MK19, g, 3, 1e-2, n_paths=2)
    n_hist = int(round(ens.meta["t_trunc"] / g.dt))
    kern = mean_kernel_values(MK19, np.arange(n_hist + 101) * g.dt)
    layout = sim._history_layout(kern, 0, 100, n_hist, g.dt)
    assert ens.meta["disc_var_bound"] == layout.disc_var_bound
    assert max(_exact_shortfall(kern, layout, t, g.dt) for t in range(101)) \
        <= layout.disc_var_bound


def test_coarse_history_variances_hold_to_the_l2_norms():
    # acceptance 05's stationary processes: the variance of the coarse
    # history falls short of the fine scheme's by at most disc_var_bound,
    # the fine scheme of the infinite history by the tail and half a cell
    g = sim.TimeGrid(0.0, 2.0, 2000)
    n_mc, dt = 4000, g.dt
    xi = (1.9, np.array([1.0]))
    n_xi = int(math.ceil(sim._certified_history(xi, g, 2.5e-3) / dt))
    n_eta = int(math.ceil(sim._certified_history(MK19, g, 5e-3) / dt))
    cases = [
        ("xi_k", resolvent_values(ResolventKernel(1.0, 1.9),
                                  np.arange(n_xi + 1) * dt), 0, n_xi,
         resolvent_l2_norm(ResolventKernel(1.0, 1.9)),
         kn._tail_bound(xi, 2.5e-3)(n_xi * dt)),
        ("eta", mean_kernel_values(MK19, np.arange(n_eta + 2001) * dt), 2000,
         n_eta, stationary_variance(MK19, 1e-5) + 5e-6,
         kn._tail_bound(MK19, 5e-3)(n_eta * dt)),
    ]
    for name, kern, t, n_hist, target, tail in cases:
        samp = sim.stationary_marginal_samples(kern, [t], n_hist, n_mc, 61,
                                               dt)
        bound = samp.meta["disc_var_bound"]
        layout = sim._history_layout(kern, t, t, n_hist, dt)
        means = np.add.reduceat(kern[t + 1 : t + 1 + n_hist],
                                layout.starts) / layout.widths
        coarse = dt * (float(np.sum(layout.widths * means**2))
                       + float(np.sum(kern[1 : t + 1] ** 2)))
        fine = dt * float(np.sum(kern[1 : t + n_hist + 1] ** 2))
        assert 0.0 <= fine - coarse <= bound * (1 + 1e-9)
        assert abs(fine - target) <= tail + 0.5 * dt
        mc = float(samp[:, 0].var(ddof=1))
        assert abs(mc - coarse) <= 3.0 * var_se(coarse, n_mc), name
        assert abs(mc - target) <= 3.0 * var_se(target, n_mc) + bound + tail \
            + 0.5 * dt, name


def test_coarse_histories_do_not_depend_on_threads(monkeypatch):
    # 400 and 64 replications: tree rows of 25 and 4 blocks of 16
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    g = sim.TimeGrid(0.0, 1.0, 100)
    layout = sim._history_layout(
        mean_kernel_values(MK19, np.arange(801) * g.dt), 0, 100, 700, g.dt)
    runs = []
    for n in ("1", "2"):
        monkeypatch.setenv("FRACOU_THREADS", n)
        runs.append((
            sim.y_minus_s_at_zero(MK19, 20.0, 400, 9, 10000).tobytes(),
            sim.simulate_stationary_paths(MK19, g, 9, 1e-3,
                                          n_paths=64).values.tobytes(),
            sim._two_sided_increments(9, 64, layout, 100, g.dt).tobytes()))
    assert runs[0] == runs[1]


def test_csv_rows_are_the_per_value_reprs(monkeypatch, tmp_path):
    from fracou import cli
    from fracou.special_functions import ml_one_values

    vals = np.array([-0.0, 5e-324, 1e-5, 1e16, 1e17, 0.1 + 0.2, 1.0])
    # a strided block, as a path ensemble's columns are, over three blocks:
    # _BLOCK counts values, so 12 of them make 3-row blocks of 4 columns
    columns = np.vstack([vals, -vals[::-1], vals * 3.0])[:, ::-1]
    monkeypatch.setattr(sim, "_BLOCK", 12)
    out = io.StringIO()
    sim.write_csv_rows(out, vals, columns)
    want = "".join(",".join([repr(float(t))] + [repr(float(v))
                                                for v in columns[:, j]]) + "\n"
                   for j, t in enumerate(vals))
    assert out.getvalue() == want
    # the eval table goes through the same writer
    path = tmp_path / "ml.csv"
    assert cli.main(["eval", "ml", "--rho", "1.9", "--xmax", "3",
                     "--points", "8", "--out", str(path)]) == 0
    xs = np.linspace(0.0, 3.0, 8)
    ys = ml_one_values(1.9, xs)
    assert path.read_text() == "x,value\n" + "".join(
        f"{float(x)!r},{float(y)!r}\n" for x, y in zip(xs, ys))


def _repr_rows(first, columns):
    """The per-value repr join the CSV writer replaced: its reference."""
    block = np.column_stack((first, columns.T))
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def _csv_property_values():
    rng = np.random.default_rng(20240)
    n = 1 << 19
    # 2^20 random bit patterns: uniform ones (nearly all outside the numpy
    # path) and ones whose exponents span 1e-7 .. 3.6e16, around it
    patterns = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    near = (rng.integers(0, 2, n, dtype=np.int64) << 63
            | rng.integers(1000, 1080, n, dtype=np.int64) << 52
            | rng.integers(0, 1 << 52, n, dtype=np.int64)).view(np.float64)
    # every decade from 1e-8 to 1e18, unrounded and with few digits (short
    # texts, whole numbers)
    decades = np.concatenate([
        rng.uniform(1.0, 10.0, 1000) * 10.0**k for k in range(-8, 19)])
    decades = np.concatenate([decades, np.round(decades, 3),
                              np.round(decades / 1e-3) * 1e-3])
    powers = np.concatenate([10.0 ** np.arange(-8, 19), 2.0 ** np.arange(-40, 60),
                             [1e-6, 1e-4, 1e16]])
    neighbours = np.concatenate(
        [powers] + [np.nextafter(powers, d) for d in (0.0, np.inf)])
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             np.nan, np.inf, 9999999999999998.0, 0.1, 0.1 + 0.2, 1.0 / 3.0]
    # exact ties: 32,769 of the odd m/2^17 tie at 16 digits; m/2^20 and
    # m/2^37 tie at 17
    m = np.arange(1, 1 << 17, 2, dtype=np.float64)
    ties = np.concatenate([m / 2.0**17, m / 2.0**20, (m + 2.0**52) / 2.0**37])
    signed = np.concatenate([decades, neighbours, edges, ties])
    return np.concatenate([patterns[np.isfinite(patterns)], near,
                           signed, -signed])


def test_csv_text_is_the_per_value_repr():
    x = _csv_property_values()
    x = x[: x.size - x.size % 5]
    # a time column and four strided path columns, written in blocks
    first, columns = x[0::5], x.reshape(-1, 5)[:, 1:].T
    out = io.StringIO()
    sim.write_csv_rows(out, first, columns)
    got, want = out.getvalue(), _repr_rows(first, columns)
    if got != want:
        bad = next(i for i, (a, b) in enumerate(zip(got.splitlines(),
                                                    want.splitlines()))
                   if a != b)
        pytest.fail(f"row {bad}: {got.splitlines()[bad]!r} "
                    f"!= {want.splitlines()[bad]!r}")
    # one column, one value per block, and a table narrower than a block
    for rows, cols in ((7, 0), (1, 1), (3, 3)):
        block = x[: rows * (cols + 1)].reshape(rows, cols + 1)
        out = io.StringIO()
        sim.write_csv_rows(out, block[:, 0], block[:, 1:].T)
        assert out.getvalue() == _repr_rows(block[:, 0], block[:, 1:].T)


def _repr_shape(v):
    """The decimal exponent and significant digits of repr(v)."""
    d = decimal.Decimal(repr(v))
    return d.adjusted(), len(d.normalize().as_tuple().digits)


def test_every_text_layout_is_repr():
    # a value of each shape the numpy path lays out: decimal exponent -6..15,
    # 1..17 significant digits (the digits of pi, or a neighbour with that
    # many), either sign
    pi = "31415926535897932"
    values = [1e-05, -1.5e-06, 0.0001, 1234567890123456.0, 9999999999999998.0]
    for e in range(-6, 16):
        for n in range(1, 18):
            v = float(f"{pi[:n]}e{e - n + 1}")
            for _ in range(4):
                if _repr_shape(v) == (e, n):
                    break
                v = float(np.nextafter(v, np.inf))
            assert _repr_shape(v) == (e, n), v
            values += [v, -v]
    x = np.array(values)
    out = io.StringIO()
    sim.write_csv_rows(out, x, x[None, ::-1])
    assert out.getvalue() == _repr_rows(x, x[None, ::-1])


def test_csv_block_holds_at_most_300_bytes_a_value():
    # one 2^14-value block of path values, after a warm-up call has built
    # the tables; the record buffer is counted
    rng = np.random.default_rng(5)
    block = np.cumsum(rng.standard_normal((128, 128)), axis=0) * 0.01
    sim._csv_text(block, bytearray(block.size * sim._RECORD))
    tracemalloc.start()
    try:
        sim._csv_text(block, bytearray(block.size * sim._RECORD))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300 * block.size


def test_wide_ensemble_is_written_in_bounded_blocks(tmp_path):
    # 1000 paths x 2001 rows: 38 MB of text from 16 MB of values, while one
    # block of _BLOCK values holds a few MB
    g = sim.TimeGrid(0.0, 2.0, 2000)
    ens = sim.simulate_limit_paths(MeanKernel(1.0, MIX), g, 7, 1000)
    path = tmp_path / "wide.csv"
    tracemalloc.start()
    try:
        ens.to_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 30 * 2**20
    assert peak < 12 * 2**20
    with open(path) as fh:
        fh.readline()
        head = [next(fh) for _ in range(3)]
    assert "".join(head) == _repr_rows(g.times()[:3], ens.values[:, :3])
