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
    with pytest.raises(DomainError):
        sim.TimeGrid(0.0, 1.0, 0)


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
    big = sim._increment_matrix(3, "w", 1000, 1000, g.dt)
    v = big.ravel().var(ddof=1)
    assert abs(v - g.dt) < 4.0 * var_se(g.dt, big.size)
    # the summed path over [0, 1] has unit variance
    totals = big.sum(axis=1)
    assert abs(totals.var(ddof=1) - 1.0) < 4.0 * var_se(1.0, 1000)


def test_thread_env_does_not_change_bits(monkeypatch):
    # report 8 cores, so the clamp keeps the 4- and 8-worker pools
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    g = sim.TimeGrid(0.0, 1.0, 256)
    ref = sim._increment_matrix(5, "w", 128, 256, g.dt)
    for n in ("4", "8"):
        monkeypatch.setenv("FRACOU_THREADS", n)
        assert np.array_equal(sim._increment_matrix(5, "w", 128, 256, g.dt), ref)


def test_worker_count_clamped_to_cpu_count(monkeypatch):
    # only the count is computed: no pool is started
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for env, want in (("100000", 3), ("3", 3), ("2", 2), ("0", 1), ("-4", 1),
                      ("many", 1)):
        monkeypatch.setenv("FRACOU_THREADS", env)
        assert _rng.worker_count() == want
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setenv("FRACOU_THREADS", "8")
    assert _rng.worker_count() == 1


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
    assert alphas.size * lags.size <= kn._TABLE_CELLS
    grid = sim.TimeGrid(0.0, 2.0, 300)

    def tables():
        pathwise = dg.check_pathwise_conditions(1.9, 4.0, 1.0, [10, 40], grid, 2)
        return (kn.empirical_kernel_values(alphas, 1.9, lags),
                sim._resolvent_lag_rows(alphas, 1.9, lags),
                np.array([[r["sup_deriv_gap"], r["sup_deriv"]]
                          for r in pathwise.estimates[:2]]))

    whole = tables()
    monkeypatch.setattr(kn, "_TABLE_CELLS", 7 * alphas.size + 3)  # 7 lags a block
    for a, b in zip(whole, tables()):
        assert a.tobytes() == b.tobytes()


def test_fft_matches_direct():
    g = sim.TimeGrid(0.0, 2.0, 700)
    kern = sim._resolvent_lag_rows(np.array([0.5, 1.0, 4.0]), 1.9, g.times())
    dw = sim.brownian_increments(g, 5)[None, :]
    d = sim._convolve_rows(kern, dw, method="direct")
    f = sim._convolve_rows(kern, dw, method="fft")
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
    dw_matrix = sim._increment_matrix(6, "w", 5, n_steps, g.dt)
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


def test_import_leaves_scipy_signal_and_stats_unloaded(cli_env):
    code = ("import sys, fracou; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats', "
            "'scipy.integrate') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=cli_env("1"))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_exact_gaussian_sampler():
    g = sim.TimeGrid(0.0, 1.0, 12)
    ens = sim.simulate_exact_gaussian(lambda u: mean_kernel(MK19, u), g, 4000, 17)
    # marginal variances from the covariance build match the quadrature
    # formula before any sampling noise enters
    diag = np.array(ens.meta["marginal_variances"])
    for idx in (4, 8, 12):
        assert diag[idx] == pytest.approx(
            variance_integral(MK19, g.times()[idx]), abs=1e-8)
    # two-sample agreement with increment quadrature at t = T
    fine = sim.TimeGrid(0.0, 1.0, 1000)
    kern = mean_kernel_values(MK19, fine.times())
    inc = sim.marginal_samples(kern, [1000], 4000, 19, fine.dt)[:, 0]
    ks = stats.ks_2samp(ens.values[:, -1], inc)
    assert ks.pvalue > 0.01
    # zero kernel gives identically zero paths
    zero = sim.simulate_exact_gaussian(lambda u: 0.0, g, 5, 3)
    assert np.all(zero.values == 0.0)


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


def test_fresh_rates_keep_few_tail_tables():
    # tables keyed on drawn rates are dropped least recently used first; only
    # MeanKernel tables, keyed on model parameters, are all kept
    assert kn._mean_tail_table.cache_info().maxsize is None
    g = sim.TimeGrid(0.0, 0.5, 25)
    for k in range(3 * kn._TAIL_RATE_TABLES):
        sim.simulate_stationary_paths(np.array([1.0 + 0.01 * k]), g, 5, 1e-2,
                                      rho=1.9)
        assert kn._rate_tail_table.cache_info().currsize <= kn._TAIL_RATE_TABLES
    # the newest table is kept: asking for it again is a hit
    hits = kn._rate_tail_table.cache_info().hits
    kn._tail_bound((1.9, np.array([1.0 + 0.01 * k])), 1e-2)
    assert kn._rate_tail_table.cache_info().hits == hits + 1


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
    batch = sim.simulate_stationary_mean_paths(alphas, 1.9, g, 11, 1e-2,
                                               n_paths=3, rep=2)
    assert batch.labels == [{"process": "xi_mean", "rep": r} for r in (2, 3, 4)]
    # the f_n row certifies a shorter history than the slowest component
    own = sim.simulate_stationary_paths(alphas, g, 11, 1e-2, rho=1.9, rep=2)
    assert batch.meta["t_trunc"] < own.meta["t_trunc"]
    # on the batch's history the components average to the batch
    monkeypatch.setattr(sim, "_certified_history",
                        lambda kernel, grid, tol: batch.meta["t_trunc"])
    for r in range(3):
        ens = sim.simulate_stationary_paths(alphas, g, 11, 1e-2, rho=1.9,
                                            rep=2 + r)
        assert ens.meta["t_trunc"] == batch.meta["t_trunc"]
        assert np.max(np.abs(batch.values[r] - sim.empirical_mean_path(ens))) \
            < 1e-12 * np.max(np.abs(ens.values))


def test_truncation_error_raised():
    # the envelope reaches tol/10 nowhere below T = 1e7, so no cell table
    # is built: the search fails within 16 MB, the largest table's size
    g = sim.TimeGrid(0.0, 1.0, 10)
    mk = MeanKernel(1.9, GammaMixing(0.6, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError):
            sim.simulate_stationary_paths(mk, g, 1, 1e-12, n_paths=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < kn._TAIL_CELLS * 8 <= 16 * 2**20


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


@pytest.mark.parametrize("method", ["direct", "fft"])
def test_windowed_convolution_matches_np_convolve(method):
    rng = np.random.default_rng(4)
    for _ in range(12):
        n = int(rng.integers(1, 300))
        n_kern, n_dw = [(1, int(rng.integers(1, 5))), (3, 3),
                        (int(rng.integers(1, 5)), 1)][int(rng.integers(3))]
        kern = rng.standard_normal((n_kern, int(rng.integers(2, 2 * n + 3))))
        dw = rng.standard_normal((n_dw, n))
        start = int(rng.integers(0, n + 1))
        got = sim._convolve_rows(kern, dw, method=method, start=start)
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
    got = sim._convolve_rows(kern, dw, method="fft")
    assert np.all(got[:, 0] == 0.0)
    assert got[:, 1:].tobytes() == ref[:, :400].tobytes()


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


def test_many_index_marginals_stay_inside_the_cell_bound(monkeypatch):
    kern = mean_kernel_values(MK19, np.arange(301) * 0.01)
    idx = np.arange(0, 101, 3)  # 34 times
    whole = sim.stationary_marginal_samples(kern, idx, 200, 25, 8, 0.01)
    blocks = []
    lag_weights = sim._lag_weights

    def counted(kern, j, n_hist, n_steps):
        w = lag_weights(kern, j, n_hist, n_steps)
        blocks.append(w[0].size + w[1].size)
        return w

    rows = []
    normal_rows = _rng.normal_rows

    def counted_rows(seed, tags, n_rows, n_cols, row_offset=0):
        rows.append(n_rows * (200 + 99))
        return normal_rows(seed, tags, n_rows, n_cols, row_offset=row_offset)

    monkeypatch.setattr(sim, "_DRIVER_CELLS", 3000)
    monkeypatch.setattr(sim, "_lag_weights", counted)
    monkeypatch.setattr(_rng, "normal_rows", counted_rows)
    chunked = sim.stationary_marginal_samples(kern, idx, 200, 25, 8, 0.01)
    # 299 cells: 10 replications and 10 times per block
    assert len(rows) == 2 * 3 and max(rows) <= 3000
    assert len(blocks) == 3 * 4 and max(blocks) <= 3000
    assert np.max(np.abs(chunked - whole)) < 1e-13 * np.max(np.abs(whole))


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
