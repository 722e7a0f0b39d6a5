import dataclasses
import json

import numpy as np
import pytest

from fracou import diagnostics as dg
from fracou import simulate as sim
from fracou.errors import DomainError
from fracou.kernels import MeanKernel, mean_kernel_values
from fracou.mixing import GammaMixing, sample_alphas
from fracou.simulate import TimeGrid

GRID = TimeGrid(0.0, 2.0, 400)


def strip_runtime(report):
    d = dataclasses.asdict(report)
    d.pop("runtime_seconds")
    return d


def test_l2_sup_report_passes_and_reproduces():
    args = dict(rho=1.9, mu=4.0, lam=1.0, n_list=[10, 100], grid=GRID,
                n_mc=600, seed=3)
    rep1 = dg.check_l2_sup_convergence(**args)
    rep2 = dg.check_l2_sup_convergence(**args)
    assert rep1.verdict == "pass"
    assert strip_runtime(rep1) == strip_runtime(rep2)
    stats = [row["statistic"] for row in rep1.estimates]
    assert stats[1] < stats[0]
    for row in rep1.estimates:
        assert row["statistic"] <= row["bound"] + 3.0 * row["se"]
    # JSON round-trips
    parsed = json.loads(rep1.to_json())
    assert parsed["check_name"] == "l2_sup_convergence"
    assert rep1.to_text().startswith("check: l2_sup_convergence")


def test_common_random_numbers_shrink_the_gap():
    # the shared-driver estimate of E sup|Y_n - Y|^2 must sit strictly below
    # an independent-driver estimate of the same expression
    rho, mix = 1.9, GammaMixing(4.0, 1.0)
    alphas = sample_alphas(mix, 50, 1)
    lags = GRID.times()
    fn = sim._resolvent_lag_rows(alphas, rho, lags).mean(axis=0)
    gk = mean_kernel_values(MeanKernel(rho, mix), lags)
    n_mc = 400
    shared = np.empty(n_mc)
    indep = np.empty(n_mc)
    for r in range(n_mc):
        dw = sim._increment_matrix(1, 1, GRID.n_steps, GRID.dt, rep0=r)
        dw2 = sim._increment_matrix(1, 1, GRID.n_steps, GRID.dt,
                                    rep0=n_mc + r)
        yn = sim._convolve_rows(fn[None, :], dw)[0]
        y_same = sim._convolve_rows(gk[None, :], dw)[0]
        y_other = sim._convolve_rows(gk[None, :], dw2)[0]
        shared[r] = np.max(np.abs(yn - y_same)) ** 2
        indep[r] = np.max(np.abs(yn - y_other)) ** 2
    assert shared.mean() < indep.mean()


def test_tightness_report():
    rep = dg.check_tightness(1.9, 4.0, 1.0, GRID, [100, 2000], 500, 5)
    assert rep.verdict == "pass"
    ks = [row["K_n"] for row in rep.estimates if "K_n" in row]
    assert len(ks) == 2
    with pytest.raises(DomainError):
        dg.check_tightness(1.0, 4.0, 1.0, GRID, [10], 100, 5)


def test_tightness_pairs_never_tie():
    # both draws at the last index used to leave the pair (n, n): a zero gap,
    # a NaN ratio and an inconclusive verdict; one step has only that pair
    for steps in (10, 1):
        rep = dg.check_tightness(1.9, 4, 1, TimeGrid(0, 2, steps), [10, 100],
                                 200, 3)
        pairs = [row for row in rep.estimates if "ratio" in row]
        assert len(pairs) == 50
        assert all(row["s"] < row["t"] and np.isfinite(row["ratio"])
                   for row in pairs)
        if steps == 10:
            assert rep.verdict != "inconclusive"


def test_pathwise_report():
    rep = dg.check_pathwise_conditions(1.9, 4.0, 1.0, [100, 1000],
                                       TimeGrid(0.0, 2.0, 100), 2)
    assert rep.verdict == "pass"
    gaps = [row["sup_deriv_gap"] for row in rep.estimates
            if "sup_deriv_gap" in row]
    assert gaps[-1] < gaps[0]


def test_cauchy_report_slopes():
    rep = dg.check_cauchy_decay(1.9, 4.0, 1.0, np.geomspace(10, 1000, 6),
                                400, 7)
    assert rep.verdict == "pass"
    row = [r for r in rep.estimates if "slope" in r][0]
    assert abs(row["slope"] - (1 - 2 * 1.9)) < 0.1
    rep = dg.check_cauchy_decay(1.9, 0.4, 1.0, np.geomspace(10, 1000, 6),
                                400, 7)
    assert rep.verdict == "pass"
    row = [r for r in rep.estimates if "slope" in r][0]
    assert abs(row["slope"] - (1 - 2 * 1.9 * 0.4)) < 0.1
    with pytest.raises(DomainError):
        dg.check_cauchy_decay(1.9, 0.2, 1.0, [10.0, 100.0], 100, 7)


@pytest.mark.parametrize("t_list", [[0.0, 10.0], [-5.0, 10.0], [10.0],
                                    [10.0, 10.0], [], [10.0, np.inf],
                                    [np.nan, 10.0]])
def test_cauchy_needs_two_distinct_positive_shift_times(t_list):
    with pytest.raises(DomainError, match="shift times"):
        dg.check_cauchy_decay(1.9, 4.0, 1.0, t_list, 20, 7)


@pytest.mark.parametrize("n_list", [[10, -3], [0, 10], [2.5], []])
def test_rate_counts_are_integers_from_one(n_list):
    for check in (
            lambda: dg.check_l2_sup_convergence(1.9, 4.0, 1.0, n_list, GRID,
                                                20, 1),
            lambda: dg.check_tightness(1.9, 4.0, 1.0, GRID, n_list, 20, 1),
            lambda: dg.check_pathwise_conditions(1.9, 4.0, 1.0, n_list, GRID,
                                                 1)):
        with pytest.raises(DomainError):
            check()


def test_cauchy_draws_each_tree_span_once(monkeypatch):
    # the three shifts read one draw of the driver: no namespace is keyed
    # twice for the same rows, and the reports keep their bits
    from fracou import _rng

    keyed, normal_rows = [], _rng.normal_rows

    def counted(seed, tags, n_rows, n_cols, row_offset=0):
        keyed.append((seed, tags, row_offset))
        return normal_rows(seed, tags, n_rows, n_cols, row_offset)

    args = (1.9, 4.0, 1.0, [10.0, 100.0], 40, 5)
    want = dg.check_cauchy_decay(*args).to_json()
    monkeypatch.setattr(_rng, "normal_rows", counted)
    assert dg.check_cauchy_decay(*args).to_json() == want
    assert keyed and len(set(keyed)) == len(keyed)
    assert {tags[0] for _, tags, _ in keyed} == {"wtilde"}


def test_cauchy_mu_one_envelope():
    rep = dg.check_cauchy_decay(1.0, 1.0, 1.0, np.geomspace(10, 1000, 6),
                                400, 7)
    assert rep.verdict == "pass"
    row = [r for r in rep.estimates if "envelope_ratio_min" in r][0]
    assert 0.5 <= row["envelope_ratio_min"] <= row["envelope_ratio_max"] <= 2.0


def test_stationarity_report():
    rep = dg.check_stationarity(1.9, 4.0, 1.0, TimeGrid(0.0, 2.0, 100),
                                1500, 11, 2e-3)
    assert rep.verdict == "pass"
    # sigma^2 for the rho = 1 closed-form case
    rep1 = dg.check_stationarity(1.0, 4.0, 1.0, TimeGrid(0.0, 2.0, 100),
                                 1500, 11, 2e-3)
    assert rep1.verdict == "pass"
    assert rep1.bound == pytest.approx(1.0 / 7.0, abs=2e-3)
    with pytest.raises(DomainError):
        dg.check_stationarity(1.9, 4.0, 1.0, TimeGrid(0.0, 2.0, 100), 19, 11,
                              2e-3)


def test_moment_scores_match_scipy_tests():
    from scipy import stats

    rng = np.random.default_rng(12)
    for n in (20, 400, 5000):
        for spread in (0.0, 0.4):  # Gaussian, then heavy-tailed and skewed
            x = rng.standard_normal(n) * (1.0 + spread * rng.standard_normal(n)) ** 2
            assert dg._skew_z(float(stats.skew(x)), n) == pytest.approx(
                stats.skewtest(x).statistic, abs=1e-9)
            assert dg._kurt_z(float(stats.kurtosis(x, fisher=False)), n) \
                == pytest.approx(stats.kurtosistest(x).statistic, abs=1e-9)
    # the excess kurtosis 1.22 of 400 draws that 4 sqrt(24/n) = 0.98 failed
    assert 3.0 < dg._kurt_z(4.22, 400) < 4.0


def test_mixing_remark_report():
    rep = dg.check_mixing_condition_remark(3.0, 1.0, 1.9)
    assert rep.verdict == "pass"
    rows = {r["candidate"]: r for r in rep.estimates if "candidate" in r}
    # the quadratic-in-rho variant does not match the computed boundary here
    assert rows["mu > 2 rho"]["matches_finiteness"] is False
    assert rows["mu > 2/rho"]["matches_finiteness"] is True
    rep = dg.check_mixing_condition_remark(1.0, 1.0, 1.9)
    assert rep.verdict == "pass"
    tail = [r for r in rep.estimates if "finite_gamma" in r][0]
    assert tail["finite_gamma"] is False and tail["numeric_finite"] is False
