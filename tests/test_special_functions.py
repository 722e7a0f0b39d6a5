import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sc

from fracou import kernels as kn
from fracou import special_functions as sf
from fracou.errors import AccuracyError, DomainError
from fracou.kernels import MeanKernel, mean_kernel, mean_kernel_values
from fracou.mixing import GammaMixing
from fracou.special_functions import (
    FractionalOrder,
    _asym_many,
    _g_quadrature_many,
    _g_series_many,
    _regime_thresholds,
    _series_many,
    g_rho_quadrature,
    g_rho_series,
    ml_one,
    ml_one_values,
    ml_two,
    ml_two_values,
    pochhammer,
)

# frozen reference values from the high-precision summation oracle
E_15_AT_10 = -0.1097130542527401466939
E_19_AT_1 = 0.5064595543685906536309
E_19_AT_50 = 0.02202214511423457828704
E2_1515_AT_1 = 0.7065280370641757942561


def test_fractional_order_domain():
    assert float(FractionalOrder(1.5)) == 1.5
    for bad in (0.0, -1.0, 2.5, float("nan")):
        with pytest.raises(DomainError):
            FractionalOrder(bad)


def test_pochhammer_values():
    assert pochhammer(4.0, 3) == 120.0
    assert pochhammer(7.3, 0) == 1.0
    assert pochhammer(0.5, 2) == 0.75
    with pytest.raises(DomainError):
        pochhammer(0.0, 2)
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


@given(st.floats(min_value=0.05, max_value=50.0),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=100, deadline=None)
def test_pochhammer_recurrence(mu, k):
    assert pochhammer(mu, k + 1) == pytest.approx(
        pochhammer(mu, k) * (mu + k), rel=1e-12)


def test_ml_one_closed_forms():
    xs = np.linspace(0.0, 50.0, 257)
    assert np.max(np.abs(ml_one_values(1.0, xs) - np.exp(-xs))) < 1e-12
    assert np.max(np.abs(ml_one_values(2.0, xs) - np.cos(np.sqrt(xs)))) < 1e-12
    r = ml_one(1.0, 1.0)
    assert r.method == "closed_form"
    assert r.value == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert ml_one(2.0, math.pi**2 / 4).value == pytest.approx(0.0, abs=1e-12)


def test_ml_one_frozen_oracle_values():
    r = ml_one(1.5, 10.0)
    assert abs(r.value - E_15_AT_10) <= max(r.est_abs_error, 1e-12)
    r = ml_one(1.9, 1.0)
    assert abs(r.value - E_19_AT_1) <= max(r.est_abs_error, 1e-13)
    r = ml_one(1.9, 50.0)
    assert abs(r.value - E_19_AT_50) <= max(r.est_abs_error, 1e-11)


def test_ml_one_est_is_honest(ml_oracle):
    # spot points across series, bridge and asymptotic regimes
    for rho in (1.1, 1.5, 1.9):
        lo, hi = _regime_thresholds(rho, 1.0)
        for x in (0.5, 0.5 * lo, 0.99 * lo, math.sqrt(lo * hi), 1.5 * hi):
            r = ml_one(rho, x)
            assert abs(r.value - ml_oracle(rho, x)) <= max(r.est_abs_error, 1e-14)
            assert r.est_abs_error <= 1e-8
        assert ml_one(rho, math.sqrt(lo * hi)).method == "interpolant"


def test_ml_one_series_regime_certifies_target():
    for rho in (1.1, 1.5, 1.9):
        lo, _ = _regime_thresholds(rho, 1.0)
        xs = np.linspace(0.0, lo, 50)
        _, ests, _, _ = _series_many(rho, 1.0, xs)
        assert ests.max() <= 1e-10


def test_ml_two_values(ml_oracle):
    assert ml_two(1.0, 2.0).value == pytest.approx(math.exp(-2.0), abs=1e-14)
    assert ml_two(2.0, math.pi**2).value == pytest.approx(0.0, abs=1e-12)
    assert ml_two(1.7, 0.0).value == pytest.approx(1.0 / math.gamma(1.7), abs=5e-16)
    r = ml_two(1.5, 1.0)
    assert abs(r.value - E2_1515_AT_1) <= max(r.est_abs_error, 1e-13)
    for x in (3.0, 40.0, 300.0):
        r = ml_two(1.9, x)
        assert abs(r.value - ml_oracle(1.9, x, beta=1.9)) <= max(r.est_abs_error, 1e-13)


def _power_tail_of_e(rho: float, x: float, m: int) -> float:
    """The m-term reciprocal-gamma power tail of E_rho(-x), summed by the
    Horner core of the large-x path with cut = m."""
    coeff = sf._asym_coeffs(rho, 1.0, m)[0]
    return float(sf._power_tail(coeff, np.array([x]), np.array([m]))[0][0])


def test_power_tail_alone():
    # all reciprocal-gamma coefficients vanish at rho = 1
    assert _power_tail_of_e(1.0, 7.0, 5) == 0.0
    # one-term value is elementary arithmetic
    expected = sc.rgamma(1.0 - 1.9) / 50.0
    assert _power_tail_of_e(1.9, 50.0, 1) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(-1.892e-3, rel=1e-3)
    # for 1 < rho < 2 the power tail alone misses the damped oscillation,
    # which still dominates at x = 50; the full evaluation does not
    assert abs(_power_tail_of_e(1.9, 50.0, 4) - E_19_AT_50) > 1e-2
    assert abs(ml_one(1.9, 50.0).value - E_19_AT_50) < 1e-10


def test_power_tail_positive_for_completely_monotone_order():
    assert _power_tail_of_e(0.5, 100.0, 2) > 0.0


def test_complete_monotonicity_rho_half():
    xs = np.linspace(0.0, 100.0, 2001)
    vals = ml_one_values(0.5, xs)
    assert (vals > 0.0).all()
    assert (np.diff(vals) < 0.0).all()
    # independent closed form: scaled complementary error function
    spot = np.geomspace(0.1, 90.0, 25)
    assert np.max(np.abs(ml_one_values(0.5, spot) - sc.erfcx(spot))) < 1e-10


def test_damped_oscillation_sign_changes():
    xs = np.linspace(0.0, 50.0, 1001)
    vals = ml_one_values(1.9, xs)
    changes = int(np.sum(np.diff(np.sign(vals[vals != 0.0])) != 0))
    assert changes >= 2


def test_global_envelope_stable_under_grid_refinement():
    for rho in (1.1, 1.5, 1.9):
        sups = []
        for n in (2000, 4000):
            xs = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, n)])
            sups.append(np.max(np.abs(ml_one_values(rho, xs)) * (1 + xs)))
        assert np.isfinite(sups).all()
        assert abs(sups[1] - sups[0]) < 0.02 * sups[0]


def test_series_asymptotic_overlap_band():
    for rho in (1.1, 1.5, 1.9):
        lo, hi = _regime_thresholds(rho, 1.0)
        band = np.linspace(0.8 * lo, 1.2 * lo, 21)
        sv, se, _, _ = _series_many(rho, 1.0, band)
        av, ae, _ = _asym_many(rho, 1.0, band)
        assert np.all(np.abs(sv - av) <= se + ae)
        # and the asymptotic is certified on its own side of the bridge
        sv, se, _, _ = _series_many(rho, 1.0, np.array([hi]))
        av, ae, _ = _asym_many(rho, 1.0, np.array([hi]))
        assert abs(sv[0] - av[0]) <= se[0] + ae[0]


def test_domain_errors():
    with pytest.raises(DomainError):
        ml_one(1.5, -1.0)
    with pytest.raises(DomainError):
        ml_one(2.5, 1.0)
    with pytest.raises(DomainError):
        ml_two(1.5, float("nan"))


def test_g_rho_series_basics():
    assert g_rho_series(1.9, 4.0, 0.0).value == 1.0
    with pytest.raises(DomainError):
        g_rho_series(1.0, 4.0, -1.0)
    with pytest.raises(DomainError):
        g_rho_series(1.9, 4.0, 1.0)
    with pytest.raises(AccuracyError):
        g_rho_series(1.9, 4.0, -500.0)  # cancellation guard


def test_nan_estimates_are_refused(monkeypatch):
    # NaN > ACCURACY_FLOOR is False: both batch guards must refuse it
    t = np.array([30.0 ** (1.0 / 1.9)])  # scale 30, served by the panels
    with pytest.raises(AccuracyError, match="mu=200"):
        sf._g_quadrature_many(1.9, 200.0, 1.0, t)  # Gamma(mu) overflows

    def nan_series(rho, beta, x):
        nan = np.full(x.shape, np.nan)
        return nan, nan, np.ones(x.shape, dtype=int), np.zeros(x.shape, bool)

    monkeypatch.setattr(sf, "_series_many", nan_series)
    with pytest.raises(AccuracyError):
        sf._evaluate_many(1.9, 1.0, np.array([0.5]))


def test_g_rho_series_raises_where_terms_overflow():
    # the largest terms at |z| = 3000 overflow double precision; the value
    # comes out NaN, which must trip the guard rather than be returned
    with np.errstate(all="ignore"), pytest.raises(AccuracyError):
        g_rho_series(1.9, 4.0, -3000.0)
    # at x = 1e6 the scaled coefficients c_k 2^(20 k) themselves overflow
    with np.errstate(all="ignore"):
        values, ests, _, guard = _series_many(1.9, 1.0, np.array([1e6]))
    assert guard[0]
    assert not (np.isfinite(values[0]) and ests[0] <= sf.ACCURACY_FLOOR)


def _band_probe_points(top: float) -> np.ndarray:
    """Both sides of every band edge 2^b up to top, and geometric interior
    points from 1e-3 to top."""
    edges = 2.0 ** np.arange(0, math.floor(math.log2(top)) + 1)
    return np.concatenate([edges, np.nextafter(edges, 0.0),
                           np.geomspace(1e-3, top, 24)])


# probe points up to which the direct G series certifies 1e-9 at (rho, mu)
_G_SERIES_TOPS = {(2.0, 4.0): 20.38, (1.9, 0.4): 32.41, (1.9, 4.0): 14.96,
                  (1.5, 4.0): 4.349, (1.2, 4.0): 1.721, (1.05, 20.0): 0.25}


def test_series_estimates_hold_at_band_edges(ml_oracle, gml_oracle):
    for rho in (1.1, 1.2, 1.5, 1.9):
        for beta in (1.0, rho):
            xs = _band_probe_points(_regime_thresholds(rho, beta)[0])
            values, ests, _, _ = _series_many(rho, beta, xs)
            ref = np.array([ml_oracle(rho, float(x), beta) for x in xs])
            assert np.all(np.abs(values - ref) <= ests), (rho, beta)
            assert ests.max() <= 1e-10, (rho, beta)
    # up to where the direct G series certifies 1e-9 (at (1.05, 20) it first
    # fails below 0.5); it serves g_rho_series and the scales up to 2^-13
    for (rho, mu), top in _G_SERIES_TOPS.items():
        zs = _band_probe_points(top)
        values, ests, _, guard = _g_series_many(rho, mu, -zs)
        ref = np.array([gml_oracle(rho, mu, float(z)) for z in zs])
        assert np.all(np.abs(values - ref) <= ests), (rho, mu)
        assert ests.max() <= 1e-9 and not guard.any(), (rho, mu)


def test_g_rho_series_vs_quadrature():
    gs = g_rho_series(1.9, 4.0, -3.0)
    t = 3.0 ** (1.0 / 1.9)
    gq = g_rho_quadrature(1.9, 4.0, 1.0, t)
    assert abs(gs.value - gq.value) <= max(1e-8,
                                           gs.est_abs_error + gq.est_abs_error)


def test_g_rho_dips_negative_and_decays():
    # the dip below zero happens well inside the certified series range
    zs = -np.linspace(0.0, 12.0, 121)
    vals = np.array([g_rho_series(1.9, 4.0, float(z)).value for z in zs])
    assert vals.min() < 0.0
    # decay to zero continues through the quadrature path
    far = g_rho_quadrature(1.9, 4.0, 1.0, 30.0 ** (1.0 / 1.9))
    farther = g_rho_quadrature(1.9, 4.0, 1.0, 300.0 ** (1.0 / 1.9))
    assert abs(far.value) < 0.05 * abs(vals.min())
    assert abs(farther.value) < 0.2 * abs(far.value)


def test_g_rho_quadrature_rho_one_closed_form():
    mu, lam = 4.0, 2.0
    for t in (0.0, 0.3, 2.0, 17.0, 240.0):
        r = g_rho_quadrature(1.0, mu, lam, t)
        assert r.value == pytest.approx((lam / (t + lam)) ** mu,
                                        abs=max(r.est_abs_error, 1e-12))
        assert (r.method, r.terms_used) == ("closed_form", 0)


def _clear_panels():
    for memo in (sf._mixing_panel, sf._e_row):
        memo.cache_clear()  # the panels, and the E rows their rules slice


def test_mixing_values_do_not_depend_on_call_history():
    _clear_panels()
    rho, mu = 1.9, 4.0
    mk = MeanKernel(rho, GammaMixing(mu, 1.0))
    lags = np.linspace(0.0, 30.0, 301)
    before = mean_kernel_values(mk, lags)
    assert 2000.0**rho >= 1e6
    mean_kernel_values(mk, np.linspace(0.0, 2000.0, 2001))
    assert mean_kernel_values(mk, lags).tobytes() == before.tobytes()
    # one point at a time or inside a batch: the same bits
    batch = _g_quadrature_many(rho, mu, 1.0, lags)[0]
    one = [g_rho_quadrature(rho, mu, 1.0, t).value for t in lags]
    assert np.array(one).tobytes() == batch.tobytes()
    assert np.array([mean_kernel(mk, t) for t in lags]).tobytes() == before.tobytes()


def test_evaluator_and_direct_calls_share_one_cache_key():
    # scale 40^1.9 lies in panel 1
    method = _g_quadrature_many(1.9, 4.0, 1.0, [40.0])[2][0]
    assert sf._METHODS[method] == "interpolant"
    args = (1.9, 4.0, 1, 1.0)
    misses = sf._mixing_panel.cache_info().misses
    sf._mixing_panel(*args)
    assert sf._mixing_panel.cache_info().misses == misses
    # no defaulted beta, so no second key for the same table
    with pytest.raises(TypeError):
        sf._mixing_panel(*args[:-1])


def test_mixing_estimates_hold_against_oracles(gml_oracle):
    # from below the panel floor 2^-13, across every panel, to 1e6
    wide = np.geomspace(1e-5, 1e6, 34)
    cases = [(1.0, mu, wide, lambda w, mu=mu: (1.0 + w) ** -mu)
             for mu in (0.4, 1.0, 4.0)]
    cases += [(2.0, mu, wide, lambda w, mu=mu: float(mp.hyp1f1(mu, 0.5, -w / 4.0)))
              for mu in (0.4, 4.0)]
    # the series oracle would need about 1000 digits at rho = 1.5, mu = 0.4
    cases.append((1.9, 4.0, np.geomspace(1e-5, 127.0, 20),
                  lambda w: gml_oracle(1.9, 4.0, w)))
    for rho, mu, ws, oracle in cases:
        ts = ws ** (1.0 / rho)
        ref = np.array([oracle(w) for w in ts**rho])
        values, ests = _g_quadrature_many(rho, mu, 1.0, ts)[:2]
        assert np.all(np.abs(values - ref) <= ests), (rho, mu)
        assert ests.max() <= 1e-8, (rho, mu)
        for t, r in zip(ts, ref):
            one = g_rho_quadrature(rho, mu, 1.0, t)
            assert abs(one.value - r) <= one.est_abs_error, (rho, mu, t)
            # the path that served the point, with its term or node count
            w = t**rho
            if rho == 1.0:
                assert one.method == "closed_form", (mu, t)
            elif one.method == "series":
                assert w <= 2.0**-13, (rho, mu, t)
                assert one.terms_used > 1
            else:
                k = max(math.floor(math.log(w / 8.0, 16.0)), -4)
                assert one.method == "interpolant", (rho, mu, t)
                assert one.terms_used == sf._mixing_panel(rho, mu, k, 1.0).coef.size


def test_panels_past_scale_128_hold_against_the_integral_oracle(gml_integral_oracle):
    # panels 1 to 4 at 1 < rho < 2, where the series oracle needs too many terms
    for rho, mu in ((1.9, 4.0), (1.5, 4.0)):
        ws = np.array([200.0, 3000.0, 5e4, 8e5])
        values, ests = _g_quadrature_many(rho, mu, 1.0, ws ** (1.0 / rho))[:2]
        ref = np.array([gml_integral_oracle(rho, mu, w) for w in ws])
        assert np.all(np.abs(values - ref) <= ests), (rho, mu)
    # at mu = 0.4 the oracle's default 15 digits are themselves off by
    # 2.7e-12, more than the panel's 2.5e-12 estimate at 8e5; 22 digits
    # put the panel within 1.4e-14
    w = 8e5
    value, est = (float(a[0]) for a in _g_quadrature_many(1.9, 0.4, 1.0, [w ** (1.0 / 1.9)])[:2])
    assert abs(value - gml_integral_oracle(1.9, 0.4, w, digits=22)) <= est


def test_one_taylor_rule_serves_every_order_near_zero(gml_oracle):
    # scale 0 and scales up to 2^-13 take at most 8 Taylor terms at every
    # rho > 1, down to rho = 1.001
    ws = np.concatenate([[0.0], np.geomspace(1e-300, 0.999 * 2.0**-13, 8)])
    for rho in (1.001, 1.01, 1.2, 1.9, 2.0):
        for beta in (1.0, rho):
            for mu in (0.05, 4.0, 40.0, 170.0):
                ts = ws ** (1.0 / rho)
                values, ests, methods, terms = _g_quadrature_many(rho, mu, 1.0, ts, beta)
                assert np.all(methods == sf._METHODS.index("series")), (rho, beta, mu)
                assert terms.max() <= 8, (rho, beta, mu)
                ref = [gml_oracle(rho, mu, w, beta) if w else 1.0 / math.gamma(beta)
                       for w in ts**rho]
                assert np.all(np.abs(values - ref) <= ests), (rho, beta, mu)
    # the terms may grow from k = 1 where w max(mu, 1) > 1: refused for
    # rho > 1, while complete monotonicity still bounds rho <= 1
    mu, ws = 2e4, np.array([2.5e-5, 1e-4])
    for rho in (1.001, 1.9):
        values, ests, _ = sf._taylor_many(rho, mu, ws, 1.0)
        assert abs(values[0] - gml_oracle(rho, mu, ws[0])) <= ests[0] <= 1e-8
        assert ests[1] == np.inf
        with pytest.raises(AccuracyError):
            _g_quadrature_many(rho, mu, 1.0, ws[1:] ** (1.0 / rho))
    assert np.all(sf._taylor_many(0.8, mu, ws, 1.0)[1] <= 1e-8)


def test_wide_gamma_laws_certify_at_every_scale(gml_oracle):
    # the mixing cut mu + max(50, 10 sqrt(mu)) drops at most 1.3 Q(25, 75)
    # of the law's mass
    ws = np.array([1.01 * 2.0**-13, 0.05, 1.0, 20.0, 200.0])
    for mu in (50.0, 100.0, 171.0):
        for beta in (1.0, 1.9):
            ts = ws ** (1.0 / 1.9)
            values, ests = _g_quadrature_many(1.9, mu, 1.0, ts, beta)[:2]
            assert ests.max() <= 1e-9, (mu, beta)
            ref = [gml_oracle(1.9, mu, w, beta) for w in ts**1.9]
            assert np.all(np.abs(values - ref) <= ests), (mu, beta)


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _cheb_nodes(n: int) -> np.ndarray:
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def test_bulk_reference_matches_oracle(ml_oracle):
    # every 13th of the gap interpolant's fit nodes and check points
    for rho, beta in ((1.5, 1.0), (1.9, 1.9)):
        interp = sf._gap_interpolant(rho, beta)
        xs = np.concatenate([interp.points(_cheb_nodes(interp.coef.size)), interp.xc])[::13]
        want = [ml_oracle(rho, float(x), beta) for x in xs]
        assert np.array_equal(sf._hp_values(rho, beta, xs), want), (rho, beta)


def test_gap_build_computes_each_coefficient_once_per_sweep(monkeypatch):
    cached = [sf._gap_interpolant(1.9, beta) for beta in (1.0, 1.9)]
    calls = []
    for dps in range(30, 100, 5):  # every precision a gap row can take here
        ctx = sf._context(dps)
        monkeypatch.setattr(ctx, "rgamma", lambda a, f=ctx.rgamma: calls.append(a) or f(a))
    for memo in (sf._gap_interpolant, sf._rgamma_piece, sf._band_terms):
        memo.cache_clear()  # the row, and the tables that read it
    rebuilt = [sf._gap_interpolant(1.9, beta) for beta in (1.0, 1.9)]
    # one gamma call per term of one row, 1/Gamma(1.9 k + 1.9), which serves
    # both beta and both sweeps, not one per term and node (over 10^4)
    assert 0 < len(calls) < 500
    assert [a / mp.mpf(1.9) for a in calls] == list(range(1, len(calls) + 1))
    for new, old in zip(rebuilt, cached):
        assert _same_bits(new.coef, old.coef) and new.est == old.est


def test_tables_are_checked_where_t_n_peaks(monkeypatch):
    # one builder: a gap table sums its 33 fit nodes and 32 check points,
    # and gap and panel tables check at the interior extrema of T_n
    sizes = []
    hp = sf._hp_values
    monkeypatch.setattr(sf, "_hp_values", lambda *a: sizes.append(a[2].size) or hp(*a))
    sf._gap_interpolant.cache_clear()
    gap = sf._gap_interpolant(1.5, 1.5)
    assert sizes == [33, 32]
    for table in (gap, sf._mixing_panel(1.9, 4.0, 0, 1.0)):
        n = table.coef.size
        assert _same_bits(table.xc, table.points(np.cos(np.pi * np.arange(1, n) / n)))
        assert table.err == np.max(np.abs(table(table.xc) - table.ref[:, 0]))
    # a NaN check error stops the doubling, and the caller's estimate is NaN
    nan = sf._ChebLog(lambda x: np.full((x.size, 1), np.nan), 0.0, 1.0, 17, 1e-12)
    assert nan.coef.size == 17 and math.isnan(nan.err)


def test_series_of_one_order_share_one_coefficient_row(monkeypatch):
    # E's row at (1.9, 1.0), built out to band 7, serves G at a new mu
    sf._band_terms(1.9, 1.0, None, 7)
    calls = []
    rgamma = sf._mpc.rgamma
    monkeypatch.setattr(sf._mpc, "rgamma", lambda *a: calls.append(a) or rgamma(*a))
    assert len(sf._band_terms(1.9, 1.0, 7.25, 3)) > 1
    assert calls == []
    sf._band_terms(1.9, 1.25, 7.25, 3)  # a new beta builds its own row
    assert calls


def test_coefficients_are_pochhammer_times_reciprocal_gamma():
    mpc = sf._mpc
    want, poch = [], mpc.mpf(1)
    for k in range(70):
        want.append(poch * mpc.rgamma(mpc.mpf(1.9) * k + 1.9))
        poch *= mpc.mpf(4.5) + k
    assert sf._coeffs(1.9, 1.9, 4.5, 70) == want
    assert sf._coeffs(1.9, 1.9, None, 70) == [mpc.rgamma(mpc.mpf(1.9) * k + 1.9)
                                             for k in range(70)]


@pytest.mark.parametrize("rho", [0.5, 0.8, 1.05, 1.2, 1.5, 1.9, 1.95, 1.99])
def test_gap_tables_certify_at_33_nodes(rho, ml_oracle):
    # Chebyshev coefficients in log x decay geometrically across every gap,
    # so the first fit already checks within tol and no table doubles
    rng = np.random.default_rng(34)
    for beta in (1.0, rho):
        interp = sf._gap_interpolant(rho, beta)
        assert interp.coef.size == 33 and interp.est <= 2e-13, (rho, beta)
        xs = interp.points(np.append(rng.uniform(-1.0, 1.0, 12), [-1.0, 1.0]))
        want = [ml_oracle(rho, float(x), beta) for x in xs]
        assert np.max(np.abs(interp(xs) - want)) <= interp.est, (rho, beta)


def test_reference_sums_match_oracle_inside_gaps(ml_oracle):
    # seeded points across each gap and x = 0, beyond the Chebyshev nodes
    rng = np.random.default_rng(13)
    for rho, beta in ((0.5, 0.5), (0.8, 1.0), (1.2, 1.2), (1.95, 1.0)):
        x_series, x_asym = _regime_thresholds(rho, beta)
        xs = np.concatenate([[0.0], rng.uniform(x_series, x_asym, 6)])
        got = sf._hp_values(rho, beta, xs)
        assert _same_bits(got, [ml_oracle(rho, float(x), beta) for x in xs]), (rho, beta)
        # a larger hump raises the batch's working precision, not the bits
        wider = sf._hp_values(rho, beta, np.append(xs, 4.0 * x_asym))
        assert _same_bits(wider[:-1], got), (rho, beta)
        alone = [sf._hp_values(rho, beta, xs[i:i + 1])[0] for i in range(xs.size)]
        assert _same_bits(alone, got), (rho, beta)


def test_horner_references_match_the_oracle_for_both_beta(ml_oracle):
    # beta = 1 reads the row of beta = rho; the gap's check points and its
    # top, where the hump and the amplification max(1, x)^K are largest
    for rho in (0.5, 0.8, 1.05, 1.95):
        for beta in (1.0, rho):
            interp = sf._gap_interpolant(rho, beta)
            xs = np.append(interp.xc[::9], interp.points(np.array([1.0])))
            want = [ml_oracle(rho, float(x), beta) for x in xs]
            assert _same_bits(sf._hp_values(rho, beta, xs), want), (rho, beta)


def test_scaled_terms_match_the_mpmath_route():
    # 53-bit rounding then math.ldexp, or mpmath past the normal range
    mpc = sf._mpc
    for c in (mpc.mpf(1) / 3, mpc.rgamma(mpc.mpf(1.9) * 300 + 1),
              mpc.mpf(2) ** -1030 / 3, mpc.mpf(2) ** 1000 / 3):
        for e in (-1100, -1074, -1050, -1022, -1021, -60, 0, 60, 1000, 1023,
                  1024, 1025, 2100):
            for v in (c, -c):
                assert _same_bits([sf._scaled(v, e)], [float(mpc.ldexp(v, e))]), (v, e)


def test_regime_thresholds_match_the_full_probe():
    # the series is probed band by band up to the first band that fails;
    # the 200-point probe of every band gives the same thresholds
    for rho in (0.5, 0.8, 1.05, 1.2, 1.5, 1.9, 1.95):
        for beta in (1.0, rho):
            xs = np.geomspace(0.5, 60.0, 200) ** rho
            _, est, _, guard = _series_many(rho, beta, xs)
            bad = np.flatnonzero(~((est <= sf.SERIES_TARGET) & ~guard))
            x_series = (float(xs[-1] * 1e6) if bad.size == 0
                        else float(xs[bad[0] - 1]) if bad[0] > 0 else 1.0)
            bad = np.flatnonzero(~(_asym_many(rho, beta, xs)[1] <= sf.SERIES_TARGET))
            start = bad[-1] + 1 if bad.size else 0
            x_asym = float(xs[start]) if start < xs.size else math.inf
            assert _regime_thresholds(rho, beta) == (x_series, x_asym), (rho, beta)


def test_empty_batches_give_empty_results():
    empty = np.array([])
    for out in (_series_many(1.5, 1.0, empty), _g_series_many(1.9, 4.0, empty)):
        assert len(out) == 4 and all(v.size == 0 for v in out)
    assert sf._hp_values(1.5, 1.0, empty).size == 0


def test_mixing_integrals_do_not_depend_on_their_batch():
    rho, mu = 1.9, 4.0
    panel = sf._mixing_panel(rho, mu, 2, 1.0)
    n = panel.coef.size
    ws = panel.points(np.concatenate([_cheb_nodes(n),
                                      np.cos(np.pi * np.arange(1, n) / n)]))
    assert ws.size == 33
    # 513 scales, the most a fit reads, span more than one weight block
    many = panel.points(_cheb_nodes(sf._PANEL_MAX_NODES))
    for refine in (1, 2):
        rule = sf._MixingRule(rho, mu, 2, refine, 1.0)
        assert many.size * rule.x.size > 1 << 20
        whole = rule(ws)
        alone = [rule([w])[0] for w in ws]
        assert _same_bits(whole, alone), refine
        rows = rule(many)
        assert all(_same_bits(rows[i], rule(many[i:i + 1])[0]) for i in (0, 300, 512))


def test_a_panel_build_evaluates_e_once_per_refinement(monkeypatch):
    # every fit, check and coarse row of a panel, and every panel and mu of
    # one (rho, beta), read one E row per refinement: the nodes each
    # _evaluate_many call gets, by mu and by the refinement of its chunk
    keys, nodes = [], {mu: {1: [], 2: []} for mu in (4.0, 0.4)}
    row, evaluate = sf._e_row, sf._evaluate_many
    _clear_panels()
    monkeypatch.setattr(sf, "_e_row", lambda *key: keys.append(key) or row(*key))
    try:
        for mu, by_refine in nodes.items():
            monkeypatch.setattr(sf, "_evaluate_many", lambda *a, got=by_refine:
                                got[keys[-1][2]].append(a[2]) or evaluate(*a))
            for k in range(-4, 5):
                sf._mixing_panel(1.9, mu, k, 1.0)
    finally:
        sf._mixing_panel.cache_clear()
        row.cache_clear()
    for refine in (1, 2):
        x = np.concatenate(nodes[4.0][refine] + nodes[0.4][refine])
        assert x.size and np.unique(x).size == x.size, refine
    # so the mu = 0.4 builds evaluate only nodes the mu = 4 builds did not
    # cover: here none, since their rules end below those of mu = 4
    assert not nodes[0.4][1] + nodes[0.4][2]


def test_panel_estimate_carries_the_error_of_e(monkeypatch):
    evaluate = sf._evaluate_many

    def loose(rho, beta, x):
        values, ests, methods, terms = evaluate(rho, beta, x)
        return values, np.maximum(ests, 1e-9), methods, terms

    monkeypatch.setattr(sf, "_evaluate_many", loose)
    _clear_panels()
    try:
        assert sf._mixing_panel(1.9, 4.0, 2, 1.0).est >= 5e-10
    finally:
        _clear_panels()


def test_a_panel_does_not_depend_on_which_rows_exist():
    # the rows other panels, mu and beta built first overlap this panel's
    _clear_panels()
    alone = sf._mixing_panel(1.9, 0.4, 2, 1.0)
    _clear_panels()
    for args in ((1.9, 4.0, 4, 1.0), (1.9, 171.0, -4, 1.0), (1.9, 0.4, -1, 1.9)):
        sf._mixing_panel(*args)
    after = sf._mixing_panel(1.9, 0.4, 2, 1.0)
    assert _same_bits(after.coef, alone.coef) and after.est == alone.est


def test_panels_stop_at_the_double_range():
    # t^1.9 = 1e305 lies in panel 252, whose rule ends below the largest
    # double; the rule of panel 254 would end past it and is refused before
    # any E row is built
    values, ests = _g_quadrature_many(1.9, 4.0, 1.0, [1e305 ** (1.0 / 1.9)])[:2]
    assert np.isfinite(values[0]) and ests[0] <= sf.ACCURACY_FLOOR
    rows = sf._e_row.cache_info().currsize
    with pytest.raises(DomainError, match="mixing panel 254 "):
        _g_quadrature_many(1.9, 4.0, 1.0, [1e307 ** (1.0 / 1.9)])
    assert sf._e_row.cache_info().currsize == rows


def test_panel_integrator():
    # the endpoint grading resolves the square-root singularity at 0
    assert abs(sf._integrate(np.sqrt, 0.0, 1.0, 1e-12) - 2.0 / 3.0) <= 1e-14
    # a jump off every panel edge: only the panels around it are halved
    value = sf._integrate(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0, 1e-14)
    assert abs(value - 1.0 / 3.0) <= 1e-14
    # a pole inside never meets the rule: an error, not a value
    with pytest.raises(AccuracyError) as err, np.errstate(divide="ignore"):
        sf._integrate(lambda x: 1.0 / np.abs(x - 1.0 / 3.0), 0.0, 1.0, 1e-14)
    assert err.value.est_abs_error > 1e-14


def test_panel_integrator_resolves_an_interior_kink():
    # the kink at 1/3 never falls on a panel edge
    value = sf._integrate(lambda x: np.maximum(x - 1.0 / 3.0, 0.0) ** 2, 0.0, 1.0, 1e-14)
    assert abs(value - 8.0 / 81.0) <= 1e-15


@pytest.mark.parametrize("f", [lambda x: 1.0 / np.abs(x - 1.0 / 3.0),
                               lambda x: np.abs(x - 1.0 / 3.0) ** -0.5,
                               lambda x: 1.0 / x,
                               lambda x: np.where(x < 0.7, 1.0, np.nan)],
                         ids=["pole", "root-pole", "end-pole", "nan"])
def test_panel_integrator_refusals_are_bounded(f):
    # refused within the pass bound, with no non-finite value returned: a
    # pole refined down to adjacent doubles may put a node on it
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    with pytest.raises(AccuracyError), np.errstate(divide="ignore"):
        sf._integrate(counted, 0.0, 1.0, 1e-10)
    assert 2 <= len(calls) <= sf._MAX_PASSES


def test_asym_many_does_not_depend_on_its_block():
    for rho, beta in ((1.9, 1.0), (1.5, 1.5)):
        x_asym = _regime_thresholds(rho, beta)[1]
        x = np.random.default_rng(5).uniform(x_asym, 1e5, 5000)
        whole = _asym_many(rho, beta, x)
        # the Horner loop runs each truncation order over its own suffix
        assert np.unique(whole[2]).size >= 3
        for i in (0, 123, 2047, 2048, 4999):
            one = _asym_many(rho, beta, x[i:i + 1])
            assert all(_same_bits(f[i], g[0]) for f, g in zip(whole, one)), (rho, i)


ASYM_PAIRS = [(rho, beta) for rho in (0.6, 1.2, 1.5, 1.9) for beta in (1.0, rho)]


def _asym_truncation(rho, beta, x, cut):
    """The truncation term of _asym_many's estimate."""
    env = sf._asym_coeffs(rho, beta, 50)[1]
    return 4.0 * env[cut] * np.exp(-(cut + 1) * np.log(x))


def _breakpoint_points(rho, beta):
    """Points just below and just above up to 8 truncation breakpoints
    env_(k+1)/env_k at or above x_asym / 4, then a sweep up to 1e6."""
    x_asym = _regime_thresholds(rho, beta)[1]
    env = sf._asym_coeffs(rho, beta, 50)[1]
    brk = env[1:] / env[:-1]
    brk = brk[brk >= x_asym / 4.0]
    brk = brk[np.linspace(0, brk.size - 1, min(brk.size, 8)).astype(int)]
    return np.concatenate([brk * (1.0 - 1e-10), brk * (1.0 + 1e-10),
                           np.geomspace(x_asym, 1e6, 8)]), brk.size


@pytest.mark.parametrize("rho, beta", ASYM_PAIRS)
def test_asym_many_within_its_estimate_of_the_oracle(rho, beta, ml_oracle):
    x_asym = _regime_thresholds(rho, beta)[1]
    x = np.random.default_rng(17).uniform(x_asym, 4.0 * x_asym, 8)
    vals, ests, _ = _asym_many(rho, beta, x)
    for xi, v, e in zip(x, vals, ests):
        assert abs(v - ml_oracle(rho, float(xi), beta)) <= e, (rho, beta, xi)


@pytest.mark.parametrize("rho, beta", ASYM_PAIRS)
def test_asym_rounding_term_covers_the_kept_terms(rho, beta):
    # the truncation term aside, the estimate must cover the difference to
    # an exact sum of the same kept terms plus the branch pair, and keep
    # twice Higham's Horner bound (with fl(1/x)) on top of the coefficients'
    # own rounding
    x, _ = _breakpoint_points(rho, beta)
    vals, ests, cut = _asym_many(rho, beta, x)
    rounding = ests - _asym_truncation(rho, beta, x, cut)
    tail_rounding = rounding - sf._osc_many(rho, beta, x)[1]
    coeff = sf._asym_coeffs(rho, beta, 50)[0]
    u = 0.5 * np.finfo(float).eps
    with mp.workdps(50):
        r, b = mp.mpf(rho), mp.mpf(beta)
        exact = [(-1) ** (k + 1) * mp.rgamma(b - k * r) for k in range(1, 51)]
        for xi, v, rnd, tail_rnd, n in zip(x, vals, rounding, tail_rounding, cut):
            y = 1 / mp.mpf(xi)
            ref = mp.fsum(c * y ** k for k, c in enumerate(exact[:n], 1))
            if 1.0 < rho < 2.0:
                w = mp.mpf(xi) ** (1 / r) * mp.expjpi(1 / r)
                ref += 2 / r * mp.re(w ** (1 - b) * mp.exp(w))
            assert abs(v - ref) <= rnd, (rho, beta, xi)
            size = mp.fsum(abs(c) * y ** k for k, c in enumerate(exact[:n], 1))
            coef = mp.fsum(abs(mp.mpf(coeff[k - 1]) - c) * y ** k
                           for k, c in enumerate(exact[:n], 1))
            gamma = 3 * int(n) * u / (1 - 3 * int(n) * u)
            assert 2 * gamma * size + coef <= tail_rnd, (rho, beta, xi)


def _scipy_log_coeffs(rho, beta, nu, k):
    """_log_coeffs from scipy's gammaln, the reference its term counts
    must keep."""
    out = -sc.gammaln(rho * k + beta)
    return out if nu is None else sc.gammaln(nu + k) - sc.gammaln(nu) + out


def _scipy_asym_coeffs(rho, beta, m):
    """_asym_coeffs from scipy's rgamma and gammaln."""
    k = np.arange(1, m + 1)
    return (np.where(k % 2 == 1, 1.0, -1.0) * sc.rgamma(beta - k * rho),
            np.exp(sc.gammaln(k * rho - beta + 1.0)) / math.pi)


def _term_count_or_none(rho, beta, nu, band):
    try:
        return sf._term_count(rho, beta, nu, band)
    except AccuracyError:  # the series does not decay within _MAX_TERMS
        return None


TERM_COUNT_GRID = [(rho, beta, nu, band)
                   for rho in (0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 1.7, 1.9, 1.99)
                   for beta in sorted({1.0, rho}) for nu in (None, 0.4, 1.0, 4.0)
                   for band in range(13)]


def _term_counts(monkeypatch, log_coeffs):
    """_term_count over TERM_COUNT_GRID, each order's log_coeffs evaluated
    once per (rho, beta, nu): it is elementwise, so a prefix of the longest
    row has the bits of _term_count's own call on k = 0 .. n-1."""
    rows = {}

    def sliced(rho, beta, nu, k):
        row = rows.get((rho, beta, nu), np.empty(0))
        if row.size < k.size:
            row = rows[rho, beta, nu] = np.concatenate(
                [row, log_coeffs(rho, beta, nu, np.arange(row.size, k.size))])
        return row[:k.size]

    monkeypatch.setattr(sf, "_log_coeffs", sliced)
    return [_term_count_or_none(*key) for key in TERM_COUNT_GRID]


def test_term_counts_are_those_of_scipy_gammaln(monkeypatch):
    k = np.arange(100)
    assert np.array_equal(sf._log_coeffs(1.9, 1.0, 4.0, k[:64]),
                          sf._log_coeffs(1.9, 1.0, 4.0, k)[:64])
    assert len(sf._band_terms(1.9, 1.0, 4.0, 5)) == sf._term_count(1.9, 1.0, 4.0, 5)
    counts = _term_counts(monkeypatch, sf._log_coeffs)
    assert _term_counts(monkeypatch, _scipy_log_coeffs) == counts
    assert None in counts and len(set(counts)) > 100


@pytest.mark.parametrize("rho, beta", ASYM_PAIRS + [(1.0, 1.0), (1.99, 1.99)])
def test_asym_coefficients_are_30_digit_values_rounded_once(rho, beta):
    coeff, env = sf._asym_coeffs(rho, beta, 50)
    with mp.workdps(30):
        want = [(-1) ** (k + 1) * float(mp.rgamma(beta - k * rho))
                for k in range(1, 51)]
    assert coeff.tolist() == want
    # the poles of Gamma at the double beta - k rho give exact zeros, as
    # scipy's rgamma does, and scipy agrees to its own rounding elsewhere
    ref_coeff, ref_env = _scipy_asym_coeffs(rho, beta, 50)
    assert np.array_equal(coeff == 0.0, ref_coeff == 0.0)
    assert np.allclose(coeff, ref_coeff, rtol=1e-15, atol=0.0)
    assert np.allclose(env, ref_env, rtol=1e-12, atol=0.0)
    if rho == 1.0:
        assert not coeff.any()


@pytest.mark.parametrize("rho", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("same_beta", [False, True])
def test_regime_thresholds_are_those_of_scipy_coefficients(monkeypatch, rho,
                                                           same_beta):
    beta = rho if same_beta else 1.0
    want = _regime_thresholds(rho, beta)
    monkeypatch.setattr(sf, "_asym_coeffs", _scipy_asym_coeffs)
    assert _regime_thresholds.__wrapped__(rho, beta) == want


@pytest.mark.parametrize("rho, beta", ASYM_PAIRS)
def test_asym_cut_is_the_argmin_of_the_envelope_terms(rho, beta):
    x, n = _breakpoint_points(rho, beta)
    env = sf._asym_coeffs(rho, beta, 50)[1]
    k = np.arange(1, 51)
    argmin = np.argmin(env[None, :] * np.exp(-k[None, :] * np.log(x)[:, None]), axis=1)
    cut = _asym_many(rho, beta, x)[2]
    assert np.array_equal(cut, argmin)
    # the truncation order steps up by one at each breakpoint
    assert np.array_equal(cut[n:2 * n] - cut[:n], np.ones(n))


@pytest.mark.parametrize("rho, beta", ASYM_PAIRS)
def test_osc_branch_pair_within_its_rounding_bound(rho, beta):
    theta = math.pi / rho
    top = 700.0 / max(abs(math.cos(theta)), 1e-3)
    X = np.geomspace(1.0, top, 40)
    x = X**rho
    vals, rounding = sf._osc_many(rho, beta, x)
    if not 1.0 < rho < 2.0:
        assert not vals.any() and not rounding.any()
        return
    w = x ** (1.0 / rho) * complex(math.cos(theta), math.sin(theta))
    complex_form = (2.0 / rho) * (w ** (1.0 - beta) * np.exp(w)).real
    assert np.all(np.abs(vals - complex_form) <= rounding)
    with mp.workdps(50):
        r, b = mp.mpf(rho), mp.mpf(beta)
        for xi, v, rnd in zip(x, vals, rounding):
            w = mp.mpf(xi) ** (1 / r) * mp.expjpi(1 / r)
            assert abs(v - 2 / r * mp.re(w ** (1 - b) * mp.exp(w))) <= rnd, (rho, beta, xi)


def test_series_loops_agree_bit_for_bit(monkeypatch):
    # about 100 points per band and a lone point run the same numpy loop; a
    # 64-point _BLOCK changes nothing here, since the evaluators, not
    # _alt_series, cut a batch into blocks
    x = 2.0 ** np.random.default_rng(4).uniform(-2.0, 6.5, 850)
    batches = [(_series_many, 1.9, 1.0, x), (_series_many, 1.5, 1.5, x[x < 23.0]),
               (_g_series_many, 1.9, 4.0, -x[x < 14.0])]
    for fn, r, p, pts in batches:
        whole = fn(r, p, pts)
        monkeypatch.setattr(sf, "_BLOCK", 64)
        assert all(_same_bits(f, g) for f, g in zip(whole, fn(r, p, pts))), fn
        monkeypatch.undo()
        for i in range(0, pts.size, 37):
            one = fn(r, p, pts[i:i + 1])
            assert all(_same_bits(f[i], g[0]) for f, g in zip(whole, one)), (fn, i)


@given(st.sampled_from((1.0, 1.2, 1.5, 1.9, 2.0)),
       st.lists(st.floats(min_value=-6.0, max_value=3.0), min_size=1, max_size=8))
@example(1.9, [3.0])  # mixing scale 10^3: the derivative pair reads a panel
@settings(max_examples=40, deadline=None)
def test_one_point_calls_return_their_batch_bits(rho, logs):
    # x = 0 and t = 0 lead every batch; 10^3 reaches past the gap
    # interpolant into the asymptotic regime for every rho
    xs = np.concatenate([[0.0], 10.0 ** np.array(logs)])
    # the series regime ends below x = 100 for every rho here; far past it
    # the series terms overflow
    near = xs[xs <= 100.0]
    batches = [(_series_many, rho, 1.0, near), (_series_many, rho, rho, near)]
    if rho > 1.0:
        zs = -xs[xs <= _G_SERIES_TOPS[rho, 4.0]]
        batches.append((_g_series_many, rho, 4.0, zs))
    for fn, r, p, pts in batches:
        whole = fn(r, p, pts)
        for i, x in enumerate(pts):
            one = fn(r, p, np.array([x]))
            assert all(_same_bits(f[i], g[0]) for f, g in zip(whole, one)), (fn, x)
    for scalar, values in ((ml_one, ml_one_values), (ml_two, ml_two_values)):
        batch = values(rho, xs)
        assert _same_bits([scalar(rho, x).value for x in xs], batch)

    ts = xs ** (1.0 / rho)
    mk = MeanKernel(rho, GammaMixing(4.0, 1.0))
    rk = kn.ResolventKernel(0.7, rho)
    alphas = np.array([0.3, 1.0, 2.5, 7.0])
    pairs = [
        (lambda t: kn.resolvent(rk, t), kn.resolvent_values(rk, ts), ts),
        (lambda t: kn.empirical_kernel(alphas, rho, t),
         kn.empirical_kernel_values(alphas, rho, ts), ts),
        (lambda t: mean_kernel(mk, t), mean_kernel_values(mk, ts), ts),
        (lambda t: kn.mean_kernel_deriv(mk, t),
         kn.mean_kernel_deriv_values(mk, ts[1:]), ts[1:]),
        (lambda t: g_rho_quadrature(rho, 4.0, 10.0, t).value,
         _g_quadrature_many(rho, 4.0, 10.0, ts)[0], ts),
    ]
    for scalar, batch, points in pairs:
        assert _same_bits([scalar(t) for t in points], batch)


def test_g_rho_quadrature_domain():
    with pytest.raises(DomainError):
        g_rho_quadrature(1.9, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        g_rho_quadrature(1.9, 4.0, 1.0, -2.0)


@given(st.floats(min_value=1.05, max_value=1.95),
       st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_envelope_property(rho, x):
    # |E_rho(-x)| (1+x) stays below the per-rho empirical envelope constant
    from fracou.kernels import bound_m

    val = ml_one_values(round(rho, 2), np.array([x]))[0]
    assert abs(val) * (1.0 + x) <= bound_m(round(rho, 2))
