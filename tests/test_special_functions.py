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
    ml_asymptotic,
    ml_one,
    ml_one_deriv,
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


def test_ml_one_deriv_identity():
    xs = np.linspace(0.1, 20.0, 41)
    for x in xs:
        assert ml_one_deriv(1.0, x) == pytest.approx(-math.exp(-x), rel=1e-10)
    for rho in (1.2, 1.5, 1.9):
        assert ml_one_deriv(rho, 0.0) == pytest.approx(
            -1.0 / math.gamma(rho + 1.0), rel=1e-14)
        h = 1e-5
        for x in xs[::4]:
            fd = (ml_one(rho, x + h).value - ml_one(rho, x - h).value) / (2 * h)
            assert abs(fd - ml_one_deriv(rho, x)) < 1e-6


def test_ml_asymptotic_power_tail_only():
    # all reciprocal-gamma coefficients vanish at rho = 1
    assert ml_asymptotic(1.0, 7.0, 5) == 0.0
    # one-term value is elementary arithmetic
    expected = sc.rgamma(1.0 - 1.9) / 50.0
    assert ml_asymptotic(1.9, 50.0, 1) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(-1.892e-3, rel=1e-3)
    # for 1 < rho < 2 the power tail alone misses the damped oscillation,
    # which still dominates at x = 50; the full evaluation does not
    assert abs(ml_asymptotic(1.9, 50.0, 4) - E_19_AT_50) > 1e-2
    assert abs(ml_one(1.9, 50.0).value - E_19_AT_50) < 1e-10
    with pytest.raises(DomainError):
        ml_asymptotic(2.0, 10.0, 3)
    with pytest.raises(DomainError):
        ml_asymptotic(1.5, -1.0, 3)


def test_ml_asymptotic_positive_for_completely_monotone_order():
    assert ml_asymptotic(0.5, 100.0, 2) > 0.0


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


def test_series_estimates_hold_at_band_edges(ml_oracle, gml_oracle):
    for rho in (1.1, 1.2, 1.5, 1.9):
        for beta in (1.0, rho):
            xs = _band_probe_points(_regime_thresholds(rho, beta)[0])
            values, ests, _, _ = _series_many(rho, beta, xs)
            ref = np.array([ml_oracle(rho, float(x), beta) for x in xs])
            assert np.all(np.abs(values - ref) <= ests), (rho, beta)
            assert ests.max() <= 1e-10, (rho, beta)
    # at (1.05, 20) the series first fails below 0.5
    for rho, mu in ((1.9, 0.4), (1.9, 4.0), (1.5, 4.0), (1.05, 20.0)):
        zs = _band_probe_points(sf._g_series_range(rho, mu))
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


def test_mixing_values_do_not_depend_on_call_history():
    sf._mixing_panel.cache_clear()
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
                assert w < 2.0**-13 or w <= sf._g_series_range(rho, mu), (rho, mu, t)
                assert one.terms_used > 1
            else:
                k = max(math.floor(math.log(w / 8.0, 16.0)), -4)
                assert one.method == "interpolant", (rho, mu, t)
                assert one.terms_used == sf._mixing_panel(rho, mu, k).coef.size


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _cheb_nodes(n: int) -> np.ndarray:
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def test_bulk_reference_matches_oracle(ml_oracle):
    # every 13th of the gap interpolant's fit and check nodes
    for rho, beta in ((1.5, 1.0), (1.9, 1.9)):
        interp = sf._gap_interpolant(rho, beta)
        n = interp.coef.size
        xs = interp.points(np.concatenate([_cheb_nodes(n), _cheb_nodes(2 * n)]))[::13]
        want = [ml_oracle(rho, float(x), beta) for x in xs]
        assert np.array_equal(sf._hp_values(rho, beta, xs), want), (rho, beta)


def test_gap_build_computes_each_coefficient_once_per_sweep(monkeypatch):
    cached = sf._gap_interpolant(1.9, 1.0)
    calls = []
    gamma = mp.gamma
    monkeypatch.setattr(mp, "gamma", lambda *a: calls.append(a) or gamma(*a))
    sf._gap_interpolant.cache_clear()
    rebuilt = sf._gap_interpolant(1.9, 1.0)
    # one gamma call per term and sweep, not per term and node (over 10^4)
    assert 0 < len(calls) < 500
    assert _same_bits(rebuilt.coef, cached.coef) and rebuilt.est == cached.est


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


def test_empty_batches_give_empty_results():
    empty = np.array([])
    for out in (_series_many(1.5, 1.0, empty), _g_series_many(1.9, 4.0, empty)):
        assert len(out) == 4 and all(v.size == 0 for v in out)
    assert sf._hp_values(1.5, 1.0, empty).size == 0


def test_mixing_integrals_do_not_depend_on_their_batch():
    rho, mu = 1.9, 4.0
    panel = sf._mixing_panel(rho, mu, 2)
    n = panel.coef.size
    ws = panel.points(np.concatenate([_cheb_nodes(n),
                                      np.cos(np.pi * np.arange(1, n) / n)]))
    assert ws.size == 33
    for refine in (1, 2):
        whole = sf._mixing_integrals(rho, mu, ws, refine)
        alone = [sf._mixing_integrals(rho, mu, [w], refine)[0] for w in ws]
        assert _same_bits(whole, alone), refine


def test_asym_many_does_not_depend_on_its_block():
    for rho, beta in ((1.9, 1.0), (1.5, 1.5)):
        x_asym = _regime_thresholds(rho, beta)[1]
        x = np.random.default_rng(5).uniform(x_asym, 1e5, 5000)
        assert x.size > 2 * sf._ASYM_BLOCK
        whole = _asym_many(rho, beta, x)
        for i in (0, 2047, 2048, 4999):
            one = _asym_many(rho, beta, x[i:i + 1])
            assert all(_same_bits(f[i], g[0]) for f, g in zip(whole, one)), (rho, i)


def test_series_loops_agree_bit_for_bit(monkeypatch):
    # about 100 points per band run the blocked numpy loop, a lone point the
    # Python-float one; 64-point blocks split every band
    x = 2.0 ** np.random.default_rng(4).uniform(-2.0, 6.5, 850)
    batches = [(_series_many, 1.9, 1.0, x), (_series_many, 1.5, 1.5, x[x < 23.0]),
               (_g_series_many, 1.9, 4.0, -x[x < 14.0])]
    for fn, r, p, pts in batches:
        whole = fn(r, p, pts)
        monkeypatch.setattr(sf, "_SERIES_BLOCK", 64)
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
        zs = -xs[xs <= sf._g_series_range(rho, 4.0)]
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
