import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from fracou import kernels as kn
from fracou import simulate as sim
from fracou import special_functions as sf
from fracou.errors import DomainError, TruncationError
from fracou.kernels import (
    MeanKernel,
    ResolventKernel,
    bound_m,
    bound_m2,
    bound_m3,
    deriv_bound_constant,
    empirical_kernel,
    empirical_kernel_values,
    mean_kernel,
    mean_kernel_deriv,
    mean_kernel_deriv_values,
    mean_kernel_values,
    resolvent,
    resolvent_deriv,
    resolvent_l2_norm,
    resolvent_values,
    stationary_variance,
    tail_variance_bound,
    variance_integral,
    volterra_residual,
)
from fracou.mixing import GammaMixing, sample_alphas
from fracou.special_functions import _g_quadrature_many

E_19_AT_1 = 0.5064595543685906536309  # frozen oracle: E_1.9(-1)
EPS = np.finfo(float).eps

MK19 = MeanKernel(1.9, GammaMixing(4.0, 1.0))
MK1 = MeanKernel(1.0, GammaMixing(4.0, 1.0))


def test_resolvent_basics():
    assert resolvent(ResolventKernel(0.0, 1.7), 3.4) == 1.0
    k = ResolventKernel(2.0, 1.0)
    for t in (0.1, 1.0, 4.0):
        assert resolvent(k, t) == pytest.approx(math.exp(-2.0 * t), rel=1e-12)
    k = ResolventKernel(1.0, 1.9)
    assert resolvent(k, 1.0) == pytest.approx(E_19_AT_1, abs=1e-12)
    with pytest.raises(DomainError):
        ResolventKernel(-1.0, 1.5)
    with pytest.raises(DomainError):
        resolvent(ResolventKernel(1.0, 1.5), -0.5)


def test_volterra_residual():
    assert volterra_residual(ResolventKernel(0.0, 1.5), 1.0) == 0.0
    assert abs(volterra_residual(ResolventKernel(2.0, 1.0), 1.0)) < 1e-9
    assert abs(volterra_residual(ResolventKernel(3.0, 1.9), 2.0)) < 1e-6


def test_resolvent_deriv():
    k = ResolventKernel(1.5, 1.0)
    assert resolvent_deriv(k, 0.7) == pytest.approx(
        -1.5 * math.exp(-1.5 * 0.7), rel=1e-12)
    # vanishing slope at the origin for rho > 1
    assert abs(resolvent_deriv(ResolventKernel(1.0, 1.9), 1e-8)) < 1e-6
    k = ResolventKernel(2.0, 1.9)
    h = 1e-5
    fd = (resolvent(k, 1.0 + h) - resolvent(k, 1.0 - h)) / (2 * h)
    assert abs(resolvent_deriv(k, 1.0) - fd) < 1e-6


def test_empirical_kernel():
    assert empirical_kernel([0.5, 0.5, 0.5], 1.9, 1.3) == pytest.approx(
        resolvent(ResolventKernel(0.5, 1.9), 1.3), rel=1e-14)
    assert empirical_kernel([0.1, 2.0, 5.0], 1.9, 0.0) == 1.0
    with pytest.raises(DomainError):
        empirical_kernel([], 1.9, 1.0)


def test_empirical_kernel_lln_against_mean_kernel():
    alphas = sample_alphas(GammaMixing(4.0, 1.0), 10**4, 21)
    t = 1.0
    per = ml_spread = np.array([resolvent(ResolventKernel(float(a), 1.9), t)
                                for a in alphas[:500]])
    est = empirical_kernel(alphas, 1.9, t)
    # spread estimated from a 500-rate subsample, scaled to the full n
    se = float(np.std(ml_spread, ddof=1)) / math.sqrt(alphas.size)
    assert abs(est - mean_kernel(MK19, t)) < 4.0 * se


def test_mean_kernel_routes_and_closed_form():
    assert mean_kernel(MK19, 0.0) == 1.0
    mu, lam = 4.0, 2.0
    mk = MeanKernel(1.0, GammaMixing(mu, lam))
    for t in (0.2, 1.0, 7.0, 123.0):
        assert mean_kernel(mk, t) == pytest.approx((lam / (t + lam)) ** mu,
                                                   abs=1e-10)
    # vectorized values agree with scalar routing everywhere
    ts = np.geomspace(1e-3, 300.0, 60)
    vec = mean_kernel_values(MK19, ts)
    scal = np.array([mean_kernel(MK19, float(t)) for t in ts])
    assert np.array_equal(vec, scal)
    # and on a grid of any shape
    assert np.array_equal(mean_kernel_values(MK19, ts.reshape(6, 10)).ravel(), vec)


def test_mean_kernel_deriv_closed_form_and_fd():
    mu, lam = 4.0, 1.0
    mk = MeanKernel(1.0, GammaMixing(mu, lam))
    for t in (0.5, 2.0):
        expected = -mu * lam**mu * (t + lam) ** (-mu - 1.0)
        assert mean_kernel_deriv(mk, t) == pytest.approx(expected, rel=1e-10)
    h = 1e-5
    fd = (mean_kernel(MK19, 1.0 + h) - mean_kernel(MK19, 1.0 - h)) / (2 * h)
    assert abs(mean_kernel_deriv(MK19, 1.0) - fd) < 1e-5
    # uniform bound by the envelope constant times the (1/rho)-moment
    from fracou.mixing import moment_frac

    ts = np.linspace(1e-3, 5.0, 200)
    dvals = mean_kernel_deriv_values(MK19, ts)
    limit = deriv_bound_constant(1.9) * moment_frac(MK19.mixing, 1.0 / 1.9)
    assert np.max(np.abs(dvals)) <= limit
    with pytest.raises(DomainError):
        mean_kernel_deriv(MeanKernel(0.9, GammaMixing(4.0, 1.0)), 1.0)


def _deriv_tolerance(rho, mu, lam, ts):
    """Certified error bound of mean_kernel_deriv_values at ts.

    G' is -(mu/lam) t^(rho-1) times the mixing integral at beta = rho and
    shape mu + 1, certified by the evaluator's estimate.
    """
    ests = _g_quadrature_many(rho, mu + 1.0, lam, ts, rho)[1]
    return (mu / lam) * ts ** (rho - 1.0) * ests


def test_mean_kernel_deriv_returns_past_the_laguerre_range(gml_oracle):
    # scale t^rho/lam up to 640: a 64/128-node Laguerre rule cannot follow
    # the oscillating integrand past about 100, the mixing panels do
    ts = np.linspace(0.0, 30.0, 301)[1:]
    dvals = mean_kernel_deriv_values(MK19, ts)
    assert np.isfinite(dvals).all()
    tol = _deriv_tolerance(1.9, 4.0, 1.0, ts)
    for i in range(0, ts.size, 10):
        t = float(ts[i])
        ref = -4.0 * t**0.9 * gml_oracle(1.9, 5.0, t**1.9, 1.9)
        assert abs(dvals[i] - ref) <= tol[i], t


def test_mean_kernel_deriv_estimates_hold_against_oracles(gml_oracle):
    lam = 2.0
    wide = np.geomspace(8.5, 1e6, 25)
    # rho = 1: H = (1 + w)^(-mu-1), so G' = -mu lam^mu (t + lam)^(-mu-1);
    # rho = 2: H = 1F1(mu + 1; 3/2; -w/4)
    cases = [(1.0, mu, wide, lambda w, mu=mu: (1.0 + w) ** (-mu - 1.0))
             for mu in (0.4, 1.0, 4.0)]
    cases += [(2.0, mu, wide,
               lambda w, mu=mu: float(mp.hyp1f1(mu + 1.0, 1.5, -w / 4.0)))
              for mu in (0.4, 4.0)]
    cases.append((1.9, 4.0, np.geomspace(8.5, 127.0, 15),
                  lambda w: gml_oracle(1.9, 5.0, w, 1.9)))
    for rho, mu, ws, oracle in cases:
        ts = (lam * ws) ** (1.0 / rho)
        ref = np.array([oracle(w) for w in ts**rho / lam])
        values, ests = _g_quadrature_many(rho, mu + 1.0, lam, ts, rho)[:2]
        assert np.all(np.abs(values - ref) <= ests), (rho, mu)
        dref = -(mu / lam) * ts ** (rho - 1.0) * ref
        dvals = mean_kernel_deriv_values(MeanKernel(rho, GammaMixing(mu, lam)), ts)
        tol = _deriv_tolerance(rho, mu, lam, ts) + 4.0 * EPS * np.abs(dref)
        assert np.all(np.abs(dvals - dref) <= tol), (rho, mu)


def test_mixing_evaluator_holds_on_every_scale(gml_oracle, gml_integral_oracle):
    # scales from below the panel floor 2^-13, across the panels below 8 and
    # the series crossover, to past 8: H for G (beta = 1, shape mu) at
    # rho < 1, and for G and G' (beta = rho, shape mu + 1) above 1
    cases = [(0.6, 1.0, 1.0), (0.8, 4.0, 1.0)]
    for rho, mu in ((1.05, 20.0), (1.2, 4.0), (1.5, 4.0)):
        cases += [(rho, mu, 1.0), (rho, mu + 1.0, rho)]
    for rho, nu, beta in cases:
        ws = np.geomspace(3e-5, 12.0, 6)  # below 2^-13, then panels -4 to 0
        edge = sf._g_series_range(rho, nu, beta) if rho > 1.0 else 0.0
        ts = np.append(ws, [edge, 1.1 * edge] if edge else []) ** (1.0 / rho)
        ws = ts**rho
        # the series oracle diverges below rho = 1 and needs about
        # (w/1.24)^5 terms at rho = 1.2
        ref = np.array([gml_oracle(rho, nu, w, beta) if rho >= 1.5 or 1.0 < rho and w < 1.0
                        else gml_integral_oracle(rho, nu, w, beta) for w in ws])
        values, ests = _g_quadrature_many(rho, nu, 1.0, ts, beta)[:2]
        assert ests.max() <= 1e-8, (rho, nu)
        assert np.all(np.abs(values - ref) <= ests), (rho, nu)
    # the mixing evaluator used to give up here (order-doubling gap 2.7e-6)
    mk = MeanKernel(0.6, GammaMixing(1.0, 1.0))
    assert np.isfinite(mean_kernel_values(mk, np.linspace(0.0, 40.0, 401))).all()


def test_variance_integral():
    assert variance_integral(MK19, 0.0) == 0.0
    assert variance_integral(MK1, 1.0) == pytest.approx((1 - 2.0**-7) / 7.0,
                                                        rel=1e-9)
    # rho = 1: G = (1 + t/lam)^(-mu), whose square integrates in closed form
    lam = 1.5
    for mu in (0.6, 4.0):
        mk = MeanKernel(1.0, GammaMixing(mu, lam))
        for t in (0.5, 16.0, 1000.0):
            exact = lam / (2 * mu - 1) * (1 - (1 + t / lam) ** (1 - 2 * mu))
            assert variance_integral(mk, t) == pytest.approx(exact, rel=1e-10), (mu, t)
    ts = [0.5, 1.0, 2.0, 5.0]
    vals = [variance_integral(MK19, t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # derivative of the integral recovers the squared kernel
    h = 1e-4
    num = (variance_integral(MK19, 1.0 + h) - variance_integral(MK19, 1.0 - h)) / (2 * h)
    assert num == pytest.approx(mean_kernel(MK19, 1.0) ** 2, rel=1e-5)


def test_resolvent_l2_norm():
    for a in (0.5, 1.0, 3.0):
        assert resolvent_l2_norm(ResolventKernel(a, 1.0)) == pytest.approx(
            1.0 / (2.0 * a), rel=1e-10)
    # exact scaling in alpha
    vals = [resolvent_l2_norm(ResolventKernel(a, 1.9)) * a ** (1.0 / 1.9)
            for a in (0.5, 1.0, 2.0, 8.0)]
    assert max(vals) - min(vals) < 1e-8 * vals[0]
    # brute truncated Riemann sum at doubled range
    du = 1e-3
    us = np.arange(1, int(600.0 / du)) * du
    b = float(np.sum(resolvent_values(ResolventKernel(1.0, 1.9), us) ** 2) * du)
    assert abs(resolvent_l2_norm(ResolventKernel(1.0, 1.9)) - b) < 1e-3
    with pytest.raises(DomainError):
        resolvent_l2_norm(ResolventKernel(0.0, 1.9))
    with pytest.raises(DomainError):
        resolvent_l2_norm(ResolventKernel(1.0, 0.5))
    # infinite at rho = 2, where s_1 = cos, and finite just below it
    with pytest.raises(DomainError):
        resolvent_l2_norm(ResolventKernel(1.0, 2.0))
    assert 318.0 < resolvent_l2_norm(ResolventKernel(1.0, 1.999)) < 319.0


@pytest.mark.parametrize("rho", [0.8, 1.2, 1.5, 1.9, 1.98, 1.99])
def test_resolvent_l2_norm_is_the_plancherel_integral(rho, monkeypatch,
                                                      resolvent_l2_oracle):
    def no_quadrature(*args):
        raise AssertionError("the l2 norm is a closed form")

    monkeypatch.setattr(kn, "_integrate", no_quadrature)
    norm = resolvent_l2_norm(ResolventKernel(1.0, rho))
    assert norm == pytest.approx(resolvent_l2_oracle(rho), rel=1e-12)


def test_tail_variance_bound_dominates_and_decays():
    for T in (5.0, 10.0, 40.0):
        assert tail_variance_bound(MK19, 2 * T) < tail_variance_bound(MK19, T)
    for T in (10.0, 50.0):
        direct, _ = integrate.quad(
            lambda v: math.exp(v) * mean_kernel(MK19, math.exp(v)) ** 2,
            math.log(T), math.log(2000.0), limit=300)
        assert tail_variance_bound(MK19, T) >= direct
    Ts = np.geomspace(10.0, 1000.0, 8)
    slope = np.polyfit(np.log(Ts),
                       np.log([tail_variance_bound(MK19, T) for T in Ts]), 1)[0]
    assert abs(slope - (1.0 - 2.0 * 1.9)) < 0.05
    with pytest.raises(DomainError):
        tail_variance_bound(MeanKernel(1.9, GammaMixing(0.2, 1.0)), 10.0)


@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("mu", [0.6, 1.0, 4.0])
def test_certified_tail_covers_the_exact_tail_at_rho_one(mu, lam):
    # at rho = 1, G(t) = (1 + t/lam)^-mu, whose square has the tail
    # lam/(2 mu - 1) (1 + T/lam)^(1 - 2 mu) past T
    mk = MeanKernel(1.0, GammaMixing(mu, lam))
    for tol in (1e-2, 2e-3):
        for T in (0.5, 0.890625, 1.3, 4.0, 37.5, 1000.0):
            exact = lam / (2.0 * mu - 1.0) * (1.0 + T / lam) ** (1.0 - 2.0 * mu)
            assert kn._tail_bound(mk, tol)(T) >= exact
    if mu == 4.0:
        # the cell sum, not the envelope, is what was checked
        assert kn._tail_bound(mk, 2e-3)(1.3) < 1e-2 * tail_variance_bound(mk, 1.3)


@pytest.mark.parametrize("rho", [1.5, 1.9])
def test_certified_tail_covers_the_oracle_tail(rho, gml_oracle):
    # the tail of G^2 past T is at least its integral over [T, 8], here by
    # 10-node Gauss-Legendre panels on octaves over oracle values of G
    mk = MeanKernel(rho, GammaMixing(4.0, 1.0))
    nodes, weights = np.polynomial.legendre.leggauss(10)
    octave = {}
    for a in (1.0, 2.0, 4.0):
        ts = a * (1.5 + 0.5 * nodes)
        g = np.array([gml_oracle(rho, 4.0, t**rho) for t in ts])
        octave[a] = 0.5 * a * float(np.sum(weights * g**2))
    for T in (1.0, 2.0, 4.0):
        partial = sum(v for a, v in octave.items() if a >= T)
        bound = kn._tail_bound(mk, 1e-4)(T)
        assert partial <= bound < tail_variance_bound(mk, T)


def test_stationary_variance():
    assert stationary_variance(MK1, 1e-6) == pytest.approx(1.0 / 7.0, abs=1e-6)
    # bracket validity and stability under tighter tolerance
    v1 = stationary_variance(MK19, 1e-4)
    v2 = stationary_variance(MK19, 1e-5)
    assert abs(v1 - v2) < 1e-4
    head = variance_integral(MK19, 64.0)
    assert head <= v2 <= head + tail_variance_bound(MK19, 64.0)
    with pytest.raises(DomainError):
        stationary_variance(MeanKernel(1.9, GammaMixing(0.2, 1.0)), 1e-4)
    # the envelope reaches 2e-6 only near T = 1e8, past the 1e7 that bounds
    # simulated histories; stationary_variance searches up to 1e9
    mk = MeanKernel(1.9, GammaMixing(0.6, 1.0))
    assert kn._shortest_depth(lambda T: tail_variance_bound(mk, T), 2e-6) is None
    v = stationary_variance(mk, 2e-6)
    assert v == pytest.approx(stationary_variance(mk, 1e-5), abs=6e-6)


@pytest.mark.parametrize("rho, mu, tol", [(1.0, 4.0, 1e-7), (1.5, 4.0, 1e-7),
                                          (1.9, 4.0, 1e-7), (1.9, 1.0, 1e-7),
                                          (1.9, 0.6, 1e-5)])
def test_stationary_variance_is_the_plancherel_integral(
        rho, mu, tol, stationary_variance_oracle):
    # the library's bracket is a depth search plus panel quadrature; the
    # oracle integrates G's Laplace transform over the imaginary axis
    v = stationary_variance(MeanKernel(rho, GammaMixing(mu, 1.0)), tol)
    assert abs(v - stationary_variance_oracle(rho, mu, 1.0)) <= tol / 2


@pytest.mark.parametrize("rho, mu, lam", [(1.2, 0.6, 2.0), (0.8, 1.0, 1.0)])
def test_stationary_variance_is_the_25_digit_plancherel_integral(
        rho, mu, lam, stationary_variance_oracle):
    # the 15-digit oracle is 1.6e-10 and 2.3e-12 off here; at (0.8, 1) the
    # Gram product grows like r^(1 - 1/rho) as r -> 0
    v = stationary_variance(MeanKernel(rho, GammaMixing(mu, lam)), 1e-9)
    assert abs(v - stationary_variance_oracle(rho, mu, lam, 25)) <= 5e-10


@pytest.mark.parametrize("rho", [1.0, 1.0 + 1e-7, 1.05, 1.5, 1.9, 1.98])
def test_gram_diagonal_is_the_l2_norm(rho):
    for a in (0.1, 1.0, 7.0):
        q = complex(kn._gram(rho, a, a))
        assert q.real == pytest.approx(
            resolvent_l2_norm(ResolventKernel(a, rho)), rel=1e-14)


@pytest.mark.parametrize("rho", [0.8, 1.2, 1.5, 1.9])
def test_gram_is_the_plancherel_inner_product(rho, resolvent_gram_oracle):
    for a, b in ((1.0, 1.0 + 1e-7), (0.5, 2.0), (0.1, 3.0)):
        q = complex(kn._gram(rho, a, b))
        assert abs(q.real - resolvent_gram_oracle(rho, a, b)) \
            <= kn._GRAM_ULPS * EPS * abs(q), (a, b)
        # symmetric in the rates
        assert complex(kn._gram(rho, b, a)).real == pytest.approx(q.real,
                                                                  rel=1e-14)


@pytest.mark.parametrize("rates", [[0.7], [0.3, 2.0],
                                   np.geomspace(0.1, 10.0, 7).tolist()])
def test_rates_tail_covers_the_exact_tail_at_rho_one(rates):
    # at rho = 1, s_a(t) = e^(-a t), so the tail of f_n^2 past T is
    # n^-2 sum_k sum_l e^(-(a_k + a_l) T)/(a_k + a_l)
    rates = np.array(rates)
    pair = rates[:, None] + rates[None, :]
    tol = 1e-6
    tail = kn._tail_bound((1.0, rates), tol)
    for T in (0.5, 0.890625, 4.0, 37.5):
        exact = float(np.sum(np.exp(-pair * T) / pair)) / rates.size**2
        assert exact <= tail(T) <= exact + tol, T


def test_head_integral_keeps_only_what_the_values_certify(monkeypatch):
    # errors that cover every |K| <= 1 leave no head certified: the bound is
    # the norm and its error at every depth
    quad = kn._g_quadrature_many

    def covered(*args):
        values, ests, *rest = quad(*args)
        return (values, ests + 1.0, *rest)

    mk = MeanKernel(1.0, GammaMixing(4.0, 3.0))
    kn._mean_piece.cache_clear()
    monkeypatch.setattr(kn, "_g_quadrature_many", covered)
    monkeypatch.setattr(kn, "ACCURACY_FLOOR", 1.0)
    try:
        for kernel in (mk, (1.0, np.array([0.7, 2.0]))):
            norm, err = kn._l2_norm(kernel)
            assert kn._tail_bound(kernel, 1e-3)(4.0) == norm + err
    finally:
        kn._mean_piece.cache_clear()


def test_tail_allowances_past_tol_refuse_before_any_head_integral(monkeypatch):
    def no_integral(*args):
        raise AssertionError("no head integral once the allowances reach tol")

    monkeypatch.setattr(kn, "_square_integral", no_integral)
    for kernel in (MK19, (1.9, np.array([1.0, 3.0]))):
        with pytest.raises(TruncationError):
            kn._tail_bound(kernel, 1e-12)


def test_norms_are_refused_where_they_diverge_or_the_forms_fail():
    # rho = 2: s_1 = cos(t); rho <= 1/2: the Gram form does not apply
    for rho in (0.5, 0.4, 2.0):
        with pytest.raises(DomainError):
            kn._tail_bound((rho, np.array([1.0])), 1e-3)
        with pytest.raises(DomainError):
            stationary_variance(MeanKernel(rho, GammaMixing(4.0, 1.0)), 1e-3)


def test_bound_constants():
    for rho in (1.1, 1.5, 1.9):
        assert bound_m(rho) > 1.0
        assert bound_m2(rho) > 0.0
        assert bound_m3(rho) > 0.0
    assert bound_m(1.0) == pytest.approx(1.1, rel=1e-9)
    with pytest.raises(DomainError):
        bound_m(2.0)
    with pytest.raises(DomainError):
        bound_m3(0.9)
    # envelope actually dominates on a fresh grid
    from fracou.special_functions import ml_one_values

    xs = np.geomspace(1e-3, 1e5, 1500)
    assert np.all(np.abs(ml_one_values(1.9, xs)) * (1 + xs) <= bound_m(1.9))


def test_empirical_kernel_values_matches_scalar():
    alphas = np.array([0.3, 1.0, 2.5])
    ts = np.linspace(0.0, 3.0, 7)
    vec = empirical_kernel_values(alphas, 1.9, ts)
    scal = np.array([empirical_kernel(alphas, 1.9, float(t)) for t in ts])
    assert np.array_equal(vec, scal)


def test_uniform_lln_kernel_gap():
    # sup-norm gap between the empirical kernel and its mixing-law limit
    # shrinks like the pointwise standard error, uniformly on a grid
    ts = np.linspace(0.0, 5.0, 100)
    gvals = mean_kernel_values(MK19, ts)
    alphas = sample_alphas(GammaMixing(4.0, 1.0), 10**4, 33)
    sups = {}
    for n in (100, 1000, 10000):
        fn = empirical_kernel_values(alphas[:n], 1.9, ts)
        sups[n] = float(np.max(np.abs(fn - gvals)))
    assert sups[100] > sups[1000] > sups[10000]
    # pointwise spread of s_alpha(t) over the mixing law, from a subsample
    sub = alphas[:2000]
    spread = 0.0
    for t in ts[1::7]:
        vals = np.array([resolvent(ResolventKernel(float(a), 1.9), float(t))
                         for a in sub[:300]])
        spread = max(spread, float(np.std(vals, ddof=1)))
    for n in (100, 1000, 10000):
        assert sups[n] < 5.0 * spread / math.sqrt(n)


def test_mean_kernel_weighted_boundedness():
    # |G(t)| (1 + t^(rho min(mu,1))) stays bounded far out
    for mu, mkx in ((4.0, MK19), (0.4, MeanKernel(1.9, GammaMixing(0.4, 1.0)))):
        ts = np.geomspace(1e-2, 1e3, 400)
        w = np.abs(mean_kernel_values(mkx, ts)) * (1.0 + ts ** (1.9 * min(mu, 1.0)))
        assert np.isfinite(w).all()
        again = np.abs(mean_kernel_values(mkx, np.geomspace(1e-2, 1e3, 800)))
        w2 = again * (1.0 + np.geomspace(1e-2, 1e3, 800) ** (1.9 * min(mu, 1.0)))
        assert w2.max() < 1.5 * max(w.max(), 1.0)


# ---------------------------------------------------------------------------
# f_n and f_n' by the rates' moment series
# ---------------------------------------------------------------------------


def _moment_sums(rates, rho, lags, p=0):
    """(x, values, ests, served) of the moment series at each lag, formed as
    kernels._rate_means forms them; served marks the lags that keep it."""
    beta, top = rho if p else 1.0, float(rates.max())
    x = top * lags**rho
    count = len(sf._band_terms(rho, beta, None, max(math.frexp(float(x.max()))[1], 0)))
    power, moments = np.ones(rates.size), []
    for _ in range(count + p):
        moments.append(math.fsum(power.tolist()) / rates.size)
        power *= rates / top
    v, e, _, guard = sf._alt_series(rho, beta, None, x, np.array(moments[p:]))
    served = (x <= sf._regime_thresholds(rho, beta)[0]) & (e <= sf.SERIES_TARGET) & ~guard
    return x, v * top if p else v, e, served


def _gamma_rates(n, seed):
    return np.sort(np.random.default_rng([n, seed]).gamma(4.0, 1.0, n))


@pytest.mark.parametrize("rho", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("n", [1, 7, 250])
def test_moment_series_within_its_estimate_of_the_oracle(rho, n, fn_oracle):
    rates = _gamma_rates(n, 11)
    x_series = sf._regime_thresholds(rho, 1.0)[0]
    # lags either side of x = A t^rho = x_series
    lags = (x_series * np.array([0.02, 0.4, 0.9, 1.0, 1.1, 2.0]) / rates.max()) ** (1.0 / rho)
    vals = empirical_kernel_values(rates, rho, lags)
    x, v, e, served = _moment_sums(rates, rho, lags)
    assert served[:2].all() and not served[-2:].any()
    assert np.array_equal(vals[served], v[served])
    # every other lag averages its rate x lag cells
    cells = (lags[~served] ** rho)[:, None] * rates[None, :]
    ml = sf.ml_one_values(rho, cells.ravel()).reshape(cells.shape)
    assert np.array_equal(vals[~served], np.add.reduce(ml, axis=1) / n)
    for t, f, bound in zip(lags, vals, np.where(served, e, sf.ACCURACY_FLOOR)):
        assert abs(f - fn_oracle(rates, rho, float(t))) <= bound, (rho, n, t)


@pytest.mark.parametrize("rho", [1.5, 1.9])
def test_moment_rounding_term_alone_covers_the_error(rho, fn_oracle):
    # eps sum_j (2j + 4) |a_j mu_j| u^j, where it is most of the estimate,
    # against a 50-digit sum at the same doubles
    rates = _gamma_rates(40, 12)
    lags = np.linspace(0.05, 1.0, 12) * (sf._regime_thresholds(rho, 1.0)[0]
                                          / rates.max()) ** (1.0 / rho)
    x, v, e, served = _moment_sums(rates, rho, lags)
    checked = 0
    for t, xi, vi, ei, ok in zip(lags, x, v, e, served):
        band = max(math.frexp(float(xi))[1], 0)
        a = np.array(sf._band_terms(rho, 1.0, None, band))
        mu = np.array([np.mean((rates / rates.max()) ** j) for j in range(a.size)])
        u = math.ldexp(float(xi), -band)
        j = np.arange(a.size - 1)
        rounding = EPS * float(np.sum((2 * j + 4) * np.abs(a[:-1] * mu[:-1]) * u**j))
        assert ei >= rounding, (rho, t)  # the estimate carries the term
        if ok and rounding >= 0.5 * ei:
            checked += 1
            assert abs(vi - fn_oracle(rates, rho, float(t), digits=50)) <= rounding, (rho, t)
    assert checked >= 6


@pytest.mark.parametrize("rho", [1.5, 1.9])
def test_rate_means_depend_on_their_own_lag_only(rho):
    rates = sample_alphas(GammaMixing(4.0, 1.0), 60, seed=5)
    shuffled = np.random.default_rng(6).permutation(rates)
    lags = np.linspace(0.0, 6.0, 401)  # many lags a band, and lags past x_series
    for p in (0, 1):
        whole = kn._rate_means(rates, rho, lags, p)
        alone = [kn._rate_means(rates, rho, lags[i:i + 1], p)[0] for i in range(lags.size)]
        assert np.array_equal(whole, alone), p
        served = _moment_sums(rates, rho, lags, p)[3]
        assert served.sum() >= 100 and not served.all()
        again = kn._rate_means(shuffled, rho, lags, p)
        assert np.array_equal(whole[served], again[served]), p
        # against the rate x lag cells, each certified to 1e-10 on the series
        cells = (lags**rho)[:, None] * rates[None, :]
        ml = (sf.ml_two_values if p else sf.ml_one_values)(rho, cells.ravel())
        cell_means = np.mean(ml.reshape(cells.shape) * rates**p, axis=1)
        assert np.max(np.abs(whole - cell_means)) <= 1e-8 * rates.max() ** p, p


def test_closed_form_orders_and_the_origin_sum_their_cells():
    rates = _gamma_rates(30, 13)
    lags = np.linspace(0.0, 6.0, 61)
    for rho in (1.0, 2.0):
        cells = (lags**rho)[:, None] * rates[None, :]
        ml = sf.ml_one_values(rho, cells.ravel()).reshape(cells.shape)
        want = np.add.reduce(ml, axis=1) / rates.size
        assert np.array_equal(empirical_kernel_values(rates, rho, lags), want)
        ml2 = sf.ml_two_values(rho, cells.ravel()).reshape(cells.shape)
        want2 = np.add.reduce(ml2 * rates, axis=1) / rates.size
        assert np.array_equal(kn._rate_means(rates, rho, lags, 1), want2)
    for rho in (1.0, 1.2, 1.5, 1.9, 2.0):
        for n in (1, 7, 250):
            assert empirical_kernel(_gamma_rates(n, 14), rho, 0.0) == 1.0


def test_benchmark_table_makes_no_cell_call(monkeypatch):
    calls = []

    def counted(rho, x):
        calls.append(np.size(x))
        return sf.ml_one_values(rho, x)

    monkeypatch.setattr(kn, "ml_one_values", counted)
    rates = _gamma_rates(250, 15)
    empirical_kernel_values(rates, 1.9, np.linspace(0.0, 2.0, 2001))
    assert calls == []
    # the count sees the cells of a lag past the series threshold
    empirical_kernel_values(rates, 1.9, [0.0, 30.0])
    assert calls == [250]


@pytest.mark.parametrize("rates", [[-1.0, 2.0], [np.inf, 1.0], [np.nan, 1.0], [],
                                   [[1.0, 2.0]]])
def test_rates_are_checked_before_any_evaluation(rates):
    grid = sim.TimeGrid(0.0, 1.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.0, 0.5):
            with pytest.raises(DomainError):
                empirical_kernel_values(rates, 1.9, [t])
        for simulate in (lambda: sim.simulate_component_paths(rates, 1.9, grid, 1),
                         lambda: sim.simulate_empirical_mean_paths(rates, 1.9, grid, 1),
                         lambda: sim.simulate_stationary_paths(rates, grid, 1, 0.1, 1.9),
                         lambda: sim.simulate_stationary_mean_paths(rates, 1.9, grid, 1, 0.1)):
            with pytest.raises(DomainError):
                simulate()


def test_all_zero_rates_give_the_unit_kernel():
    lags = np.linspace(0.0, 5.0, 11)
    for rho in (1.0, 1.5, 1.9, 2.0):
        assert np.array_equal(empirical_kernel_values([0.0, 0.0], rho, lags), np.ones(11))
    with pytest.raises(DomainError):  # s = 1 is not stationary
        sim.simulate_stationary_paths([0.0, 1.0], sim.TimeGrid(0.0, 1.0, 10), 1, 0.1, 1.9)
