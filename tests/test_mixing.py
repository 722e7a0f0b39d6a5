import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from fracou import _rng
from fracou.errors import DomainError
from fracou.mixing import (
    GammaMixing,
    check_condition,
    moment_frac,
    moment_int,
    sample_alphas,
)


def test_params_validation():
    with pytest.raises(DomainError):
        GammaMixing(0.0, 1.0)
    with pytest.raises(DomainError):
        GammaMixing(1.0, -2.0)


def test_sampling_deterministic_and_positive():
    p = GammaMixing(4.0, 2.0)
    a = sample_alphas(p, 1000, 42)
    b = sample_alphas(p, 1000, 42)
    assert np.array_equal(a, b)
    assert (a > 0.0).all()
    assert not np.array_equal(a, sample_alphas(p, 1000, 43))


def test_sampling_prefix_stable():
    p = GammaMixing(0.7, 1.5)
    long = sample_alphas(p, 5000, 9)
    short = sample_alphas(p, 1200, 9)
    assert np.array_equal(long[:1200], short)


def test_blocked_uniforms_chunk_invariance():
    whole = _rng.uniforms(5, ("alphas", 4.0, 2.0), 0, 10000)
    parts = np.concatenate([
        _rng.uniforms(5, ("alphas", 4.0, 2.0), 0, 3000),
        _rng.uniforms(5, ("alphas", 4.0, 2.0), 3000, 4096),
        _rng.uniforms(5, ("alphas", 4.0, 2.0), 7096, 2904),
    ])
    assert np.array_equal(whole, parts)


def test_rate_draws_equal_the_per_block_reference():
    # block b is numpy's standard_gamma(mu, BLOCK) / lam from counter 0 of the
    # key of (seed, "alphas", mu, lam, "block", b), floored at tiny; the
    # first bits are pinned, so a change of numpy's sampler shows here
    assert [float(a) for a in sample_alphas(GammaMixing(4.0, 1.0), 3, 1)] \
        == [2.5864008056997485, 3.098878359423633, 3.995962999266907]
    n = 10000
    for seed, mu, lam in ((1, 4.0, 1.0), (4, 0.4, 2.0)):
        tags = ("alphas", mu, lam)
        want = np.maximum(np.concatenate([
            np.random.Generator(np.random.Philox(
                key=_rng._key(seed, (*tags, "block", b))))
            .standard_gamma(mu, _rng.BLOCK) / lam
            for b in range(-(-n // _rng.BLOCK))])[:n], np.finfo(float).tiny)
        assert np.array_equal(sample_alphas(GammaMixing(mu, lam), n, seed),
                              want)


@pytest.mark.parametrize("mu", [0.3, 0.75, 4.0])
def test_rate_draws_follow_the_gamma_law(mu):
    # Kolmogorov-Smirnov against scipy's Gamma(mu, scale 1/lam) CDF; 0.3 is
    # below the shapes of the moment tests and admissible for rho > 5/3
    lam = 2.0
    a = sample_alphas(GammaMixing(mu, lam), 10**5, 11)
    assert stats.kstest(a, stats.gamma(mu, scale=1.0 / lam).cdf).pvalue > 1e-3


@pytest.mark.parametrize("n", [math.inf, math.nan])
def test_sample_count_must_be_a_positive_integer(n):
    with pytest.raises(DomainError, match="positive integer"):
        sample_alphas(GammaMixing(4.0, 1.0), n, 1)


def test_sampling_thread_env_invariance(monkeypatch):
    p = GammaMixing(4.0, 2.0)
    ref = sample_alphas(p, 4096, 3)
    for n in ("1", "4", "8"):
        monkeypatch.setenv("FRACOU_THREADS", n)
        assert np.array_equal(sample_alphas(p, 4096, 3), ref)


def test_first_two_moments_monte_carlo():
    p = GammaMixing(4.0, 2.0)
    a = sample_alphas(p, 10**6, 7)
    for n, target in ((1, 2.0), (2, 5.0)):
        est = float(np.mean(a**n))
        se = float(np.std(a**n, ddof=1)) / math.sqrt(a.size)
        assert abs(est - target) < 4.0 * se
        assert moment_int(p, n) == pytest.approx(target, rel=1e-14)


@pytest.mark.parametrize("mu", [0.75, 1.0, 4.0])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_moment_grid_monte_carlo(mu, lam):
    p = GammaMixing(mu, lam)
    a = sample_alphas(p, 10**6, 11)
    for n in range(1, 7):
        powd = a ** float(n)
        est = float(np.mean(powd))
        se = float(np.std(powd, ddof=1)) / math.sqrt(a.size)
        assert abs(est - moment_int(p, n)) < 4.0 * se


def test_moment_int_values():
    assert moment_int(GammaMixing(4.0, 2.0), 2) == 5.0
    assert moment_int(GammaMixing(9.9, 0.3), 0) == 1.0
    assert moment_int(GammaMixing(0.5, 1.0), 3) == pytest.approx(1.875, rel=1e-14)
    with pytest.raises(DomainError):
        moment_int(GammaMixing(1.0, 1.0), -1)


def test_moment_frac_matches_integer_orders():
    p = GammaMixing(4.0, 2.0)
    assert moment_frac(p, 1.0) == pytest.approx(moment_int(p, 1), rel=1e-13)
    assert moment_frac(p, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert moment_frac(p, 3.0) == pytest.approx(moment_int(p, 3), rel=1e-13)


def test_moment_frac_domain_boundary():
    # mu + p = -1/3 < 0: the moment integral diverges and must raise
    with pytest.raises(DomainError):
        moment_frac(GammaMixing(1.0, 1.0), -2.0 / 1.5)
    # just inside the boundary it is finite
    assert moment_frac(GammaMixing(1.0, 1.0), -0.999) > 0.0


def test_divergent_moment_confirmed_by_quadrature():
    # direct numerical integration: decade masses of x^p f(x) stop decaying
    mu, lam, p = 1.0, 1.0, -2.0 / 1.5

    def decade(k):
        val, _ = integrate.quad(
            lambda x: x**p * lam * math.exp(-lam * x)
            * (lam * x) ** (mu - 1.0) / math.gamma(mu),
            10.0 ** (-k - 1), 10.0**-k, epsrel=1e-10, limit=200)
        return val

    assert decade(8) > decade(4) > 0.0


@given(st.floats(min_value=0.2, max_value=8.0),
       st.floats(min_value=-0.15, max_value=3.0))
@settings(max_examples=80, deadline=None)
def test_moment_frac_continuity(mu, p):
    params = GammaMixing(mu, 1.3)
    if p <= -mu:
        return
    h = 1e-6
    if p - h <= -mu:
        return
    left, mid, right = (moment_frac(params, p - h), moment_frac(params, p),
                        moment_frac(params, p + h))
    assert abs(right - left) < 1e-3 * (1.0 + abs(mid)) + 1e-2 * abs(mid)


def test_check_condition():
    assert check_condition(GammaMixing(0.3, 1.0), 1.0) is False
    assert check_condition(GammaMixing(0.3, 1.0), 2.0) is True
    assert check_condition(GammaMixing(0.5, 1.0), 1.0) is False  # strict
    assert check_condition(GammaMixing(4.0, 1.0), 1.9) is True
