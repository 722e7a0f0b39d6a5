"""Shared test oracles, kept independent of the library's evaluation paths,
and the scrubbed environment for CLI child processes."""

import functools
import math
import os

import mpmath as mp
import numpy as np
import pytest


def oracle_ml(rho: float, x: float, beta: float = 1.0, digits: int = 30) -> float:
    """Reference value of sum_k (-x)^k / Gamma(rho k + beta).

    Straight high-precision summation with working precision scaled to the
    largest term, so it stays trustworthy deep into the cancellation regime.
    """
    return float(_oracle_ml_mpf(rho, x, beta, digits))


@functools.lru_cache(maxsize=None)
def _oracle_gamma(rho: float, beta: float, k: int, prec: int):
    """Gamma(rho k + beta) at prec bits, shared by the sums of one precision."""
    with mp.workprec(prec):
        return mp.gamma(mp.mpf(rho) * k + mp.mpf(beta))


def _oracle_ml_mpf(rho, x, beta, digits):
    """oracle_ml's sum as an mpf; x may be an mpf."""
    hump = x ** (1.0 / rho) if x > 0 else 0.0
    with mp.workdps(digits + 10 + int(0.45 * hump)):
        z = -mp.mpf(x)
        total = mp.mpf(0)
        k = 0
        tiny = mp.mpf(10) ** (-(digits + 10))
        while True:
            term = mp.power(z, k) / _oracle_gamma(rho, beta, k, mp.mp.prec)
            total += term
            if k > hump and abs(term) < tiny * max(1, abs(total)):
                return total
            k += 1
            if k > 100000:
                raise RuntimeError("oracle did not converge")


@pytest.fixture(scope="session")
def ml_oracle():
    return oracle_ml


def oracle_fn(alphas, rho: float, t: float, digits: int = 30) -> float:
    """Reference f_n(t) = mean_k E_rho(-alpha_k t^rho): the mean of the
    oracle_ml sums at the exact products of each rate with the double
    t^rho, formed by numpy's power as the kernels form it."""
    tau = float(np.power(np.array([t], dtype=float), rho)[0])
    with mp.workdps(digits + 10):
        terms = [_oracle_ml_mpf(rho, mp.mpf(float(a)) * mp.mpf(tau), 1.0, digits)
                 for a in alphas]
        return float(mp.fsum(terms) / len(terms))


@pytest.fixture(scope="session")
def fn_oracle():
    return oracle_fn


def oracle_gml(rho: float, mu: float, w: float, beta: float = 1.0,
               digits: int = 30) -> float:
    """Reference value of sum_k (mu)_k (-w)^k / Gamma(rho k + beta), which is
    G_rho(-w) at beta = 1.

    The working precision covers the largest term, located in double
    precision from log-gamma, so the cancelling sum keeps `digits` digits.
    rho k + beta is formed in mpmath: rounded to a double first, it would
    carry an error that the cancellation amplifies far past the result.
    The series diverges for rho < 1: use oracle_gml_integral there.
    """
    if rho < 1.0:
        raise ValueError(f"the series diverges at rho = {rho} < 1")
    logw = math.log(w)
    peak, k_peak, k = 0.0, 0, 0
    while k < 2 * k_peak + 10:
        k += 1
        log_term = (math.lgamma(mu + k) - math.lgamma(mu) + k * logw
                    - math.lgamma(rho * k + beta))
        if log_term > peak:
            peak, k_peak = log_term, k
    with mp.workdps(digits + 10 + int(peak / math.log(10.0))):
        z = -mp.mpf(w)
        r, m, b = mp.mpf(rho), mp.mpf(mu), mp.mpf(beta)
        total = mp.mpf(0)
        k = 0
        tiny = mp.mpf(10) ** (-(digits + 10))
        while True:
            term = mp.rf(m, k) * mp.power(z, k) / mp.gamma(r * k + b)
            total += term
            if k > k_peak and abs(term) < tiny * max(1, abs(total)):
                return float(total)
            k += 1
            if k > 100000:
                raise RuntimeError("oracle did not converge")


@pytest.fixture(scope="session")
def gml_oracle():
    return oracle_gml


def _exp_e(m, b):
    """e^b E_m(b), the mean of 1/(z + b) for z ~ Gamma(m, 1), at complex b
    off the negative axis.  mpmath's expint is slow at integer orders above
    1, so those are formed from E_1 (the caller raises the precision by the
    digits this cancels at |b| > m)."""
    n = int(m)
    if m != n or n < 2:
        return mp.exp(b) * mp.expint(m, b)
    head = mp.fsum(mp.factorial(n - k - 2) * (-b) ** k for k in range(n - 1))
    return ((-b) ** (n - 1) * mp.exp(b) * mp.e1(b) + head) / mp.factorial(n - 1)


def oracle_gml_integral(rho: float, mu: float, w: float, beta: float = 1.0,
                        digits: int = 15) -> float:
    """H_{rho,beta,mu}(w) = E[E_{rho,beta}(-z w)], z ~ Gamma(mu, 1), for
    0 < rho < 2, rho != 1 and beta in {1, rho}, by quadrature, where the
    series of oracle_gml diverges (rho < 1) or needs too many terms.

    For 0 < rho < 2 (Gorenflo and Mainardi), with s = r^rho x in
    E_rho(-x) = (sin rho pi / pi) int_0^inf r^(rho-1) e^(-r x^(1/rho))
    / (r^(2 rho) + 2 r^rho cos rho pi + 1) dr,

        E_rho(-x) = (sin rho pi / (pi rho)) int_0^inf e^(-s^(1/rho))
                    x / (s^2 + 2 s x cos rho pi + x^2) ds
                    + [rho > 1] (2/rho) Re exp(x^(1/rho) e^(i pi/rho)).

    The rational factor is 2 Re[A / (x + a)], a = s e^(i pi rho),
    A = e^(i pi rho) / (2 i sin rho pi), and the mean of 1/(z w + a) is
    _exp_e(mu, a/w)/w, so the first term averages to
    (1/(pi rho w)) int e^(-s^(1/rho)) Im[e^(i pi rho) _exp_e(mu, a/w)] ds;
    the second is a quadrature in z.  At beta = rho it returns
    H_{rho,rho,mu}(w) = -(rho/(mu-1)) d/dw H_{rho,1,mu-1}(w), both terms
    differentiated under the integral.
    """
    deriv = beta != 1.0
    with mp.workdps(digits + 10):
        r, W = mp.mpf(rho), mp.mpf(w)
        m = mp.mpf(mu) - 1 if deriv else mp.mpf(mu)
        ph = mp.expjpi(r)

        def strip(s):
            b = s * ph / W
            with mp.extradps(int(float(m) * math.log10(1.0 + float(abs(b))))):
                j = _exp_e(m, b)
                if deriv:  # d/dw [J(a/w)/w] = -(J + b J'(b))/w^2, J' = J_m - J_(m-1)
                    j += b * (j - _exp_e(m - 1, b))
                return mp.exp(-s ** (1 / r)) * mp.im(ph * j)

        total = mp.quad(strip, [0, 1, 10, mp.inf]) / (mp.pi * r * W)
        if deriv:
            total = -total / W
        if rho > 1.0:
            c = W ** (1 / r) * mp.expjpi(1 / r)

            def wave(z):
                e = mp.exp(c * z ** (1 / r))
                if deriv:
                    e *= c * z ** (1 / r) / (r * W)
                return z ** (m - 1) * mp.exp(-z) * mp.re(e)

            total += 2 / r * mp.quad(wave, [0, 1, 10, mp.inf]) / mp.gamma(m)
        return float(-r / m * total if deriv else total)


@pytest.fixture(scope="session")
def gml_integral_oracle():
    return oracle_gml_integral


def _plancherel(transform, digits: int) -> float:
    """(1/pi) int_0^inf |transform(i w)|^2 dw: the squared L2 norm on the
    half line of the function whose Laplace transform is transform."""
    with mp.workdps(digits + 5):
        return float(mp.quad(lambda w: abs(transform(mp.mpc(0, w))) ** 2,
                             [0, 1, 10, mp.inf]) / mp.pi)


def oracle_resolvent_l2(rho: float, digits: int = 20) -> float:
    """||s_1||^2 for s_1(t) = E_rho(-t^rho), whose Laplace transform is
    s^(rho-1)/(s^rho + 1).  Near w = 0 the integrand grows like
    w^(2 rho - 2), which plain quadrature misses for rho well below 1 (by
    1.6e-5 at rho = 0.6)."""
    r = mp.mpf(rho)
    return _plancherel(lambda s: s ** (r - 1) / (s**r + 1), digits)


@pytest.fixture(scope="session")
def resolvent_l2_oracle():
    return oracle_resolvent_l2


def oracle_resolvent_gram(rho: float, a: float, b: float,
                          digits: int = 30) -> float:
    """<s_a, s_b> = (1/pi) int_0^inf Re[s_a^(i w) conj(s_b^(i w))] dw, with
    s_a^(s) = s^(rho-1)/(s^rho + a), split where each transform peaks."""
    r = mp.mpf(rho)
    with mp.workdps(digits + 5):
        def hat(s, c):
            return s ** (r - 1) / (s**r + c)

        def f(w):
            s = mp.mpc(0, w)
            return mp.re(hat(s, a) * mp.conj(hat(s, b)))

        cuts = sorted({mp.mpf(a) ** (1 / r), mp.mpf(b) ** (1 / r), 1, 10})
        return float(mp.quad(f, [0, *cuts, mp.inf]) / mp.pi)


@pytest.fixture(scope="session")
def resolvent_gram_oracle():
    return oracle_resolvent_gram


def oracle_stationary_variance(rho: float, mu: float, lam: float,
                               digits: int = 15) -> float:
    """sigma^2 = ||G||^2 for the mean kernel of a Gamma(mu, rate lam) law,
    whose Laplace transform is s^(rho-1) E[1/(s^rho + alpha)] =
    s^(rho-1) lam e^b E_mu(b), b = lam s^rho (_exp_e, at the precision that
    oracle_gml_integral gives it).  The integrand grows like w^(2 rho mu - 2)
    near w = 0, integrable exactly when mu > 1/(2 rho)."""
    r, m, L = mp.mpf(rho), mp.mpf(mu), mp.mpf(lam)

    def transform(s):
        b = L * s**r
        with mp.extradps(int(mu * math.log10(1.0 + float(abs(b))))):
            return s ** (r - 1) * L * _exp_e(m, b)

    return _plancherel(transform, digits)


@pytest.fixture(scope="session")
def stationary_variance_oracle():
    return oracle_stationary_variance


def oracle_stationary_variance_ray(rho: float, mu: float, lam: float,
                                   digits: int = 30) -> float:
    """sigma^2 by its ray identity, at digits digits: with g(r) = <s_1, s_r>,
    sigma^2 = 2 lam^(1/rho) Gamma(2 mu - 1/rho)/Gamma(mu)^2
    int_0^1 g(r) r^(mu-1) (1 + r)^(1/rho - 2 mu) dr, and g(r) the Plancherel
    closed form Re (e^(e L2) - e^(e L1)) / (rho sin(pi e) (e^L2 - e^L1)),
    e = 1 - 1/rho, L1 = -i pi rho/2, L2 = log r + i pi rho/2 (rho != 1).
    It takes r = v^(1/p), p = min(mu + min(e, 0), 1), where the integrand
    is bounded, in multiprecision, so nothing underflows near r = 0.  It
    referees the double-precision evaluation of the identity, whose closed
    form the Plancherel oracles check."""
    with mp.workdps(digits + 10):
        r, m, L = mp.mpf(rho), mp.mpf(mu), mp.mpf(lam)
        e = 1 - 1 / r
        p = min(m + min(e, 0), 1)
        L1 = mp.mpc(0, -mp.pi * r / 2)

        def f(v):
            x = v ** (1 / p)
            L2 = mp.log(x) + mp.mpc(0, mp.pi * r / 2)
            g = (mp.exp(e * L2) - mp.exp(e * L1)) / (r * mp.sin(mp.pi * e)
                                                    * (mp.exp(L2) - mp.exp(L1)))
            return mp.re(g) * v ** (m / p - 1) * (1 + x) ** (1 / r - 2 * m) / p

        scale = 2 * L ** (1 / r) * mp.gamma(2 * m - 1 / r) / mp.gamma(m) ** 2
        return float(scale * mp.quad(f, [0, mp.mpf(2) ** -p, 1]))


@pytest.fixture(scope="session")
def stationary_variance_ray_oracle():
    return oracle_stationary_variance_ray


def oracle_exact_gaussian(kernel, times, n_paths: int, seed: int):
    """Exact Gaussian samples of the convolution process X(t) = integral of
    K(t - u) dW(u) over [0, t] at times (times[0] = 0): the oracle against
    increment quadrature.  Returns (values, variances), values of shape
    (n_paths, len(times)) with column 0 zero, and variances the diagonal of
    the covariance.

    The grid covariance C(s, t) = integral of K(t-u) K(s-u) over [0, min(s, t)]
    is built by QUADPACK, independent of the library's panel integrator, and
    its symmetric square root (diagonal jitter escalated from 1e-12 on
    indefiniteness) maps the (seed, "exact") normal rows of fracou._rng.
    Cost is quadratic in the grid, so keep grids short.
    """
    from scipy import integrate

    from fracou import _rng

    n = len(times)
    cov = np.zeros((n, n))
    for i in range(1, n):
        for j in range(i, n):
            s, t = times[i], times[j]
            val, _ = integrate.quad(lambda v: kernel(t - s + v) * kernel(v),
                                    0.0, s, epsabs=1e-12, epsrel=1e-12,
                                    limit=200)
            cov[i, j] = cov[j, i] = val
    scale = float(np.max(np.diag(cov)))
    root = np.zeros((n, n))
    if scale > 0.0:
        jitter = 1e-12
        for _ in range(8):
            w, vecs = np.linalg.eigh(cov + jitter * scale * np.eye(n))
            if w.min() >= -1e-10 * scale:
                break
            jitter *= 10.0
        else:
            raise RuntimeError("covariance square root failed despite jitter")
        root = vecs * np.sqrt(np.clip(w, 0.0, None))
    values = _rng.normal_rows(seed, ("exact",), n_paths, n) @ root.T
    values[:, 0] = 0.0
    return values, np.diag(cov)


@pytest.fixture(scope="session")
def exact_gaussian_oracle():
    return oracle_exact_gaussian


def child_env(threads: str) -> dict:
    """The whole environment of a `python -m fracou.cli` child process.

    Only PATH, FRACOU_THREADS and the directory that holds the imported
    fracou package are set, so reruns that differ in FRACOU_THREADS differ in
    nothing else.  The import path comes from the package itself, which works
    for a source checkout (``PYTHONPATH=src``) and an installed copy alike.
    """
    import fracou

    return {"PATH": "/usr/bin:/bin", "FRACOU_THREADS": threads,
            "PYTHONPATH": os.path.dirname(os.path.dirname(fracou.__file__))}


@pytest.fixture(scope="session")
def cli_env():
    return child_env
