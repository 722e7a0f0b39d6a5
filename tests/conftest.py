"""Shared test oracles, kept independent of the library's evaluation paths,
and the scrubbed environment for CLI child processes."""

import math
import os

import mpmath as mp
import pytest


def oracle_ml(rho: float, x: float, beta: float = 1.0, digits: int = 30) -> float:
    """Reference value of sum_k (-x)^k / Gamma(rho k + beta).

    Straight high-precision summation with working precision scaled to the
    largest term, so it stays trustworthy deep into the cancellation regime.
    """
    hump = x ** (1.0 / rho) if x > 0 else 0.0
    with mp.workdps(digits + 10 + int(0.45 * hump)):
        z = -mp.mpf(x)
        r, b = mp.mpf(rho), mp.mpf(beta)
        total = mp.mpf(0)
        k = 0
        tiny = mp.mpf(10) ** (-(digits + 10))
        while True:
            term = mp.power(z, k) / mp.gamma(r * k + b)
            total += term
            if k > hump and abs(term) < tiny * max(1, abs(total)):
                return float(total)
            k += 1
            if k > 100000:
                raise RuntimeError("oracle did not converge")


@pytest.fixture(scope="session")
def ml_oracle():
    return oracle_ml


def oracle_gml(rho: float, mu: float, w: float, beta: float = 1.0,
               digits: int = 30) -> float:
    """Reference value of sum_k (mu)_k (-w)^k / Gamma(rho k + beta), which is
    G_rho(-w) at beta = 1.

    The working precision covers the largest term, located in double
    precision from log-gamma, so the cancelling sum keeps `digits` digits.
    rho k + beta is formed in mpmath: rounded to a double first, it would
    carry an error that the cancellation amplifies far past the result.
    """
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
