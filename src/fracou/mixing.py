"""Gamma law of the random mean-reversion rates: sampling and moments.

The rate parameterization matches the density
f(x | mu, lam) = lam exp(-lam x) (lam x)^(mu-1) / Gamma(mu), so the mean is
mu/lam.  lam acts as a rate even where prose elsewhere calls it a scale; the
density is what everything downstream integrates against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .errors import DomainError
from .special_functions import FractionalOrder, pochhammer

__all__ = [
    "GammaMixing",
    "sample_alphas",
    "moment_int",
    "moment_frac",
    "check_condition",
]


@dataclass(frozen=True)
class GammaMixing:
    """Shape mu > 0 and rate lam > 0 of the mixing distribution."""

    mu: float
    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise DomainError(f"shape mu must be positive, got {self.mu}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise DomainError(f"rate lam must be positive, got {self.lam}")


def sample_alphas(params: GammaMixing, n: int, seed: int) -> np.ndarray:
    """n i.i.d. Gamma(mu, rate lam) draws, deterministic in (params, n, seed).

    Inverse-CDF transform of blocked counter-based uniforms: draw i depends
    only on (seed, i), so results are independent of chunking,
    and the first k draws of a size-n sample equal a size-k sample.
    scipy.special is imported at the first draw, not with the package.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"n must be a positive integer, got {n}")
    from scipy import special as sc

    u = _rng.uniforms(seed, ("alphas", params.mu, params.lam), 0, int(n))
    alphas = sc.gammaincinv(params.mu, u) / params.lam
    # gammaincinv can round to 0 for subnormal-tail uniforms
    return np.maximum(alphas, np.finfo(float).tiny)


def moment_int(params: GammaMixing, n: int) -> float:
    """E[alpha^n] = (mu)_n / lam^n for integer n >= 0.

    Where (mu)_n or lam^n leaves the double range, moment_frac's log form
    decides, and raises DomainError if the moment itself does.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"moment order must be a nonnegative integer, got {n}")
    try:
        value = pochhammer(params.mu, int(n)) / params.lam ** int(n)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    return value if math.isfinite(value) else moment_frac(params, n)


def moment_frac(params: GammaMixing, p: float) -> float:
    """E[alpha^p] = Gamma(mu+p) / (lam^p Gamma(mu)) for any real p > -mu.

    The boundary is load-bearing: p <= -mu means the moment integral
    diverges, and callers rely on the raise to detect non-integrability.
    A moment past the largest double raises DomainError too.
    """
    p = float(p)
    if not np.isfinite(p):
        raise DomainError(f"moment order must be finite, got {p}")
    if p <= -params.mu:
        raise DomainError(
            f"E[alpha^p] diverges for p <= -mu (p={p}, mu={params.mu})")
    try:
        value = math.exp(math.lgamma(params.mu + p) - math.lgamma(params.mu)
                         - p * math.log(params.lam))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"E[alpha^{p:g}] overflows a double "
                          f"(mu={params.mu}, lam={params.lam})")
    return value


def check_condition(params: GammaMixing, rho) -> bool:
    """Admissibility of the mixing law for the long-time theory: mu > 1/(2 rho)."""
    rho = FractionalOrder(rho)
    return params.mu > 1.0 / (2.0 * rho)
