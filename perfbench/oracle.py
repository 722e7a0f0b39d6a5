"""Reference values for the benchmark's output checks.

Written against mpmath and the closed forms only, so a defect in the
library's evaluation paths cannot also hide in its own check.
"""

from __future__ import annotations

import math

import mpmath as mp


def ml(rho: float, x: float, beta: float = 1.0) -> float:
    """E_{rho,beta}(-x) for x >= 0.

    Closed forms at rho = 1 (beta = 1) and rho = 2 (beta = 1 or 2); otherwise
    the power series summed in arbitrary precision, with the working
    precision raised by the size of the largest term so that cancellation
    cannot eat the requested digits.
    """
    if rho == 1.0 and beta == 1.0:
        return math.exp(-x)
    if rho == 2.0 and beta == 1.0:
        return math.cos(math.sqrt(x))
    if rho == 2.0 and beta == 2.0:
        r = math.sqrt(x)
        return math.sin(r) / r if r > 0.0 else 1.0
    hump = x ** (1.0 / rho)
    dps = 40 + int(0.45 * hump)
    with mp.workdps(dps):
        z, r, b = -mp.mpf(x), mp.mpf(rho), mp.mpf(beta)
        tiny = mp.mpf(10) ** (-(dps - 5))
        total, k = mp.mpf(0), 0
        while True:
            term = mp.power(z, k) / mp.gamma(r * k + b)
            total += term
            if k > hump and abs(term) < tiny * max(1, abs(total)):
                return float(total)
            k += 1
            if k > 100000:
                raise RuntimeError(f"oracle series did not converge at x={x}")


def gamma_mixed_exp_variance(mu: float, lam: float, t: float) -> float:
    """Integral of G(u)^2 over [0, t] at rho = 1.

    There G(u) = E[exp(-alpha u)] = (1 + u/lam)^(-mu) for alpha ~ Gamma(mu,
    rate lam), whose square integrates in closed form.
    """
    p = 2.0 * mu - 1.0
    return lam / p * (1.0 - (1.0 + t / lam) ** (-p))
