#!/usr/bin/env python3
"""Build every cold special-function table over a fixed grid and print a
digest of each.

The tables are the regime thresholds, the series band terms (bands -1 to 8,
without and with a Pochhammer factor), the gap interpolant's coefficients and
estimate, the asymptotic coefficients and the mixing panels' coefficients and
estimates (panels -4 to 4, scales 2^-13 to 8 16^5, which covers the cauchy
checks' 1000^1.9), and the near-zero mixing integral's values, estimates,
methods and term counts at 8 scales from 1e-12 to 2^-13, at every rho of the
grid and beta in {1, rho}.  A last line per
(rho, beta) digests one-point calls: E_{rho,beta}(-x) at each x of a grid
from 0 to 1e4 (series, gap and asymptotic regimes) evaluated alone, and the
rate means of the empirical kernel that read E_{rho,beta} (p = 0 reads
beta = 1, p = 1 beta = rho) for 4 fixed rates, one lag at a time, so that a
change moving a lone point's bits shows against a parent checkout even if it
moves its batch's bits alike.  Each line names a
table and prints the first 16 hex digits of the sha256 of its bits, or the
name of the error its build raised.  Two checkouts build bit-identical
tables exactly when they print the same lines:

    PYTHONPATH=src python scripts/table_digests.py [rho ...]

The optional orders replace the default grid.
"""

import hashlib
import sys

import numpy as np

from fracou import kernels as kn
from fracou import special_functions as sf
from fracou.errors import AccuracyError, DomainError

RHOS = (0.5, 0.8, 1.05, 1.2, 1.5, 1.9, 1.95, 2.0)
BANDS = range(-1, 9)
NUS = (None, 4.0)
MUS = (4.0, 0.4)
PANELS = range(-4, 5)
NEAR = np.geomspace(1e-12, 2.0**-13, 8)
ONE_POINT = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 57)])
RATES = np.array([0.3, 1.0, 2.5, 7.0])


def digest(build) -> str:
    """sha256 prefix of the floats build() returns, or its error's name."""
    try:
        parts = build()
    except (AccuracyError, DomainError) as exc:
        return type(exc).__name__
    data = b"".join(np.asarray(p, dtype=float).tobytes() for p in parts)
    return hashlib.sha256(data).hexdigest()[:16]


def cheb(table) -> tuple:
    """A Chebyshev table's coefficients and estimate."""
    return table.coef, [table.est]


def one_point(rho: float, beta: float) -> list:
    """_evaluate_many's four outputs at each ONE_POINT x alone, then
    _rate_means at each p whose series reads beta, one lag at a time, at
    the lags where the largest rate's argument is the ONE_POINT x."""
    parts = [p for x in ONE_POINT for p in sf._evaluate_many(rho, beta, np.array([x]))]
    lags = (ONE_POINT / RATES.max()) ** (1.0 / rho)
    for p in [p for p, b in ((0, 1.0), (1, rho)) if b == beta]:
        parts += [kn._rate_means(RATES, rho, np.array([t]), p) for t in lags]
    return parts


def tables(rho: float, beta: float):
    """(name, builder) of every table at one (rho, beta); each builder reads
    the loop variables, so it is called before the next item is drawn."""
    yield "thresholds", lambda: sf._regime_thresholds(rho, beta)
    for nu in NUS:
        for band in BANDS:
            yield f"band_terms nu={nu} band={band}", lambda: sf._band_terms(rho, beta, nu, band)
    yield "gap", lambda: cheb(sf._gap_interpolant(rho, beta))
    yield "asym_coeffs", lambda: sf._asym_coeffs(rho, beta, 50)
    for mu in MUS:
        for k in PANELS:
            yield f"panel mu={mu} k={k}", lambda: cheb(sf._mixing_panel(rho, mu, k, beta))
    for mu in MUS:
        yield f"near mu={mu}", lambda: sf._g_quadrature_many(rho, mu, 1.0, NEAR ** (1.0 / rho), beta)
    yield "one_point", lambda: one_point(rho, beta)


def main(argv: list) -> int:
    for rho in [float(a) for a in argv] or RHOS:
        for beta in dict.fromkeys((1.0, rho)):
            for name, build in tables(rho, beta):
                print(f"rho={rho} beta={beta} {name}: {digest(build)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
