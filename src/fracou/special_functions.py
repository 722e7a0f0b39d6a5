"""Mittag-Leffler family on the negative real axis, with certified accuracy.

Evaluates E_rho(-x), E_{rho,rho}(-x) and the Pochhammer-weighted series
G_rho(z) = sum_k (mu)_k z^k / Gamma(k rho + 1), plus the Gamma-mixing integral
behind G_rho.  Every public evaluation returns an a-posteriori absolute error
estimate and raises AccuracyError rather than returning an uncertified value.

Evaluation regimes per order rho (closed forms short-circuit rho = 1, 2):

* small x: compensated power series in double precision.  Certification
  fails once the largest series term makes rounding exceed 1e-10; the
  crossover is calibrated once per rho and cached.  The term count is fixed
  per power-of-two band of x (all x < 1 share one), so a value never depends
  on the batch it is evaluated in.
* large x: complete asymptotics = exponentially damped oscillatory branch
  pair (present for 1 < rho < 2) plus the reciprocal-gamma power tail with
  optimal truncation.  The power tail alone is wrong by the size of the
  oscillatory part for 1 < rho < 2, which decays like exp(cos(pi/rho) x^(1/rho))
  and dominates far beyond the first few hundred x when rho is near 2.
* in between: neither path certifies 1e-10 in double precision.  A per-rho
  Chebyshev interpolant in log x, built from an adaptive-precision reference
  summation, bridges the band with ~1e-12 certified error.  Each build
  shares one sweep of the series coefficients among all its nodes.

The Gamma-mixing integral past scale 8 is read from memoized Chebyshev
panels in log scale; each panel fit evaluates every distinct E_rho argument
of all its scales once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy import special as sc

from .errors import AccuracyError, DomainError

__all__ = [
    "FractionalOrder",
    "EvalResult",
    "pochhammer",
    "ml_one",
    "ml_two",
    "ml_one_deriv",
    "ml_asymptotic",
    "g_rho_series",
    "g_rho_quadrature",
    "ml_one_values",
    "ml_two_values",
]

_EPS = np.finfo(float).eps

# certified target inside the series regime; flagged failure threshold
SERIES_TARGET = 1e-10
ACCURACY_FLOOR = 1e-8
# partial sums larger than this multiple of the result flag cancellation loss
CANCEL_GUARD = 1e6
# safety factor on the first neglected term of an alternating series
TRUNC_SAFETY = 2.0


class FractionalOrder(float):
    """Exponent of the fractional integration kernel, restricted to (0, 2]."""

    def __new__(cls, rho):
        r = float(rho)
        if math.isnan(r) or not 0.0 < r <= 2.0:
            raise DomainError(f"fractional order must lie in (0, 2], got {rho!r}")
        return super().__new__(cls, r)


@dataclass(frozen=True)
class EvalResult:
    """Value plus provenance: which path produced it and how accurate it is.

    est_abs_error is an a-posteriori bound: truncation (first neglected term
    times a safety factor) plus a rounding allowance proportional to the
    summed term magnitudes.
    """

    value: float
    # "series" | "asymptotic" | "interpolant" | "closed_form" | "quadrature"
    method: str
    terms_used: int
    est_abs_error: float


def pochhammer(mu: float, k: int) -> float:
    """Rising factorial mu (mu+1) ... (mu+k-1) = Gamma(mu+k)/Gamma(mu)."""
    if mu <= 0:
        raise DomainError(f"pochhammer requires mu > 0, got {mu}")
    if k < 0 or k != int(k):
        raise DomainError(f"pochhammer requires integer k >= 0, got {k}")
    k = int(k)
    if k <= 30:
        out = 1.0
        for j in range(k):
            out *= mu + j
        return out
    return math.exp(math.lgamma(mu + k) - math.lgamma(mu))


# ---------------------------------------------------------------------------
# double-precision series core
# ---------------------------------------------------------------------------

# the first term past the hump below e^_LOG_TERM_FLOOR sets the term count
_LOG_TERM_FLOOR = -42.0
_MAX_TERMS = 1 << 17

_terms_cache: dict = {}
_cache_lock = threading.Lock()


def _band_terms(key, logc, band: int):
    """(k, log|c_k|, (-1)^k) for the terms shared by every 0 < x < 2^band.

    The terms run through the first one past the hump whose log magnitude at
    x = 2^band is below the floor, plus one; the last k only feeds the
    truncation estimate.  Memoized per (key, band), so a value never depends
    on the other points of its batch.
    """
    got = _terms_cache.get((key, band))
    if got is not None:
        return got
    logx = band * math.log(2.0)
    n = 64
    while True:
        cur = np.arange(n) * logx + logc(np.arange(n))
        down = np.flatnonzero(np.diff(cur) < 0.0)
        past = np.flatnonzero(cur[down[0] + 1:] < _LOG_TERM_FLOOR) if down.size else down
        if past.size:
            break
        if n >= _MAX_TERMS:
            raise AccuracyError(f"series {key} does not decay for x up to 2^{band}")
        n *= 2
    k = np.arange(int(down[0] + past[0]) + 4)
    got = (k, logc(k), np.where(k % 2 == 0, 1.0, -1.0))
    with _cache_lock:
        return _terms_cache.setdefault((key, band), got)


def _alt_series(key, logc, x: np.ndarray):
    """Alternating series sum_k (-1)^k exp(logc(k)) x^k for a batch of x >= 0.

    Returns (values, ests, terms_used, guard_tripped).  Every point takes the
    term count of its power-of-two band of x, all x < 1 that of x = 1.
    Terms are produced in log form per k (no recursion, so no error
    accumulation across terms) and each point sums its own terms pairwise;
    the rounding model charges each term eps times the size of its exponent.
    """
    x = np.asarray(x, dtype=float)
    values, ests = np.empty(x.size), np.empty(x.size)
    terms = np.ones(x.size, dtype=int)
    guard = np.zeros(x.size, dtype=bool)
    zero = x == 0.0
    values[zero] = math.exp(logc(0))
    ests[zero] = 2.0 * _EPS
    pos = np.flatnonzero(~zero)
    if pos.size == 0:
        return values, ests, terms, guard
    # x < 1 needs few terms, and each band costs a fixed pass: they share one
    band = np.maximum(np.frexp(x[pos])[1], 0)
    order = np.argsort(band, kind="stable")
    pos, band = pos[order], band[order]
    logx = np.log(x[pos])
    val, rnd, peak, trunc = (np.empty(pos.size) for _ in range(4))
    edges = [0, *(np.flatnonzero(np.diff(band)) + 1).tolist(), pos.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        k, lc, sign = _band_terms(key, logc, int(band[lo]))
        terms[pos[lo:hi]] = k.size - 1
        chunk = max(1, int(4e6) // k.size)  # bounds the (points x terms) intermediates
        for a in range(lo, hi, chunk):
            rows = slice(a, min(a + chunk, hi))
            expo = np.multiply.outer(logx[rows], k)
            expo += lc
            mag = np.exp(expo)
            t = mag[:, :-1] * sign[:-1]
            val[rows] = np.add.reduce(t, axis=1)
            partial = np.add.accumulate(t, axis=1)
            peak[rows] = np.maximum.reduce(np.abs(partial, out=partial), axis=1)
            weight = np.abs(expo[:, :-1])
            weight += 4.0
            weight *= mag[:, :-1]
            rnd[rows] = np.add.reduce(weight, axis=1)
            trunc[rows] = mag[:, -1]
    values[pos] = val
    ests[pos] = TRUNC_SAFETY * trunc + rnd * _EPS
    # written so that overflowed (inf or NaN) sums trip the guard too
    guard[pos] = ~(peak <= CANCEL_GUARD * np.maximum(np.abs(val), 1e-300))
    return values, ests, terms, guard


def _series_many(rho: float, beta: float, x: np.ndarray):
    """sum_k (-x)^k / Gamma(rho k + beta) for x >= 0; see _alt_series."""
    return _alt_series(("E", rho, beta), lambda k: -sc.gammaln(rho * k + beta), x)


# ---------------------------------------------------------------------------
# complete large-x asymptotics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _asym_coeffs(rho: float, beta: float, m_cap: int = 50) -> np.ndarray:
    # reciprocal gamma vanishes at its poles, which silently removes the
    # coefficients that must drop out (all of them for rho = 1)
    k = np.arange(1, m_cap + 1)
    return np.where(k % 2 == 1, 1.0, -1.0) * sc.rgamma(beta - k * rho)


def _osc_many(rho: float, beta: float, x: np.ndarray):
    """Conjugate branch pair (2/rho) Re[w^(1-beta) e^w], w = x^(1/rho) e^(i pi/rho).

    Exponentially damped oscillation present only for 1 < rho < 2; zero
    otherwise on the negative axis.
    """
    if not 1.0 < rho < 2.0:
        return np.zeros_like(x), np.zeros_like(x)
    X = x ** (1.0 / rho)
    w = X * complex(math.cos(math.pi / rho), math.sin(math.pi / rho))
    vals = (2.0 / rho) * (w ** (1.0 - beta) * np.exp(w)).real
    envelope = (2.0 / rho) * np.abs(w ** (1.0 - beta)) * np.exp(w.real)
    return vals, envelope * (X + 4.0) * _EPS


@lru_cache(maxsize=256)
def _asym_envelope(rho: float, beta: float, m_cap: int = 50) -> np.ndarray:
    # coefficient magnitudes bounded via the reflection formula:
    # |1/Gamma(beta - k rho)| <= Gamma(k rho - beta + 1) / pi.  The realized
    # coefficients can sit near Gamma poles and be anomalously small, so
    # truncation decisions and remainder estimates must use this envelope,
    # not the realized terms.
    k = np.arange(1, m_cap + 1)
    return np.exp(sc.gammaln(k * rho - beta + 1.0)) / math.pi


# rows per pass of _asym_many: keeps its (rows x 50) temporaries in cache
_ASYM_BLOCK = 2048


def _asym_many(rho: float, beta: float, x: np.ndarray):
    """Optimally truncated power tail plus oscillatory branch term.

    Rows are worked through in blocks of _ASYM_BLOCK with per-row
    operations only, so a value does not depend on its block.
    """
    x = np.asarray(x, dtype=float)
    coeff = _asym_coeffs(rho, beta)
    env = _asym_envelope(rho, beta)
    m_cap = coeff.size
    k = np.arange(1, m_cap + 1)
    vals, ests = np.empty(x.size), np.empty(x.size)
    stop = np.empty(x.size, dtype=int)
    for a in range(0, x.size, _ASYM_BLOCK):
        rows = slice(a, a + _ASYM_BLOCK)
        xb = x[rows]
        with np.errstate(divide="ignore"):
            logx = np.log(xb)
        t = coeff[None, :] * np.exp(-k[None, :] * logx[:, None])
        env_t = env[None, :] * np.exp(-k[None, :] * logx[:, None])
        # envelope magnitudes are log-convex in k: truncate at their argmin
        cut = np.argmin(env_t, axis=1)  # first excluded column
        keep = np.arange(m_cap)[None, :] < cut[:, None]
        env_omitted = env_t[np.arange(xb.size), cut]
        osc, osc_round = _osc_many(rho, beta, xb)
        vals[rows] = np.add.reduce(np.where(keep, t, 0.0), axis=1) + osc
        ests[rows] = (
            4.0 * env_omitted
            + np.add.reduce(np.where(keep, np.abs(t), 0.0), axis=1) * 16.0 * _EPS
            + osc_round)
        stop[rows] = cut
    return vals, ests, stop


# ---------------------------------------------------------------------------
# adaptive-precision reference values and the bridging interpolant
# ---------------------------------------------------------------------------


def _hp_values(rho: float, beta: float, xs: np.ndarray) -> np.ndarray:
    """Reference summations of sum_k (-x)^k / Gamma(rho k + beta) at each x.

    An x with term hump X = x^(1/rho) needs 30 + 0.45 X digits.  The
    coefficients 1/Gamma(rho k + beta) are shared by every x, so they are
    computed once, at the precision of the largest x; each x then sums with
    a running power and stops by its own rule (k > X and a term below
    10^-(digits - 4) of the partial sum).
    """
    humps = [float(x) ** (1.0 / rho) for x in xs]
    out = np.empty(len(humps))
    with mp.workdps(30 + int(0.45 * max(humps))):
        r, b = mp.mpf(rho), mp.mpf(beta)
        coef = []
        for i, (x, X) in enumerate(zip(xs, humps)):
            z = -mp.mpf(float(x))
            tiny = mp.mpf(10) ** (-(30 + int(0.45 * X)) + 4)
            s, power, kk = mp.mpf(0), mp.mpf(1), 0
            while True:
                if kk == len(coef):
                    coef.append(1 / mp.gamma(r * kk + b))
                t = power * coef[kk]
                s += t
                if kk > X and abs(t) < tiny * max(1, abs(s)):
                    break
                kk += 1
                if kk > 200000:
                    raise AccuracyError("reference series did not converge")
                power *= z
            out[i] = float(s)
    return out


class _ChebLog:
    """Chebyshev interpolant in log x over [e^lo, e^hi] and its certified error.

    f maps an array of x to reference values; it is sampled at the n
    first-kind Chebyshev nodes.  est is set by the builder once the fit has
    been checked against the reference at nodes it was not fitted on.
    """

    def __init__(self, f, lo: float, hi: float, n: int):
        self.lo = lo
        self.hi = hi
        nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        self.coef = np.polynomial.chebyshev.chebfit(nodes, f(self.points(nodes)), n - 1)
        self.est = 0.0

    def points(self, u: np.ndarray) -> np.ndarray:
        """Map u in [-1, 1] to x."""
        return np.exp(0.5 * (u * (self.hi - self.lo) + self.hi + self.lo))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        xi = (2.0 * np.log(x) - (self.lo + self.hi)) / (self.hi - self.lo)
        return np.polynomial.chebyshev.chebval(xi, self.coef)


_threshold_cache: dict = {}
_interp_cache: dict = {}


def _regime_thresholds(rho: float, beta: float):
    """(largest series-certified x, smallest asymptotic-certified x)."""
    key = (rho, beta)
    got = _threshold_cache.get(key)
    if got is not None:
        return got
    X = np.geomspace(0.5, 60.0, 200)
    xs = X**rho
    _, s_est, _, s_guard = _series_many(rho, beta, xs)
    ok = (s_est <= SERIES_TARGET) & ~s_guard
    bad = np.nonzero(~ok)[0]
    x_series = float(xs[-1] * 1e6) if bad.size == 0 else float(xs[bad[0] - 1]) if bad[0] > 0 else 1.0
    _, a_est, _ = _asym_many(rho, beta, xs)
    good_from = xs.size
    for i in range(xs.size - 1, -1, -1):
        if a_est[i] <= SERIES_TARGET:
            good_from = i
        else:
            break
    x_asym = float(xs[good_from]) if good_from < xs.size else float("inf")
    with _cache_lock:
        return _threshold_cache.setdefault(key, (x_series, x_asym))


def _gap_interpolant(rho: float, beta: float) -> _ChebLog:
    key = (rho, beta)
    got = _interp_cache.get(key)
    if got is not None:
        return got
    x_series, x_asym = _regime_thresholds(rho, beta)
    if not np.isfinite(x_asym):
        raise AccuracyError(
            f"no certified large-x regime found for rho={rho}, beta={beta}")
    lo, hi = math.log(x_series * 0.995), math.log(x_asym * 1.005)

    n = 65
    while True:
        interp = _ChebLog(lambda xs: _hp_values(rho, beta, xs), lo, hi, n)
        xc = interp.points(np.cos(np.pi * (np.arange(2 * n) + 0.5) / (2 * n)))
        err = float(np.max(np.abs(interp(xc) - _hp_values(rho, beta, xc))))
        if err <= 3e-12 or n >= 513:
            interp.est = 10.0 * err + 1e-13
            break
        n = 2 * n - 1
    with _cache_lock:
        return _interp_cache.setdefault(key, interp)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_METHODS = ("series", "asymptotic", "closed_form", "quadrature", "interpolant")


def _closed_form_many(rho: float, beta: float, x: np.ndarray):
    if rho == 1.0:
        return np.exp(-x)
    if beta == 1.0:  # E_2(-x) = cos(sqrt x)
        return np.cos(np.sqrt(x))
    root = np.sqrt(x)  # E_{2,2}(-x) = sin(sqrt x)/sqrt x
    out = np.ones_like(x)
    nz = root > 0.0
    out[nz] = np.sin(root[nz]) / root[nz]
    return out


def _evaluate_many(rho: float, beta: float, x: np.ndarray):
    """Full-regime batch evaluation.

    Returns (values, ests, method codes, terms_used); method codes index
    _METHODS.
    """
    rho = FractionalOrder(rho)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if np.any(~np.isfinite(x)) or np.any(x < 0.0):
        raise DomainError("arguments must be finite and satisfy x >= 0")
    values = np.empty(x.shape)
    ests = np.zeros(x.shape)
    methods = np.zeros(x.shape, dtype=np.int8)
    terms = np.zeros(x.shape, dtype=int)
    if x.size == 0:
        return values, ests, methods, terms

    if rho in (1.0, 2.0):
        values[:] = _closed_form_many(rho, beta, x)
        ests[:] = 4.0 * _EPS * (1.0 + np.abs(values)) * (1.0 + np.sqrt(np.abs(x)))
        methods[:] = _METHODS.index("closed_form")
        return values, ests, methods, terms

    x_series, x_asym = _regime_thresholds(rho, beta)
    small = x <= x_series
    large = x >= x_asym
    mid = ~(small | large)

    if small.any():
        v, e, t, _ = _series_many(rho, beta, x[small])
        values[small], ests[small], terms[small] = v, e, t
        methods[small] = _METHODS.index("series")
    if large.any():
        v, e, t = _asym_many(rho, beta, x[large])
        values[large], ests[large], terms[large] = v, e, t
        methods[large] = _METHODS.index("asymptotic")
    if mid.any():
        interp = _gap_interpolant(rho, beta)
        values[mid] = interp(x[mid])
        ests[mid] = interp.est
        terms[mid] = interp.coef.size
        methods[mid] = _METHODS.index("interpolant")

    worst = float(ests.max())
    if worst > ACCURACY_FLOOR:
        raise AccuracyError(
            f"no path certifies {ACCURACY_FLOOR:g} (best {worst:.2e}) "
            f"for rho={float(rho)}", est_abs_error=worst)
    return values, ests, methods, terms


def ml_one_values(rho, x: np.ndarray) -> np.ndarray:
    """Vectorized E_rho(-x); certified to the module accuracy floor."""
    return _evaluate_many(rho, 1.0, x)[0]


def ml_two_values(rho, x: np.ndarray) -> np.ndarray:
    """Vectorized E_{rho,rho}(-x); certified to the module accuracy floor."""
    return _evaluate_many(rho, float(FractionalOrder(rho)), x)[0]


def _eval_scalar(rho, beta, x) -> EvalResult:
    values, ests, methods, terms = _evaluate_many(rho, beta, np.array([x], dtype=float))
    return EvalResult(float(values[0]), _METHODS[int(methods[0])],
                      int(terms[0]), float(ests[0]))


def ml_one(rho, x: float) -> EvalResult:
    """E_rho(-x) for x >= 0, 0 < rho <= 2: ml_one_values at one point."""
    return _eval_scalar(rho, 1.0, x)


def ml_two(rho, x: float) -> EvalResult:
    """E_{rho,rho}(-x) for x >= 0, 0 < rho <= 2: ml_two_values at one point."""
    return _eval_scalar(rho, float(FractionalOrder(rho)), x)


def ml_one_deriv(rho, x: float) -> float:
    """d/dx E_rho(-x) = -(1/rho) E_{rho,rho}(-x)."""
    rho = FractionalOrder(rho)
    return -ml_two(rho, x).value / rho


def ml_asymptotic(rho: float, x: float, m: int) -> float:
    """m-term reciprocal-gamma power tail of E_rho(-x) at large x.

    This is only the algebraic part of the complete expansion; for
    1 < rho < 2 the damped-oscillation branch term (included by ml_one's
    large-x path) can dominate it over a wide range of x.
    """
    rho = float(rho)
    if not 0.0 < rho < 2.0:
        raise DomainError(f"asymptotic tail requires 0 < rho < 2, got {rho}")
    if not x > 0.0:
        raise DomainError(f"asymptotic tail requires x > 0, got {x}")
    if m < 1 or m != int(m):
        raise DomainError(f"m must be a positive integer, got {m}")
    k = np.arange(1, int(m) + 1)
    signs = np.where(k % 2 == 1, 1.0, -1.0)
    return float(np.sum(signs * sc.rgamma(1.0 - k * rho) * x ** (-k.astype(float))))


# ---------------------------------------------------------------------------
# the Pochhammer-weighted series G_rho and its mixing-integral counterpart
# ---------------------------------------------------------------------------


def _g_series_many(rho: float, mu: float, z: np.ndarray):
    """G_rho(z) batch for z <= 0, rho > 1; see _alt_series."""
    return _alt_series(
        ("G", rho, mu),
        lambda k: sc.gammaln(mu + k) - sc.gammaln(mu) - sc.gammaln(rho * k + 1.0),
        np.abs(np.asarray(z, dtype=float)))


def g_rho_series(rho: float, mu: float, z: float) -> EvalResult:
    """Direct summation of G_rho(z); entire only for rho > 1.

    Raises AccuracyError when intermediate partial sums exceed the
    cancellation guard; callers should fall back to g_rho_quadrature.
    """
    rho = float(rho)
    if not rho > 1.0:
        raise DomainError(f"series path requires rho > 1, got {rho}")
    if mu <= 0:
        raise DomainError(f"mu must be positive, got {mu}")
    if z > 0.0 or not np.isfinite(z):
        raise DomainError(f"series path requires z <= 0, got {z}")
    values, ests, terms, guard = _g_series_many(rho, mu, np.array([z]))
    if guard[0]:
        raise AccuracyError(
            f"cancellation guard tripped for G_rho at z={z}; "
            "use g_rho_quadrature", est_abs_error=float(ests[0]))
    return EvalResult(float(values[0]), "series", int(terms[0]), float(ests[0]))


@lru_cache(maxsize=64)
def _laguerre_rule(order: int, mu: float):
    nodes, weights = sc.roots_genlaguerre(order, mu - 1.0)
    return nodes, weights / math.gamma(mu)


@lru_cache(maxsize=8)
def _legendre_rule(order: int = 8):
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(edges: np.ndarray):
    """Composite Gauss-Legendre nodes/weights over consecutive panel edges."""
    xg, wg = _legendre_rule()
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _mixing_pieces(rho: float, mu: float, scale: float, refine: int):
    """Quadrature plan of the mixing integral at one scale > 8.

    Returns (strip value, strip and tail estimate, [(z_nodes, z_weights)]):
    the integrand's E_rho(-z scale) factor is left to the caller, who
    evaluates it for many scales at once.  The Gauss-Laguerre rule breaks
    down here: for 1 < rho < 2 the integrand oscillates with phase
    sin(pi/rho) (z scale)^(1/rho), far too fast for any practical fixed
    order, and for mu < 1 the dominant mass sits in a boundary layer
    z ~ 1/scale below the smallest node.  Instead:

    * an analytic two-term strip over z in [0, eps/scale];
    * for rho > 1, panels in s = (z scale)^(1/rho), where the phase is
      exactly linear in s, sized to a fixed phase step per panel, up to the
      point where the exp(cos(pi/rho) s) damping has killed the oscillation;
    * log-spaced panels in z over the remaining smooth power-tail region.
    """
    z_cut = mu + 50.0
    eps_arg = 1e-4
    z0 = min(eps_arg / scale, z_cut)
    gm = math.gamma(mu)
    # strip: E(-w) = 1 - w/Gamma(rho+1) + O(w^2), e^-z = 1 + O(z)
    total = (z0**mu / mu - (scale / math.gamma(rho + 1.0) + 1.0)
             * z0 ** (mu + 1.0) / (mu + 1.0)) / gm
    est = (z0**mu) * 2e-8 / gm
    pieces = []
    z_b = z0
    if rho > 1.0:
        aa = math.cos(math.pi / rho)
        bb = math.sin(math.pi / rho)
        s_damp = 30.0 / abs(aa) if aa != 0.0 else float("inf")
        s_top = min(s_damp, (z_cut * scale) ** (1.0 / rho))
        s0 = eps_arg ** (1.0 / rho)
        if s_top > s0:
            # graded log panels resolve the weight near s0, then fixed
            # phase-step panels carry the oscillation
            s_knee = min(1.0, s_top)
            edges = [np.geomspace(s0, s_knee, 8 * refine + 1)]
            if s_top > s_knee:
                n_ph = max(4, int(math.ceil(bb * (s_top - s_knee) / 1.5)) * refine)
                edges.append(np.linspace(s_knee, s_top, n_ph + 1)[1:])
            s_edges = np.concatenate(edges)
            s_nodes, s_weights = _panel_nodes(s_edges)
            z_nodes = s_nodes**rho / scale
            z_weights = s_weights * rho * s_nodes ** (rho - 1.0) / scale
            pieces.append((z_nodes, z_weights))
            z_b = s_top**rho / scale
    if z_b < z_cut:
        n_log = max(24, int(6.0 * math.log(z_cut / z_b))) * refine
        edges = np.geomspace(z_b, z_cut, n_log + 1)
        pieces.append(_panel_nodes(edges))
    # truncated far tail, |E| bounded by a small constant
    est += 1.3 * float(sc.gammaincc(mu, z_cut))
    return total, est, pieces


def _mixing_integrals(rho: float, mu: float, ws, refine: int) -> np.ndarray:
    """(value, est) rows of the integral over z of z^(mu-1) e^-z E_rho(-z w)
    / Gamma(mu) at each scale w > 8.

    The E_rho arguments of all scales are evaluated in one call, each
    distinct one once; values do not depend on their batch, so every row has
    the bits of its scale integrated alone.
    """
    plans = [(float(w), *_mixing_pieces(rho, mu, float(w), refine)) for w in ws]
    args = [z * w for w, _, _, pieces in plans for z, _ in pieces]
    uniq, inverse = np.unique(np.concatenate(args), return_inverse=True)
    vals = ml_one_values(rho, uniq)[inverse]
    gm = math.gamma(mu)
    out = np.empty((len(plans), 2))
    at = 0
    for i, (_, total, est, pieces) in enumerate(plans):
        for z_nodes, z_weights in pieces:
            piece = vals[at:at + z_nodes.size]
            at += z_nodes.size
            total += float(np.sum(z_weights * z_nodes ** (mu - 1.0)
                                  * np.exp(-z_nodes) * piece)) / gm
        out[i] = total, est
    return out


# Panel k of the mixing integral covers scale in [8 * 16^k, 8 * 16^(k+1)).
# Panels are fixed, so a value depends only on (rho, mu, scale), never on
# which arguments were requested earlier in the process.
_PANEL_BASE = 8.0
_PANEL_RATIO = 16.0
_PANEL_TOL = 3e-11
_PANEL_MAX_NODES = 513

_panel_cache: dict = {}


def _mixing_panel(rho: float, mu: float, k: int) -> _ChebLog:
    """Certified interpolant of the mixing integral over panel k.

    Fitted to the refine-2 panel quadrature and checked at staggered nodes.
    The estimate adds the node quadrature's own error, 3 |refine2 - refine1|
    plus its floor, to ten times the interpolation check error.
    """
    key = (rho, mu, k)
    got = _panel_cache.get(key)
    if got is not None:
        return got
    lo = math.log(_PANEL_BASE) + k * math.log(_PANEL_RATIO)
    hi = lo + math.log(_PANEL_RATIO)

    n = 17
    while True:
        panel = _ChebLog(lambda ws: _mixing_integrals(rho, mu, ws, 2)[:, 0],
                         lo, hi, n)
        wc = panel.points(np.cos(np.pi * np.arange(1, n) / n))  # staggered
        fine = _mixing_integrals(rho, mu, wc, 2)
        err = float(np.max(np.abs(panel(wc) - fine[:, 0])))
        if err <= _PANEL_TOL or n >= _PANEL_MAX_NODES:
            break
        n = 2 * n - 1
    coarse = _mixing_integrals(rho, mu, wc, 1)[:, 0]
    node_err = float(np.max(3.0 * np.abs(fine[:, 0] - coarse) + fine[:, 1]))
    panel.est = 10.0 * err + node_err + 1e-12
    with _cache_lock:
        return _panel_cache.setdefault(key, panel)


def _g_quadrature_many(rho, mu: float, lam: float, t: np.ndarray):
    """Gamma-mixing integral of E_rho(-y t^rho) against the Gamma(mu, lam)
    density: G_rho(-t^rho/lam).  Valid for every rho in (0, 2].

    Small t^rho/lam goes through generalized Gauss-Laguerre after z = lam y
    with an order-halving error estimate; larger arguments are read from the
    certified log-scale panels of the oscillation-resolving panel scheme.
    """
    t = np.asarray(t, dtype=float)
    scale = t**float(rho) / lam
    values = np.empty(t.shape)
    ests = np.zeros(t.shape)
    values[scale == 0.0] = 1.0

    small = (scale > 0.0) & (scale <= _PANEL_BASE)
    if small.any():
        s = scale[small]
        ref = None
        for n in (64, 128):
            nodes, weights = _laguerre_rule(n, mu)
            args = nodes[None, :] * s[:, None]
            ev = ml_one_values(rho, args.ravel()).reshape(args.shape)
            q = np.add.reduce(ev * weights, axis=1)  # row by row: batch-free bits
            if ref is None:
                ref = q
        values[small] = q
        ests[small] = 3.0 * np.abs(q - ref) + 1e-15 * (1.0 + np.abs(q))

    big = scale > _PANEL_BASE
    if big.any():
        panel_of = np.full(t.shape, -1.0)
        panel_of[big] = np.floor(np.log(scale[big] / _PANEL_BASE)
                                 / math.log(_PANEL_RATIO))
        for k in np.unique(panel_of[big]):
            sel = panel_of == k
            panel = _mixing_panel(float(rho), float(mu), int(k))
            values[sel] = panel(scale[sel])
            ests[sel] = panel.est
    return values, ests


def g_rho_quadrature(rho, mu: float, lam: float, t: float) -> EvalResult:
    """G_rho(-t^rho/lam) as the mixing integral; works for all rho in (0, 2]."""
    rho = FractionalOrder(rho)
    if mu <= 0 or lam <= 0:
        raise DomainError(f"mixing parameters must be positive, got mu={mu}, lam={lam}")
    if not np.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    values, ests = _g_quadrature_many(rho, mu, lam, np.array([t]))
    if float(ests[0]) > 1e-7:
        raise AccuracyError(
            f"order-doubling disagreement {float(ests[0]):.2e} exceeds 1e-7 "
            f"at t={t}", est_abs_error=float(ests[0]))
    return EvalResult(float(values[0]), "quadrature", 128, float(ests[0]))
