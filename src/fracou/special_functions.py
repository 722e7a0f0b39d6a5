"""Mittag-Leffler family on the negative real axis, with certified accuracy.

Evaluates E_rho(-x), E_{rho,rho}(-x) and the Pochhammer-weighted series
G_rho(z) = sum_k (mu)_k z^k / Gamma(k rho + 1), plus the Gamma-mixing integral
behind G_rho.  Every public evaluation returns an a-posteriori absolute error
estimate and raises AccuracyError rather than returning an uncertified value.

Evaluation regimes per order rho (closed forms short-circuit rho = 1, 2):

* small x: compensated power series in double precision.  Certification
  fails once the largest series term makes rounding exceed 1e-10; the
  crossover is calibrated once per rho and cached.
* large x: complete asymptotics = exponentially damped oscillatory branch
  pair (present for 1 < rho < 2) plus the reciprocal-gamma power tail with
  optimal truncation.  The power tail alone is wrong by the size of the
  oscillatory part for 1 < rho < 2, which decays like exp(cos(pi/rho) x^(1/rho))
  and dominates far beyond the first few hundred x when rho is near 2.
* in between: neither path certifies 1e-10 in double precision.  A per-rho
  Chebyshev interpolant in log x, built from an adaptive-precision reference
  summation, bridges the band with ~1e-12 certified error.
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


def _series_kmax(rho: float, beta: float, xmax: float) -> int:
    """Smallest k past the term hump with log|term| < -42 at xmax."""
    if xmax <= 0.0:
        return 4
    logx = math.log(xmax)
    k, hump_passed = 1, False
    prev = -math.lgamma(beta)
    while k < 100000:
        cur = k * logx - math.lgamma(rho * k + beta)
        if cur < prev:
            hump_passed = True
        if hump_passed and cur < -42.0:
            return k + 1
        prev = cur
        k += 1
    raise AccuracyError(f"series does not decay for x={xmax}, rho={rho}")


def _series_many(rho: float, beta: float, x: np.ndarray):
    """Alternating series sum_k (-x)^k / Gamma(rho k + beta) for a batch.

    Returns (values, ests, terms_used, guard_tripped).  Terms are produced in
    log form per k (no recursion, so no error accumulation across terms) and
    summed pairwise; the rounding model charges each term eps times the size
    of its exponent.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        return (np.empty(0), np.empty(0), np.empty(0, dtype=int),
                np.empty(0, dtype=bool))
    kmax = _series_kmax(rho, beta, float(x.max()))
    k = np.arange(kmax + 1)
    lg = sc.gammaln(rho * k + beta)
    sign = np.where(k % 2 == 0, 1.0, -1.0)

    values = np.empty(n)
    ests = np.empty(n)
    guard = np.zeros(n, dtype=bool)
    zero = x == 0.0
    values[zero] = math.exp(-math.lgamma(beta))
    ests[zero] = 2.0 * _EPS
    pos = np.nonzero(~zero)[0]
    # chunk to bound the (n x kmax) intermediate
    chunk = max(1, int(4e6) // (kmax + 1))
    for a in range(0, pos.size, chunk):
        idx = pos[a : a + chunk]
        logx = np.log(x[idx])
        expo = k[None, :] * logx[:, None] - lg[None, :]
        t = sign[None, :] * np.exp(expo)
        s = np.add.reduce(t, axis=1)
        partial_peak = np.max(np.abs(np.cumsum(t, axis=1)), axis=1)
        trunc = TRUNC_SAFETY * np.exp((kmax + 1) * logx - sc.gammaln(rho * (kmax + 1) + beta))
        rounding = np.add.reduce(np.abs(t) * (np.abs(expo) + 4.0), axis=1) * _EPS
        values[idx] = s
        ests[idx] = trunc + rounding
        guard[idx] = partial_peak > CANCEL_GUARD * np.maximum(np.abs(s), 1e-300)
    terms = np.full(n, kmax + 1, dtype=int)
    return values, ests, terms, guard


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


def _asym_many(rho: float, beta: float, x: np.ndarray):
    """Optimally truncated power tail plus oscillatory branch term."""
    x = np.asarray(x, dtype=float)
    coeff = _asym_coeffs(rho, beta)
    env = _asym_envelope(rho, beta)
    m_cap = coeff.size
    k = np.arange(1, m_cap + 1)
    with np.errstate(divide="ignore"):
        logx = np.log(x)
    t = coeff[None, :] * np.exp(-k[None, :] * logx[:, None])
    env_t = env[None, :] * np.exp(-k[None, :] * logx[:, None])
    # envelope magnitudes are log-convex in k: truncate at their argmin
    stop = np.argmin(env_t, axis=1)  # first excluded column
    keep = np.arange(m_cap)[None, :] < stop[:, None]
    vals = np.add.reduce(np.where(keep, t, 0.0), axis=1)
    env_omitted = env_t[np.arange(x.size), stop]
    osc, osc_round = _osc_many(rho, beta, x)
    vals = vals + osc
    ests = (4.0 * env_omitted
            + np.add.reduce(np.where(keep, np.abs(t), 0.0), axis=1) * 16.0 * _EPS
            + osc_round)
    return vals, ests, stop.astype(int)


# ---------------------------------------------------------------------------
# adaptive-precision reference values and the bridging interpolant
# ---------------------------------------------------------------------------


def _hp_value(rho: float, beta: float, x: float) -> float:
    """Reference summation with working precision scaled to the term hump."""
    X = x ** (1.0 / rho)
    dps = 30 + int(0.45 * X)
    with mp.workdps(dps):
        z = -mp.mpf(x)
        r, b = mp.mpf(rho), mp.mpf(beta)
        s = mp.mpf(0)
        tiny = mp.mpf(10) ** (-dps + 4)
        kk = 0
        while True:
            t = mp.power(z, kk) / mp.gamma(r * kk + b) if kk else 1 / mp.gamma(b)
            s += t
            if kk > X and abs(t) < tiny * max(1, abs(s)):
                break
            kk += 1
            if kk > 200000:
                raise AccuracyError("reference series did not converge")
        return float(s)


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
_cache_lock = threading.Lock()


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

    def reference(xs):
        return np.array([_hp_value(rho, beta, v) for v in xs])

    n = 65
    while True:
        interp = _ChebLog(reference, lo, hi, n)
        xc = interp.points(np.cos(np.pi * (np.arange(2 * n) + 0.5) / (2 * n)))
        err = float(np.max(np.abs(interp(xc) - reference(xc))))
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
    """E_rho(-x) for x >= 0, 0 < rho <= 2."""
    rho = FractionalOrder(rho)
    if not np.isfinite(x) or x < 0.0:
        raise DomainError(f"ml_one requires x >= 0, got {x}")
    if x == 0.0:
        return EvalResult(1.0, "series", 1, 0.0)
    return _eval_scalar(rho, 1.0, x)


def ml_two(rho, x: float) -> EvalResult:
    """E_{rho,rho}(-x) for x >= 0, 0 < rho <= 2."""
    rho = FractionalOrder(rho)
    if not np.isfinite(x) or x < 0.0:
        raise DomainError(f"ml_two requires x >= 0, got {x}")
    if x == 0.0:
        return EvalResult(1.0 / math.gamma(rho), "series", 1, 0.0)
    return _eval_scalar(rho, float(rho), x)


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
    """G_rho(z) batch for z <= 0, rho > 1; returns (values, ests, terms, guard)."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    amax = float(a.max()) if a.size else 0.0
    # locate the term count at the largest |z|
    logamax = math.log(amax) if amax > 0 else 0.0
    kmax, hump, prev = 1, False, math.lgamma(mu) - math.lgamma(mu)
    while amax > 0.0 and kmax < 200000:
        cur = (math.lgamma(mu + kmax) - math.lgamma(mu)
               - math.lgamma(rho * kmax + 1.0) + kmax * logamax)
        if cur < prev:
            hump = True
        if hump and cur < -42.0:
            break
        prev = cur
        kmax += 1
    if kmax >= 200000:
        raise AccuracyError(
            f"series for |z| up to {amax:g} needs too many terms; "
            "use the quadrature path")
    k = np.arange(kmax + 2)
    lg = sc.gammaln(mu + k) - math.lgamma(mu) - sc.gammaln(rho * k + 1.0)
    sign = np.where(k % 2 == 0, 1.0, -1.0)

    n = z.size
    values, ests = np.empty(n), np.empty(n)
    guard = np.zeros(n, dtype=bool)
    zero = a == 0.0
    values[zero] = 1.0
    ests[zero] = 2.0 * _EPS
    pos = np.nonzero(~zero)[0]
    chunk = max(1, int(4e6) // (kmax + 2))
    for i in range(0, pos.size, chunk):
        idx = pos[i : i + chunk]
        la = np.log(a[idx])
        expo = k[None, :] * la[:, None] + lg[None, :]
        t = sign[None, :] * np.exp(expo)
        s = np.add.reduce(t[:, :-1], axis=1)
        peak = np.max(np.abs(np.cumsum(t[:, :-1], axis=1)), axis=1)
        trunc = TRUNC_SAFETY * np.abs(t[:, -1])
        rounding = np.add.reduce(np.abs(t[:, :-1]) * (np.abs(expo[:, :-1]) + 4.0),
                                 axis=1) * _EPS
        values[idx] = s
        ests[idx] = trunc + rounding
        guard[idx] = peak > CANCEL_GUARD * np.maximum(np.abs(s), 1e-300)
    return values, ests, np.full(n, kmax + 1, dtype=int), guard


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
    if z == 0.0:
        return EvalResult(1.0, "series", 1, 0.0)
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


def _mixing_integral_scalar(rho: float, mu: float, scale: float,
                            refine: int = 1) -> float:
    """integral over z of z^(mu-1) e^-z E_rho(-z*scale) / Gamma(mu), scale > 8.

    The Gauss-Laguerre rule breaks down here: for 1 < rho < 2 the integrand
    oscillates with phase sin(pi/rho) (z scale)^(1/rho), far too fast for any
    practical fixed order, and for mu < 1 the dominant mass sits in a
    boundary layer z ~ 1/scale below the smallest node.  Instead:

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

    def add_piece(z_nodes, z_weights):
        vals = ml_one_values(rho, z_nodes * scale)
        return float(np.sum(z_weights * z_nodes ** (mu - 1.0)
                            * np.exp(-z_nodes) * vals)) / gm

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
            total += add_piece(z_nodes, z_weights)
            z_b = s_top**rho / scale
    if z_b < z_cut:
        n_log = max(24, int(6.0 * math.log(z_cut / z_b))) * refine
        edges = np.geomspace(z_b, z_cut, n_log + 1)
        total += add_piece(*_panel_nodes(edges))
    # truncated far tail, |E| bounded by a small constant
    est += 1.3 * float(sc.gammaincc(mu, z_cut))
    return total, est


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

    def quadrature(ws, refine):
        return np.array([_mixing_integral_scalar(rho, mu, float(w), refine)
                         for w in ws])

    n = 17
    while True:
        panel = _ChebLog(lambda ws: quadrature(ws, 2)[:, 0], lo, hi, n)
        wc = panel.points(np.cos(np.pi * np.arange(1, n) / n))  # staggered
        fine = quadrature(wc, 2)
        err = float(np.max(np.abs(panel(wc) - fine[:, 0])))
        if err <= _PANEL_TOL or n >= _PANEL_MAX_NODES:
            break
        n = 2 * n - 1
    coarse = quadrature(wc, 1)[:, 0]
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
            q = ev @ weights
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
    if t == 0.0:
        return EvalResult(1.0, "quadrature", 0, 0.0)
    values, ests = _g_quadrature_many(rho, mu, lam, np.array([t]))
    if float(ests[0]) > 1e-7:
        raise AccuracyError(
            f"order-doubling disagreement {float(ests[0]):.2e} exceeds 1e-7 "
            f"at t={t}", est_abs_error=float(ests[0]))
    return EvalResult(float(values[0]), "quadrature", 128, float(ests[0]))
