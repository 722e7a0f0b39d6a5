"""Mittag-Leffler family on the negative real axis, with certified accuracy.

Evaluates E_rho(-x), E_{rho,rho}(-x), the Pochhammer-weighted series
H_{rho,beta,nu}(w) = sum_k (nu)_k (-w)^k / Gamma(rho k + beta) (G_rho(-w) at
beta = 1) and its Gamma-mixing integral E[E_{rho,beta}(-z w)], z ~ Gamma(nu, 1).
Every public evaluation returns an a-posteriori absolute error estimate and
raises AccuracyError rather than returning an uncertified value.

Evaluation regimes per order rho (closed forms short-circuit rho = 1, 2):

* small x: Horner sum in x/2^band with a running rounding bound, in double
  precision, over coefficients (nu)_k / Gamma(rho k + beta) rounded once
  from 30 digits.  E_rho, E_{rho,rho} and every nu of one rho read one
  memoized row of 30-digit reciprocal gammas 1/Gamma(rho k + rho), since
  1/Gamma(rho k + 1) = 1/(rho k Gamma(rho (k - 1) + rho)).  Certification
  fails once the bound exceeds 1e-10 or the Horner partial sums reach 1e6
  times the value; the crossover is calibrated once per rho and cached, by
  probing one power-of-two band at a time up to the first band that fails.
  The term count and the scaled coefficients are fixed per power-of-two
  band of x (all x < 1 share one), so a value never depends on the batch
  it is evaluated in.
* large x: complete asymptotics = exponentially damped oscillatory branch
  pair (present for 1 < rho < 2) plus the reciprocal-gamma power tail,
  cut before its smallest envelope term (a breakpoint search in x) and
  summed by Horner's rule in 1/x under Higham's rounding bound.  The tail
  alone misses the oscillatory part, which decays like
  exp(cos(pi/rho) x^(1/rho)) and dominates far beyond the first few
  hundred x when rho is near 2.
* in between: neither path certifies 1e-10 in double precision.  A per-rho
  Chebyshev interpolant in log x, fitted at 33 nodes, bridges the band.  Its
  reference sums run Horner's rule in Python-integer fixed point, with
  enough fractional bits that its truncations total at most 2^-(prec + 64)
  at a working precision of prec bits, over one memoized row of reciprocal
  gammas per rho and precision, which every node of both beta reads.

The Gamma-mixing integral H is one Taylor sum of a few terms at scales up
to 2^-13 for every rho (_taylor_many bounds its remainder), and is read
above from memoized Chebyshev panels in log scale; all scales of a panel
share one quadrature rule in x = z w, which evaluates E_{rho,beta} once per
node.  At rho = 1 it is the closed form (1 + w)^(-nu).

Both tables are built by one rule (_ChebLog): fit at the n first-kind
Chebyshev nodes (from n = 33 for the gap, 17 for a panel), check against the
reference at the n - 1 interior extrema of T_n, where the interpolation
error peaks, and double n - 1 until the check error is within the table's
tolerance; est = 10 x the check error + the reference's own error + a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import mpmath as mp
import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "FractionalOrder",
    "EvalResult",
    "pochhammer",
    "ml_one",
    "ml_two",
    "g_rho_series",
    "g_rho_quadrature",
    "ml_one_values",
    "ml_two_values",
]

_EPS = np.finfo(float).eps
_TINY = float(np.finfo(float).tiny)

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

    est_abs_error is an a-posteriori bound.  On the series path it is the
    first neglected term times a safety factor plus the running rounding
    bound of the Horner sum, coefficient rounding included; the other paths
    add their own truncation and rounding allowances.
    """

    value: float
    # "series" | "asymptotic" | "interpolant" | "closed_form"
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
# points of a batch evaluated at once: every batch path (the evaluators,
# rate x lag tables, FFT row blocks, CSV text) holds its per-point
# temporaries for at most this many values
_BLOCK = 1 << 14
# terms per memoized piece of a coefficient row: a longer request extends
# the row without recomputing it, and a row holds fewer than _ROW_PIECE
# terms past the longest request
_ROW_PIECE = 16


@lru_cache(maxsize=None)
def _context(dps: int) -> mp.MPContext:
    """A private mpmath context at dps digits: no caller's working precision
    reaches the coefficients."""
    ctx = mp.MPContext()
    ctx.dps = dps
    return ctx


# the series coefficients' digits
_DIGITS = 30
_mpc = _context(_DIGITS)


@lru_cache(maxsize=None)
def _rgamma_piece(rho: float, beta: float, j: int, dps: int) -> tuple:
    """1/Gamma(rho k + beta) for _ROW_PIECE j <= k < _ROW_PIECE (j + 1), to
    dps digits.  beta = 1 reads the row R_k = 1/Gamma(rho k + rho) of
    beta = rho, as 1/Gamma(rho k + 1) = R_(k-1) / (rho k), so E_rho,
    E_{rho,rho} and every G of one rho share one row of gammas."""
    ctx = _context(dps)
    r, ks = ctx.mpf(rho), range(_ROW_PIECE * j, _ROW_PIECE * (j + 1))
    if beta == 1.0 != rho:
        row = _rgamma_piece(rho, rho, j - 1, dps)[-1:] if j else (ctx.one,)
        row += _rgamma_piece(rho, rho, j, dps)[:-1]
        return tuple(c / (r * k) if k else c for k, c in zip(ks, row))
    return tuple(ctx.rgamma(r * k + beta) for k in ks)


def _coeffs(rho: float, beta: float, nu, n: int) -> list:
    """c_k = (nu)_k / Gamma(rho k + beta) for k < n, to 30 digits; nu None
    drops the Pochhammer factor.  Every nu of one (rho, beta) reads the same
    memoized row of reciprocal gammas."""
    row = [c for j in range(-(-n // _ROW_PIECE))
           for c in _rgamma_piece(rho, beta, j, _DIGITS)][:n]
    if nu is not None:
        m, poch = _mpc.mpf(nu), _mpc.mpf(1)
        for k in range(n):
            row[k], poch = poch * row[k], poch * (m + k)
    return row


def _lgamma(a: np.ndarray) -> np.ndarray:
    """math.lgamma of each entry of a."""
    return np.fromiter(map(math.lgamma, a.tolist()), float, a.size)


@lru_cache(maxsize=_MAX_TERMS // _ROW_PIECE)
def _log_coeff_piece(rho: float, beta: float, nu, j: int) -> np.ndarray:
    """log c_k of _coeffs for _ROW_PIECE j <= k < _ROW_PIECE (j + 1)."""
    k = np.arange(_ROW_PIECE * j, _ROW_PIECE * (j + 1))
    out = -_lgamma(rho * k + beta)
    return out if nu is None else _lgamma(nu + k) - math.lgamma(nu) + out


def _log_coeffs(rho: float, beta: float, nu, k: np.ndarray) -> np.ndarray:
    """log c_k of _coeffs in double precision, from math.lgamma, for orders
    k >= 0; sets the term counts only, so the values never see its rounding.
    Each order is computed once, in memoized pieces, so a longer row (the
    next doubling in _term_count, or another band) extends the shorter."""
    n = -(-(int(k.max()) + 1) // _ROW_PIECE)
    return np.concatenate([_log_coeff_piece(rho, beta, nu, j)
                           for j in range(n)])[k]


def _term_count(rho: float, beta: float, nu, band: int) -> int:
    """Number of _band_terms: through the first term past the hump whose log
    magnitude log|c_k| + k band log 2 is below the floor, plus one."""
    logx = band * math.log(2.0)
    n = 64
    while True:
        cur = np.arange(n) * logx + _log_coeffs(rho, beta, nu, np.arange(n))
        down = np.flatnonzero(np.diff(cur) < 0.0)
        past = np.flatnonzero(cur[down[0] + 1:] < _LOG_TERM_FLOOR) if down.size else down
        if past.size:
            break
        if n >= _MAX_TERMS:
            raise AccuracyError(f"series (rho={rho}, beta={beta}, nu={nu}) "
                                f"does not decay for x up to 2^{band}")
        n *= 2
    return int(down[0] + past[0]) + 4


@lru_cache(maxsize=None)
def _band_terms(rho: float, beta: float, nu, band: int) -> tuple:
    """a_k = (-1)^k c_k 2^(band k), the term sizes at x = 2^band, for the
    _term_count terms shared by every 0 < x < 2^band; the last a_k only
    feeds the truncation estimate.  Each a_k is rounded once to double from
    its 30-digit value (an overflow gives inf).  Memoized per band, so a
    value never depends on the other points of its batch.
    """
    exact = _coeffs(rho, beta, nu, _term_count(rho, beta, nu, band))
    return tuple(_scaled(-c if k % 2 else c, band * k) for k, c in enumerate(exact))


def _scaled(c, e: int) -> float:
    """c 2^e rounded once to double: c rounded to 53 bits, then shifted
    exactly by math.ldexp while both stay normal doubles, by mpmath
    otherwise (an overflow gives inf)."""
    f = float(c)
    if abs(f) > _TINY and -1021 <= math.frexp(f)[1] + e <= 1024:
        return math.ldexp(f, e)
    return float(_mpc.ldexp(c, e))


def _alt_series(rho: float, beta: float, nu, x: np.ndarray, weights=None):
    """Alternating series sum_k (-1)^k c_k w_k x^k of _coeffs for a batch of
    x >= 0; w_k = 1 unless a row of weights is given.

    Returns (values, ests, terms_used, guard_tripped).  Every point takes the
    term count K of its power-of-two band of x, all x < 1 that of x = 1, and
    is summed by Horner's rule in u = x / 2^band, which is exact, over the
    band's scaled coefficients a_k.  The estimate is

        TRUNC_SAFETY |a_K| u^K + eps (2 mu - |s|) + eps mu,

    with mu = sum_k |s_k| u^k over the Horner partial values s_k (starting
    from |a_(K-1)|).  The second term is twice the running rounding bound of
    Horner's rule (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Alg. 5.1), which covers its second-order terms; the third
    covers the coefficients' own rounding, eps/2 sum_k |a_k| u^k, since
    |a_k| <= (1 + eps)(|s_k| + u |s_(k+1)|).  Weights (kernels._rate_means)
    scale each a_k once, and add eps sum_k (2k + 4) |a_k w_k| u^k to the
    estimate.  Each band's points are summed with elementwise operations
    only; callers hand over at most _BLOCK points at a time.
    """
    x = np.asarray(x, dtype=float)
    u, values, mu, top = (np.empty(x.size) for _ in range(4))
    rnd = 0.0 if weights is None else np.empty(x.size)
    terms = np.empty(x.size, dtype=int)
    # points are summed in band order, each band over one slice; x < 1
    # needs few terms, and each band costs a fixed pass: they share one
    band = np.maximum(np.frexp(x)[1], 0).astype(np.int16)
    order = np.argsort(band, kind="stable")  # a radix sort for int16
    x, band = x[order], band[order]
    edges = np.flatnonzero(np.diff(band, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(edges[:-1], edges[1:]):
        b = int(band[lo])
        a = _band_terms(rho, beta, nu, b)
        np.ldexp(x[lo:hi], -b, out=u[lo:hi])
        if weights is not None:
            a = np.multiply(a, weights[:len(a)])
            rnd[lo:hi] = _horner((2.0 * np.arange(a.size) + 4.0) * np.abs(a), u[lo:hi])[0]
            a = a.tolist()
        K = len(a) - 1
        terms[lo:hi], top[lo:hi] = K, a[K]
        ub, s, m = u[lo:hi], values[lo:hi], mu[lo:hi]
        s[:] = a[K - 1]
        np.abs(s, out=m)
        size = np.empty(s.size)
        for c in a[K - 2::-1]:
            s *= ub
            s += c
            m *= ub
            m += np.abs(s, out=size)
    ests = TRUNC_SAFETY * np.abs(top) * u**terms + _EPS * (3.0 * mu - np.abs(values) + rnd)
    terms[x == 0.0] = 1
    # written so that overflowed (inf or NaN) sums trip the guard too
    guard = ~((mu <= CANCEL_GUARD * np.abs(values)) & np.isfinite(mu))
    out = values, ests, terms, guard
    for v in out:
        v[order] = v.copy()
    return out


def _horner(a: np.ndarray, u: np.ndarray):
    """(s, mu) of _alt_series's Horner loop over the points u."""
    s = a[-2]
    m = abs(s)
    for c in a[-3::-1]:
        s = s * u + c
        m = m * u + abs(s)
    return s, m


def _series_many(rho: float, beta: float, x: np.ndarray):
    """sum_k (-x)^k / Gamma(rho k + beta) for x >= 0; see _alt_series."""
    return _alt_series(rho, beta, None, x)


# ---------------------------------------------------------------------------
# complete large-x asymptotics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _asym_coeffs(rho: float, beta: float, m: int):
    """(c_k, env_k) for k = 1 .. m of the power tail sum_k c_k x^-k.

    c_k = (-1)^(k+1) / Gamma(beta - k rho), the private 30-digit reciprocal
    gamma at the double beta - k rho, rounded once: it vanishes at the
    poles, which removes the coefficients that must drop out (all of them
    for rho = 1).  env_k = Gamma(k rho - beta + 1) / pi >= |c_k| by
    reflection, from math.lgamma; coefficients near Gamma poles are
    anomalously small, so truncation and remainder estimates use the
    envelope."""
    k = np.arange(1, m + 1)
    rgamma = [float(_mpc.rgamma(a)) for a in (beta - k * rho).tolist()]
    return (np.where(k % 2 == 1, 1.0, -1.0) * np.array(rgamma),
            np.exp(_lgamma(k * rho - beta + 1.0)) / math.pi)


def _power_tail(coeff: np.ndarray, x: np.ndarray, cut: np.ndarray):
    """(sum_k c_k x^-k, sum_k |c_k| x^-k) over k = 1 .. cut of each point,
    by Horner's rule in y = fl(1/x).  The points are sorted by cut, and the
    step of c_k updates in place only the suffix with cut >= k: sum(cut)
    multiply-adds, each point's in the same order whatever its batch."""
    order = np.argsort(cut, kind="stable")
    y = 1.0 / x[order]
    starts = np.searchsorted(cut[order], np.arange(1, cut.max(initial=0) + 1))
    p, m = np.zeros(x.size), np.zeros(x.size)
    for k in range(starts.size, 0, -1):
        ps, ms, ys = p[starts[k - 1]:], m[starts[k - 1]:], y[starts[k - 1]:]
        ps *= ys
        ps += coeff[k - 1]
        ms *= ys
        ms += abs(coeff[k - 1])
    p[order], m[order] = p * y, m * y
    return p, m


def _osc_many(rho: float, beta: float, x: np.ndarray):
    """Branch pair (2/rho) Re[w^(1-beta) e^w], w = X e^(i theta), X = x^(1/rho),
    theta = pi/rho, present only for 1 < rho < 2, in real arithmetic:
    (2/rho) X^(1-beta) e^(X cos theta) cos(X sin theta + (1-beta) theta).

    Returns (values, rounding bounds).  To first order in u = eps/2, X is
    off by (|log X| + 1) u relative (fl(1/rho), pow), theta by 2u, and the
    exponent plus the phase by X u (1.42 |log X| + 15.6) + u (2 |log X| +
    10.1) at most: within (X + 1)(|log X| + 8) eps of the envelope."""
    if not 1.0 < rho < 2.0:
        return np.zeros_like(x), np.zeros_like(x)
    theta = math.pi / rho
    X = x ** (1.0 / rho)
    log_X = np.log(X)
    envelope = (2.0 / rho) * np.exp(X * math.cos(theta) + (1.0 - beta) * log_X)
    vals = envelope * np.cos(X * math.sin(theta) + (1.0 - beta) * theta)
    return vals, envelope * (X + 1.0) * (np.abs(log_X) + 8.0) * _EPS


def _asym_many(rho: float, beta: float, x: np.ndarray):
    """Optimally truncated power tail plus branch pair at x > 0, with
    (values, ests, cut).  env_k x^-k is log-convex in k, so its argmin over
    k < 50, the first omitted term cut, counts the ratios env_(k+1)/env_k
    below x.

    ests = 4 env_cut x^-(cut+1) + (3 cut + 2) eps S + the branch pair's
    bound, S = sum_k |c_k| x^-k.  With u = eps/2, Horner's rule is off by at
    most gamma_(2 cut) S (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 5.1) and fl(1/x) by gamma_cut S: 1.5 cut eps S.
    Twice that plus 2 eps S leaves room for the rounding of the c_k."""
    x = np.asarray(x, dtype=float)
    coeff, env = _asym_coeffs(rho, beta, 50)
    # int16, so that _power_tail's stable argsort is a radix sort
    cut = np.searchsorted(env[1:] / env[:-1], x).astype(np.int16)
    tail, size = _power_tail(coeff, x, cut)
    osc, osc_round = _osc_many(rho, beta, x)
    ests = (4.0 * env[cut] * np.exp(-(cut + 1) * np.log(x))
            + (3 * cut + 2) * _EPS * size + osc_round)
    return tail + osc, ests, cut


# ---------------------------------------------------------------------------
# adaptive-precision reference values and the bridging interpolant
# ---------------------------------------------------------------------------


def _hp_values(rho: float, beta: float, xs: np.ndarray) -> np.ndarray:
    """Reference summations of sum_k (-x)^k / Gamma(rho k + beta) at each x.

    An x with term hump X = x^(1/rho) needs d = 30 + 0.45 X digits.  The
    coefficients c_k come from the memoized _rgamma_piece row at the batch's
    largest d rounded up to a multiple of 5 (prec bits), so the fit and
    check batches of a gap table, and both of its beta, read one row.  Each
    x sums its first K terms, K from _log_coeffs: the first k at which the
    term is below 10^-d / e and the next term at most half of it.  The ratio
    of consecutive terms decreases in k for every rho (log Gamma is
    convex), so the tail past K is below 10^-d.

    The sum runs by Horner's rule in Python-integer fixed point with F
    fractional bits: x = m 2^-e is exact as a double, each c_k and each
    product s x is truncated to a multiple of 2^-F, and the value is
    S / 2^F, Python's correctly rounded integer division, the only rounding
    to double.  Each of the 2K truncations is amplified by at most
    max(1, x)^K, and F makes their total at most 2^-(prec + 64), far below
    the 2^-prec relative rounding of the coefficients.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.size)
    if not xs.size:
        return out
    digits = 30 + np.array([int(0.45 * x ** (1.0 / rho)) for x in xs.tolist()])
    log_x = np.log(np.maximum(xs, 1e-300))[:, None]
    n = 64
    while True:
        k = np.arange(n + 1)
        log_t = _log_coeffs(rho, beta, None, k) + k * log_x
        stop = ((np.diff(log_t) <= -math.log(2.0))
                & (log_t[:, :-1] <= -math.log(10.0) * digits[:, None] - 1.0))
        if stop.any(axis=1).all():
            break
        if n >= _MAX_TERMS:
            raise AccuracyError("reference series did not converge")
        n *= 2
    terms = np.maximum(stop.argmax(axis=1), 1).tolist()
    dps = -(-int(digits.max()) // 5) * 5
    xme = [(m, d.bit_length() - 1) for m, d in map(float.as_integer_ratio, xs.tolist())]
    amp = max(K * max(0, m.bit_length() - e) for (m, e), K in zip(xme, terms))
    frac = _context(dps).prec + 64 + amp + (2 * max(terms)).bit_length()
    fixed = []
    for j in range(-(-max(terms) // _ROW_PIECE)):
        for c in _rgamma_piece(rho, beta, j, dps):
            cm, ce = c.man_exp
            fixed.append(cm << ce + frac if ce + frac >= 0 else cm >> -ce - frac)
    for i, ((m, e), K) in enumerate(zip(xme, terms)):
        s = fixed[K - 1]
        for c in reversed(fixed[:K - 1]):
            s = c - (s * m >> e)
        out[i] = s / (1 << frac)
    return out


class _ChebLog:
    """Certified Chebyshev interpolant in log x over [e^lo, e^hi].

    f maps an array of x to reference rows, the value first.  From n on,
    the fit at the n first-kind nodes is checked against f (kept as ref) at
    the n - 1 interior extrema xc of T_n, where the leading interpolation
    error peaks (Trefethen, ATAP, 2013); n - 1 doubles until the check error
    err is within tol (or NaN) or n reaches _PANEL_MAX_NODES.  The caller
    sets est = 10 err + the reference's own error + a floor.
    """

    def __init__(self, f, lo: float, hi: float, n: int, tol: float):
        self.lo = lo
        self.hi = hi
        while True:
            nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
            self.coef = np.polynomial.chebyshev.chebfit(nodes, f(self.points(nodes))[:, 0], n - 1)
            self.xc = self.points(np.cos(np.pi * np.arange(1, n) / n))
            self.ref = f(self.xc)
            self.err = float(np.max(np.abs(self(self.xc) - self.ref[:, 0])))
            if not self.err > tol or n >= _PANEL_MAX_NODES:
                break
            n = 2 * n - 1
        self.est = math.nan

    def points(self, u: np.ndarray) -> np.ndarray:
        """Map u in [-1, 1] to x."""
        return np.exp(0.5 * (u * (self.hi - self.lo) + self.hi + self.lo))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """numpy's chebval at the mapped x: its Clenshaw steps, the same
        operations in the same order, run in place in three buffers (c0, c1
        and the next c1) instead of new arrays for every coefficient."""
        xi = (2.0 * np.log(x) - (self.lo + self.hi)) / (self.hi - self.lo)
        x2, c = 2.0 * xi, self.coef
        c0, c1, t = np.full(xi.shape, c[-2]), np.full(xi.shape, c[-1]), np.empty(xi.shape)
        for ck in c[-3::-1]:
            np.multiply(c1, x2, out=t)
            t += c0  # the next c1
            np.subtract(ck, c1, out=c0)
            c1, t = t, c1
        c1 *= xi
        c1 += c0
        return c1


@lru_cache(maxsize=None)
def _regime_thresholds(rho: float, beta: float):
    """(largest series-certified x, smallest asymptotic-certified x)."""
    X = np.geomspace(0.5, 60.0, 200)
    xs = X**rho
    # the series is probed one power-of-two band at a time, up to the first
    # band with an uncertified point: a value never depends on its batch
    band = np.maximum(np.frexp(xs)[1], 0)
    bad = np.empty(0, dtype=int)
    for b in np.unique(band):
        at = np.flatnonzero(band == b)
        _, s_est, _, s_guard = _series_many(rho, beta, xs[at])
        bad = at[~((s_est <= SERIES_TARGET) & ~s_guard)]
        if bad.size:
            break
    x_series = float(xs[-1] * 1e6) if bad.size == 0 else float(xs[bad[0] - 1]) if bad[0] > 0 else 1.0
    # the asymptotic regime starts past the last point it does not certify
    bad = np.flatnonzero(~(_asym_many(rho, beta, xs)[1] <= SERIES_TARGET))
    start = bad[-1] + 1 if bad.size else 0
    x_asym = float(xs[start]) if start < xs.size else float("inf")
    return x_series, x_asym


@lru_cache(maxsize=None)
def _gap_interpolant(rho: float, beta: float) -> _ChebLog:
    """Certified table of E_{rho,beta}(-x) over the band between the series
    and asymptotic regimes.  It starts at 33 nodes, where the check error
    already sits at the rounding floor (at most 5.2e-15 at fourteen orders
    from 0.3 to 1.99, beta in {1, rho}; 65 nodes do no better)."""
    x_series, x_asym = _regime_thresholds(rho, beta)
    if not np.isfinite(x_asym):
        raise AccuracyError(
            f"no certified large-x regime found for rho={rho}, beta={beta}")
    lo, hi = math.log(x_series * 0.995), math.log(x_asym * 1.005)
    interp = _ChebLog(lambda xs: _hp_values(rho, beta, xs)[:, None], lo, hi, 33, 3e-12)
    interp.est = 10.0 * interp.err + 1e-13
    return interp


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_METHODS = ("series", "asymptotic", "closed_form", "interpolant")


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


def _by_blocks(evaluate, x: np.ndarray, what: str):
    """(values, ests, method codes, terms_used), shaped like x, filled by
    evaluate(x, values, ests, methods, terms) on views of at most _BLOCK
    points of them at a time, so a batch holds its outputs plus the
    temporaries of one block.  ests, methods and terms start at zero;
    AccuracyError, naming what, unless every estimate is within ACCURACY_FLOOR."""
    out = (np.empty(x.shape), np.zeros(x.shape), np.zeros(x.shape, dtype=np.int8),
           np.zeros(x.shape, dtype=int))
    flat = [a.reshape(-1) for a in (x, *out)]
    for a in range(0, x.size, _BLOCK):
        evaluate(*(f[a : a + _BLOCK] for f in flat))
    worst = float(out[1].max(initial=0.0))
    if not worst <= ACCURACY_FLOOR:  # a NaN estimate certifies nothing
        raise AccuracyError(f"{what}: no path certifies {ACCURACY_FLOOR:g} "
                            f"(best {worst:.2e})", est_abs_error=worst)
    return out


def _evaluate_many(rho: float, beta: float, x: np.ndarray):
    """Full-regime batch evaluation.

    Returns (values, ests, method codes, terms_used); method codes index
    _METHODS.  The whole batch is checked before any block is evaluated,
    and AccuracyError reports the worst estimate of the whole batch.
    """
    rho = FractionalOrder(rho)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if np.any(~np.isfinite(x)) or np.any(x < 0.0):
        raise DomainError("arguments must be finite and satisfy x >= 0")
    return _by_blocks(partial(_evaluate_block, rho, beta), x,
                      f"E_rho,beta at rho={float(rho)}, beta={beta}")


def _evaluate_block(rho: float, beta: float, x, values, ests, methods, terms):
    """_evaluate_many's regimes over one block, written into its views."""
    if rho in (1.0, 2.0):
        values[:] = _closed_form_many(rho, beta, x)
        ests[:] = 4.0 * _EPS * (1.0 + np.abs(values)) * (1.0 + np.sqrt(np.abs(x)))
        methods[:] = _METHODS.index("closed_form")
        return

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


# ---------------------------------------------------------------------------
# the Pochhammer-weighted series G_rho and its mixing-integral counterpart
# ---------------------------------------------------------------------------


def _g_series_many(rho: float, mu: float, z: np.ndarray, beta: float = 1.0):
    """H_{rho,beta,mu}(-z) batch for z <= 0, rho > 1; see _alt_series."""
    return _alt_series(rho, beta, mu, np.abs(np.asarray(z, dtype=float)))


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


@lru_cache(maxsize=None)
def _legendre_rule():
    return np.polynomial.legendre.leggauss(8)


def _panel_nodes(lo: np.ndarray, hi: np.ndarray):
    """Composite Gauss-Legendre nodes/weights on the panels [lo, hi], panel
    after panel."""
    xg, wg = _legendre_rule()
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


# halves and calls of f of one _integrate, past which it gives up
_MAX_PANELS, _MAX_PASSES = 1 << 14, 64


def _integrate(f, a: float, b: float, rtol: float) -> float:
    """Integral of the vectorized f over [a, b] on composite 8-node
    Gauss-Legendre panels (Trefethen, SIAM Review 50, 2008), graded
    geometrically toward both ends down to 2^-30 of the length, so that
    integrable endpoint singularities need no substitution.  The value is
    the sum over every panel's two halves, in position order, and a panel's
    estimate is 3 |its halves - itself|.  Each pass calls f once, on the
    halves just formed, and returns once the estimates total at most
    rtol sum |w f|; else the panels whose estimate is above an even share of
    that give way to their halves (local refinement: Gander & Gautschi,
    BIT 40, 2000).  A panel is halved only if the midpoints of its halves
    lie strictly inside them.  AccuracyError, carrying the total estimate,
    on a non-finite sum, when no panel can be halved, past _MAX_PANELS
    halves or after _MAX_PASSES calls of f."""
    grade = 0.5 ** np.arange(30, 1, -1) * (b - a)
    edges = np.concatenate([[a], a + grade, [0.5 * (a + b)], b - grade[::-1], [b]])
    nodes, weights = _panel_nodes(edges[:-1], edges[1:])
    whole = np.sum((weights * f(nodes)).reshape(-1, 8), axis=1)  # per panel
    edges = np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[1:] + edges[:-1]))
    terms, new = np.empty((edges.size - 1, 8)), slice(None)
    for _ in range(1, _MAX_PASSES):  # terms[new]: the halves just formed
        nodes, weights = _panel_nodes(edges[:-1][new], edges[1:][new])
        terms[new] = (weights * f(nodes)).reshape(-1, 8)
        err = 3.0 * np.abs(np.sum(terms.reshape(-1, 16), axis=1) - whole)
        total, target = float(np.sum(terms)), rtol * float(np.sum(np.abs(terms)))
        est = float(np.sum(err))
        if not math.isfinite(total + target):
            break
        if est <= target:
            return total
        mid = 0.5 * (edges[:-1] + edges[1:])  # strictly inside unless an end
        inside = ((mid != edges[:-1]) & (mid != edges[1:])).reshape(-1, 2).all(axis=1)
        at = np.flatnonzero(~(err <= target / err.size) & inside)
        if not at.size or terms.shape[0] + 2 * at.size > _MAX_PANELS:
            break
        # panel at gives way to its halves, whose own sums are known
        half = (2 * at[:, None] + [0, 1]).ravel()
        whole[at] = np.sum(terms[2 * at], axis=1)
        whole = np.insert(whole, at + 1, np.sum(terms[2 * at + 1], axis=1))
        edges = np.insert(edges, half + 1, mid[half])
        terms = np.insert(terms, half + 1, 0.0, axis=0)
        new = ((half + np.arange(half.size))[:, None] + [0, 1]).ravel()
    raise AccuracyError(
        f"panel quadrature over [{a:g}, {b:g}] did not reach rtol {rtol:g} "
        f"(estimate {est:.3g})", est_abs_error=est)


def _gamma_of_mu(mu: float) -> float:
    """Gamma(mu), the Gamma density's normalizer; AccuracyError past the
    double range (mu > 171.62), where no mixing integral can be certified."""
    try:
        return math.gamma(mu)
    except OverflowError:
        raise AccuracyError(f"Gamma(mu) overflows a double at mu={mu}: the "
                            "mixing integral cannot be certified") from None


@lru_cache(maxsize=None)
def _gamma_q(mu: float, z: float) -> float:
    """Q(mu, z), the Gamma(mu, 1) mass past z: the private 30-digit
    regularized upper incomplete gamma, rounded once."""
    return float(_mpc.gammainc(mu, z, regularized=True))


_ROW_EFOLDS = 4  # e-folds of x per memoized chunk of an anchored grid


@lru_cache(maxsize=None)
def _e_row(rho: float, beta: float, refine: int, c: int) -> tuple:
    """Chunk c, x in [e^(4c), e^(4c+4)], of the anchored grid that the
    mixing rules of (rho, beta, refine) slice: its (edges, nodes x, weights,
    E_{rho,beta}(-x), E's certified error), a function of the key alone.
    The log edges e^(j / (6 refine)) resolve the Gamma density at every
    scale, the boundary layer z ~ 1/w of mu < 1 included, up to half the
    largest double (every panel midpoint is finite).  For rho > 1, E
    oscillates with phase sin(pi/rho) s, s = x^(1/rho): the panels are in s,
    with the phase edges s = 1 + i 1.5 / (sin(pi/rho) refine) merged in up
    to s_damp = 30 / |cos(pi/rho)|, where exp(cos(pi/rho) s) has damped it."""
    n = _ROW_EFOLDS * 6 * refine
    with np.errstate(over="ignore"):
        edges = np.exp(np.arange(c * n, c * n + n + 1) / (6 * refine))
    edges = edges[edges <= 0.5 * np.finfo(float).max]
    if rho > 1.0:
        edges = edges ** (1.0 / rho)
        step = 1.5 / (math.sin(math.pi / rho) * refine)
        top = min(edges[-1], 30.0 / abs(math.cos(math.pi / rho)))
        if edges[0] < top:
            phase = 1.0 + step * np.arange((max(edges[0], 1.0) - 1.0) // step,
                                           (top - 1.0) // step + 1.0)
            edges = np.union1d(edges, phase[(phase > edges[0]) & (phase < edges[-1])])
    s, q = _panel_nodes(edges[:-1], edges[1:])
    if rho > 1.0:
        s, q, edges = s**rho, q * rho * s ** (rho - 1.0), edges**rho
    return (edges, s, q, *_evaluate_many(rho, beta, s)[:2])


class _MixingRule:
    """One composite Gauss-Legendre rule in x = z w for every scale w of
    mixing panel k, [w_lo, 16 w_lo) with w_lo = 8 16^k, at one refinement.

    With x = z w, H(w) = int x^(mu-1) e^(-x/w) E_{rho,beta}(-x) dx
    / (w^mu Gamma(mu)): every scale, panel and mu reads the same E, so the
    rule is a slice of the anchored grid of (rho, beta, refine), _e_row,
    from the last refine-1 edge x0 <= 1e-4 min(w_lo, 1) (both refinements
    share the analytic two-term strip over [0, x0]) to the first edge at or
    above z_cut 16 w_lo, z_cut = mu + max(50, 10 sqrt(mu)) (ten standard
    deviations of the law from mu = 25 on): every scale integrates at least
    to z_cut, and the estimate adds 1.3 Q(mu, z_cut) <= 1.3 Q(25, 75)
    = 8.2e-12.  A scale's row is one exp per node of the log weight
    (mu-1) log x + log q - lgamma mu - mu log w_lo minus x/w, times the
    stacked (E, E's error) rows, then times (w_lo/w)^mu: w_lo keeps both
    factors inside the double range.
    """

    def __init__(self, rho: float, mu: float, k: int, refine: int, beta: float):
        self.gm = _gamma_of_mu(mu)  # refuses mu past the double range first
        self.w_lo = w_lo = _PANEL_BASE * _PANEL_RATIO**k
        z_cut = mu + max(50.0, 10.0 * math.sqrt(mu))
        x_lo, x_top = 1e-4 * min(w_lo, 1.0), z_cut * w_lo * _PANEL_RATIO
        past = DomainError(f"mixing panel {k} at mu={mu} reaches past the double range")
        if not x_top < math.inf:
            raise past
        # the chunks that hold x_lo and x_top, with a margin for rounding
        rows = [_e_row(rho, beta, refine, c) for c in range(
            math.floor(math.log(x_lo) / _ROW_EFOLDS - 1e-9),
            math.floor(math.log(x_top) / _ROW_EFOLDS + 1e-9) + 1)]
        edges = np.concatenate([rows[0][0]] + [r[0][1:] for r in rows[1:]])
        a = np.searchsorted(edges, x_lo, "right") - 1
        a -= a % refine  # x0 on the refine-1 grid, which refine 2 halves
        b = np.searchsorted(edges, x_top)
        if b == edges.size:
            raise past
        x, q, e, d = (np.concatenate([r[i] for r in rows])[8 * a:8 * b] for i in range(1, 5))
        self.x, self.x0, self.ed, self.mu = x, edges[a], np.stack([e, d]), mu
        self.log_wt = ((mu - 1.0) * np.log(x) + np.log(q) - math.lgamma(mu)
                       - mu * math.log(w_lo))
        # strip: E(-x) = a - x/Gamma(rho+beta) + O(x^2) with a = 1/Gamma(beta),
        # e^-z = 1 - z + O(z^2); a is exactly 1 for beta = 1.  Truncated far
        # tail: needs |E_{rho,beta}| <= 1.3 on the half line: |E_rho| <= 1 for
        # every rho, and E_{rho,rho} for 1 <= rho <= 2 peaks at x = 0 with
        # 1/Gamma(rho) <= 1.129.  Other (rho, beta) must be checked.
        self.a, self.gamma_rb = 1.0 / math.gamma(beta), math.gamma(rho + beta)
        self.tail = 1.3 * _gamma_q(mu, z_cut)

    def __call__(self, ws) -> np.ndarray:
        """(value, est) rows at the scales ws, summed one row at a time, so
        a row has the same bits alone or in any batch."""
        ws = np.asarray(ws, dtype=float)
        mu, z0, a = self.mu, self.x0 / ws, self.a
        out = np.array([self.ed @ np.exp(self.log_wt - self.x * (1.0 / w))
                        for w in ws.tolist()]).reshape(-1, 2)
        out *= ((self.w_lo / ws) ** mu)[:, None]
        out[:, 0] += (a * z0**mu / mu - (ws / self.gamma_rb + a)
                      * z0 ** (mu + 1.0) / (mu + 1.0)) / self.gm
        out[:, 1] += z0**mu * 2e-8 / self.gm + self.tail
        return out


# Panel k >= _PANEL_FLOOR of the mixing integral covers scale in
# [8 * 16^k, 8 * 16^(k+1)); below _TAYLOR_TOP = 2^-13 a few series terms
# certify.  Panels are fixed, so a value depends only on (rho, beta, mu,
# scale), never on which arguments were requested earlier in the process.
_PANEL_BASE = 8.0
_PANEL_RATIO = 16.0
_PANEL_FLOOR = -4
_TAYLOR_TOP = _PANEL_BASE * _PANEL_RATIO**_PANEL_FLOOR
_PANEL_TOL = 3e-11
_PANEL_MAX_NODES = 513  # for every _ChebLog table


@lru_cache(maxsize=None)
def _mixing_panel(rho: float, mu: float, k: int, beta: float) -> _ChebLog:
    """Certified interpolant of the mixing integral over panel k.

    _ChebLog's table of the refine-2 _MixingRule rows.  The estimate adds
    the rule's own error at the check points, 3 |refine2 - refine1| plus its
    strip, tail and E terms, to ten times the check error.
    """
    lo = math.log(_PANEL_BASE) + k * math.log(_PANEL_RATIO)
    hi = lo + math.log(_PANEL_RATIO)
    rule = _MixingRule(rho, mu, k, 2, beta)
    panel = _ChebLog(rule, lo, hi, 17, _PANEL_TOL)
    coarse = _MixingRule(rho, mu, k, 1, beta)(panel.xc)[:, 0]
    node_err = float(np.max(3.0 * np.abs(panel.ref[:, 0] - coarse) + panel.ref[:, 1]))
    panel.est = 10.0 * panel.err + node_err + 1e-12
    return panel


def _taylor_many(rho: float, mu: float, w: np.ndarray, beta: float):
    """K-term Taylor sum of H_{rho,beta,mu}(w) = sum_k c_k (-w)^k for
    beta in {1, rho} and 0 <= w <= _TAYLOR_TOP; its remainder is at most
    c_K w^K in size.  For rho <= 1, E_{rho,beta}(-x) is completely monotone
    (Schneider, Expo. Math. 14, 1996), so its K-term Taylor remainder is at
    most x^K / Gamma(rho K + beta).  For rho > 1 and k >= 1, a = rho k + beta
    >= k + 1 >= 2 lies past Gamma's minimum, so Gamma(a + rho) >= a Gamma(a)
    and c_(k+1) w / c_k = w (mu + k) Gamma(a) / Gamma(a + rho) <= w max(mu, 1):
    where w max(mu, 1) <= 1 (every mu <= 8192 at _TAYLOR_TOP) the terms
    alternate and do not increase from k = 1 on; elsewhere the estimate is
    inf, which refuses the point.  K >= 2 is the first count that puts
    c_K w^K below e^-39 at _TAYLOR_TOP; (2K + 1) eps sum_k c_k w^k bounds
    the rounding."""
    K = next((k for k in range(2, 64) if math.lgamma(mu + k) - math.lgamma(mu)
              - math.lgamma(rho * k + beta) + k * math.log(_TAYLOR_TOP) < -39.0), 64)
    c = [float(x) for x in _coeffs(rho, beta, mu, K + 1)]
    s = m = np.full(w.shape, c[K - 1])
    for ck in c[K - 2::-1]:
        s = s * -w + ck
        m = m * w + ck
    est = c[K] * w**K + (2 * K + 1) * _EPS * m
    if rho > 1.0:
        est[w * max(mu, 1.0) > 1.0] = np.inf
    return s, est, np.full(w.shape, K)


def _g_quadrature_many(rho, mu: float, lam: float, t: np.ndarray,
                       beta: float = 1.0):
    """Gamma-mixing integral of E_{rho,beta}(-y t^rho) against the
    Gamma(mu, lam) density: H_{rho,beta,mu}(t^rho/lam), which is
    G_rho(-t^rho/lam) at beta = 1.  Valid for every rho in (0, 2].

    Returns (values, ests, method codes, terms_used) as _evaluate_many does.
    At rho = 1 = beta, H = (1 + w)^(-mu), since E_{1,1} = exp.  Otherwise
    _taylor_many serves the scales up to _TAYLOR_TOP, zero included, and the
    certified panels serve the rest.  Raises AccuracyError when an estimate
    exceeds ACCURACY_FLOOR, and DomainError for a scale, or a panel edge,
    past the double range.
    """
    t = np.asarray(t, dtype=float)
    rho = float(rho)
    with np.errstate(over="ignore"):
        scale = t**rho / lam
    if not np.all(scale < math.inf):
        raise DomainError(f"t^rho/lam leaves the double range for rho={rho}, "
                          f"lam={lam}, t up to {float(np.max(t)):g}")
    return _by_blocks(partial(_g_quadrature_block, rho, mu, beta), scale,
                      f"mixing integral at rho={rho}, mu={mu}, beta={beta}")


def _g_quadrature_block(rho: float, mu: float, beta: float, scale, values,
                        ests, methods, terms):
    """_g_quadrature_many's paths over one block of scales t^rho/lam,
    written into its views."""
    methods[:] = _METHODS.index("closed_form")
    if rho == 1.0 and beta == 1.0:
        values[:] = (1.0 + scale) ** -mu
        # 1 + w rounds by eps, which the power raises to mu eps
        ests[:] = (mu + 4.0) * _EPS * values
        return
    near = scale <= _TAYLOR_TOP
    if near.any():
        values[near], ests[near], terms[near] = _taylor_many(rho, mu, scale[near], beta)
        methods[near] = _METHODS.index("series")
    big = ~near
    if big.any():
        s = scale[big]
        k_of = np.floor(np.log(s / _PANEL_BASE) / math.log(_PANEL_RATIO))
        panel_of = np.maximum(k_of, _PANEL_FLOOR).astype(np.int64) - _PANEL_FLOOR
        counts = np.bincount(panel_of)
        v, est, size = np.empty(s.shape), np.zeros(counts.size), np.zeros(counts.size, dtype=int)
        for i in np.flatnonzero(counts):
            panel = _mixing_panel(rho, float(mu), int(i) + _PANEL_FLOOR, float(beta))
            sel = panel_of == i
            v[sel] = panel(s[sel])
            est[i], size[i] = panel.est, panel.coef.size
        values[big], methods[big] = v, _METHODS.index("interpolant")
        ests[big], terms[big] = est[panel_of], size[panel_of]


def g_rho_quadrature(rho, mu: float, lam: float, t: float) -> EvalResult:
    """G_rho(-t^rho/lam) for all rho in (0, 2]: _g_quadrature_many at one
    point.  method and terms_used name the path that served it (closed form,
    series or panel interpolant) and its term or coefficient count."""
    rho = FractionalOrder(rho)
    if mu <= 0 or lam <= 0:
        raise DomainError(f"mixing parameters must be positive, got mu={mu}, lam={lam}")
    if not np.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    values, ests, methods, terms = _g_quadrature_many(rho, mu, lam, np.array([t]))
    return EvalResult(float(values[0]), _METHODS[int(methods[0])],
                      int(terms[0]), float(ests[0]))
