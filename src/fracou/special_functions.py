"""Mittag-Leffler family on the negative real axis, with certified accuracy.

Evaluates E_rho(-x), E_{rho,rho}(-x), the Pochhammer-weighted series
H_{rho,beta,nu}(w) = sum_k (nu)_k (-w)^k / Gamma(rho k + beta) (G_rho(-w) at
beta = 1) and its Gamma-mixing integral E[E_{rho,beta}(-z w)], z ~ Gamma(nu, 1).
Every public evaluation returns an a-posteriori absolute error estimate and
raises AccuracyError rather than returning an uncertified value.

Evaluation regimes per order rho (closed forms short-circuit rho = 1, 2):

* small x: Horner sum in x/2^band with a running rounding bound, in double
  precision, over coefficients (nu)_k / Gamma(rho k + beta) rounded once
  from 30 digits.  E (no Pochhammer factor) and every nu of one (rho, beta)
  read one memoized row of 30-digit reciprocal gammas.  Certification fails
  once the bound exceeds 1e-10 or the Horner partial sums reach 1e6 times
  the value; the crossover is calibrated once per rho and cached.  The term
  count and the scaled coefficients are fixed per power-of-two band of x
  (all x < 1 share one), so a value never depends on the batch it is
  evaluated in.
* large x: complete asymptotics = exponentially damped oscillatory branch
  pair (present for 1 < rho < 2) plus the reciprocal-gamma power tail with
  optimal truncation.  The power tail alone is wrong by the size of the
  oscillatory part for 1 < rho < 2, which decays like exp(cos(pi/rho) x^(1/rho))
  and dominates far beyond the first few hundred x when rho is near 2.
* in between: neither path certifies 1e-10 in double precision.  A per-rho
  Chebyshev interpolant in log x, built from an adaptive-precision reference
  summation, bridges the band with ~1e-12 certified error.  Each build
  shares one sweep of the series coefficients among all its nodes.

The Gamma-mixing integral H is summed by its series where that certifies
and read elsewhere from memoized Chebyshev panels in log scale, each fit
evaluating every distinct E_{rho,beta} argument of its scales once; at
rho = 1 it is the closed form (1 + w)^(-nu).
"""

from __future__ import annotations

import math
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
# points per pass of the Horner loop; a band with fewer than _SCALAR_POINTS
# points of a batch runs it in Python floats, one point at a time
_SERIES_BLOCK = 16384
_SCALAR_POINTS = 32
# terms per memoized piece of a coefficient row: a longer request extends
# the row without recomputing it
_ROW_PIECE = 64

# a private 30-digit context: no caller's working precision reaches the
# series coefficients
_mpc = mp.MPContext()
_mpc.dps = 30


@lru_cache(maxsize=None)
def _rgamma_piece(rho: float, beta: float, j: int) -> tuple:
    """1/Gamma(rho k + beta) for _ROW_PIECE j <= k < _ROW_PIECE (j + 1), to
    30 digits."""
    r = _mpc.mpf(rho)
    return tuple(_mpc.rgamma(r * k + beta)
                 for k in range(_ROW_PIECE * j, _ROW_PIECE * (j + 1)))


def _coeffs(rho: float, beta: float, nu, n: int) -> list:
    """c_k = (nu)_k / Gamma(rho k + beta) for k < n, to 30 digits; nu None
    drops the Pochhammer factor.  Every nu of one (rho, beta) reads the same
    memoized row of reciprocal gammas."""
    row = [c for j in range(-(-n // _ROW_PIECE)) for c in _rgamma_piece(rho, beta, j)][:n]
    if nu is not None:
        m, poch = _mpc.mpf(nu), _mpc.mpf(1)
        for k in range(n):
            row[k], poch = poch * row[k], poch * (m + k)
    return row


def _log_coeffs(rho: float, beta: float, nu, k: np.ndarray) -> np.ndarray:
    """log c_k of _coeffs in double precision; sets the term counts."""
    out = -sc.gammaln(rho * k + beta)
    return out if nu is None else sc.gammaln(nu + k) - sc.gammaln(nu) + out


@lru_cache(maxsize=None)
def _band_terms(rho: float, beta: float, nu, band: int) -> tuple:
    """a_k = (-1)^k c_k 2^(band k), the term sizes at x = 2^band, for the
    terms shared by every 0 < x < 2^band.

    The terms run through the first one past the hump whose log magnitude
    log|c_k| + k band log 2 is below the floor, plus one; the last a_k only
    feeds the truncation estimate.  Each a_k is rounded once to double from
    its 30-digit value (an overflow gives inf).  Memoized per band, so a
    value never depends on the other points of its batch.
    """
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
    exact = _coeffs(rho, beta, nu, int(down[0] + past[0]) + 4)
    return tuple(float(_mpc.ldexp(-c if k % 2 else c, band * k))
                 for k, c in enumerate(exact))


def _alt_series(rho: float, beta: float, nu, x: np.ndarray):
    """Alternating series sum_k (-1)^k c_k x^k of _coeffs for a batch of
    x >= 0.

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
    |a_k| <= (1 + eps)(|s_k| + u |s_(k+1)|).  Each band's points are worked
    through in blocks of _SERIES_BLOCK with elementwise operations only.
    """
    x = np.asarray(x, dtype=float)
    u, values, mu, top = (np.empty(x.size) for _ in range(4))
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
        K = len(a) - 1
        np.ldexp(x[lo:hi], -b, out=u[lo:hi])
        terms[lo:hi], top[lo:hi] = K, a[K]
        if hi - lo < _SCALAR_POINTS:
            for i, ui in enumerate(u[lo:hi].tolist(), lo):
                values[i], mu[i] = _horner(a, ui)
            continue
        for start in range(lo, hi, _SERIES_BLOCK):
            rows = slice(start, min(start + _SERIES_BLOCK, hi))
            ub, s, m = u[rows], values[rows], mu[rows]
            s[:] = a[K - 1]
            np.abs(s, out=m)
            size = np.empty(s.size)
            for c in a[K - 2::-1]:
                s *= ub
                s += c
                m *= ub
                m += np.abs(s, out=size)
    ests = TRUNC_SAFETY * np.abs(top) * u**terms + _EPS * (3.0 * mu - np.abs(values))
    terms[x == 0.0] = 1
    # written so that overflowed (inf or NaN) sums trip the guard too
    guard = ~((mu <= CANCEL_GUARD * np.abs(values)) & np.isfinite(mu))
    out = values, ests, terms, guard
    for v in out:
        v[order] = v.copy()
    return out


def _horner(a: tuple, u: float):
    """(s, mu) of _alt_series's Horner loop at one point, in Python floats.

    The same IEEE double operations in the same order, so the same bits,
    without numpy's fixed cost per call on a few points.
    """
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
        power = np.exp(-k[None, :] * logx[:, None])
        t = coeff[None, :] * power
        env_t = env[None, :] * power
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
    coefficients c_k = 1/Gamma(rho k + beta) are shared by every x, so they
    are computed once, by mpmath at the precision (prec bits) of the largest
    x, and read out exactly as integer mantissa and exponent.  Each x then
    sums in Python-integer fixed point with F = prec + 64 fractional bits:

    * x = m 2^-e is exact as a double, and |x|^k is carried as an integer
      mantissa truncated to W = prec + 128 bits with its own exponent;
    * the term c_k |x|^k is the exact product of the two mantissas,
      truncated to F fractional bits, and the partial sum S of the signed
      terms is an exact integer;
    * the value is S / 2^F, Python's correctly rounded integer division, the
      only rounding to double.

    Each x stops by its own rule: k > X and |t| below 10^-(digits - 4) of
    max(1, |S| 2^-F), with that threshold rounded down to a multiple of
    2^-F.  Each truncation of the power loses less than 2^(1 - W) of it, so
    over K terms the sum is off from the series of the rounded c_k by at
    most K 2^-F + K 2^(1 - W) sum_k |t_k|, far below the 2^-prec relative
    rounding that every mpmath operation would add.
    """
    humps = [float(x) ** (1.0 / rho) for x in xs]
    out = np.empty(len(humps))
    if not humps:
        return out
    with mp.workdps(30 + int(0.45 * max(humps))):
        r, b = mp.mpf(rho), mp.mpf(beta)
        frac = mp.mp.prec + 64
        width = mp.mp.prec + 128
        one = 1 << frac
        coef = []  # (mantissa, exponent) of each c_k > 0
        for i, (x, X) in enumerate(zip(xs, humps)):
            xm, xd = float(x).as_integer_ratio()
            xe = xd.bit_length() - 1  # x = xm 2^-xe
            tiny = one // 10 ** (30 + int(0.45 * X) - 4)
            s, pm, pe, kk = 0, 1, 0, 0  # |x|^kk ~ pm 2^pe
            while True:
                if kk == len(coef):
                    coef.append((1 / mp.gamma(r * kk + b)).man_exp)
                cm, ce = coef[kk]
                shift = ce + pe + frac
                t = cm * pm << shift if shift >= 0 else cm * pm >> -shift
                if kk % 2:
                    t = -t
                s += t
                if kk > X and abs(t) < (tiny * max(one, abs(s))) >> frac:
                    break
                kk += 1
                if kk > 200000:
                    raise AccuracyError("reference series did not converge")
                pm *= xm
                pe -= xe
                excess = pm.bit_length() - width
                if excess > 0:
                    pm >>= excess
                    pe += excess
            out[i] = s / one
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


@lru_cache(maxsize=None)
def _regime_thresholds(rho: float, beta: float):
    """(largest series-certified x, smallest asymptotic-certified x)."""
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
    return x_series, x_asym


@lru_cache(maxsize=None)
def _gap_interpolant(rho: float, beta: float) -> _ChebLog:
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
            return interp
        n = 2 * n - 1


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


def _mixing_pieces(rho: float, mu: float, scale: float, refine: int, beta: float = 1.0):
    """Quadrature plan of the mixing integral at one scale > 0.

    Returns (strip value, strip and tail estimate, [(z_nodes, z_weights)]):
    the integrand's E_{rho,beta}(-z scale) factor is left to the caller, who
    evaluates it for many scales at once.  For 1 < rho < 2 the integrand
    oscillates with phase sin(pi/rho) (z scale)^(1/rho), and for mu < 1 the
    mass sits in a boundary layer z ~ 1/scale, so the plan is:

    * an analytic two-term strip over z in [0, eps/max(scale, 1)];
    * for rho > 1 and scale >= 1, panels in s = (z scale)^(1/rho), where the
      phase is exactly linear in s, graded in log s up to s = 1 and then
      sized to a fixed phase step each, up to the point where the
      exp(cos(pi/rho) s) damping has killed the oscillation;
    * log-spaced panels in z over the rest, all of it below scale 1, where
      the phase stays below (z_cut scale)^(1/rho).
    """
    z_cut = mu + 50.0
    eps_arg = 1e-4
    z0 = min(eps_arg / max(scale, 1.0), z_cut)
    gm = math.gamma(mu)
    # strip: E(-w) = a - w/Gamma(rho+beta) + O(w^2) with a = 1/Gamma(beta),
    # e^-z = 1 - z + O(z^2); a is exactly 1 for beta = 1
    a = 1.0 / math.gamma(beta)
    total = (a * z0**mu / mu - (scale / math.gamma(rho + beta) + a)
             * z0 ** (mu + 1.0) / (mu + 1.0)) / gm
    est = (z0**mu) * 2e-8 / gm
    pieces = []
    z_b = z0
    if rho > 1.0 and scale >= 1.0:
        # s_top > 1 here: z_cut >= 50 and s_damp >= 30
        s_damp = 30.0 / abs(math.cos(math.pi / rho))
        s_top = min(s_damp, (z_cut * scale) ** (1.0 / rho))
        n_ph = max(4, int(math.ceil(math.sin(math.pi / rho) * (s_top - 1.0) / 1.5))
                   * refine)
        s_nodes, s_weights = _panel_nodes(np.concatenate([
            np.geomspace(eps_arg ** (1.0 / rho), 1.0, 8 * refine + 1),
            np.linspace(1.0, s_top, n_ph + 1)[1:]]))
        pieces.append((s_nodes**rho / scale,
                       s_weights * rho * s_nodes ** (rho - 1.0) / scale))
        z_b = s_top**rho / scale
    if z_b < z_cut:
        n_log = max(24, int(6.0 * math.log(z_cut / z_b))) * refine
        edges = np.geomspace(z_b, z_cut, n_log + 1)
        pieces.append(_panel_nodes(edges))
    # truncated far tail; needs |E_{rho,beta}| <= 1.3 on the half line:
    # |E_rho| <= 1 for every rho, and E_{rho,rho} for 1 <= rho <= 2 peaks at
    # x = 0 with 1/Gamma(rho) <= 1.129.  Other (rho, beta) must be checked.
    est += 1.3 * float(sc.gammaincc(mu, z_cut))
    return total, est, pieces


def _mixing_integrals(rho: float, mu: float, ws, refine: int,
                      beta: float = 1.0) -> np.ndarray:
    """(value, est) rows of the integral over z of z^(mu-1) e^-z
    E_{rho,beta}(-z w) / Gamma(mu) at each scale w > 0.

    The E_{rho,beta} arguments of all scales are evaluated in one call, each
    distinct one once; values do not depend on their batch, so every row has
    the bits of its scale integrated alone.
    """
    plans = [(float(w), *_mixing_pieces(rho, mu, float(w), refine, beta)) for w in ws]
    args = [z * w for w, _, _, pieces in plans for z, _ in pieces]
    uniq, inverse = np.unique(np.concatenate(args), return_inverse=True)
    vals = _evaluate_many(rho, beta, uniq)[0][inverse]
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


# Panel k >= _PANEL_FLOOR of the mixing integral covers scale in
# [8 * 16^k, 8 * 16^(k+1)); below _TAYLOR_TOP = 2^-13 a few series terms
# certify.  Panels are fixed, so a value depends only on (rho, beta, mu,
# scale), never on which arguments were requested earlier in the process.
_PANEL_BASE = 8.0
_PANEL_RATIO = 16.0
_PANEL_FLOOR = -4
_TAYLOR_TOP = _PANEL_BASE * _PANEL_RATIO**_PANEL_FLOOR
_PANEL_TOL = 3e-11
_PANEL_MAX_NODES = 513


@lru_cache(maxsize=None)
def _mixing_panel(rho: float, mu: float, k: int, beta: float = 1.0) -> _ChebLog:
    """Certified interpolant of the mixing integral over panel k.

    Fitted to the refine-2 panel quadrature and checked at staggered nodes.
    The estimate adds the node quadrature's own error, 3 |refine2 - refine1|
    plus its floor, to ten times the interpolation check error.
    """
    lo = math.log(_PANEL_BASE) + k * math.log(_PANEL_RATIO)
    hi = lo + math.log(_PANEL_RATIO)

    n = 17
    while True:
        panel = _ChebLog(lambda ws: _mixing_integrals(rho, mu, ws, 2, beta)[:, 0],
                         lo, hi, n)
        wc = panel.points(np.cos(np.pi * np.arange(1, n) / n))  # staggered
        fine = _mixing_integrals(rho, mu, wc, 2, beta)
        err = float(np.max(np.abs(panel(wc) - fine[:, 0])))
        if err <= _PANEL_TOL or n >= _PANEL_MAX_NODES:
            break
        n = 2 * n - 1
    coarse = _mixing_integrals(rho, mu, wc, 1, beta)[:, 0]
    node_err = float(np.max(3.0 * np.abs(fine[:, 0] - coarse) + fine[:, 1]))
    panel.est = 10.0 * err + node_err + 1e-12
    return panel


def _taylor_many(rho: float, mu: float, w: np.ndarray, beta: float):
    """K-term Taylor sum of H_{rho,beta,mu}(w) = sum_k c_k (-w)^k for
    rho <= 1, beta >= rho and w < _TAYLOR_TOP.  E_{rho,beta}(-x) is then
    completely monotone (Schneider, Expo. Math. 14, 1996), so its K-term
    Taylor remainder is at most x^K / Gamma(rho K + beta) in size, and
    H's at most c_K w^K; K >= 2 is the first count that puts this below
    e^-39 at _TAYLOR_TOP.  (2K + 1) eps sum_k c_k w^k covers the rounding.
    """
    K = next((k for k in range(2, 64) if math.lgamma(mu + k) - math.lgamma(mu)
              - math.lgamma(rho * k + beta) + k * math.log(_TAYLOR_TOP) < -39.0), 64)
    c = [float(x) for x in _coeffs(rho, beta, mu, K + 1)]
    s = m = np.full(w.shape, c[K - 1])
    for ck in c[K - 2::-1]:
        s = s * -w + ck
        m = m * w + ck
    return s, c[K] * w**K + (2 * K + 1) * _EPS * m, np.full(w.shape, K)


@lru_cache(maxsize=256)
def _g_series_range(rho: float, mu: float, beta: float = 1.0) -> float:
    """Largest probe |z| up to which the direct series self-certifies 1e-9
    at every probe, probing up from _TAYLOR_TOP = 2^-13; 0 when it fails
    there."""
    zmax = 0.0
    probes = np.concatenate([0.5 ** np.arange(13, 1, -1), np.geomspace(0.5, 1e5, 80)])
    for z in probes:
        try:
            _, est, _, guard = _g_series_many(rho, mu, np.array([-z]), beta)
        except AccuracyError:
            break
        if guard[0] or est[0] > 1e-9:
            break
        zmax = float(z)
    return zmax


def _g_quadrature_many(rho, mu: float, lam: float, t: np.ndarray,
                       beta: float = 1.0):
    """Gamma-mixing integral of E_{rho,beta}(-y t^rho) against the
    Gamma(mu, lam) density: H_{rho,beta,mu}(t^rho/lam), which is
    G_rho(-t^rho/lam) at beta = 1.  Valid for every rho in (0, 2].

    Returns (values, ests, method codes, terms_used) as _evaluate_many does.
    At rho = 1 = beta, H = (1 + w)^(-mu), since E_{1,1} = exp.  Otherwise
    the series serves the scales below _TAYLOR_TOP (the direct series for
    rho > 1, _taylor_many below 1) and, for rho > 1, those up to
    _g_series_range where it certifies 1e-9; the certified panels serve the
    rest.  Raises AccuracyError when an estimate exceeds ACCURACY_FLOOR.
    """
    t = np.asarray(t, dtype=float)
    rho = float(rho)
    scale = t**rho / lam
    values = np.empty(t.shape)
    ests = np.zeros(t.shape)
    methods = np.full(t.shape, _METHODS.index("closed_form"), dtype=np.int8)
    terms = np.zeros(t.shape, dtype=int)
    if rho == 1.0 and beta == 1.0:
        values[:] = (1.0 + scale) ** -mu
        # 1 + w rounds by eps, which the power raises to mu eps
        ests[:] = (mu + 4.0) * _EPS * values
        return values, ests, methods, terms
    done = scale == 0.0
    values[done] = 1.0 / math.gamma(beta)

    top = max(_g_series_range(rho, mu, beta), _TAYLOR_TOP) if rho > 1.0 else _TAYLOR_TOP
    near = ~done & (scale <= top)
    if near.any():
        if rho > 1.0:
            v, e, n, guard = _g_series_many(rho, mu, -scale[near], beta)
            e[guard] = np.inf
            ok = (e <= 1e-9) | (scale[near] < _TAYLOR_TOP)
            near[near] = ok
            v, e, n = v[ok], e[ok], n[ok]
        else:
            v, e, n = _taylor_many(rho, mu, scale[near], beta)
        values[near], ests[near], terms[near] = v, e, n
        methods[near] = _METHODS.index("series")
        done |= near

    big = ~done
    if big.any():
        s = scale[big]
        k_of = np.floor(np.log(s / _PANEL_BASE) / math.log(_PANEL_RATIO))
        ks, panel_of = np.unique(np.maximum(k_of, _PANEL_FLOOR), return_inverse=True)
        panels = [_mixing_panel(rho, float(mu), int(k), float(beta)) for k in ks]
        v = np.empty(s.shape)
        for i, panel in enumerate(panels):
            sel = panel_of == i
            v[sel] = panel(s[sel])
        values[big], methods[big] = v, _METHODS.index("interpolant")
        ests[big] = np.array([p.est for p in panels])[panel_of]
        terms[big] = np.array([p.coef.size for p in panels])[panel_of]

    worst = float(ests.max(initial=0.0))
    if worst > ACCURACY_FLOOR:
        raise AccuracyError(
            f"mixing integral estimate {worst:.2e} exceeds {ACCURACY_FLOOR:g} "
            f"for rho={rho}, mu={mu}, beta={beta}", est_abs_error=worst)
    return values, ests, methods, terms


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
