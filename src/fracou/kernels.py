"""Deterministic kernel layer.

The scalar resolvent s_alpha(t) = E_rho(-alpha t^rho) solves the
convolution identity s + alpha (g * s) = 1 with the power memory kernel
g(t) = t^(rho-1)/Gamma(rho).  Averaging s_alpha over a Gamma(mu, lam) law in
alpha gives the mean kernel G(t), the deterministic object behind the
aggregated process: its square integrates to path variances, and its tail
controls how much history a stationary simulation must keep.  G and its
derivative G' are one Gamma-mixing integral at two parameter sets, evaluated
by the same series, closed-form and panel paths.  The empirical mean f_n of
s_alpha over n rates, and f_n', are one series per lag weighted by the
rates' moments; lags where it does not certify average rate x lag cells.

Bound constants: the envelope constants M (for E_rho), M2 (for E_{rho,rho})
and M3 (for the derivative of the unit resolvent) are estimated once per rho
as suprema over a dense logarithmic grid, times a 1.1 safety factor, and
cached.  They are not exact suprema, only stable empirical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError, TruncationError
from .mixing import GammaMixing, check_condition
from .special_functions import (
    _BLOCK,
    _EPS,
    ACCURACY_FLOOR,
    SERIES_TARGET,
    FractionalOrder,
    _alt_series,
    _band_terms,
    _g_quadrature_many,
    _integrate,
    _regime_thresholds,
    ml_one_values,
    ml_two_values,
)

__all__ = [
    "ResolventKernel",
    "MeanKernel",
    "resolvent",
    "resolvent_values",
    "volterra_residual",
    "empirical_kernel",
    "empirical_kernel_values",
    "mean_kernel",
    "mean_kernel_values",
    "mean_kernel_deriv",
    "variance_integral",
    "resolvent_l2_norm",
    "tail_variance_bound",
    "stationary_variance",
    "bound_m",
    "bound_m2",
    "bound_m3",
]


@dataclass(frozen=True)
class ResolventKernel:
    """s_alpha with fixed reversion rate alpha >= 0 and order rho."""

    alpha: float
    rho: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")
        object.__setattr__(self, "rho", float(FractionalOrder(self.rho)))


@dataclass(frozen=True)
class MeanKernel:
    """Gamma-mixed expectation of the resolvent kernel."""

    rho: float
    mixing: GammaMixing

    def __post_init__(self):
        object.__setattr__(self, "rho", float(FractionalOrder(self.rho)))


# ---------------------------------------------------------------------------
# envelope constants
# ---------------------------------------------------------------------------


def _envelope(evaluate, rho: float, xs: np.ndarray, p: float) -> float:
    """1.1 times the largest (1 + x) x^p |evaluate(rho, x^(p + 1))| on xs."""
    vals = evaluate(rho, xs ** (p + 1.0))
    return 1.1 * float(np.max((1.0 + xs) * xs**p * np.abs(vals)))


@lru_cache(maxsize=64)
def bound_m(rho: float) -> float:
    """Empirical M with |E_rho(-x)| <= M/(1+x) for all x >= 0."""
    rho = float(FractionalOrder(rho))
    if rho == 2.0:
        raise DomainError("E_2(-x) = cos(sqrt x) does not decay; no envelope")
    xs = np.concatenate([[0.0], np.geomspace(1e-4, 1e6, 4000)])
    return _envelope(ml_one_values, rho, xs, 0.0)


@lru_cache(maxsize=64)
def bound_m2(rho: float) -> float:
    """Empirical M2 with |E_{rho,rho}(-x)| <= M2/(1+x) for all x >= 0."""
    rho = float(FractionalOrder(rho))
    if rho == 2.0:
        raise DomainError("E_{2,2}(-x) decays too slowly; no 1/(1+x) envelope")
    xs = np.concatenate([[0.0], np.geomspace(1e-4, 1e6, 4000)])
    return _envelope(ml_two_values, rho, xs, 0.0)


@lru_cache(maxsize=64)
def bound_m3(rho: float) -> float:
    """Empirical M3 with |s_1'(x)| = x^(rho-1)|E_{rho,rho}(-x^rho)| <= M3/(1+x).

    Only defined for rho >= 1; below that the derivative blows up at 0.
    """
    rho = float(FractionalOrder(rho))
    if rho < 1.0 or rho == 2.0:
        raise DomainError(f"derivative envelope needs 1 <= rho < 2, got {rho}")
    xs = np.geomspace(1e-6, 1e4, 4000)
    # x^((rho - 1) + 1) is x^rho: rho - 1 is exact on [1, 2)
    return _envelope(ml_two_values, rho, xs, rho - 1.0)


def deriv_bound_constant(rho: float) -> float:
    """Uniform-in-t bound constant B with |d/dt s_alpha(t)| <= B alpha^(1/rho).

    B = M2 sup_x x^(rho-1)/(1+x^rho); the sup has the closed form
    (rho-1)^((rho-1)/rho) / rho and never exceeds 1 on (1, 2].
    """
    rho = float(FractionalOrder(rho))
    if rho <= 1.0:
        raise DomainError(f"uniform derivative bound needs rho > 1, got {rho}")
    sup = (rho - 1.0) ** ((rho - 1.0) / rho) / rho
    return bound_m2(rho) * sup


# ---------------------------------------------------------------------------
# resolvent kernel
# ---------------------------------------------------------------------------


def _times(ts) -> np.ndarray:
    """Kernel lags as a float array, once all are finite and >= 0."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise DomainError("times must be finite and >= 0")
    return ts


def resolvent(k: ResolventKernel, t: float) -> float:
    """s_alpha(t): resolvent_values at one point."""
    return float(resolvent_values(k, [t])[0])


def resolvent_values(k: ResolventKernel, ts: np.ndarray) -> np.ndarray:
    """s_alpha(t) = E_rho(-alpha t^rho); equals 1 identically when alpha = 0."""
    ts = _times(ts)
    if k.alpha == 0.0:
        return np.ones_like(ts)
    return ml_one_values(k.rho, k.alpha * ts**k.rho)


def volterra_residual(k: ResolventKernel, t: float) -> float:
    """s(t) + alpha * (g * s)(t) - 1 with the convolution done by quadrature.

    The weakly singular weight (t-tau)^(rho-1) is removed by the substitution
    w = (t-tau)^rho, after which the integrand is bounded and the panel
    integrator applies directly.
    """
    if not t > 0.0:
        raise DomainError(f"t must be > 0, got {t}")
    if k.alpha == 0.0:
        return 0.0
    rho = k.rho
    val = _integrate(lambda w: resolvent_values(k, t - w ** (1.0 / rho)),
                     0.0, t**rho, 1e-11)
    conv = val / math.gamma(rho + 1.0)
    return resolvent(k, t) + k.alpha * conv - 1.0


# ---------------------------------------------------------------------------
# empirical and mean kernels
# ---------------------------------------------------------------------------


def empirical_kernel(alphas, rho, t: float) -> float:
    """f_n(t): empirical_kernel_values at one point."""
    return float(empirical_kernel_values(alphas, rho, [t])[0])


def _rates(alphas) -> np.ndarray:
    """Rates as a float array, once they are 1-d, nonempty, finite and >= 0."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or not alphas.size or not np.all(np.isfinite(alphas) & (alphas >= 0)):
        raise DomainError("alphas must be a nonempty 1-d array of finite rates >= 0")
    return alphas


def _rate_lag_blocks(evaluate, alphas: np.ndarray, rho: float, lags: np.ndarray):
    """(lag slice, lags x rates block of evaluate(rho, alpha lag^rho)) pairs
    of at most _BLOCK cells (at least one lag) over the 1-d lags; evaluate
    is ml_one_values or ml_two_values."""
    lp = lags**rho
    step = max(1, _BLOCK // max(alphas.size, 1))
    for a in range(0, lp.size, step):
        args = lp[a : a + step, None] * alphas[None, :]
        yield slice(a, a + step), evaluate(rho, args.ravel()).reshape(args.shape)


def _rate_means(alphas, rho, ts, p: int) -> np.ndarray:
    """mean_k alpha_k^p E_{rho,beta}(-alpha_k t^rho) at each t of ts: f_n at
    p = 0 (beta = 1), -f_n' t^(1 - rho) at p = 1 (beta = rho).

    With A = max alpha_k and x = A t^rho this is one series per lag,
    A^p sum_j (-x)^j mu_(j+p) / Gamma(rho j + beta), mu_j = mean_k (alpha_k/A)^j
    by repeated products and fsum: _alt_series weighted by the moments.  To
    first order fl(A t^rho), fl(alpha_k/A), the j + p - 1 products, fsum,
    the division by n and the weighting put (3j + 2p + 2) eps/2 on term j,
    within the eps (2j + 4) |a_j mu_(j+p)| u^j it adds; mu_(j+p) <= 1 does
    not increase, so E_{rho,beta}(-x) dominates the terms one by one and its
    truncation estimate holds.  A lag keeps the series value if x is within
    E_{rho,beta}'s series threshold, the estimate within SERIES_TARGET and
    the guard untripped; other lags, and rho = 1 or 2, sum their cells.
    """
    alphas, ts, rho = _rates(alphas), _times(ts), float(FractionalOrder(rho))
    lags, beta, top = ts.ravel(), rho if p else 1.0, float(alphas.max())
    out, x = np.empty(lags.size), top * lags**rho
    by_series = rho not in (1.0, 2.0) and top > 0.0
    cells = ~(x <= _regime_thresholds(rho, beta)[0]) if by_series else np.ones(lags.size, bool)
    series = np.flatnonzero(~cells)
    if series.size:
        # the top band of x has the most terms
        band = max(math.frexp(float(x[series].max()))[1], 0)
        moments = np.empty(len(_band_terms(rho, beta, None, band)) + p)
        r, power = alphas / top, np.ones(alphas.size)
        for j in range(moments.size):
            moments[j] = math.fsum(power.tolist()) / alphas.size
            power *= r
        for a in range(0, series.size, _BLOCK):
            lag = series[a : a + _BLOCK]
            v, e, _, guard = _alt_series(rho, beta, None, x[lag], moments[p:])
            cells[lag] = ~(e <= SERIES_TARGET) | guard
            out[lag] = v * top if p else v
    rest = np.flatnonzero(cells)
    evaluate = ml_two_values if p else ml_one_values
    for rows, block in _rate_lag_blocks(evaluate, alphas, rho, lags[rest]):
        out[rest[rows]] = np.add.reduce(block * alphas if p else block, axis=1) / alphas.size
    return out.reshape(ts.shape)


def empirical_kernel_values(alphas, rho, ts: np.ndarray) -> np.ndarray:
    """f_n, the arithmetic mean of s_alpha over the given rates, on a grid,
    by the moment series of _rate_means; all-zero rates give f_n = 1."""
    return _rate_means(alphas, rho, ts, 0)


def mean_kernel(mk: MeanKernel, t: float) -> float:
    """G(t): mean_kernel_values at one point."""
    return float(mean_kernel_values(mk, [t])[0])


def mean_kernel_values(mk: MeanKernel, ts: np.ndarray) -> np.ndarray:
    """G(t) = H_{rho,1,mu}(t^rho/lam), the mixing-law mean of s_alpha(t), on a grid."""
    return _g_quadrature_many(mk.rho, mk.mixing.mu, mk.mixing.lam, _times(ts))[0]


def mean_kernel_deriv(mk: MeanKernel, t: float) -> float:
    """d/dt G(t): mean_kernel_deriv_values at one point."""
    return float(mean_kernel_deriv_values(mk, [t])[0])


def mean_kernel_deriv_values(mk: MeanKernel, ts: np.ndarray) -> np.ndarray:
    """d/dt G(t) = -t^(rho-1) E[alpha E_{rho,rho}(-alpha t^rho)] on a grid.

    alpha times the Gamma(mu, lam) density is mu/lam times the
    Gamma(mu + 1, lam) density, so G'(t) = -(mu/lam) t^(rho-1)
    H_{rho,rho,mu+1}(t^rho/lam): the mixing integral of G at beta = rho and
    shape mu + 1.  Defined for rho >= 1, where the uniform derivative
    envelope is integrable against the mixing law.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts) & (ts > 0.0)):
        raise DomainError("all times must be finite and > 0")
    if mk.rho < 1.0:
        raise DomainError("mean kernel derivative requires rho >= 1")
    mu, lam = mk.mixing.mu, mk.mixing.lam
    return (-(mu / lam) * ts ** (mk.rho - 1.0)
            * _g_quadrature_many(mk.rho, mu + 1.0, lam, ts, mk.rho)[0])


# ---------------------------------------------------------------------------
# variance integrals and tails
# ---------------------------------------------------------------------------


def _square_integral(row, a: float, b: float, rtol: float) -> float:
    """Integral of the vectorized row(u)^2 over [a, b] in v = log1p(u), which
    resolves the mass near u = 0 and keeps long ranges well scaled."""
    return _integrate(lambda v: np.exp(v) * row(np.expm1(v)) ** 2,
                      math.log1p(a), math.log1p(b), rtol)


def variance_integral(mk: MeanKernel, t: float) -> float:
    """sigma_t^2 = integral of G(u)^2 over [0, t], by _square_integral."""
    if not np.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    return _square_integral(lambda u: mean_kernel_values(mk, u), 0.0, t, 1e-10)


def resolvent_l2_norm(k: ResolventKernel) -> float:
    """||s_alpha||^2_{L2(0,inf)} = alpha^(-1/rho) ||s_1||^2 (exact scaling).

    By Plancherel on s_1's Laplace transform s^(rho-1)/(s^rho + 1),
    ||s_1||^2 = -cot(rho pi/2)/(rho sin(pi/rho)), finite on 1/2 < rho < 2;
    in d = rho - 1, exact in floating point, it is
    tan(pi d/2)/(rho sin(pi d/rho)), free of cancellation near rho = 1.
    """
    if not k.alpha > 0.0:
        raise DomainError("l2 norm needs alpha > 0")
    rho = k.rho
    if not 0.5 < rho < 2.0:
        raise DomainError(f"square integrability needs 1/2 < rho < 2, got {rho}")
    d = rho - 1.0
    unit = (math.tan(0.5 * math.pi * d) / (rho * math.sin(math.pi * d / rho))
            if d else 0.5)
    return k.alpha ** (-1.0 / rho) * unit


def _tail_bound_from(mk: MeanKernel, T: float) -> float:
    """Closed-form upper bound for the tail integral of G^2 past T.

    Assembled from elementary bounds on the mixing integral of the envelope
    M/(1+alpha u^rho): split the Gamma weight at z=1, bound each piece, then
    integrate the squared sum in closed form.  Valid for T^rho >= lam.
    """
    rho, mu, lam = mk.rho, mk.mixing.mu, mk.mixing.lam
    m = bound_m(rho)
    gm = math.gamma(mu)
    b2 = math.gamma(mu - 1.0) if mu > 1.0 else math.exp(-1.0)
    c2 = m * b2 * lam / gm  # coefficient of the u^(-rho) piece
    p = 2.0 * rho - 1.0
    if mu > 1.0:
        a = m * lam / (gm * (mu - 1.0)) + c2
        return a * a * T ** (-p) / p
    if mu == 1.0:
        # G <= M lam u^(-rho) (ln(1+u^rho/lam) + e^-1); expand the log as
        # rho ln u + ln(u^-rho + 1/lam) and bound the second addend on [T, inf)
        d = math.log(T ** (-rho) + 1.0 / lam) + math.exp(-1.0)
        c = m * lam
        i0 = T ** (-p) / p
        i1 = T ** (-p) * (math.log(T) / p + 1.0 / p**2)
        i2 = T ** (-p) * (math.log(T) ** 2 / p + 2.0 * math.log(T) / p**2 + 2.0 / p**3)
        return c * c * (rho * rho * i2 + 2.0 * rho * d * i1 + d * d * i0)
    # 0 < mu < 1
    a1 = (m / gm) * lam**mu * (1.0 / mu + 1.0 / (1.0 - mu))
    q = 2.0 * rho * mu - 1.0
    r = rho * (mu + 1.0) - 1.0
    return (a1 * a1 * T ** (-q) / q
            + 2.0 * a1 * c2 * T ** (-r) / r
            + c2 * c2 * T ** (-p) / p)


def tail_variance_bound(mk: MeanKernel, T: float) -> float:
    """Upper bound for the tail integral of G(u)^2 over [T, inf).

    Decays like T^(1-2 rho) for mu > 1, (log T)^2 T^(1-2 rho) for mu = 1 and
    T^(1-2 mu rho) for mu < 1.  Requires the admissibility condition
    mu > 1/(2 rho); below it the tail integral itself diverges.
    """
    if not check_condition(mk.mixing, mk.rho):
        raise DomainError(
            f"tail bound needs mu > 1/(2 rho); mu={mk.mixing.mu}, rho={mk.rho}")
    if not T > 0.0:
        raise DomainError(f"T must be > 0, got {T}")
    t0 = max(mk.mixing.lam ** (1.0 / mk.rho), 1.0)
    if T >= t0:
        return _tail_bound_from(mk, T)
    # below the closed-form range, pad with the global envelope |G| <= M
    m = bound_m(mk.rho)
    return m * m * (t0 - T) + _tail_bound_from(mk, t0)


# the depth search runs from _TAIL_T0 to _TAIL_T_MAX; integrals of K^2 over
# [0, T] are taken to rtol _HEAD_RTOL; Re Q of _gram, and a sum of such, is
# within _GRAM_ULPS eps of its |Q|
_TAIL_T0, _TAIL_T_MAX, _HEAD_RTOL, _GRAM_ULPS = 0.5, 1e7, 1e-10, 64.0
# past this e ell, _gram forms its numerator from e^(e ell + lw)
_GRAM_EXP = 512.0


def _shortest_depth(bound, tol: float):
    """Shortest T, to T/64, with bound(T) < tol, for a bound that does not
    grow with T: doubling from _TAIL_T0 brackets it in (T/2, T], then
    bisection runs over the multiples of T/64.  None when no T up to
    _TAIL_T_MAX qualifies."""
    T, lo, hi = _TAIL_T0, 64, 64  # in units of T/64
    while not bound(T) < tol:
        T, lo = 2.0 * T, 32
        if T > _TAIL_T_MAX:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid * T / 64) < tol else (mid, hi)
    return hi * T / 64


def _gram(rho: float, a, b, ell=None, lw=0.0) -> np.ndarray:
    """Q e^lw with Re Q = <s_a, s_b> in L2(0, inf), elementwise over rates
    > 0.  By Plancherel, with theta = pi rho/2, e = 1 - 1/rho,
    L1 = log a - i theta and L2 = log b + i theta, Q = (e^(e L2) - e^(e L1)) /
    (rho sin(pi e) (e^L2 - e^L1)) on 1/2 < rho < 2.  The numerator is taken
    as e^(e L1) expm1(e ell + i pi (rho - 1)), ell = log(b/a), whose ratio to
    sin(pi e) is (L2 - L1)/pi at rho = 1.  A caller may pass ell itself, so
    that b may underflow, and a log weight lw, which enters the exponentials:
    past e ell = _GRAM_EXP the numerator is formed from e^(e ell + lw)."""
    d, half = rho - 1.0, 0.5 * math.pi * (2.0 - rho)  # half = pi - theta
    den = (a - b) * math.cos(half) + 1j * (a + b) * math.sin(half)
    ell = np.log(b / a) if ell is None else ell
    w = np.exp(lw)
    if not d:
        return (ell + 1j * math.pi) * w / (math.pi * den)
    e, y = d / rho, math.pi * d
    # expm1(e ell + i y) e^lw from the real expm1, or past _GRAM_EXP, where
    # that overflows, from e^(e ell + lw)
    far = e * ell > _GRAM_EXP
    em = np.expm1(np.where(far, 0.0, e * ell))
    top = np.where(far, np.exp(e * ell + lw), (em + 1.0) * w)  # e^(e ell + lw)
    re = np.where(far, top * math.cos(y) - w,
                  (em * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2) * w)
    return (a**e * np.exp(-0.5j * y) * (re + 1j * top * math.sin(y))
            / (rho * math.sin(math.pi * e) * den))


@lru_cache(maxsize=None)
def _mean_norm(mk: MeanKernel):
    """(sigma^2 = ||G||^2, its error bound).  With g(r) = Re _gram(rho, 1, r),
    s_a(t) = s_1(a^(1/rho) t) and g(1/r) = r^(1/rho) g(r), integrating two
    Gamma(mu, lam) rates out along rays b = r a gives
    sigma^2 = 2 lam^(1/rho) Gamma(2 mu - 1/rho)/Gamma(mu)^2
    int_0^1 g(r) r^(mu-1) (1 + r)^(1/rho - 2 mu) dr, taken in v = r^p,
    p = min(mu + min(1 - 1/rho, 0), 1), where the integrand is bounded.  Its
    weight is exp(x), |x| <= u + (mu/p - 1) |log v| with
    u = |lgamma(2 mu - 1/rho)| + 2 |lgamma(mu)| + 2 mu, so rounding puts a
    value within (_GRAM_ULPS + |x|) eps of |Q| times the weight.  _integrate
    runs at rtol 16 (_GRAM_ULPS + u) eps; the error bound is twice a coarse
    integral of |Q| times the weight times (rtol + that rounding)."""
    rho, mu, lam = mk.rho, mk.mixing.mu, mk.mixing.lam
    p, top = min(mu + min(1.0 - 1.0 / rho, 0.0), 1.0), 2.0 * mu - 1.0 / rho
    ulps = _GRAM_ULPS + abs(math.lgamma(top)) + 2.0 * abs(math.lgamma(mu)) + 2.0 * mu
    c, rtol = math.lgamma(top) - 2.0 * math.lgamma(mu), 16.0 * ulps * _EPS

    def ray(v, bound=False):
        lv = np.log(v)
        r = np.exp(lv / p)  # may underflow: _gram reads log r
        q = _gram(rho, 1.0, r, lv / p, c + (mu / p - 1.0) * lv - top * np.log1p(r))
        if bound:
            return np.abs(q) * (rtol + (ulps + (mu / p - 1.0) * np.abs(lv)) * _EPS)
        return q.real

    scale = 2.0 * lam ** (1.0 / rho) / p
    return (scale * _integrate(ray, 0.0, 1.0, rtol),
            2.0 * scale * _integrate(partial(ray, bound=True), 0.0, 1.0, 1e-3))


def _l2_norm(kernel):
    """(||K||^2, its error bound) for G of a MeanKernel, or the f_n of a
    (rho, rates) pair: n^-2 sum_k sum_l Re _gram(rho, a_k, a_l), summed over
    blocks of rows of at most _BLOCK pairs (at least one row), whose sums
    math.fsum adds.  DomainError unless
    1/2 < rho < 2 and mu > 1/(2 rho) or all rates > 0: elsewhere the norm is
    infinite or the forms fail."""
    mean = isinstance(kernel, MeanKernel)
    rho = kernel.rho if mean else float(FractionalOrder(kernel[0]))
    alphas = None if mean else _rates(kernel[1])
    if not (0.5 < rho < 2.0 and (check_condition(kernel.mixing, rho) if mean
                                 else alphas.min() > 0.0)):
        raise DomainError(f"||K||^2 needs 1/2 < rho < 2 and mu > 1/(2 rho) "
                          f"or rates > 0; got {kernel}")
    if mean:
        return _mean_norm(kernel)
    # the blocks group the sum, so they fix its bits
    n, step = alphas.size, max(1, _BLOCK // alphas.size)
    blocks = (_gram(rho, alphas[a : a + step, None], alphas) for a in range(0, n, step))
    total, mods = map(math.fsum, zip(*((np.sum(q.real), np.sum(np.abs(q))) for q in blocks)))
    return total / n**2, _GRAM_ULPS * _EPS * mods / n**2


def _lower(kernel, u: np.ndarray) -> np.ndarray:
    """L = max(|K| - d, 0) at u: the computed K less its certified error d
    (G's own estimate; ACCURACY_FLOOR for f_n)."""
    if isinstance(kernel, MeanKernel):
        mix = kernel.mixing
        k, d = _g_quadrature_many(kernel.rho, mix.mu, mix.lam, u)[:2]
    else:
        k, d = empirical_kernel_values(kernel[1], kernel[0], u), ACCURACY_FLOOR
    return np.maximum(np.abs(k) - d, 0.0)


def _head_piece(kernel, a: float, b: float) -> float:
    """Integral over [a, b] of L^2 (_lower).  L^2 has a kink wherever |K|
    crosses d; _integrate halves the panels around each until they resolve."""
    return _square_integral(partial(_lower, kernel), a, b, _HEAD_RTOL)


_mean_piece = lru_cache(maxsize=None)(_head_piece)


@lru_cache(maxsize=1)
def _rate_terms(rho: float, rate_bytes: bytes):
    """(_l2_norm, memoized _head_piece) of the f_n row of one rate set, kept
    for the last set only: a depth search and the tail bound at the depth it
    returns then read one Gram sum and one set of head integrals."""
    kernel = (rho, np.frombuffer(rate_bytes))
    return _l2_norm(kernel), lru_cache(maxsize=None)(partial(_head_piece, kernel))


def _tail_bound(kernel, tol: float) -> Callable[[float], float]:
    """T -> an upper bound for the tail integral of K(u)^2 over [T, inf), K
    being G of a MeanKernel or f_n of a (rho, rates) pair, by subtraction:
    tail(T) = (||K||^2 + e) - I(T) (1 - r).  Its terms:
    * ||K||^2, _l2_norm's closed form, and e, the bound on its error;
    * I(T), the integral over [0, T] of L^2 <= K^2, L being each computed
      value of |K| less its certified error (_head_piece);
    * r = _HEAD_RTOL, the error of I(T) relative to I(T) by _integrate's
      per-panel rule, the rule variance_integral rests on.
    I(T) is summed over [0, _TAIL_T0], the octaves past it below T and the
    rest, each piece integrated once per MeanKernel, or per rate set while
    it is the last one asked for.
    TruncationError at once when e + r (||K||^2 + e) alone reaches tol."""
    if isinstance(kernel, MeanKernel):
        (norm, err), piece = _l2_norm(kernel), partial(_mean_piece, kernel)
    else:
        (norm, err), piece = _rate_terms(float(FractionalOrder(kernel[0])),
                                         _rates(kernel[1]).tobytes())
    if not err + _HEAD_RTOL * (norm + err) < tol:
        raise TruncationError(f"the allowances of ||K||^2 = {norm:g} alone "
                              f"reach tol={tol}")

    def tail(T: float) -> float:
        k = math.frexp(T / _TAIL_T0)[1] if T >= _TAIL_T0 else 0
        edges = [0.0, *(math.ldexp(_TAIL_T0, j) for j in range(k)), T]
        head = math.fsum(piece(a, b) for a, b in zip(edges, edges[1:]) if a < b)
        return norm + err - head * (1.0 - _HEAD_RTOL)

    return tail


def stationary_variance(mk: MeanKernel, tol: float) -> float:
    """Limit variance sigma^2 = ||G||^2, the integral of G^2 over the whole
    half line, by _mean_norm; AccuracyError when its error bound exceeds
    tol/2."""
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    sigma2, err = _l2_norm(mk)
    if err > 0.5 * tol:
        raise AccuracyError(f"sigma^2 is certified to {err:.3g}, not to "
                            f"tol/2 = {0.5 * tol:g}", est_abs_error=err)
    return sigma2
