"""Deterministic kernel layer.

The scalar resolvent s_alpha(t) = E_rho(-alpha t^rho) solves the
convolution identity s + alpha (g * s) = 1 with the power memory kernel
g(t) = t^(rho-1)/Gamma(rho).  Averaging s_alpha over a Gamma(mu, lam) law in
alpha gives the mean kernel G(t), the deterministic object behind the
aggregated process: its square integrates to path variances, and its tail
controls how much history a stationary simulation must keep.  G and its
derivative G' are one Gamma-mixing integral at two parameter sets, evaluated
by the same series, closed-form and panel paths.

Bound constants: the envelope constants M (for E_rho), M2 (for E_{rho,rho})
and M3 (for the derivative of the unit resolvent) are estimated once per rho
as suprema over a dense logarithmic grid, times a 1.1 safety factor, and
cached.  They are not exact suprema, only stable empirical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError
from .mixing import GammaMixing, check_condition
from .special_functions import (
    _EPS,
    ACCURACY_FLOOR,
    FractionalOrder,
    _g_quadrature_many,
    ml_one,
    ml_one_values,
    ml_two,
    ml_two_values,
)

__all__ = [
    "ResolventKernel",
    "MeanKernel",
    "resolvent",
    "resolvent_values",
    "volterra_residual",
    "resolvent_deriv",
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

_SAFETY = 1.1


@lru_cache(maxsize=64)
def bound_m(rho: float) -> float:
    """Empirical M with |E_rho(-x)| <= M/(1+x) for all x >= 0."""
    rho = float(FractionalOrder(rho))
    if rho == 2.0:
        raise DomainError("E_2(-x) = cos(sqrt x) does not decay; no envelope")
    xs = np.concatenate([[0.0], np.geomspace(1e-4, 1e6, 4000)])
    vals = ml_one_values(rho, xs)
    return _SAFETY * float(np.max(np.abs(vals) * (1.0 + xs)))


@lru_cache(maxsize=64)
def bound_m2(rho: float) -> float:
    """Empirical M2 with |E_{rho,rho}(-x)| <= M2/(1+x) for all x >= 0."""
    rho = float(FractionalOrder(rho))
    if rho == 2.0:
        raise DomainError("E_{2,2}(-x) decays too slowly; no 1/(1+x) envelope")
    xs = np.concatenate([[0.0], np.geomspace(1e-4, 1e6, 4000)])
    vals = ml_two_values(rho, xs)
    return _SAFETY * float(np.max(np.abs(vals) * (1.0 + xs)))


@lru_cache(maxsize=64)
def bound_m3(rho: float) -> float:
    """Empirical M3 with |s_1'(x)| = x^(rho-1)|E_{rho,rho}(-x^rho)| <= M3/(1+x).

    Only defined for rho >= 1; below that the derivative blows up at 0.
    """
    rho = float(FractionalOrder(rho))
    if rho < 1.0 or rho == 2.0:
        raise DomainError(f"derivative envelope needs 1 <= rho < 2, got {rho}")
    xs = np.geomspace(1e-6, 1e4, 4000)
    vals = ml_two_values(rho, xs**rho)
    return _SAFETY * float(np.max((1.0 + xs) * xs ** (rho - 1.0) * np.abs(vals)))


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
    w = (t-tau)^rho, after which the integrand is bounded and adaptive
    quadrature applies directly.
    """
    if not t > 0.0:
        raise DomainError(f"t must be > 0, got {t}")
    if k.alpha == 0.0:
        return 0.0
    from scipy import integrate

    rho = k.rho

    def integrand(w):
        return resolvent(k, t - w ** (1.0 / rho))

    val, err = integrate.quad(integrand, 0.0, t**rho,
                              epsabs=1e-11, epsrel=1e-11, limit=400)
    if err > 1e-8:
        raise AccuracyError(
            f"convolution quadrature reported error {err:.2e} at t={t}")
    conv = val / math.gamma(rho + 1.0)
    return resolvent(k, t) + k.alpha * conv - 1.0


def resolvent_deriv(k: ResolventKernel, t: float) -> float:
    """d/dt s_alpha(t) = -alpha t^(rho-1) E_{rho,rho}(-alpha t^rho)."""
    if not t > 0.0:
        raise DomainError(f"t must be > 0, got {t}")
    if k.alpha == 0.0:
        return 0.0
    return -k.alpha * t ** (k.rho - 1.0) * ml_two(k.rho, k.alpha * t**k.rho).value


# ---------------------------------------------------------------------------
# empirical and mean kernels
# ---------------------------------------------------------------------------


def empirical_kernel(alphas, rho, t: float) -> float:
    """f_n(t): empirical_kernel_values at one point."""
    return float(empirical_kernel_values(alphas, rho, [t])[0])


# rate x lag cells per evaluator call of a table, which bounds the
# evaluator's per-point arrays; each cell is evaluated on its own
_TABLE_CELLS = 1 << 18


def _rate_lag_blocks(evaluate, alphas: np.ndarray, rho: float, lags: np.ndarray):
    """(lag slice, lags x rates block of evaluate(rho, alpha lag^rho)) pairs
    of at most _TABLE_CELLS cells over the 1-d lags; evaluate is
    ml_one_values or ml_two_values."""
    lp = lags**rho
    step = max(1, _TABLE_CELLS // max(alphas.size, 1))
    for a in range(0, lp.size, step):
        args = lp[a : a + step, None] * alphas[None, :]
        yield slice(a, a + step), evaluate(rho, args.ravel()).reshape(args.shape)


def empirical_kernel_values(alphas, rho, ts: np.ndarray) -> np.ndarray:
    """f_n, the arithmetic mean of s_alpha over the given rates, on a grid.

    All rates of one lag are summed in one row reduce, so a lag's value does
    not depend on the other lags of the grid.
    """
    alphas = np.asarray(alphas, dtype=float)
    ts = _times(ts)
    if alphas.ndim != 1 or alphas.size == 0:
        raise DomainError("alphas must be a nonempty 1-d array")
    rho = float(FractionalOrder(rho))
    out = np.empty(ts.size)
    for rows, block in _rate_lag_blocks(ml_one_values, alphas, rho, ts.ravel()):
        out[rows] = np.add.reduce(block, axis=1)
    return (out / alphas.size).reshape(ts.shape)


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


def variance_integral(mk: MeanKernel, t: float) -> float:
    """sigma_t^2 = integral of G(u)^2 over [0, t].

    Long ranges are split at u = 16 with a log substitution beyond, so the
    adaptive rule cannot step over the mass concentrated near the origin.
    """
    if not np.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    from scipy import integrate

    head, e1 = integrate.quad(lambda u: mean_kernel(mk, u) ** 2,
                              0.0, min(t, 16.0),
                              epsabs=1e-10, epsrel=1e-10, limit=400)
    tail, e2 = 0.0, 0.0
    if t > 16.0:
        tail, e2 = integrate.quad(
            lambda v: math.exp(v) * mean_kernel(mk, math.exp(v)) ** 2,
            math.log(16.0), math.log(t),
            epsabs=1e-10, epsrel=1e-10, limit=400)
    val = head + tail
    if e1 + e2 > 1e-7 * max(1.0, abs(val)):
        raise AccuracyError(f"variance quadrature error {e1 + e2:.2e} at t={t}")
    return float(val)


@lru_cache(maxsize=64)
def _unit_resolvent_l2(rho: float) -> float:
    """||s_1||^2 on the half line, by quadrature plus certified envelope tail."""
    if rho == 1.0:
        return 0.5
    m = bound_m(rho)
    # envelope tail below 1e-9 fixes the truncation point
    upper = (m * m / ((2.0 * rho - 1.0) * 1e-9)) ** (1.0 / (2.0 * rho - 1.0))
    upper = max(upper, 32.0)
    from scipy import integrate

    head, e1 = integrate.quad(lambda u: ml_one(rho, u**rho).value ** 2,
                              0.0, 32.0, epsabs=1e-11, epsrel=1e-11, limit=400)
    # log substitution keeps the long tail piece well-scaled
    body, e2 = integrate.quad(
        lambda v: math.exp(v) * ml_one(rho, math.exp(v * rho)).value ** 2,
        math.log(32.0), math.log(upper), epsabs=1e-11, epsrel=1e-11, limit=400)
    tail = m * m * upper ** (1.0 - 2.0 * rho) / (2.0 * rho - 1.0)
    if e1 + e2 > 1e-8:
        raise AccuracyError("resolvent norm quadrature did not converge")
    return float(head + body + tail)


def resolvent_l2_norm(k: ResolventKernel) -> float:
    """||s_alpha||^2_{L2(0,inf)} = alpha^(-1/rho) ||s_1||^2 (exact scaling).

    Square integrability of the envelope requires rho > 1/2.
    """
    if not k.alpha > 0.0:
        raise DomainError("l2 norm needs alpha > 0")
    if k.rho <= 0.5:
        raise DomainError(f"square integrability needs rho > 1/2, got {k.rho}")
    return k.alpha ** (-1.0 / k.rho) * _unit_resolvent_l2(k.rho)


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


# certified tails from the kernel's own values: cells of width _TAIL_H from
# _TAIL_T0 on, so every multiple of T/64 a depth search probes is a cell edge
_TAIL_T0 = 0.5
_TAIL_H = 2.0**-9
# rates x cells of one tail table (8 B of it kept per cell); a kernel whose
# table would be larger is bounded by its envelope alone
_TAIL_CELLS = 8 * _TABLE_CELLS
_TAIL_T_MAX = 1e7
# (rho, rates) tables are keyed on data, not on a few model parameters: only
# the most recently used few are kept
_TAIL_RATE_TABLES = 4


def _shortest_depth(bound, tol: float, t_max: float = _TAIL_T_MAX):
    """Shortest T, to T/64, with bound(T) < tol, for a bound that does not
    grow with T: doubling from _TAIL_T0 brackets it in (T/2, T], then
    bisection runs over the multiples of T/64.  None when no T up to t_max
    qualifies."""
    T, lo, hi = _TAIL_T0, 64, 64  # in units of T/64
    while not bound(T) < tol:
        T, lo = 2.0 * T, 32
        if T > t_max:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid * T / 64) < tol else (mid, hi)
    return hi * T / 64


@dataclass(frozen=True)
class _TailRow:
    key: object  # memo key of the kernel; the only field compared and hashed
    rho: float = field(compare=False)
    width: int = field(compare=False)  # rates per lag
    row: Callable = field(compare=False)  # lags -> kernel values
    envelope: Callable = field(compare=False)  # T -> envelope tail of K^2 past T


def _tail_row(kernel) -> _TailRow:
    """The row of a MeanKernel's G or the f_n row of a (rho, rates) pair.

    |s_alpha(t)| <= M/(1 + alpha t^rho) bounds |f_n(t)| by M t^-rho times the
    mean of 1/alpha, whose square integrates in closed form.
    """
    if isinstance(kernel, MeanKernel):
        return _TailRow(kernel, kernel.rho, 1,
                        lambda u: mean_kernel_values(kernel, u),
                        lambda T: tail_variance_bound(kernel, T))
    rho, alphas = kernel
    rho, alphas = float(FractionalOrder(rho)), np.asarray(alphas, dtype=float)
    c, p = bound_m(rho) * float(np.mean(1.0 / alphas)), 2.0 * rho - 1.0
    return _TailRow((rho, alphas.tobytes()), rho, alphas.size,
                    lambda u: empirical_kernel_values(alphas, rho, u),
                    lambda T: c * c * T ** (-p) / p)


def _tail_table(kr: _TailRow, tol: float) -> np.ndarray:
    """Entry i bounds the tail integral of K^2 past _TAIL_T0 + i _TAIL_H.

    The cells of [_TAIL_T0, T_far) each hold at most
    h (max(|K(u_i)|, |K(u_i+1)|) + ACCURACY_FLOOR + h M3/u_i)^2, since |K|
    is within ACCURACY_FLOOR of its computed values and |K'(t)| <= M3/t: every
    s_alpha' is alpha^(1/rho) s_1'(alpha^(1/rho) t), bounded by
    M3 alpha^(1/rho)/(1 + alpha^(1/rho) t) <= M3/t, and G' and f_n' are means
    of them.  Past T_far, the first point where the envelope is below
    tol/10, the envelope bounds the rest.  Empty when M3 is undefined
    (rho outside [1, 2)) or the table would exceed _TAIL_CELLS.
    """
    t_far = (_shortest_depth(kr.envelope, tol / 10.0)
             if 1.0 <= kr.rho < 2.0 else None)
    n = 0 if t_far is None else int(round((t_far - _TAIL_T0) / _TAIL_H))
    table = np.empty(n if n * kr.width <= _TAIL_CELLS else 0)
    if table.size:
        m3 = bound_m3(kr.rho)
        step = max(1, _TABLE_CELLS // kr.width)
        for a in range(0, n, step):
            u = _TAIL_T0 + np.arange(a, min(a + step, n) + 1) * _TAIL_H
            k = np.abs(kr.row(u))
            k = np.maximum(k[:-1], k[1:]) + ACCURACY_FLOOR + _TAIL_H * m3 / u[:-1]
            table[a : a + k.size] = _TAIL_H * k * k
        np.cumsum(table[::-1], out=table[::-1])
        # a sum of n nonnegative terms rounds low by at most n eps of itself
        table *= 1.0 + n * _EPS
        table += kr.envelope(t_far)
    return table


_mean_tail_table = lru_cache(maxsize=None)(_tail_table)
_rate_tail_table = lru_cache(maxsize=_TAIL_RATE_TABLES)(_tail_table)


def _tail_bound(kernel, tol: float) -> Callable[[float], float]:
    """T -> an upper bound for the tail integral of K(u)^2 over [T, inf), K
    being G of a MeanKernel or f_n of a (rho, rates) pair: the smaller of
    the cell sum of _tail_table, read at the last cell edge at or below T,
    and the envelope.

    The table is memoized per (kernel, tol); of the (rho, rates) tables only
    the _TAIL_RATE_TABLES most recently used are kept.
    """
    kr = _tail_row(kernel)
    memo = _mean_tail_table if isinstance(kernel, MeanKernel) else _rate_tail_table
    table = memo(kr, tol)

    def tail(T: float) -> float:
        envelope = kr.envelope(T)
        i = math.floor((T - _TAIL_T0) / _TAIL_H)
        return min(float(table[i]), envelope) if 0 <= i < table.size else envelope

    return tail


def stationary_variance(mk: MeanKernel, tol: float) -> float:
    """Limit variance sigma^2 = integral of G^2 over the whole half line.

    Brackets [sigma_T^2, sigma_T^2 + tail(T)] at the shortest depth T (to
    T/64, up to 1e9) whose certified tail, the one simulated histories are
    truncated by, is below tol; the returned midpoint is within tol/2 of the
    truth.
    """
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if not check_condition(mk.mixing, mk.rho):
        raise DomainError(
            f"stationary variance needs mu > 1/(2 rho); "
            f"mu={mk.mixing.mu}, rho={mk.rho}")
    tail = _tail_bound(mk, tol)
    T = _shortest_depth(tail, tol, 1e9)
    if T is None:
        raise AccuracyError(f"tail bound does not reach tol={tol} below T=1e9")
    return variance_integral(mk, T) + 0.5 * tail(T)
