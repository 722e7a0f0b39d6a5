"""Gaussian sample paths by stochastic convolution.

Every process here is a Wiener convolution integral discretized by
left-endpoint quadrature on a uniform grid: X(t_j) = sum_{i<j} K(t_j - t_i)
dW_i.  One ensemble of component paths shares a single Brownian driver; the
randomness of the reversion rates lives in a separate seed namespace, so
rates can be resampled holding the driver fixed and vice versa.

Stationary (two-sided-time) processes truncate their infinite history at a
point certified by the kernel tail bounds, never at an arbitrary cutoff.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import fft as sp_fft

from . import _rng
from .errors import AccuracyError, DomainError, TruncationError
from .kernels import (
    _TAIL_T_MAX,
    MeanKernel,
    _rate_lag_blocks,
    _shortest_depth,
    _tail_bound,
    _tail_row,
    empirical_kernel_values,
    mean_kernel_values,
)
from .mixing import check_condition
from .special_functions import FractionalOrder, ml_one_values

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "brownian_increments",
    "simulate_component_paths",
    "empirical_mean_path",
    "simulate_empirical_mean_paths",
    "simulate_limit_path",
    "simulate_limit_paths",
    "simulate_exact_gaussian",
    "y_minus_s_at_zero",
    "simulate_stationary_paths",
    "simulate_stationary_mean_paths",
]

# direct convolution below this work estimate, FFT above; fixed rule so the
# choice never depends on the environment
_FFT_CUTOVER = 1 << 15
# driver cells (replications x cells) and gathered kernel weights (cells x
# times) that a marginal sampler holds at once
_DRIVER_CELLS = 1 << 22


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = t0 + j dt, j = 0..n_steps."""

    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.T) and self.T > self.t0):
            raise DomainError(f"need finite T > t0, got [{self.t0}, {self.T}]")
        if self.n_steps < 1 or self.n_steps != int(self.n_steps):
            raise DomainError(f"n_steps must be a positive integer, got {self.n_steps}")
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1) * self.dt


def sidecar_path(path: str) -> str:
    """The JSON sidecar of a data file: its path with the extension replaced
    by .json.  A data path ending in .json would be overwritten by its own
    sidecar and is rejected."""
    root, ext = os.path.splitext(path)
    if ext == ".json":
        raise DomainError(f"data path {path!r} would be overwritten by its "
                          "own JSON sidecar")
    return root + ".json"


@dataclass
class PathEnsemble:
    """Trajectories on a shared grid plus provenance.

    values has shape (n_paths, n_steps+1); labels carries one record per
    path; method is "increment_quadrature" or "exact_covariance".
    """

    grid: TimeGrid
    values: np.ndarray
    labels: list = field(default_factory=list)
    method: str = "increment_quadrature"
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path: str, sidecar: bool = True) -> None:
        """CSV with columns t, path_0..path_{m-1}; floats in shortest
        round-trip form.  The sidecar JSON holds the full provenance."""
        side_path = sidecar_path(path) if sidecar else None
        times = self.grid.times()
        with open(path, "w") as fh:
            fh.write(",".join(["t"] + [f"path_{i}" for i in range(self.n_paths)]) + "\n")
            for j, t in enumerate(times):
                row = [repr(float(t))] + [repr(float(v)) for v in self.values[:, j]]
                fh.write(",".join(row) + "\n")
        if sidecar:
            side = {
                "grid": {"t0": self.grid.t0, "T": self.grid.T,
                         "n_steps": self.grid.n_steps},
                "method": self.method,
                "labels": self.labels,
                "meta": self.meta,
            }
            with open(side_path, "w") as fh:
                json.dump(side, fh, indent=2, sort_keys=True)
                fh.write("\n")


def brownian_increments(grid: TimeGrid, seed: int, rep: int = 0,
                        kind: str = "w") -> np.ndarray:
    """Increments over the grid cells: i.i.d. N(0, dt), counter-based.

    kind selects the driver namespace ("w" forward, "wtilde" backward); rep
    indexes independent replications of the whole driver.
    """
    return _increment_matrix(seed, kind, 1, grid.n_steps, grid.dt, rep)[0]


def _increment_matrix(seed: int, kind: str, n_reps: int, n_steps: int,
                      dt: float, rep0: int = 0) -> np.ndarray:
    z = _rng.normal_rows(seed, (kind,), n_reps, n_steps, row_offset=rep0)
    return z * math.sqrt(dt)


def _two_sided_increments(seed: int, n_reps: int, n_hist: int, n_steps: int,
                          dt: float, rep0: int = 0) -> np.ndarray:
    """Driver increments over cells [-n_hist, n_steps) anchored at t = 0.

    Backward and forward cells come from separate streams indexed by their
    absolute position, so two simulations with different history depths share
    every overlapping cell; this is what couples processes across truncation
    choices.
    """
    # filled and scaled in place: each block of draws is freed once copied
    dw = np.empty((n_reps, n_hist + n_steps))
    dw[:, :n_hist] = _rng.normal_rows(seed, ("w2s-b",), n_reps, n_hist,
                                      row_offset=rep0)[:, ::-1]
    dw[:, n_hist:] = _rng.normal_rows(seed, ("w2s-f",), n_reps, n_steps,
                                      row_offset=rep0)
    dw *= math.sqrt(dt)
    return dw


def _driver_blocks(seed: int, tags: tuple, n_reps: int, n_hist: int,
                   n_steps: int, rep0: int = 0):
    """Blocks (r0, r1, back, fwd) of at most _DRIVER_CELLS normals of driver
    replications rep0 + r0 .. rep0 + r1 - 1: back is the "w2s-b" history,
    fwd the cells 0 .. n_steps-1 of the stream tags, None where empty."""
    step = max(1, _DRIVER_CELLS // max(n_hist + n_steps, 1))
    for r0 in range(0, n_reps, step):
        r1 = min(r0 + step, n_reps)
        back, fwd = (_rng.normal_rows(seed, t, r1 - r0, n,
                                      row_offset=rep0 + r0) if n else None
                     for t, n in ((("w2s-b",), n_hist), (tags, n_steps)))
        yield r0, r1, back, fwd


def _convolve_rows(kernels: np.ndarray, dw: np.ndarray,
                   method: str = "auto", start: int = 0) -> np.ndarray:
    """Row-wise causal convolutions sum_m kernels[., m+1] dw[., j-m], kept
    from path index start (0 <= start <= N) on.

    kernels has shape (K, L) with lag-0 entry unused; dw has shape (R, N);
    either K == R, K == 1 or R == 1.  Returns the path columns start..N,
    shape (max(K, R), N+1-start); path column 0 is zero.  The FFT is
    circular over just enough points that no kept output wraps
    (overlap-save), so a late start shortens it.
    """
    kern = np.atleast_2d(np.asarray(kernels, dtype=float))[:, 1:]
    dw = np.atleast_2d(np.asarray(dw, dtype=float))
    n = dw.shape[1]
    rows = max(kern.shape[0], dw.shape[0])
    lo = max(start, 1) - 1  # first kept index of the linear convolution
    if method == "auto":
        method = "fft" if kern.shape[1] * n >= _FFT_CUTOVER else "direct"
    if method == "fft":
        size = sp_fft.next_fast_len(max(kern.shape[1] + n - 1 - lo, n),
                                    real=True)
        workers = _rng.worker_count()
        full = sp_fft.irfft(sp_fft.rfft(kern, size, axis=1, workers=workers)
                            * sp_fft.rfft(dw, size, axis=1, workers=workers),
                            size, axis=1, workers=workers)
    elif method == "direct":
        full = np.empty((rows, kern.shape[1] + n - 1))
        for r in range(rows):
            a = kern[min(r, kern.shape[0] - 1)]
            b = dw[min(r, dw.shape[0] - 1)]
            full[r] = np.convolve(a, b)
    else:
        raise DomainError(f"unknown convolution method {method!r}")
    out = np.zeros((rows, n + 1 - start))
    out[:, int(start == 0):] = full[:, lo:n]
    return out


def _resolvent_lag_rows(alphas: np.ndarray, rho: float,
                        lags: np.ndarray) -> np.ndarray:
    """Matrix s_alpha(lag) for every (alpha, lag) pair."""
    out = np.empty((alphas.size, lags.size))
    for cols, block in _rate_lag_blocks(ml_one_values, alphas, rho, lags):
        out[:, cols] = block.T
    return out


def _require_simulatable(rho: float, grid: TimeGrid) -> float:
    """rho as a float, once paths on grid can be simulated with it; grids
    start at t0 = 0, so their times double as kernel lags."""
    rho = float(FractionalOrder(rho))
    if rho < 1.0:
        raise DomainError(
            "path simulation is limited to rho >= 1; below that the kernel "
            "derivative is unbounded at the origin and the left-endpoint "
            "scheme loses its error control")
    if grid.t0 != 0.0:
        raise DomainError("path grids are laid out from t0 = 0")
    return rho


def simulate_component_paths(alphas, rho, grid: TimeGrid, seed: int,
                             rep: int = 0) -> PathEnsemble:
    """One path per reversion rate, all driven by the same increments.

    X_k(t_j) = sum_{i<j} s_{alpha_k}(t_j - t_i) dW_i with X_k(0) = 0.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0 or np.any(alphas < 0):
        raise DomainError("alphas must be a nonempty 1-d array of rates >= 0")
    rho = _require_simulatable(rho, grid)
    kern = _resolvent_lag_rows(alphas, rho, grid.times())
    dw = brownian_increments(grid, seed, rep=rep)
    values = _convolve_rows(kern, dw[None, :])
    labels = [{"process": "component", "alpha": float(a), "rep": rep}
              for a in alphas]
    return PathEnsemble(grid, values, labels, "increment_quadrature",
                        {"process": "component", "rho": rho, "seed": seed,
                         "rep": rep})


def empirical_mean_path(ensemble: PathEnsemble) -> np.ndarray:
    """Pointwise average across the paths of one shared-driver ensemble."""
    return ensemble.values.mean(axis=0)


def _shared_kernel_paths(process: str, kern: np.ndarray, grid: TimeGrid,
                         seed: int, n_paths: int, rep0: int):
    """One kernel row against driver replications rep0 .. rep0+n_paths-1;
    path r sees the driver brownian_increments(grid, seed, rep0 + r)."""
    dw = _increment_matrix(seed, "w", n_paths, grid.n_steps, grid.dt, rep0)
    values = _convolve_rows(kern[None, :], dw)
    labels = [{"process": process, "rep": rep0 + r} for r in range(n_paths)]
    return PathEnsemble(grid, values, labels, "increment_quadrature",
                        {"process": process, "seed": seed})


def simulate_empirical_mean_paths(alphas, rho, grid: TimeGrid, seed: int,
                                  n_paths: int = 1) -> PathEnsemble:
    """Empirical means Y_n of the component ensembles of replications
    0 .. n_paths-1.  Convolution is bilinear, so Y_n is the driver
    convolved with f_n = mean_k s_{alpha_k}, up to the order of the sums."""
    rho = _require_simulatable(rho, grid)
    kern = empirical_kernel_values(alphas, rho, grid.times())
    return _shared_kernel_paths("empirical", kern, grid, seed, n_paths, 0)


def simulate_limit_paths(mk: MeanKernel, grid: TimeGrid, seed: int,
                         n_paths: int = 1, rep0: int = 0) -> PathEnsemble:
    """Aggregated-limit paths: the mean kernel convolved with replications
    rep0 .. rep0+n_paths-1 of the driver namespace a component ensemble with
    this seed uses."""
    _require_simulatable(mk.rho, grid)
    kern = mean_kernel_values(mk, grid.times())
    return _shared_kernel_paths("limit", kern, grid, seed, n_paths, rep0)


def simulate_limit_path(mk: MeanKernel, grid: TimeGrid, seed: int,
                        rep: int = 0) -> np.ndarray:
    """One aggregated-limit path, driven by replication rep."""
    return simulate_limit_paths(mk, grid, seed, 1, rep).values[0]


def simulate_exact_gaussian(kernel, grid: TimeGrid, n_paths: int,
                            seed: int) -> PathEnsemble:
    """Exact sampler for the convolution process with the given kernel.

    Builds the grid covariance C(s, t) = integral of K(t-u) K(s-u) over
    [0, min(s, t)] by quadrature, takes a symmetric square root (diagonal
    jitter escalated from 1e-12 on indefiniteness) and draws exact Gaussian
    vectors.  The high-accuracy oracle against increment quadrature; cost is
    quadratic in the grid, so keep grids short.
    """
    if grid.t0 != 0.0:
        raise DomainError("exact sampler assumes processes started at 0")
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    from scipy import integrate

    times = grid.times()
    n = times.size
    cov = np.zeros((n, n))
    for i in range(1, n):
        for j in range(i, n):
            s, t = times[i], times[j]
            val, _ = integrate.quad(lambda v: kernel(t - s + v) * kernel(v),
                                    0.0, s, epsabs=1e-12, epsrel=1e-12,
                                    limit=200)
            cov[i, j] = cov[j, i] = val
    scale = float(np.max(np.diag(cov)))
    if scale == 0.0:
        root = np.zeros((n, n))
    else:
        jitter = 1e-12
        for _ in range(8):
            w, vecs = np.linalg.eigh(cov + jitter * scale * np.eye(n))
            if w.min() >= -1e-10 * scale:
                break
            jitter *= 10.0
        else:
            raise AccuracyError("covariance square root failed despite jitter")
        root = vecs * np.sqrt(np.clip(w, 0.0, None))
    z = _rng.normal_rows(seed, ("exact",), n_paths, n)
    values = z @ root.T
    values[:, 0] = 0.0
    labels = [{"process": "exact", "rep": r} for r in range(n_paths)]
    return PathEnsemble(grid, values, labels, "exact_covariance",
                        {"process": "exact", "seed": seed,
                         "marginal_variances": np.diag(cov).tolist()})


def y_minus_s_at_zero(mk: MeanKernel, s: float, n_paths: int, seed: int,
                      n_steps: int | None = None) -> np.ndarray:
    """Samples of the time-shifted aggregate read off at time zero.

    Integrates the mean kernel against the backward extension of the driver
    over [-s, 0]; the law coincides with the unshifted process at time s.
    """
    if not s > 0.0:
        raise DomainError(f"shift s must be > 0, got {s}")
    if n_steps is None:
        n_steps = min(max(int(math.ceil(s / 2e-3)), 200), 20000)
    dv = s / n_steps
    lags = np.arange(n_steps) * dv
    kern = mean_kernel_values(mk, lags)
    dw = _increment_matrix(seed, "wtilde", n_paths, n_steps, dv)
    return dw @ kern


def _certified_history(kernel, grid: TimeGrid, tol: float) -> float:
    """Shortest truncation depth, to T/64, whose certified tail variance is
    below tol: doubling from 0.5 brackets it in (T/2, T], then bisection runs
    over the multiples of T/64.

    kernel is a MeanKernel (the tail of G) or a (rho, rates) pair (the tail
    of their f_n row; a single rate gives its s_alpha row).  The tail bound
    is kernels._tail_bound: a cell sum of the kernel's own values, with
    its derivative envelope M3/t, out to where the global envelope M/(1+x)
    takes over, and never above that envelope.  The depth depends on the
    kernel and tol only; callers round it up to whole cells of grid.
    """
    depth = _shortest_depth(_tail_bound(kernel, tol), tol)
    if depth is None:
        raise TruncationError(f"history truncation cannot certify tol={tol} "
                              f"below T={_TAIL_T_MAX:g}")
    return depth


def simulate_stationary_paths(kernel, grid: TimeGrid, seed: int, tol: float,
                              rho: float | None = None, n_paths: int = 1,
                              rep: int = 0) -> PathEnsemble:
    """Two-sided-time processes with certified history truncation.

    kernel may be a MeanKernel (the stationary aggregate; n_paths
    independent replications) or a 1-d array of rates (one path per rate on
    a single shared driver; requires rho).  History is truncated where the
    certified tail of G, or of the slowest rate's s_alpha, drops below tol
    (see _certified_history); meta records the depth as t_trunc and the
    tail bound there as tail_bound.
    """
    return _stationary(kernel, grid, seed, tol, rho, n_paths, rep, False)


def simulate_stationary_mean_paths(alphas, rho: float, grid: TimeGrid,
                                   seed: int, tol: float, n_paths: int = 1,
                                   rep: int = 0) -> PathEnsemble:
    """Stationary empirical means of replications rep .. rep+n_paths-1.

    Path r is one f_n row convolved with driver replication rep + r: by
    bilinearity, the mean of the component paths that
    simulate_stationary_paths(alphas, ..., rep=rep + r) would draw on the
    same history.  The depth is certified from the f_n row itself, so it is
    usually shorter than the components', which must cover the slowest
    rate.
    """
    return _stationary(np.asarray(alphas, dtype=float), grid, seed, tol, rho,
                       n_paths, rep, True)


def _stationary(kernel, grid: TimeGrid, seed: int, tol: float, rho,
                n_paths: int, rep: int, mean: bool):
    """Kernel rows over lags 0 .. (n_hist + n_steps) dt against two-sided
    drivers, only the grid window convolved out."""
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if isinstance(kernel, MeanKernel):
        rho = _require_simulatable(kernel.rho, grid)
        if not check_condition(kernel.mixing, rho):
            raise DomainError(
                "stationary aggregate needs mu > 1/(2 rho); "
                f"mu={kernel.mixing.mu}, rho={rho}")
        certified = kernel
        rows = _tail_row(kernel).row
        labels = [{"process": "eta", "rep": rep + r} for r in range(n_paths)]
        meta = {"process": "eta", "mu": kernel.mixing.mu,
                "lam": kernel.mixing.lam}
    else:
        alphas = np.asarray(kernel, dtype=float)
        if alphas.ndim != 1 or alphas.size == 0 or np.any(alphas <= 0):
            raise DomainError("stationary component rates must be positive")
        if rho is None:
            raise DomainError("rho is required with explicit rates")
        rho = _require_simulatable(rho, grid)
        if mean:
            certified = (rho, alphas)
            rows = _tail_row(certified).row
            labels = [{"process": "xi_mean", "rep": rep + r}
                      for r in range(n_paths)]
        else:
            # the slowest rate has the largest tail: the tail of s_alpha
            # past T is alpha^(-1/rho) times that of s_1 past alpha^(1/rho) T
            certified, n_paths = (rho, alphas.min(keepdims=True)), 1
            rows = partial(_resolvent_lag_rows, alphas, rho)
            labels = [{"process": "xi", "alpha": float(a), "rep": rep}
                      for a in alphas]
        meta = {"process": "xi_mean" if mean else "xi"}
    dt = grid.dt
    n_hist = int(math.ceil(_certified_history(certified, grid, tol) / dt))
    kern = rows(np.arange(n_hist + grid.n_steps + 1) * dt)
    dw = _two_sided_increments(seed, n_paths, n_hist, grid.n_steps, dt,
                               rep0=rep)
    values = _convolve_rows(kern, dw, start=n_hist)
    meta.update(rho=rho, seed=seed, tol=tol, t_trunc=n_hist * dt,
                tail_bound=_tail_bound(certified, tol)(n_hist * dt))
    return PathEnsemble(grid, values, labels, "increment_quadrature", meta)


# ---------------------------------------------------------------------------
# marginal-sample helpers used by the diagnostics (no full path storage)
# ---------------------------------------------------------------------------


def _lag_weights(kern: np.ndarray, j: np.ndarray, n_hist: int,
                 n_steps: int):
    """Kernel weights of the output times j over the history cells (row k
    is cell -1 - k, lag j + k + 1) and the forward cells (row i, lag j - i,
    zero unless i < j)."""
    lag = j[None, :] - np.arange(n_steps)[:, None]
    return (kern[j[None, :] + np.arange(1, n_hist + 1)[:, None]],
            np.where(lag > 0, kern[np.maximum(lag, 0)], 0.0))


def _sampled_convolution(kernel_lags: np.ndarray, t_indices, n_hist: int,
                         n_paths: int, seed: int, dt: float, tags: tuple,
                         rep0: int) -> np.ndarray:
    """sum over cells p in [-n_hist, j) of kernel_lags[j - p] dW_p at the
    grid indices j of t_indices, one row per driver replication rep0 ..

    Each block of _driver_blocks meets the kernel weights of the requested
    times in one GEMM, back @ W_back + fwd @ W_fwd; only the result is
    scaled by sqrt(dt).  A weight block holds at most _DRIVER_CELLS cells.
    """
    kern = np.asarray(kernel_lags, dtype=float)
    t_indices = np.asarray(t_indices, dtype=int)
    n_steps = int(t_indices.max())
    cols = max(1, _DRIVER_CELLS // max(n_hist + n_steps, 1))
    out = np.empty((n_paths, t_indices.size))
    for r0, r1, back, fwd in _driver_blocks(seed, tags, n_paths, n_hist,
                                            n_steps, rep0):
        for c0 in range(0, t_indices.size, cols):
            w = _lag_weights(kern, t_indices[c0 : c0 + cols], n_hist, n_steps)
            out[r0:r1, c0 : c0 + cols] = sum(
                z @ wz for z, wz in zip((back, fwd), w) if z is not None)
    return out * math.sqrt(dt)


def marginal_samples(kernel_lags: np.ndarray, t_indices, n_paths: int,
                     seed: int, dt: float, kind: str = "w",
                     rep0: int = 0) -> np.ndarray:
    """Samples of the convolution process at selected grid indices.

    Returns shape (n_paths, len(t_indices)); row r uses driver replication
    rep0 + r of the namespace kind, as simulate_limit_paths does.
    """
    return _sampled_convolution(kernel_lags, t_indices, 0, n_paths, seed, dt,
                                (kind,), rep0)


def stationary_marginal_samples(kernel_lags: np.ndarray, t_indices,
                                n_hist: int, n_paths: int, seed: int,
                                dt: float, rep0: int = 0) -> np.ndarray:
    """Marginals of a two-sided convolution with n_hist history steps, on
    the drivers simulate_stationary_paths uses."""
    return _sampled_convolution(kernel_lags, t_indices, n_hist, n_paths, seed,
                                dt, ("w2s-f",), rep0)
