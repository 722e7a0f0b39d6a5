"""Gaussian sample paths by stochastic convolution.

Every process here is a Wiener convolution integral discretized by
left-endpoint quadrature on a uniform grid: X(t_j) = sum_{i<j} K(t_j - t_i)
dW_i, and one engine (_convolution_paths) builds them all: kernel rows
against driver rows, with a one-sided process the two-sided one of an empty
history.  One ensemble of component paths shares a single Brownian driver;
the randomness of the reversion rates lives in a separate seed namespace, so
rates can be resampled holding the driver fixed and vice versa.

Stationary (two-sided-time) processes truncate their infinite history at a
point certified by the kernel tail bounds, never at an arbitrary cutoff, and
draw that history on coarse dyadic cells (HistoryLayout) wherever the kernel
is flat enough that weighting a cell by its mean loses little variance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _rng
from .errors import DomainError, TruncationError, _count
from .kernels import (
    _TAIL_T_MAX,
    MeanKernel,
    _rate_lag_blocks,
    _rates,
    _shortest_depth,
    _tail_bound,
    empirical_kernel_values,
    mean_kernel_values,
)
from .special_functions import _BLOCK, FractionalOrder, ml_one_values

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "brownian_increments",
    "simulate_component_paths",
    "empirical_mean_path",
    "simulate_empirical_mean_paths",
    "simulate_limit_path",
    "simulate_limit_paths",
    "y_minus_s_at_zero",
    "simulate_stationary_paths",
    "simulate_stationary_mean_paths",
]

# direct convolution below this work estimate, FFT above; fixed rule so the
# choice never depends on the environment
_FFT_CUTOVER = 1 << 15
# driver cells (replications x cells) and gathered kernel weights (cells x
# times) a marginal sampler holds at once; lags of a two-sided kernel row;
# 16 times it, the rates x lags cells of an xi kernel table (512 MiB)
_DRIVER_CELLS = 1 << 22
# the variance the coarse cells of one history may lose against its fine
# cells, in units of dt: a tenth of the dt/2 by which the left-endpoint
# scheme itself is off
_SHORTFALL = 0.05


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = t0 + j dt, j = 0..n_steps."""

    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.T) and self.T > self.t0):
            raise DomainError(f"need finite T > t0, got [{self.t0}, {self.T}]")
        object.__setattr__(self, "n_steps", _count("n_steps", self.n_steps))

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
    path; method names the scheme, "increment_quadrature" for every
    simulator here.
    """

    grid: TimeGrid
    values: np.ndarray
    labels: list = field(default_factory=list)
    method: str = "increment_quadrature"
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path: str) -> None:
        """CSV with columns t, path_0..path_{m-1}; floats in shortest
        round-trip form.  The sidecar JSON holds the full provenance."""
        side_path = sidecar_path(path)
        with open(path, "w") as fh:
            fh.write(",".join(["t"] + [f"path_{i}" for i in range(self.n_paths)]) + "\n")
            write_csv_rows(fh, self.grid.times(), self.values)
        grid = {"t0": self.grid.t0, "T": self.grid.T,
                "n_steps": self.grid.n_steps}
        with open(side_path, "w") as fh:
            json.dump({"grid": grid, "method": self.method,
                       "labels": self.labels, "meta": self.meta},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")


def write_csv_rows(fh, first: np.ndarray, columns: np.ndarray) -> None:
    """CSV rows first[i], columns[0, i], columns[1, i], ... with each float
    written exactly as repr writes it, in blocks of whole rows holding at
    most _BLOCK values (at least one row).  A block's text is built in one
    record of _RECORD bytes a value, next to a dozen int64 and float
    arrays: about 220 bytes a value at the peak (3.4 MiB traced for 2^14
    values), which the writer holds besides the table.

    numpy computes a block's text with no Python call per value.  A finite
    v with 1e-6 < |v| < 1e16 that is not a power of two has a decimal
    exponent e in [-6, 15], so 10^s with s = 16 - e <= 22 is an exact double
    and Dekker's product gives P = |v| 10^s exactly, as an integer plus a
    fraction in [0, 1) (log10's e is corrected by one wherever P falls
    outside [1e16, 1e17)).  For k = 2, 1, 0 the nearest (17 - k)-digit
    decimal D 10^k, ties to even, is kept when |D 10^k - P| < H, H =
    spacing(v) 10^s / 2, the half-width of v's round-trip interval, which is
    symmetric because v is not a power of two.  Every quantity compared is
    a multiple of H / 5^s, and any of them within 2^53 / 5^22 > 3.7 times H
    is an exact double, so each test is exact.  The interval is at most
    2^-52 |v| < 0.23 units of the 15th digit wide, so the 15-digit rounding
    is the one string of at most 15 digits that can round-trip: kept, it
    gives the shortest text once its trailing zeros are stripped.
    Otherwise the 16-digit rounding, then the 17-digit one (always inside),
    is both the shortest and, as repr picks, the nearest.  The bound is
    strict because no 15- or 16-digit decimal lies on the interval's edge
    here: the edges (2m +- 1) 2^(b-1) of v = m 2^b have at least 17
    significant digits, or are the odd neighbours of an integer v.  The
    text is laid out as repr lays it out: fixed notation for e >= -4, with
    ".0" after an integer, and d.ddde-0X below.  Zeros, nan, infinities,
    powers of two and magnitudes <= 1e-6 or >= 1e16 are written by repr.
    """
    rows = max(1, _BLOCK // (1 + columns.shape[0]))
    # one record buffer serves every block of the call
    out = bytearray(min(rows, first.size) * (1 + columns.shape[0]) * _RECORD)
    for i in range(0, first.size, rows):
        block = np.column_stack((first[i : i + rows],
                                 columns[:, i : i + rows].T))
        fh.write(_csv_text(block, out))


# one value's text is a record of 32 bytes, four little-endian words: its 17
# digits at bytes 7-23, those from a decimal point on shifted up one byte,
# the sign, "0." and leading zeros before them, "e-0X" after, and the
# separator at byte 31; the zero bytes left between are dropped
_RECORD = 32


@lru_cache(maxsize=None)
def _csv_tables():
    """Powers of ten, the digit groups and the record tables.

    groups[k, g] is the ASCII word of g = 0000..9999 as group k of the 16
    digits after the first and, in its high half, the trailing zeros of the
    16 if k is their last nonzero group (16 for 0000): the least over the
    four groups is the count.  layout[i, w, code] is word w of the digit
    bytes kept in place (i = 0), of those kept shifted up a byte (i = 1,
    the ones after a point) and of the text OR-ed in (i = 2), by code
    ((e + 6) 17 + digits - 1) 2 + negative, e the decimal exponent."""
    p10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
    d = np.arange(10)
    words, zeros = d + 48, d == 0
    for k in (8, 16, 24):
        words = (words[:, None] | d + 48 << k).ravel()
        zeros = ((d == 0) * (1 + zeros[:, None])).ravel()
    groups = ((zeros + 12) << 32 | words) - (np.arange(4)[:, None] << 34)
    groups[:, 0] = 16 << 32 | words[0]
    # by code: the point's byte (none: _RECORD), the end of the digits and
    # the start of "0.000"
    code = np.arange(22 * 17 * 2, dtype=np.int16)
    e, n, neg = code // 34 - 6, code // 2 % 17 + 1, code % 2
    c = np.arange(_RECORD, dtype=np.int16)[:, None]
    sci, lead = e < -4, (e < 0) & (e >= -4)
    dot = np.where(sci & (n > 1) | (e >= 0), np.where(sci, 8, 8 + e), _RECORD)
    end = np.where(e >= 0, np.maximum(8 + n, 10 + e), 7 + n + (sci & (n > 1)))
    start = np.where(lead, 6 + e, 7)
    text = np.select(
        [lead & (c == start + 1), lead & (c >= start) & (c < 7), c == dot,
         sci & (c == end), sci & (c == end + 1), sci & (c == end + 2),
         sci & (c == end + 3), c == _RECORD - 1],
        [46, 48, 46, 101, 45, 48, 48 - e, 44]) + (c == start - 1) * neg * 45
    layout = np.stack([(c >= 7) & (c < np.minimum(dot, end)),
                      (c > dot) & (c < end), text]).astype(np.uint8)
    layout[:2] *= 255
    layout = layout.reshape(3, 4, 8, -1).transpose(0, 1, 3, 2)
    layout = np.ascontiguousarray(layout).view("<u8")[..., 0]
    return p10, groups.view(np.uint64), layout


def _two_product(a: np.ndarray, b: np.ndarray):
    """hi + lo == a b exactly (Dekker), with no overflow or underflow."""
    hi = a * b
    t = 134217729.0 * a
    ah = t - (t - a)
    al = a - ah
    t = 134217729.0 * b
    bh = t - (t - b)
    bl = b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _shortest_digits(a: np.ndarray):
    """For 1e-6 < a < 1e16, no power of two: the shortest round-trip digits
    of a, zero-padded to 17 (an int in [1e16, 1e17)), and the decimal
    exponent; see write_csv_rows."""
    p10 = _csv_tables()[0]
    e = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.int64)
    hi, lo = _two_product(a, p10[16 - e])
    fix = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.int64) \
        - ((hi < 1e16) | (hi == 1e16) & (lo < 0))
    k = np.flatnonzero(fix)
    if k.size:
        e[k] += fix[k]
        hi[k], lo[k] = _two_product(a[k], p10[16 - e[k]])
    floor = np.floor(lo)
    whole = hi.astype(np.int64) + floor.astype(np.int64)
    frac = lo - floor
    half_gap = 0.5 * np.spacing(a) * p10[16 - e]
    digits = whole + ((frac > 0.5) | (frac == 0.5) & (whole & 1 == 1))
    for k in (1, 2):
        unit = 10 ** k
        q = whole // unit
        r = whole - q * unit
        half = 0.5 * unit - r
        up = (frac > half) | (frac == half) & (q & 1 == 1)
        digits = np.where(np.abs(up * unit - r - frac) < half_gap,
                          (q + up) * unit, digits)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    return digits, e + carry


def _csv_text(block: np.ndarray, out: bytearray) -> str:
    """The CSV text of a 2-d block of floats; see write_csv_rows.  Its
    records are laid out in out, a buffer of at least one record a value,
    whose bytes past them are zeroed."""
    _, groups, (keep, shift, text) = _csv_tables()
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    bits = x.view(np.int64)
    a = np.abs(x)
    slow = np.flatnonzero(~((a > 1e-6) & (a < 1e16)
                            & (bits & 0xFFFFFFFFFFFFF != 0)))
    a[slow] = 1.5
    digits, e = _shortest_digits(a)
    hi = digits // 10 ** 8
    lo = digits - hi * 10 ** 8
    first = hi // 10 ** 8
    hi -= first * 10 ** 8
    q, r = hi // 10000, lo // 10000
    g = [np.take(groups[k], d)
         for k, d in enumerate((q, hi - q * 10000, r, lo - r * 10000))]
    tz = np.minimum(np.minimum(g[0], g[1]), np.minimum(g[2], g[3])) >> 32
    # the tables' code, with 17 - tz significant digits
    code = (((e * 17 + 118).view(np.uint64) - tz) << 1) | (bits < 0)
    w1 = g[0] & 0xFFFFFFFF | g[1] << 32
    w2 = g[2] & 0xFFFFFFFF | g[3] << 32
    digit0 = first.view(np.uint64) + 48  # its ASCII byte
    # the bytes from the point on come from the record shifted up by 8 bits
    words = np.frombuffer(out, np.uint64).reshape(-1, 4)
    words[x.size :] = 0  # zero bytes, which the translate drops
    words = words[: x.size]
    words[:, 0] = digit0 << 56 | np.take(text[0], code)
    words[:, 1] = (w1 & np.take(keep[1], code) | np.take(text[1], code)
                   | (w1 << 8 | digit0) & np.take(shift[1], code))
    words[:, 2] = (w2 & np.take(keep[2], code) | np.take(text[2], code)
                   | (w2 << 8 | w1 >> 56) & np.take(shift[2], code))
    words[:, 3] = w2 >> 56 & np.take(shift[3], code) | np.take(text[3], code)
    record = words.view(np.uint8)
    if slow.size:
        reprs = "".join(repr(v).ljust(_RECORD - 1, "\0") + ","
                        for v in x[slow].tolist())
        record[slow] = np.frombuffer(reprs.encode(), np.uint8).reshape(
            -1, _RECORD)
    record[block.shape[1] - 1 :: block.shape[1], _RECORD - 1] = 10
    return out.translate(None, b"\0").decode("ascii")


@dataclass(frozen=True)
class HistoryLayout:
    """Dyadic cells of the backward driver that partition the history cells
    [-n_hist, 0), nearest to t = 0 first: cell c is the bridge-tree cell of
    level levels[c] over the fine cells -1 - starts[c] down to
    -starts[c] - 2^levels[c].

    Weighting a cell by the kernel's mean over its lags is the L^2 projection
    of the fine cells' sum onto the cell's increment, so the variance falls
    short of the fine scheme's by exactly dt sum (K_i - mean K)^2 over the
    cell, and that is also the mean-square error.  disc_var_bound bounds the
    sum of these shortfalls over the cells, at every output time and kernel
    row the layout was made for.
    """

    levels: np.ndarray
    starts: np.ndarray
    disc_var_bound: float = 0.0

    @property
    def widths(self) -> np.ndarray:
        return np.left_shift(1, self.levels)


# the history of a one-sided process: no cells at all
_NO_HISTORY = HistoryLayout(np.zeros(0, dtype=np.int64),
                            np.zeros(0, dtype=np.int64))


def _window_max(v: np.ndarray, starts: np.ndarray, span: int) -> np.ndarray:
    """max of v[a : a + span] for each a of starts: within blocks of span,
    the larger of a suffix maximum at a and a prefix maximum at its end."""
    blocks = np.concatenate([v, np.full(-v.size % span, -np.inf)])
    blocks = blocks.reshape(-1, span)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[starts], prefix[starts + span - 1])


def _history_layout(kernel_lags: np.ndarray, t_lo: int, t_hi: int,
                    n_hist: int, dt: float) -> HistoryLayout:
    """The dyadic layout of n_hist history cells for the output times
    t_lo .. t_hi of the kernel rows kernel_lags (one row, or one per rate;
    column m is lag m dt), whose shortfall stays within _SHORTFALL dt.

    From the top down, each aligned cell of level <= TREE_TOP is kept when
    its shortfall, at every output time and row, is within its share
    _SHORTFALL w / n_hist (times dt) of the budget, else split in two; fine
    cells have none.  A cell over lags p .. p + w - 1 falls short by
    dt V_w(p), and V is built for every lag start by merging halves,
    V_2w(p) = V_w(p) + V_w(p + w) + w/2 (m_w(p) - m_w(p + w))^2 with m_w the
    mean: a sum of nonnegative terms, never a difference of large sums.  A
    rounding allowance keeps the recorded disc_var_bound an upper bound.
    """
    if n_hist == 0:
        return _NO_HISTORY
    top, span = _rng.TREE_TOP, t_hi - t_lo + 1
    rows = np.atleast_2d(np.asarray(kernel_lags, dtype=float))[
        :, t_lo + 1 : n_hist + t_hi + 1]
    if rows.shape[1] < n_hist + span - 1:
        raise DomainError(f"kernel rows end before lag {n_hist + t_hi}")
    # worst[l][a >> l]: largest V over the rows and output times of the
    # aligned cell of level l that starts at history cell a
    worst = [None] * (top + 1)
    peaks = []  # max |K| of each chunk of rows
    chunk = max(1, _BLOCK // rows.shape[1])
    for r0 in range(0, rows.shape[0], chunk):
        mean = rows[r0 : r0 + chunk]
        peaks.append(np.max(np.abs(mean)))
        var = np.zeros_like(mean)
        for l in range(1, top + 1):
            h = 1 << (l - 1)
            if 2 * h > n_hist:
                break
            gap = mean[:, :-h] - mean[:, h:]
            gap *= gap
            gap *= 0.5 * h
            var = var[:, :-h] + var[:, h:]
            var += gap
            mean = mean[:, :-h] + mean[:, h:]
            mean *= 0.5
            got = _window_max(var.max(axis=0),
                              np.arange(0, n_hist - 2 * h + 1, 2 * h), span)
            worst[l] = got if worst[l] is None else np.maximum(worst[l], got)
    eps = float(np.finfo(float).eps)
    kmax2 = float(np.max(peaks)) ** 2
    share = _SHORTFALL / n_hist
    # candidates: the aligned cells of the binary decomposition of n_hist
    cand = [[] for _ in range(top + 1)]
    pos = n_hist >> top << top
    cand[top] = list(range(0, pos, 1 << top))
    for l in range(top - 1, -1, -1):
        if n_hist - pos >= 1 << l:
            cand[l].append(pos)
            pos += 1 << l
    split = np.empty(0, dtype=np.int64)
    kept = []
    for l in range(top, 0, -1):
        a = np.sort(np.concatenate([np.asarray(cand[l], dtype=np.int64),
                                    split]))
        if not a.size:
            continue
        w = 1 << l
        # rounding: l merges lose at most 4 (l + 1) eps of V relatively, and
        # each mean, off by at most (l + 1) eps max|K|, adds at most
        # 4 (l + 1)^2 eps w max K^2 through the squared gaps
        bound = (worst[l][a >> l] * (1.0 + 4 * (l + 1) * eps)
                 + 4 * (l + 1) ** 2 * eps * w * kmax2)
        ok = bound <= share * w
        kept.append((np.full(ok.sum(), l), a[ok], bound[ok]))
        split = np.concatenate([a[~ok], a[~ok] + w // 2])
    fine = np.concatenate([np.asarray(cand[0], dtype=np.int64), split])
    kept.append((np.zeros(fine.size, dtype=np.int64), fine,
                 np.zeros(fine.size)))
    levels, starts, bounds = (np.concatenate(x) for x in zip(*kept))
    order = np.argsort(starts)
    return HistoryLayout(levels[order], starts[order],
                         dt * math.fsum(bounds) * (1.0 + 4 * eps))


def brownian_increments(grid: TimeGrid, seed: int, rep: int = 0) -> np.ndarray:
    """Increments over the grid cells: i.i.d. N(0, dt), counter-based; row
    rep of the forward ("w") cells of the one driver of this seed."""
    return _increment_matrix(seed, 1, grid.n_steps, grid.dt, rep)[0]


def _increment_matrix(seed: int, n_reps: int, n_steps: int, dt: float,
                      rep0: int = 0) -> np.ndarray:
    return _two_sided_increments(seed, n_reps, _NO_HISTORY, n_steps, dt, rep0)


def _two_sided_increments(seed: int, n_reps: int, layout: HistoryLayout,
                          n_steps: int, dt: float, rep0: int = 0) -> np.ndarray:
    """Driver increments over the cells [-n_hist, n_steps) from t = 0, n_hist
    the fine cells of layout.

    Every cell is drawn at its absolute position, forward cells from "w" rows
    and history cells from the "wtilde" bridge tree, so simulations with
    other history depths or layouts, and one-sided ones, are one Brownian
    motion.  Each history cell holds the increment of its layout cell spread
    evenly over that cell's fine cells, so a convolution with the fine kernel
    row weights the layout cell by the kernel's mean over it.
    """
    blocks = _driver_blocks(seed, n_reps, layout, n_steps, rep0)
    n_hist = int(layout.widths.sum())
    spread = np.repeat(np.arange(layout.levels.size), layout.widths)[::-1]
    scale = (math.sqrt(dt) / layout.widths)[spread]
    dw = np.empty((n_reps, n_hist + n_steps))
    for r0, r1, back, fwd in blocks:
        dw[r0:r1, :n_hist], dw[r0:r1, n_hist:] = back[:, spread] * scale, fwd
    dw[:, n_hist:] *= math.sqrt(dt)
    return dw


def _driver_blocks(seed: int, n_reps: int, layout: HistoryLayout,
                   n_steps: int, rep0: int = 0):
    """Blocks (r0, r1, back, fwd) of at most _DRIVER_CELLS normals of driver
    replications rep0 + r0 .. rep0 + r1 - 1: column c of back is the
    increment of cell c of layout (a cell of level l has variance 2^l) from
    the "wtilde" bridge tree, column i of fwd is cell i (a "w" row).  Every
    driver row is drawn here, and fewer than one replication raises
    DomainError before any draw."""
    n_reps = _count("n_paths", n_reps)
    n_cells = layout.levels.size
    step = _row_step(n_cells, n_steps)
    nodes = layout.starts >> layout.levels

    def block(r0):
        r1 = min(r0 + step, n_reps)
        back = (_rng.tree_cells(seed, ("wtilde",), r1 - r0, layout.levels,
                                nodes, row_offset=rep0 + r0)
                if n_cells else np.empty((r1 - r0, 0)))
        fwd = (_rng.normal_rows(seed, ("w",), r1 - r0, n_steps,
                                row_offset=rep0 + r0)
               if n_steps else np.empty((r1 - r0, 0)))
        return r0, r1, back, fwd

    return map(block, range(0, n_reps, step))


def _row_step(n_cells: int, n_steps: int) -> int:
    """Replications per block of _driver_blocks for n_cells history and
    n_steps forward cells: at most _DRIVER_CELLS normals, in whole rows of
    the tree when that allows more than one."""
    step = max(1, _DRIVER_CELLS // max(n_cells + n_steps, 1))
    if step > _rng.TREE_REPS:
        step -= step % _rng.TREE_REPS
    return step


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, for n >= 1: the real-FFT lengths that
    pocketfft factors into its fastest radices."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_rows(kernels: np.ndarray, dw: np.ndarray,
                   start: int = 0) -> np.ndarray:
    """Row-wise causal convolutions sum_m kernels[., m+1] dw[., j-m], kept
    from path index start (0 <= start <= N) on.

    kernels has shape (K, L) with lag-0 entry unused; dw has shape (R, N);
    either K == R, K == 1 or R == 1.  Returns the path columns start..N,
    shape (max(K, R), N+1-start); path column 0 is zero.  Direct below
    _FFT_CUTOVER, numpy's real FFT above, at the 5-smooth length _fast_len
    of just enough points that no kept output wraps (overlap-save), so a
    late start shortens it.  Either branch writes each row, or block of
    rows, straight into the output, so a call holds its inputs and output
    plus one block.
    """
    kern = np.atleast_2d(np.asarray(kernels, dtype=float))[:, 1:]
    dw = np.atleast_2d(np.asarray(dw, dtype=float))
    n = dw.shape[1]
    rows = max(kern.shape[0], dw.shape[0])
    lo = max(start, 1) - 1  # first kept index of the linear convolution
    out = np.zeros((rows, n + 1 - start))
    kept = out[:, int(start == 0):]
    if kern.shape[1] * n >= _FFT_CUTOVER:
        size = _fast_len(max(kern.shape[1] + n - 1 - lo, n))
        # blocks of rows of about _BLOCK spectrum cells; a side with one row
        # is transformed once
        step = max(1, _BLOCK // (size // 2 + 1))
        once = [np.fft.rfft(a, size, axis=1) if a.shape[0] == 1 else None
                for a in (kern, dw)]
        for r in range(0, rows, step):
            a, b = (f if f is not None else np.fft.rfft(side[r : r + step], size, axis=1)
                    for f, side in zip(once, (kern, dw)))
            kept[r : r + step] = np.fft.irfft(a * b, size, axis=1)[:, lo:n]
    else:
        for r in range(rows):
            kept[r] = np.convolve(kern[min(r, kern.shape[0] - 1)],
                                  dw[min(r, dw.shape[0] - 1)])[lo:n]
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


def _convolution_paths(process: str, kern: np.ndarray, grid: TimeGrid,
                       seed: int, meta: dict, n_paths: int = 1, rep0: int = 0,
                       n_hist: int = 0, alphas=None) -> PathEnsemble:
    """Every process: kernel rows over lags 0 .. (n_hist + n_steps) dt
    against drivers over the cells [-n_hist, n_steps), the grid window kept;
    one-sided processes have n_hist = 0.  Row k of kern is rate k of alphas
    on driver replication rep0, or else the one row meets replications
    rep0 .. rep0 + n_paths - 1.  The history is drawn on the layout of the
    window's times, and meta records as disc_var_bound the variance that
    its coarse cells lose, at most."""
    layout = _history_layout(kern, 0, grid.n_steps, n_hist, grid.dt)
    dw = _two_sided_increments(seed, n_paths, layout, grid.n_steps, grid.dt,
                               rep0)
    values = _convolve_rows(kern, dw, start=n_hist)
    labels = ([{"process": process, "rep": rep0 + r} for r in range(n_paths)]
              if alphas is None else
              [{"process": process, "alpha": float(a), "rep": rep0}
               for a in alphas])
    meta = {"process": process, "seed": seed, **meta}
    if n_hist:
        meta["disc_var_bound"] = layout.disc_var_bound
    return PathEnsemble(grid, values, labels, "increment_quadrature", meta)


def simulate_component_paths(alphas, rho, grid: TimeGrid, seed: int,
                             rep: int = 0) -> PathEnsemble:
    """One path per reversion rate, all driven by the same increments.

    X_k(t_j) = sum_{i<j} s_{alpha_k}(t_j - t_i) dW_i with X_k(0) = 0.
    """
    alphas = _rates(alphas)
    rho = _require_simulatable(rho, grid)
    kern = _resolvent_lag_rows(alphas, rho, grid.times())
    return _convolution_paths("component", kern, grid, seed,
                              {"rho": rho, "rep": rep}, rep0=rep,
                              alphas=alphas)


def empirical_mean_path(ensemble: PathEnsemble) -> np.ndarray:
    """Pointwise average across the paths of one shared-driver ensemble."""
    return ensemble.values.mean(axis=0)


def simulate_empirical_mean_paths(alphas, rho, grid: TimeGrid, seed: int,
                                  n_paths: int = 1) -> PathEnsemble:
    """Empirical means Y_n of the component ensembles of replications
    0 .. n_paths-1.  Convolution is bilinear, so Y_n is the driver
    convolved with f_n = mean_k s_{alpha_k}, up to the order of the sums."""
    rho = _require_simulatable(rho, grid)
    kern = empirical_kernel_values(alphas, rho, grid.times())
    return _convolution_paths("empirical", kern, grid, seed, {}, n_paths)


def simulate_limit_paths(mk: MeanKernel, grid: TimeGrid, seed: int,
                         n_paths: int = 1, rep0: int = 0) -> PathEnsemble:
    """Aggregated-limit paths: the mean kernel convolved with replications
    rep0 .. rep0+n_paths-1 of the driver namespace a component ensemble with
    this seed uses."""
    _require_simulatable(mk.rho, grid)
    kern = mean_kernel_values(mk, grid.times())
    return _convolution_paths("limit", kern, grid, seed, {}, n_paths, rep0)


def simulate_limit_path(mk: MeanKernel, grid: TimeGrid, seed: int,
                        rep: int = 0) -> np.ndarray:
    """One aggregated-limit path, driven by replication rep."""
    return simulate_limit_paths(mk, grid, seed, 1, rep).values[0]


def y_minus_s_at_zero(mk: MeanKernel, s: float, n_paths: int, seed: int,
                      n_steps: int | None = None) -> MarginalSamples:
    """Samples of the time-shifted aggregate Y_{-s} read off at time zero,
    whose law is that of the unshifted process at time s.

    The history-only stationary_marginal_samples over the n_steps backward
    cells of [-s, 0], weighted at their left ends and drawn on the coarse
    cells of their layout; meta["disc_var_bound"] bounds the variance that
    loses against the fine cells.  Every cell comes from one bridge tree, so
    at one cell width Y_{-b}(0) - Y_{-a}(0) draws on the cells beyond a only,
    up to the two layouts' projections of the cells near a.  More than
    _DRIVER_CELLS - 1 steps raise DomainError before the kernel row is built.
    """
    return _marginal_draws([_shift_request(mk, s, n_steps)], n_paths,
                           seed)[0][:, 0]


def _shift_request(mk: MeanKernel, s: float, n_steps: int | None):
    """The _marginal_draws request of y_minus_s_at_zero(mk, s, ., ., n_steps):
    the kernel row over lags 0 .. n_steps of width dv = s / n_steps, time 0,
    n_steps history cells, dv."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"shift s must be finite and > 0, got {s}")
    if n_steps is None:
        n_steps = min(max(int(math.ceil(s / 2e-3)), 200), 20000)
    n_steps = _count("n_steps", n_steps)
    _check_lags(n_steps + 1)
    dv = s / n_steps
    kern = mean_kernel_values(mk, np.arange(n_steps + 1) * dv)
    return kern, [0], n_steps, dv


def _check_lags(lags: int) -> None:
    """DomainError for a marginal sampler's kernel row over _DRIVER_CELLS
    lags."""
    if lags > _DRIVER_CELLS:
        raise DomainError(f"a marginal sample needs a kernel row of {lags} "
                          f"lags, over {_DRIVER_CELLS}")


def _certified_history(kernel, grid: TimeGrid, tol: float) -> float:
    """Shortest truncation depth, to T/64, whose certified tail variance is
    below tol: doubling from 0.5 brackets it in (T/2, T], then bisection runs
    over the multiples of T/64.

    kernel is a MeanKernel (the tail of G) or a (rho, rates) pair (the tail
    of their f_n row; a single rate gives its s_alpha row).  The tail bound
    is kernels._tail_bound, the exact squared L2 norm less the integral of
    K^2 up to the depth.  The depth depends on the kernel and tol only;
    callers round it up to whole cells of grid, and a kernel row over more
    than _DRIVER_CELLS lags is refused here.
    """
    depth = _shortest_depth(_tail_bound(kernel, tol), tol)
    if depth is None:
        raise TruncationError(f"history truncation cannot certify tol={tol} "
                              f"below T={_TAIL_T_MAX:g}")
    lags = math.ceil(depth / grid.dt) + grid.n_steps + 1
    if lags > _DRIVER_CELLS:
        raise TruncationError(f"depth {depth:g} for tol={tol} needs a kernel "
                              f"row of {lags} lags, over {_DRIVER_CELLS}")
    return depth


def simulate_stationary_paths(kernel, grid: TimeGrid, seed: int, tol: float,
                              rho: float | None = None, n_paths: int = 1,
                              rep: int = 0) -> PathEnsemble:
    """Two-sided-time processes with certified history truncation.

    kernel may be a MeanKernel (the stationary aggregate; n_paths
    independent replications) or a 1-d array of rates (one path per rate on
    a single shared driver; requires rho, and n_paths must be 1).  History
    is truncated where the certified tail of G, or of the slowest rate's
    s_alpha, drops below tol: its exact squared L2 norm less its integral
    up to the depth (see _certified_history); meta records the depth as
    t_trunc and the tail bound there as tail_bound.  The history is
    drawn on coarse dyadic cells (_history_layout) and meta records the
    variance they lose against fine cells, at most, as disc_var_bound.  A
    table of rates x lags over 16 _DRIVER_CELLS cells raises TruncationError
    before any row is built.
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
    return _stationary(alphas, grid, seed, tol, rho, n_paths, rep, True)


def _stationary(kernel, grid: TimeGrid, seed: int, tol: float, rho,
                n_paths: int, rep: int, mean: bool):
    """The engine's two-sided processes, on a history certified to tol."""
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    alphas, meta = None, {}
    if isinstance(kernel, MeanKernel):
        # mu <= 1/(2 rho), where G^2 has no integral, is refused by the
        # certificate before anything is built
        rho = _require_simulatable(kernel.rho, grid)
        certified, process = kernel, "eta"
        rows = partial(mean_kernel_values, kernel)
        meta = {"mu": kernel.mixing.mu, "lam": kernel.mixing.lam}
    else:
        alphas = _rates(kernel)
        if not alphas.min() > 0.0:
            raise DomainError("stationary component rates must be positive")
        if rho is None:
            raise DomainError("rho is required with explicit rates")
        rho = _require_simulatable(rho, grid)
        if mean:
            certified = (rho, alphas)
            rows = partial(empirical_kernel_values, alphas, rho)
            process, alphas = "xi_mean", None
        else:
            if n_paths != 1:
                raise DomainError("rates share one driver: n_paths must be 1")
            # the slowest rate has the largest tail: the tail of s_alpha
            # past T is alpha^(-1/rho) times that of s_1 past alpha^(1/rho) T
            certified = (rho, alphas.min(keepdims=True))
            rows = partial(_resolvent_lag_rows, alphas, rho)
            process = "xi"
    dt = grid.dt
    n_hist = int(math.ceil(_certified_history(certified, grid, tol) / dt))
    n_lags = n_hist + grid.n_steps + 1
    if alphas is not None and alphas.size * n_lags > 16 * _DRIVER_CELLS:
        raise TruncationError(f"{alphas.size} rates x {n_lags} lags for "
                              f"tol={tol} is a kernel table over "
                              f"{16 * _DRIVER_CELLS} cells")
    meta.update(rho=rho, tol=tol, t_trunc=n_hist * dt,
                tail_bound=_tail_bound(certified, tol)(n_hist * dt))
    kern = rows(np.arange(n_lags) * dt)
    return _convolution_paths(process, kern, grid, seed, meta, n_paths, rep,
                              n_hist, alphas)


# ---------------------------------------------------------------------------
# marginal-sample helpers used by the diagnostics (no full path storage)
# ---------------------------------------------------------------------------


class MarginalSamples(np.ndarray):
    """Marginal samples, an ndarray that carries meta["disc_var_bound"]: the
    variance its coarse history cells lose against fine ones, at most."""

    def __array_finalize__(self, obj):
        self.meta = getattr(obj, "meta", {})


def _lag_weights(kern: np.ndarray, j: np.ndarray, layout: HistoryLayout,
                 n_steps: int):
    """Kernel weights of the output times j over the history cells of layout
    (row c: the kernel's mean over the lags j + starts[c] + 1 onwards of its
    cell, all times in one reduceat over their gathered lag windows) and the
    forward cells (row i, lag j - i, zero unless i < j)."""
    lag = j[None, :] - np.arange(n_steps)[:, None]
    back = np.empty((0, j.size))
    if layout.levels.size:
        windows = sliding_window_view(kern, int(layout.widths.sum()))[j + 1]
        back = (np.add.reduceat(windows, layout.starts, axis=1).T
                / layout.widths[:, None])
    return back, np.where(lag > 0, kern[np.maximum(lag, 0)], 0.0)


def marginal_samples(kernel_lags: np.ndarray, t_indices, n_paths: int,
                     seed: int, dt: float, rep0: int = 0) -> np.ndarray:
    """Samples of the convolution process at selected grid indices, shape
    (n_paths, len(t_indices)), on the drivers simulate_limit_paths uses."""
    return stationary_marginal_samples(kernel_lags, t_indices, 0, n_paths,
                                       seed, dt, rep0)


def stationary_marginal_samples(kernel_lags: np.ndarray, t_indices,
                                n_hist: int, n_paths: int, seed: int,
                                dt: float, rep0: int = 0) -> MarginalSamples:
    """sum over cells p in [-n_hist, j) of kernel_lags[j - p] dW_p at the
    grid indices j of t_indices, one row per driver replication rep0 + r:
    the marginals of a two-sided convolution with n_hist history steps, on
    the drivers simulate_stationary_paths uses.

    The history is drawn on the coarse cells of _history_layout for the
    times min(t_indices) .. max(t_indices), each weighted by the kernel's
    mean over it; meta["disc_var_bound"] of the result bounds the variance
    that loses against the fine sum.  Each block of _driver_blocks meets the
    kernel weights of the requested times in one GEMM,
    back @ W_back + fwd @ W_fwd; only the result is scaled by sqrt(dt).  A
    weight block, and the lag windows gathered for it, hold at most
    _DRIVER_CELLS cells, and a kernel row read over more than _DRIVER_CELLS
    lags (n_hist + max(t_indices) + 1) raises DomainError before any draw.
    This is _marginal_draws of the one request.
    """
    return _marginal_draws([(kernel_lags, t_indices, n_hist, dt)], n_paths,
                           seed, rep0)[0]


def _marginal_draws(requests, n_paths: int, seed: int,
                    rep0: int = 0) -> list:
    """stationary_marginal_samples(kernel_lags, t_indices, n_hist, n_paths,
    seed, dt, rep0) of every request (kernel_lags, t_indices, n_hist, dt),
    bit for bit, from one draw of the driver.

    Each block of _driver_blocks draws the union of the requests' history
    cells in one tree_cells call, and the forward cells of the longest
    request in one normal_rows fill: a tree cell does not depend on which
    other cells are drawn with it, and the first n cells of a forward row
    are those of an n-cell row.  A request meets its weights in the row
    blocks of its lone call, on its cells laid out as tree_cells lays them
    out, because BLAS sums a product in an order that depends on the rows
    it is given and on their strides.  Where a driver block is not that of
    the lone call, the request's block is gathered whole first, so a call
    holds one driver block plus at most one gathered block per request,
    each of at most _DRIVER_CELLS cells.  A request whose kernel row is
    read over more than _DRIVER_CELLS lags raises DomainError before any
    draw.
    """
    n_paths = _count("n_paths", n_paths)
    plans = []
    for kern, t, n_hist, dt in requests:
        kern, t = np.asarray(kern, dtype=float), np.asarray(t, dtype=int)
        n_steps = int(t.max())
        _check_lags(n_hist + n_steps + 1)
        layout = _history_layout(kern, int(t.min()), n_steps, n_hist, dt)
        n_cells = layout.levels.size
        plans.append(_Marginals(
            kern, t, n_steps, dt, layout, _row_step(n_cells, n_steps),
            max(1, _DRIVER_CELLS // max(n_cells + n_steps, n_hist, 1)),
            np.empty((n_paths, t.size))))
    # the union of the layouts' cells, keyed by start and level: cells[i]
    # are the union's columns of request i
    keys = [p.layout.starts << 4 | p.layout.levels for p in plans]
    union, cells = np.unique(np.concatenate(keys), return_inverse=True)
    cells = np.split(cells, np.cumsum([k.size for k in keys])[:-1])
    n_steps = max(p.n_steps for p in plans)
    own = [np.array_equal(c, np.arange(union.size)) and p.n_steps == n_steps
           for p, c in zip(plans, cells)]
    pending = [None] * len(plans)
    for r0, r1, back, fwd in _driver_blocks(
            seed, n_paths, HistoryLayout(union & 15, union >> 4), n_steps,
            rep0):
        for i, (p, c) in enumerate(zip(plans, cells)):
            for lo in range(r0 - r0 % p.step, r1, p.step):
                hi = min(lo + p.step, n_paths)
                if own[i] and (lo, hi) == (r0, r1):
                    p.weigh(lo, back, fwd)
                    continue
                a, b = max(lo, r0), min(hi, r1)
                if a == lo:
                    pending[i] = (_rng.tree_block(hi - lo, c.size, rep0 + lo),
                                  np.empty((hi - lo, p.n_steps)))
                pending[i][0][a - lo : b - lo] = back[a - r0 : b - r0, c]
                pending[i][1][a - lo : b - lo] = fwd[a - r0 : b - r0,
                                                     : p.n_steps]
                if b == hi:
                    p.weigh(lo, *pending[i])
                    pending[i] = None
    samples = []
    for p in plans:
        out = (p.out * math.sqrt(p.dt)).view(MarginalSamples)
        out.meta = {"disc_var_bound": p.layout.disc_var_bound}
        samples.append(out)
    return samples


@dataclass(frozen=True)
class _Marginals:
    """One request of _marginal_draws: its kernel row, output times, forward
    cells, cell width and layout, the replications of its lone call's driver
    blocks, the times per weight block, and the unscaled samples."""

    kern: np.ndarray
    t: np.ndarray
    n_steps: int
    dt: float
    layout: HistoryLayout
    step: int
    cols: int
    out: np.ndarray

    def weigh(self, r0: int, back: np.ndarray, fwd: np.ndarray) -> None:
        """Rows r0 .. r0 + len(back) - 1 of out: the driver block meets the
        kernel weights of the times, back @ W_back + fwd @ W_fwd."""
        for c0 in range(0, self.t.size, self.cols):
            times = self.t[c0 : c0 + self.cols]
            w_back, w_fwd = _lag_weights(self.kern, times, self.layout,
                                         self.n_steps)
            self.out[r0 : r0 + len(back), c0 : c0 + self.cols] = (
                back @ w_back + fwd @ w_fwd)
