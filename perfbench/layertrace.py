"""Per-layer spans, recorded from outside the library.

``Tracer.install`` replaces the functions each fracou module exposes to the
others with wrappers, in the namespace of every module that imports them;
nothing under ``src/`` is edited and ``uninstall`` puts every original back.
Modules that the others reach as ``module.name`` (``_rng``, ``simulate``,
``diagnostics``, ``cli``) are patched in their own namespace, so their
internal calls through those names are spanned too; the others
(``special_functions``, ``kernels``, ``mixing``) are imported by name and are
patched in each importer, the benchmark's workload module included.

A span holds (layer, function, start, end, parent, sizes).  Spans live in
memory; a layer's self time is the time of its spans minus the time of their
child spans.  ``simulate._resolvent_lag_rows`` builds a rates x lags kernel
table and is counted in the ``kernels`` layer.  ``_rng.stream`` is left
alone: ``normal_rows`` calls it from worker threads, and the stream count is
known from the sizes of ``normal_rows`` and ``uniforms`` calls.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

from fracou import _rng, cli, diagnostics, kernels, mixing, simulate
from fracou import special_functions as sf


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "sizes")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = self.end = 0.0
        self.sizes = None


def _digest(a) -> bytes:
    return hashlib.sha1(np.ascontiguousarray(a, dtype=float).tobytes()).digest()


# -- sizes recorded per call: f(result, *args, **kwargs) -> dict ------------


def _points(arg_index):
    def sizes(out, *args, **kwargs):
        return {"points": int(np.size(args[arg_index]))}
    return sizes


def _one_point(out, *args, **kwargs):
    return {"points": 1}


def _banded(fn_name, band_of):
    def sizes(out, rho, x, *args, **kwargs):
        x = np.asarray(x, dtype=float)
        return {"points": int(x.size), "band": band_of(fn_name, float(rho), x)}
    return sizes


def _rate_table(out, alphas, rho, ts, *args, **kwargs):
    cells = int(np.size(alphas) * np.size(ts))
    return {"cells": cells, "key": ("s", float(rho), _digest(alphas), _digest(ts))}


def _mean_table(kind):
    def sizes(out, mk, ts, *args, **kwargs):
        key = (kind, mk.rho, mk.mixing.mu, mk.mixing.lam, _digest(ts))
        return {"cells": int(np.size(ts)), "key": key}
    return sizes


def _draws(out, params, n, *args, **kwargs):
    return {"draws": int(n)}


def _normal_rows(out, seed, tags, n_rows, n_cols, *args, **kwargs):
    return {"normals": int(n_rows) * int(n_cols), "streams": int(n_rows),
            "row_streams": int(n_rows)}


def _uniforms(out, seed, tags, start, count):
    if count <= 0:
        return {"streams": 0}
    blocks = (start + count - 1) // _rng.BLOCK - start // _rng.BLOCK + 1
    return {"streams": int(blocks)}


def _conv(out, *args, **kwargs):
    return {"conv_calls": 1, "conv_cells": int(out.shape[0] * (out.shape[1] - 1))}


def _history_depth(out, kernel, grid, tol):
    """Depth used versus the minimal certified depth, both in grid cells."""
    if not isinstance(kernel, kernels.MeanKernel):
        return None
    # the tail bound only falls with depth; at out / 2^30 it is far above tol
    lo, hi = out / 2.0**30, out
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if kernels.tail_variance_bound(kernel, mid) < tol:
            hi = mid
        else:
            lo = mid
    return {"depth_used": int(math.ceil(out / grid.dt)),
            "depth_min": int(math.ceil(hi / grid.dt))}


def _history_rows(out, kernel_lags, t_indices, n_hist, n_paths, *args, **kwargs):
    return {"history_cells": int(n_hist) * int(n_paths)}


def _stationary_paths(out, kernel, grid, *args, **kwargs):
    n_hist = int(round(out.meta["t_trunc"] / grid.dt))
    rows = out.n_paths if out.meta.get("process") == "eta" else 1
    return {"history_cells": n_hist * rows}


def _csv(out, ens, path, *args, **kwargs):
    return {"csv_bytes": os.path.getsize(path)}


def _verdict(out, *args, **kwargs):
    return {"checks": 1, "inconclusive": int(out.verdict == "inconclusive")}


# -- what to wrap -----------------------------------------------------------

_SF = {"ml_one_values": _points(1), "ml_two_values": _points(1),
       "ml_one": _one_point, "ml_two": _one_point, "g_rho_series": _one_point,
       "g_rho_quadrature": _one_point, "_g_quadrature_many": _points(3),
       "_g_series_many": _points(2)}
_KERNELS = {"empirical_kernel_values": _rate_table,
            "empirical_kernel": _rate_table,
            "mean_kernel_values": _mean_table("G"),
            "mean_kernel_deriv_values": _mean_table("dG"),
            "bound_m": None, "bound_m3": None, "deriv_bound_constant": None,
            "stationary_variance": None, "tail_variance_bound": None}
_MIXING = {"sample_alphas": _draws, "moment_int": None, "moment_frac": None,
           "check_condition": None}
_RNG = {"normal_rows": _normal_rows, "uniforms": _uniforms}
_SIMULATE = {"simulate_component_paths": None, "empirical_mean_path": None,
             "simulate_limit_path": None,
             "simulate_stationary_paths": _stationary_paths,
             "brownian_increments": None, "_increment_matrix": None,
             "_two_sided_increments": None, "_convolve_rows": _conv,
             "_certified_history": _history_depth, "marginal_samples": None,
             "stationary_marginal_samples": _history_rows}
_DIAGNOSTICS = {name: _verdict for name in diagnostics.__all__
                if name.startswith("check_")}


class Tracer:
    """Records spans of the wrapped calls made on the main thread."""

    def __init__(self, workload_module):
        self.workload_module = workload_module
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._main = threading.get_ident()

    def _wrap(self, layer, name, fn, sizes):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            span = Span(layer, name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if sizes is not None:
                span.sizes = sizes(out, *args, **kwargs)
            return out

        return wrapper

    def _patch(self, owner, attr, layer, sizes):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, attr, original, sizes))

    def install(self) -> None:
        importers = (mixing, kernels, simulate, diagnostics, cli,
                     self.workload_module)
        for layer, module, table in (("special_functions", sf, _SF),
                                     ("kernels", kernels, _KERNELS),
                                     ("mixing", mixing, _MIXING)):
            for name, sizes in table.items():
                original = getattr(module, name)
                for ns in importers:
                    if getattr(ns, name, None) is not original:
                        continue
                    # the benchmark's own band jobs also record their band
                    if ns is self.workload_module and name.endswith("_values") \
                            and name.startswith("ml_"):
                        self._patch(ns, name, layer, _banded(
                            name[:6], self.workload_module.band_of))
                    else:
                        self._patch(ns, name, layer, sizes)
        for name, sizes in _RNG.items():
            self._patch(_rng, name, "rng", sizes)
        for name, sizes in _SIMULATE.items():
            self._patch(simulate, name, "simulate", sizes)
        self._patch(simulate, "_resolvent_lag_rows", "kernels", _rate_table)
        self._patch(simulate.PathEnsemble, "to_csv", "simulate", _csv)
        for name, sizes in _DIAGNOSTICS.items():
            self._patch(diagnostics, name, "diagnostics", sizes)
        self._patch(cli, "main", "cli", None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def summarize(spans) -> dict:
    """Per-pass layer figures: self times and the counts behind each ratio."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.end - s.start
    t = defaultdict(float)  # seconds
    n = defaultdict(int)  # counts
    seen_keys = set()
    unique_cells = 0
    for s in spans:
        dur = s.end - s.start
        own = dur - child[id(s)]
        t[s.layer] += own
        t["fn." + s.name] += own
        n[s.layer + ".calls"] += 1
        n["fn." + s.name] += 1
        if s.layer == "kernels" and (s.parent is None or s.parent.layer != "kernels"):
            t["kernels.inclusive"] += dur  # the table cells' whole cost
        sz = s.sizes or {}
        for k in ("points", "draws", "cells", "normals", "streams", "conv_calls",
                  "conv_cells", "history_cells", "csv_bytes", "checks",
                  "inconclusive", "depth_used", "depth_min", "row_streams"):
            if k in sz:
                n[f"{s.layer}.{k}"] += sz[k]
        if sz.get("band"):
            t["band." + sz["band"]] += own
            n["band." + sz["band"]] += sz["points"]
        if "key" in sz and sz["key"] not in seen_keys:
            seen_keys.add(sz["key"])
            unique_cells += sz["cells"]
    n["kernels.unique_cells"] = unique_cells
    return {"t": dict(t), "n": dict(n)}


def _ratio(a, b, scale=1.0):
    return a / b * scale if b else 0.0


def layer_metrics(p) -> dict:
    """Every per-layer metric of one pass summary, as name -> (value, unit)."""
    t, n = p["t"], p["n"]
    g = lambda k: n.get(k, 0)  # noqa: E731
    sec = lambda k: t.get(k, 0.0)  # noqa: E731
    out = {
        "special_functions.self_s": (sec("special_functions"), "s"),
        "special_functions.points": (g("special_functions.points"), "count"),
        "special_functions.ns_per_point": (
            _ratio(sec("special_functions"), g("special_functions.points"), 1e9), "ns"),
        "special_functions.g_quadrature_us_per_point": (
            _ratio(sec("fn.g_rho_quadrature"), g("fn.g_rho_quadrature"), 1e6), "us"),
        "special_functions.calls": (g("special_functions.calls"), "count"),
        "mixing.self_s": (sec("mixing"), "s"),
        "mixing.draws": (g("mixing.draws"), "count"),
        "kernels.self_s": (sec("kernels"), "s"),
        "kernels.cells": (g("kernels.cells"), "count"),
        "kernels.ns_per_cell": (
            _ratio(sec("kernels.inclusive"), g("kernels.cells"), 1e9), "ns"),
        "kernels.unique_cell_ratio": (
            _ratio(g("kernels.unique_cells"), g("kernels.cells")), "ratio"),
        "rng.self_s": (sec("rng"), "s"),
        "rng.normals": (g("rng.normals"), "count"),
        "rng.streams": (g("rng.streams"), "count"),
        "rng.ns_per_normal": (_ratio(sec("fn.normal_rows"), g("rng.normals"), 1e9), "ns"),
        "rng.normals_per_stream": (
            _ratio(g("rng.normals"), g("rng.row_streams")), "count"),
        "simulate.self_s": (sec("simulate"), "s"),
        "simulate.conv_calls": (g("simulate.conv_calls"), "count"),
        "simulate.conv_cells": (g("simulate.conv_cells"), "count"),
        "simulate.conv_ns_per_cell": (
            _ratio(sec("fn._convolve_rows"), g("simulate.conv_cells"), 1e9), "ns"),
        "simulate.history_cells": (g("simulate.history_cells"), "count"),
        "simulate.history_useful_ratio": (
            _ratio(g("simulate.depth_min"), g("simulate.depth_used")), "ratio"),
        "simulate.csv_bytes": (g("simulate.csv_bytes"), "B"),
        "simulate.csv_mb_per_s": (
            _ratio(g("simulate.csv_bytes"), sec("fn.to_csv"), 1e-6), "MB/s"),
        "diagnostics.self_s": (sec("diagnostics"), "s"),
        "diagnostics.checks": (g("diagnostics.checks"), "count"),
        "diagnostics.inconclusive": (g("diagnostics.inconclusive"), "count"),
        "cli.self_s": (sec("cli"), "s"),
    }
    for band in ("small_x", "mid_x", "large_x"):
        out[f"special_functions.ns_per_point.{band}"] = (
            _ratio(sec("band." + band), g("band." + band), 1e9), "ns")
    return out


# exact counts: must read the same on every pass of a run
_COUNT_UNITS = ("count", "B", "ratio")


def per_layer(import_s, cold, warm, traced_walls, plain_walls):
    """Per-layer metrics of a traced run, as name -> (value, unit, samples).

    Times are medians over the traced warm passes.  Counts and the ratios
    of counts must repeat exactly on every warm pass, or a problem is
    returned; the cold pass does extra work (table builds) and is only used
    for the cold-build time.
    """
    passes = [layer_metrics(p) for p in warm]
    out, problems = {}, []
    for name, (_, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit in _COUNT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"trace: {name} differs between passes: {values}")
            out[name] = (values[0], unit, len(values))
        else:
            out[name] = (statistics.median(values), unit, len(values))
    cold_sf = layer_metrics(cold)["special_functions.self_s"][0]
    out["special_functions.cold_build_s"] = (
        cold_sf - out["special_functions.self_s"][0], "s", 1)
    out["fracou.import_s"] = (import_s, "s", 1)
    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls), "ratio",
        len(traced_walls) + len(plain_walls))
    return out, problems
