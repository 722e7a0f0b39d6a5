"""Tooling around the library: the benchmark's tracer patches library
functions by name, so a renamed or deleted name must fail here, not only in
a traced benchmark run; the library starts no thread, whatever the
environment; and the README's scripts run from a plain checkout, the
digest script with scipy blocked."""

import os
import re
import runpy
import subprocess
import sys

from fracou import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# imports the tracer and the workloads, patches every traced name and puts
# every original back
SCRIPT = """
import layertrace, workloads
from fracou import kernels, simulate, special_functions
before = (kernels.mean_kernel_values, simulate._resolvent_lag_rows,
          special_functions._g_quadrature_many)
tracer = layertrace.Tracer(workloads)
tracer.install()
assert kernels.mean_kernel_values is not before[0]
tracer.uninstall()
assert (kernels.mean_kernel_values, simulate._resolvent_lag_rows,
        special_functions._g_quadrature_many) == before
"""


def test_tracer_installs_and_uninstalls(cli_env):
    env = cli_env("1")
    env["PYTHONPATH"] += os.pathsep + PERFBENCH
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # read perfbench, write nothing there
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# the tracer records the sizes of the draw and history spans; its uniforms
# sizes read _rng.BLOCK
SIZES_SCRIPT = """
import layertrace, workloads
import numpy as np
from fracou import _rng, simulate
from fracou.kernels import MeanKernel
from fracou.mixing import GammaMixing
MK = MeanKernel(1.9, GammaMixing(4.0, 1.0))
tracer = layertrace.Tracer(workloads)
tracer.install()
try:
    _rng.normal_rows(1, ("w",), 3, 5)
    _rng.uniforms(1, ("alphas", 4.0, 1.0), _rng.BLOCK - 10, 20)
    simulate.stationary_marginal_samples(np.linspace(1.0, 0.0, 31), [0, 10],
                                         20, 4, 1, 0.01)
    spans = len(tracer.spans)
    grid = simulate.TimeGrid(0.0, 0.5, 50)
    eta = simulate.simulate_stationary_paths(MK, grid, 1, 1e-3, n_paths=2)
    simulate.simulate_limit_paths(MK, grid, 1)
finally:
    tracer.uninstall()
first, paths = {}, {}
for i, span in enumerate(tracer.take()):
    first.setdefault(span.name, span.sizes)
    if i >= spans:
        paths.setdefault(span.name, []).append(span.sizes)
assert first["normal_rows"] == {"normals": 15, "streams": 3,
                                "row_streams": 3}, first
assert first["uniforms"] == {"streams": 2}, first
assert first["stationary_marginal_samples"] == {"history_cells": 80}, first
# both path processes go through the traced engine steps, so the benchmark's
# convolution and history metrics see them
n_hist = round(eta.meta["t_trunc"] / grid.dt)
assert paths["simulate_stationary_paths"] == [
    {"history_cells": 2 * n_hist}], paths
assert paths["_certified_history"][0]["depth_used"] == n_hist, paths
assert len(paths["_two_sided_increments"]) == 2, paths
assert paths["_convolve_rows"] == [{"conv_calls": 1, "conv_cells": 100},
                                   {"conv_calls": 1, "conv_cells": 50}], paths
"""


def test_tracer_records_draw_and_history_sizes(cli_env):
    env = cli_env("1")
    env["PYTHONPATH"] += os.pathsep + PERFBENCH
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run([sys.executable, "-c", SIZES_SCRIPT], env=env,
                          cwd=PERFBENCH, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


# the pathways that a thread count could reach: a fill of 6,400 normals and
# the limit and stationary CLI lines of 64 paths, on a host that reports 8
# cores and with FRACOU_THREADS=8 in the environment
NO_THREAD_SCRIPT = """
import os, threading

def refuse(thread):
    raise AssertionError(f"the library started a thread: {thread}")

os.cpu_count = lambda: 8
threading.Thread.start = refuse
from fracou import _rng, cli
_rng.normal_rows(3, ("w",), 64, 100)
common = ["--rho", "1.9", "--mu", "4", "--lambda", "1", "--paths", "64",
          "--seed", "9"]
for args in (["limit", "--T", "1", "--steps", "100"],
             ["stationary", "--T", "0.5", "--steps", "50", "--tol", "1e-3"]):
    code = cli.main(["simulate", "--process", *args, *common,
                     "--out", args[0] + ".csv"])
    assert code == 0, code
"""


def test_library_starts_no_thread(cli_env, tmp_path):
    done = subprocess.run([sys.executable, "-c", NO_THREAD_SCRIPT],
                          env=cli_env("8"), cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_figure_data_script_runs_from_a_plain_checkout(cli_env, tmp_path):
    script = os.path.join(os.path.dirname(PERFBENCH), "scripts", "make_figure_data.py")
    done = subprocess.run([sys.executable, script], env=cli_env("1"), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "figure_data").iterdir()) == [
        "gml_mu4_rho19.csv", "gml_mu4_rho19.json", "ml_rho19.csv", "ml_rho19.json"]


def test_cli_digests_run_from_a_plain_checkout_and_cover_the_readme(cli_env, tmp_path):
    root = os.path.dirname(PERFBENCH)
    script = os.path.join(root, "scripts", "cli_digests.py")
    # with scipy blocked: every line runs on numpy and mpmath alone
    blocked = ("import runpy, sys; sys.modules['scipy'] = None; "
               "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], "
               "run_name='__main__')")
    done = subprocess.run([sys.executable, "-c", blocked, script],
                          env=cli_env("1"), cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    names = runpy.run_path(script)
    lines = names["LINES"]
    assert [row for row in done.stdout.splitlines() if not row.startswith(" ")] == [
        f"{name}: exit {names['EXIT'].get(name, 0)}" for name in lines]
    assert set(names["EXIT"]) <= set(lines)
    # every command of the README's "Command line" block, flags in any order
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    readme = [row.split()[1:] for row in block.replace("\\\n", " ").splitlines() if row]
    parse = cli.build_parser().parse_args
    assert len(readme) == block.count("fracou ") > 0
    assert all(parse(argv) in [parse(a) for a in lines.values()] for argv in readme), readme


def test_table_digests_run_from_a_plain_checkout(cli_env, tmp_path):
    script = os.path.join(os.path.dirname(PERFBENCH), "scripts", "table_digests.py")
    done = subprocess.run([sys.executable, script, "1.9"], env=cli_env("1"),
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    names = runpy.run_path(script)
    tables = (1 + len(names["NUS"]) * len(names["BANDS"]) + 2
              + len(names["MUS"]) * (len(names["PANELS"]) + 1)  # panels, near zero
              + 1)  # one-point calls
    lines = done.stdout.splitlines()
    # both beta, every table of each, a digest or an error's name per line
    assert len(lines) == 2 * tables
    assert [row.split()[1] for row in lines[::tables]] == ["beta=1.0", "beta=1.9"]
    assert all(row.startswith("rho=1.9 ") for row in lines)
    digests = [row.rsplit(": ", 1)[1] for row in lines]
    assert all(re.fullmatch(r"[0-9a-f]{16}|\w+Error", d) for d in digests), digests
