import hashlib
import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from fracou import cli
from fracou import diagnostics as diag
from fracou import simulate as sim
from fracou.errors import AccuracyError, TruncationError
from fracou.kernels import MeanKernel
from fracou.mixing import GammaMixing


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "fracou.cli", *args],
                          capture_output=True, text=True, **kw)


def read_table(path):
    rows = [line.split(",") for line in
            path.read_text().strip().split("\n")[1:]]
    return np.array([[float(v) for v in row] for row in rows])


def test_eval_ml_rho_one_is_exponential(tmp_path):
    out = tmp_path / "ml.csv"
    code = cli.main(["eval", "ml", "--rho", "1", "--xmax", "5",
                     "--points", "101", "--out", str(out)])
    assert code == 0
    table = read_table(out)
    assert np.max(np.abs(table[:, 1] - np.exp(-table[:, 0]))) < 1e-12
    side = json.loads((tmp_path / "ml.json").read_text())
    assert side["rho"] == 1.0


def test_eval_ml_oscillates(tmp_path):
    out = tmp_path / "osc.csv"
    assert cli.main(["eval", "ml", "--rho", "1.9", "--xmax", "60",
                     "--points", "600", "--out", str(out)]) == 0
    col = read_table(out)[:, 1]
    assert int(np.sum(np.diff(np.sign(col[col != 0])) != 0)) >= 2


def test_eval_gml_dips_negative(tmp_path):
    out = tmp_path / "gml.csv"
    assert cli.main(["eval", "gml", "--rho", "1.9", "--mu", "4",
                     "--xmax", "30", "--points", "121",
                     "--out", str(out)]) == 0
    table = read_table(out)
    assert table[:, 1].min() < 0.0
    # the second column is the function of the first: cross-check one point
    # against the direct series
    from fracou.special_functions import g_rho_series

    row = table[12]  # x = 3.0
    assert row[1] == pytest.approx(g_rho_series(1.9, 4.0, -row[0]).value,
                                   abs=1e-7)


def test_mixing_json(capsys):
    assert cli.main(["mixing", "--mu", "4", "--lam", "2", "--rho", "1.9",
                     "--frac", "0.5", "--out", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["moments_int"]["2"] == 5.0
    assert payload["condition_mu_gt_half_inv_rho"]["1.9"] is True


def test_simulate_limit_deterministic(tmp_path):
    args = ["simulate", "--process", "limit", "--rho", "1", "--mu", "4",
            "--lambda", "1", "--T", "2", "--steps", "200", "--paths", "5",
            "--seed", "7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    table = read_table(out1)
    assert np.all(table[0, 1:] == 0.0)  # Y(0) = 0 in every column


def test_simulate_stationary_sidecar_records_truncation(tmp_path):
    out = tmp_path / "eta.csv"
    assert cli.main(["simulate", "--process", "stationary", "--rho", "1.9",
                     "--mu", "4", "--lambda", "1", "--T", "1", "--steps",
                     "50", "--paths", "2", "--tol", "1e-4", "--seed", "5",
                     "--out", str(out)]) == 0
    side = json.loads((tmp_path / "eta.json").read_text())
    assert side["meta"]["config"]["t_trunc"] > 0
    assert side["meta"]["config"]["tail_bound"] < 1e-4


def test_long_memory_stationary_line_runs(tmp_path):
    # mu = 0.6: the tail of G^2 past T decays like T^(-1.28), and the exact
    # norm certifies a depth of 23.5
    out = tmp_path / "eta.csv"
    assert cli.main(["simulate", "--process", "stationary", "--rho", "1.9",
                     "--mu", "0.6", "--lambda", "1", "--T", "2", "--steps",
                     "200", "--paths", "2", "--tol", "1e-3", "--seed", "7",
                     "--out", str(out)]) == 0
    config = json.loads((tmp_path / "eta.json").read_text())["meta"]["config"]
    assert 0.0 < config["t_trunc"] <= 24.0
    assert config["tail_bound"] < 1e-3


def test_simulate_component_and_xi(tmp_path):
    for proc, paths in (("component", "1"), ("xi", "1"), ("empirical", "2")):
        out = tmp_path / f"{proc}.csv"
        assert cli.main(["simulate", "--process", proc, "--rho", "1.9",
                         "--mu", "4", "--lambda", "1", "--T", "0.5",
                         "--steps", "25", "--paths", paths,
                         "--n-components", "3", "--seed", "2",
                         "--out", str(out)]) == 0
        assert out.exists()
    # the rates of component and xi share one driver: a path count other
    # than 1 would be recorded in the sidecar but never drawn
    for proc in ("component", "xi"):
        assert cli.main(["simulate", "--process", proc, "--rho", "1.9",
                         "--mu", "4", "--lambda", "1", "--T", "0.5",
                         "--steps", "25", "--paths", "2", "--seed", "2",
                         "--out", str(tmp_path / "p.csv")]) == 2


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_diagnose_exit_codes(tmp_path):
    out = tmp_path / "rep.json"
    code = cli.main(["diagnose", "mixing-remark", "--rho", "1.9", "--mu",
                     "3", "--lam", "1", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "pass"
    # at mu = 1 the moment E[alpha^(-2/rho)] diverges: null, not NaN
    code = cli.main(["diagnose", "mixing-remark", "--rho", "1.9", "--mu",
                     "1", "--lam", "1", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = strict_json(out.read_text())
    assert report["verdict"] == "pass"
    assert [row["moment"] for row in report["estimates"]
            if "moment" in row] == [None]


@pytest.mark.parametrize("args", [["l2sup", "--mc", "1"],
                                  ["tightness", "--mc", "1"],
                                  ["cauchy", "--mc", "1"],
                                  ["pathwise", "--n", "1"],
                                  ["tightness", "--n", "1"]])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_standard_error_is_inconclusive(tmp_path, args):
    # one replication or one rate leaves a standard error of NaN, which must
    # not pass a statistical check
    out = tmp_path / "rep.json"
    assert cli.main(["diagnose", *args, "--rho", "1.9", "--mu", "4",
                     "--lambda", "1", "--seed", "1", "--out", str(out)]) == 6
    assert strict_json(out.read_text())["verdict"] == "inconclusive"


def test_invalid_parameters_exit_two(tmp_path):
    assert cli.main(["eval", "ml", "--rho", "3.5", "--xmax", "5",
                     "--out", "-"]) == 2
    for bad in (["--mu", "-1"], ["--mu", "4", "--lambda", "0"]):
        assert cli.main(["eval", "gml", "--rho", "1.9", "--xmax", "5", *bad,
                         "--out", "-"]) == 2
    for proc in ("limit", "empirical", "stationary"):
        assert cli.main(["simulate", "--process", proc, "--rho", "1.9",
                         "--mu", "4", "--lambda", "1", "--T", "0.5",
                         "--steps", "20", "--paths", "0", "--seed", "1",
                         "--out", str(tmp_path / "p.csv")]) == 2
    assert cli.main(["diagnose", "pathwise", "--rho", "1.9", "--mu", "4",
                     "--lambda", "1", "--n", "10,abc", "--seed", "1",
                     "--out", "-"]) == 2
    assert cli.main(["mixing", "--mu", "4", "--lambda", "1", "--moments",
                     "-1"]) == 2


@pytest.mark.parametrize("check", ["pathwise", "tightness", "l2sup"])
@pytest.mark.parametrize("n", ["10,-3", "0,10"])
def test_rate_counts_below_one_exit_two(tmp_path, capsys, check, n):
    # a count below 1 would slice the rates from the end
    out = tmp_path / "rep.json"
    assert cli.main(["diagnose", check, "--rho", "1.9", "--mu", "4",
                     "--lambda", "1", "--n", n, "--mc", "20", "--steps",
                     "20", "--seed", "1", "--out", str(out)]) == 2
    assert "positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("function", ["ml", "gml"])
@pytest.mark.parametrize("flag", ["--xmin", "--xmax"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_eval_bounds_must_be_finite(function, flag, value, capsys):
    # refused before the grid is built, so numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["eval", function, "--rho", "1.9", "--mu", "4",
                         "--xmax", "5", "--points", "5", flag, value,
                         "--out", "-"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert out.err.startswith("invalid parameters:") and flag in out.err


@pytest.mark.parametrize("check", ["l2sup", "tightness", "cauchy",
                                   "stationarity"])
def test_monte_carlo_count_below_one_exits_two_naming_it(tmp_path, capsys,
                                                         check):
    out = tmp_path / "rep.json"
    assert cli.main(["diagnose", check, "--rho", "1.9", "--mu", "4",
                     "--lambda", "1", "--mc", "0", "--steps", "20", "--seed",
                     "1", "--out", str(out)]) == 2
    assert "n_mc must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("times", [["--tmin", "0"], ["--tmin", "-5"],
                                   ["--tpoints", "1"],
                                   ["--tmin", "10", "--tmax", "10"]])
def test_cauchy_needs_two_distinct_positive_shift_times(capsys, times):
    assert cli.main(["diagnose", "cauchy", "--rho", "1.9", "--mu", "4",
                     "--lambda", "1", "--mc", "20", *times, "--seed", "1",
                     "--out", "-"]) == 2
    assert "invalid parameters" in capsys.readouterr().err


@pytest.mark.parametrize("line, code", [
    # t^rho/lam past the double range, at T = 1e300 and at the 2T = 2e300
    # that cauchy's D(T) integrates to
    (["simulate", "--process", "limit", "--rho", "1.9", "--mu", "4",
      "--lambda", "1", "--T", "1e300", "--steps", "3", "--seed", "1"], 2),
    (["diagnose", "cauchy", "--rho", "1.9", "--mu", "4", "--lambda", "1",
      "--tmin", "1e-300", "--tmax", "1e300", "--tpoints", "3", "--seed", "1"], 2),
    # Gamma(200) overflows a double, its log does not; 200 > 2/rho
    (["diagnose", "mixing-remark", "--rho", "1.9", "--mu", "200",
      "--lambda", "1", "--seed", "1"], 0)])
def test_lines_past_the_double_range_exit_with_their_code(line, code, tmp_path,
                                                          capsys):
    assert cli.main(line + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert (err.startswith("invalid parameters:") and len(err.splitlines()) == 1
            if code else err == "")


def test_unknown_flag_exits_two_with_stderr(cli_env):
    r = run_cli(["eval", "ml", "--rho", "1", "--xmax", "5", "--frobnicate"],
                env=cli_env("1"))
    assert r.returncode == 2
    assert r.stderr.strip()


@pytest.mark.parametrize("sub", ["eval", "mixing", "simulate", "diagnose"])
def test_help_exits_zero(sub, cli_env):
    r = run_cli([sub, "--help"], env=cli_env("1"))
    assert r.returncode == 0
    assert r.stdout.strip()


def test_accuracy_error_maps_to_exit_three(monkeypatch):
    def boom(*a, **k):
        raise AccuracyError("forced")

    monkeypatch.setattr(cli, "ml_one_values", boom)
    monkeypatch.setattr(cli, "mean_kernel_values", boom)
    assert cli.main(["eval", "ml", "--rho", "1.9", "--xmax", "5",
                     "--out", "-"]) == 3
    assert cli.main(["eval", "gml", "--rho", "1.9", "--mu", "4", "--xmax", "5",
                     "--out", "-"]) == 3


@pytest.mark.parametrize("mu", ["200"])
def test_gml_past_the_gamma_range_exits_three_naming_mu(mu, cli_env):
    # Gamma(mu) overflows a double past mu = 171.62
    r = run_cli(["eval", "gml", "--rho", "1.9", "--mu", mu, "--xmax", "30",
                 "--points", "5", "--out", "-"], env=cli_env("1"))
    assert r.returncode == 3
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert "Traceback" not in r.stderr and f"mu={mu}.0" in r.stderr


@pytest.mark.parametrize("mu", ["100", "171.6"])
def test_gml_of_a_wide_gamma_law_exits_zero(mu, capsys):
    # the mixing cut grows with the law's spread: mu + 10 sqrt(mu) past 25
    assert cli.main(["eval", "gml", "--rho", "1.9", "--mu", mu, "--xmax", "30",
                     "--points", "5", "--out", "-"]) == 0
    rows = capsys.readouterr().out.split()[1:]
    assert len(rows) == 5
    assert all(math.isfinite(float(r.split(",")[1])) for r in rows)


@pytest.mark.parametrize("function, flags", [
    ("ml", ["--xmax", "60", "--points", "600"]),
    ("gml", ["--mu", "4", "--xmax", "30"])])
def test_eval_on_stdout_is_the_file(function, flags, tmp_path, capsys):
    args = ["eval", function, "--rho", "1.9", *flags, "--out"]
    assert cli.main(args + ["-"]) == 0
    shown = capsys.readouterr().out
    assert cli.main(args + [str(tmp_path / "t.csv")]) == 0
    assert shown.encode() == (tmp_path / "t.csv").read_bytes()


def test_a_line_after_another_writes_what_it_writes_alone(tmp_path, capsys):
    # one parser serves every line of a process
    line = ["eval", "ml", "--rho", "1.9", "--xmax", "3", "--points", "8",
            "--out", "-"]
    assert cli.main(line) == 0
    alone = capsys.readouterr().out
    assert cli.main(["simulate", "--process", "limit", "--rho", "1", "--mu",
                     "4", "--lambda", "1", "--T", "0.5", "--steps", "10",
                     "--seed", "7", "--out", str(tmp_path / "p.csv")]) == 0
    assert cli.main(line) == 0
    assert capsys.readouterr().out == alone
    assert cli.build_parser() is cli.build_parser()


def test_truncation_maps_to_exit_four(tmp_path):
    # mu close to the admissibility boundary: the certified tail decays so
    # slowly that no history below the cap reaches the tolerance
    out = tmp_path / "x.csv"
    code = cli.main(["simulate", "--process", "stationary", "--rho", "1.9",
                     "--mu", "0.6", "--lambda", "1", "--T", "1", "--steps",
                     "10", "--paths", "1", "--tol", "1e-12", "--seed", "3",
                     "--out", str(out)])
    assert code == 4


def test_kernel_row_past_the_cap_is_refused_before_it_is_built(
        tmp_path, monkeypatch):
    # the README stationary line, with the cap one lag below the row it needs
    grid, tol = sim.TimeGrid(0.0, 2.0, 2000), 1e-4
    mk = MeanKernel(1.9, GammaMixing(4.0, 1.0))
    depth = sim._certified_history(mk, grid, tol)
    lags = int(np.ceil(depth / grid.dt)) + grid.n_steps + 1
    monkeypatch.setattr(sim, "_DRIVER_CELLS", lags)
    assert sim._certified_history(mk, grid, tol) == depth
    monkeypatch.setattr(sim, "_DRIVER_CELLS", lags - 1)

    def no_row(*args):
        raise AssertionError("no kernel row past the cap is built")

    monkeypatch.setattr(sim, "_convolution_paths", no_row)
    monkeypatch.setattr(diag, "mean_kernel_values", no_row)
    with pytest.raises(TruncationError):
        sim.simulate_stationary_paths(mk, grid, 7, tol, n_paths=50)
    with pytest.raises(TruncationError):
        diag.check_stationarity(1.9, 4.0, 1.0, grid, 20, 7, tol)
    out = tmp_path / "eta.csv"
    assert cli.main(["simulate", "--process", "stationary", "--rho", "1.9",
                     "--mu", "4", "--lambda", "1", "--T", "2", "--steps",
                     "2000", "--paths", "50", "--tol", "1e-4", "--seed", "7",
                     "--out", str(out)]) == 4
    assert not out.exists()


@pytest.mark.parametrize("line", [
    # Y_{-T}(0) on cells of 2e-3: a kernel row of 5e8 lags (3.7 GiB)
    ["stationarity", "--T", "1e6"],
    # 10^8 certified integrals, and the first count past the cap
    ["cauchy", "--tpoints", "100000000"],
    ["cauchy", "--tpoints", "4097"],
])
def test_oversized_checks_exit_2_before_anything_is_built(line, tmp_path,
                                                          capsys):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = cli.main(["diagnose", *line[:1], "--rho", "1.9", "--mu", "4",
                     "--lambda", "1", "--mc", "20", "--seed", "1",
                     *line[1:], "--out", str(out)])
    assert code == 2 and time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_xi_table_past_the_cap_is_refused_before_a_row_is_built(
        tmp_path, monkeypatch):
    # the README grid at tol 1e-3: 20,000 rates certify 150,001 lags, a table
    # of 3.0e9 cells (24 GB) against the cap of 16 _DRIVER_CELLS
    line = ["simulate", "--process", "xi", "--rho", "1.9", "--mu", "4",
            "--lambda", "1", "--T", "2", "--steps", "2000", "--tol", "1e-3",
            "--seed", "7"]

    def no_table(*args):
        raise AssertionError("no kernel table past the cap is built")

    with monkeypatch.context() as m:
        m.setattr(sim, "_resolvent_lag_rows", no_table)
        out = tmp_path / "xi_big.csv"
        assert cli.main(line + ["--n-components", "20000",
                                "--out", str(out)]) == 4
        assert not out.exists()
    # ten rates (4.9e5 cells) stay well under it
    out = tmp_path / "xi.csv"
    assert cli.main(line + ["--n-components", "10", "--out", str(out)]) == 0
    assert read_table(out).shape == (2001, 11)


def test_xi_head_integral_converges_across_the_kinks_of_l_squared(tmp_path):
    # the slowest of three rates: past T = 64 its s_a oscillates about a
    # power tail, and L^2 = max(|K| - d, 0)^2 has a kink near each zero, so
    # the piece [64, 128] converges only once the panels around the kinks
    # are halved; tol 1e-7 is then certified (a dense rule puts the bound at
    # 9.9e-8 at T = 128)
    line = ["simulate", "--process", "xi", "--rho", "1.9", "--mu", "4",
            "--lambda", "1", "--T", "2", "--steps", "200", "--n-components",
            "3", "--seed", "1", "--out"]
    out = tmp_path / "xi.csv"
    assert cli.main(line + [str(out), "--tol", "1e-7"]) == 0
    config = json.loads((tmp_path / "xi.json").read_text())["meta"]["config"]
    assert 64.0 < config["t_trunc"] <= 128.0 and config["tail_bound"] < 1e-7
    # the bound levels off near 2 int d L = 9.8e-8, so 5e-8 is out of reach
    out.unlink()
    assert cli.main(line + [str(out), "--tol", "5e-8"]) == 4
    assert not out.exists()
    # a tolerance whose pieces converge whole: the same bytes as before
    assert cli.main(line + [str(out), "--tol", "1e-6"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "c49abb6d5cbd4313"


def test_rerun_bit_identical_across_thread_counts(tmp_path, cli_env):
    common = ["--rho", "1.9", "--mu", "4", "--lambda", "1", "--seed", "9"]
    runs = {
        # 64 paths: one normal_rows call of 64 rows
        "limit": ["simulate", "--process", "limit", "--T", "1", "--steps",
                  "100", "--paths", "64", *common],
        "empirical": ["simulate", "--process", "empirical", "--T", "1",
                      "--steps", "100", "--paths", "64", "--n-components",
                      "20", *common],
        "stationary": ["simulate", "--process", "stationary", "--T", "0.5",
                       "--steps", "50", "--paths", "64", "--tol", "1e-3",
                       *common],
    }
    # the library reads no environment variable, so FRACOU_THREADS, which
    # the benchmark still exports, must change no byte
    for name, args in runs.items():
        blobs = []
        for threads in ("1", "4", "8"):
            out = tmp_path / f"{name}_t{threads}.csv"
            r = run_cli(args + ["--out", str(out)], env=cli_env(threads))
            assert r.returncode == 0, r.stderr
            blobs.append(r.stdout.encode() + out.read_bytes()
                         + out.with_suffix(".json").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], f"{name} differs by threads"


def test_eval_rejects_gml_without_mu(capsys):
    assert cli.main(["eval", "gml", "--rho", "1.9", "--xmax", "5",
                     "--out", "-"]) == 2


SIDECAR_RUNS = {
    "eval": ["eval", "ml", "--rho", "1.9", "--xmax", "2", "--points", "5"],
    "simulate": ["simulate", "--process", "limit", "--rho", "1", "--mu", "4",
                 "--lambda", "1", "--T", "1", "--steps", "10", "--seed", "1"],
}


@pytest.mark.parametrize("sub", sorted(SIDECAR_RUNS))
def test_sidecar_next_to_data_file_in_dotted_directory(tmp_path, sub):
    folder = tmp_path / "a.b"
    folder.mkdir()
    out = folder / "noext"
    assert cli.main(SIDECAR_RUNS[sub] + ["--out", str(out)]) == 0
    side = json.loads((folder / "noext.json").read_text())
    assert (side["command"] if sub == "eval"
            else side["meta"]["config"]["command"]) == sub
    assert out.read_text().count("\n") > 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.b"]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("sub", sorted(SIDECAR_RUNS))
def test_sidecar_is_strict_json(tmp_path, sub):
    out = tmp_path / "t.csv"
    assert cli.main(SIDECAR_RUNS[sub] + ["--out", str(out)]) == 0
    json.loads((tmp_path / "t.json").read_text(), parse_constant=_no_constant)


NONFINITE_RUNS = {
    "eval": ["eval", "ml", "--rho", "1.9", "--xmax", "10", "--points", "5",
             "--mu", "4"],
    "simulate": ["simulate", "--process", "limit", "--rho", "1.9", "--mu",
                 "4", "--lambda", "1", "--T", "1", "--steps", "10", "--seed",
                 "1"],
    "diagnose": ["diagnose", "mixing-remark", "--rho", "1.9", "--mu", "4",
                 "--lambda", "1", "--seed", "1"],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("sub, flag", [
    ("eval", "--mu"), ("eval", "--lam"), ("simulate", "--mu"),
    ("simulate", "--lam"), ("simulate", "--tol"), ("diagnose", "--mu"),
    ("diagnose", "--lam"), ("diagnose", "--tol"), ("mixing", "--frac")])
def test_float_flags_must_be_finite(tmp_path, capsys, sub, flag, value):
    # a sidecar or report would carry the value, and JSON has no NaN or
    # Infinity: refused naming the flag, with nothing written
    line = (["mixing", "--mu", "4", "--lambda", "1", "--frac", "1", value]
            if sub == "mixing" else NONFINITE_RUNS[sub] + [flag, value])
    assert cli.main(line + ["--out", str(tmp_path / "t.csv")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert out.err.startswith("invalid parameters:") and flag in out.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sub", sorted(SIDECAR_RUNS))
def test_out_ending_in_json_exits_two(tmp_path, sub, capsys):
    out = tmp_path / "x.json"
    assert cli.main(SIDECAR_RUNS[sub] + ["--out", str(out)]) == 2
    assert "sidecar" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, order", [
    (["--lambda", "1", "--moments", "200"], 168),
    (["--lambda", "1", "--frac", "1000"], 1000),
    (["--lambda", "1e-300", "--moments", "3"], 2),
], ids=["moments", "frac", "tiny-lambda"])
def test_moment_past_the_double_range_exits_two_naming_it(capsys, args,
                                                          order):
    assert cli.main(["mixing", "--mu", "4", *args, "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters") and f"alpha^{order}]" in err


def test_moment_count_past_the_cap_exits_two(tmp_path, capsys):
    # uncapped, this count would loop for hours writing zeros
    assert cli.main(["mixing", "--mu", "4", "--lambda", "1e300", "--moments",
                     "2000000000", "--out", "-"]) == 2
    assert "--moments" in capsys.readouterr().err
    out = tmp_path / "m.json"
    assert cli.main(["mixing", "--mu", "4", "--lambda", "1e300", "--moments",
                     str(cli.MAX_MOMENTS), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["moments_int"]) == cli.MAX_MOMENTS + 1


SIZE_RUN = ["simulate", "--rho", "1.9", "--mu", "4", "--lambda", "1", "--T",
            "2", "--seed", "7"]


@pytest.mark.parametrize("line, flag", [
    (["eval", "ml", "--rho", "1.9", "--xmax", "10", "--points", "1" + "0" * 15], "--points"),
    (SIZE_RUN + ["--process", "limit", "--steps", "1" + "0" * 15], "--steps"),
    (SIZE_RUN + ["--process", "limit", "--steps", "2000", "--paths", "1" + "0" * 15],
     "--paths"),
    (SIZE_RUN + ["--process", "component", "--steps", "2000", "--n-components",
                 "1" + "0" * 15], "--n-components"),
    (SIZE_RUN + ["--process", "empirical", "--steps", "2000", "--n-components",
                 "1" + "0" * 15], "--n-components"),
], ids=["points", "steps", "paths", "components", "empirical-rates"])
def test_sizes_past_their_caps_exit_two_before_any_allocation(tmp_path, capsys,
                                                              line, flag):
    # 10^15 values would reach numpy's allocator, whose MemoryError is no
    # documented exit code
    out = tmp_path / "t.csv"
    assert cli.main(line + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters:") and len(err.splitlines()) == 1
    assert flag in err
    assert not out.exists()


def test_size_caps_are_inclusive(tmp_path, monkeypatch, capsys):
    # a kernel row of at most _DRIVER_CELLS lags, a table of at most
    # 16 _DRIVER_CELLS values: at a cap of 21 lags, 20 steps and 16 paths fit
    monkeypatch.setattr(sim, "_DRIVER_CELLS", 21)
    line = SIZE_RUN + ["--process", "limit", "--out", str(tmp_path / "p.csv")]
    assert cli.main(line + ["--steps", "20", "--paths", "16"]) == 0
    assert read_table(tmp_path / "p.csv").shape == (21, 17)
    assert cli.main(line + ["--steps", "21", "--paths", "1"]) == 2
    assert cli.main(line + ["--steps", "20", "--paths", "17"]) == 2
    assert cli.main(["eval", "ml", "--rho", "1.9", "--xmax", "10", "--points",
                     "337", "--out", "-"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert ["--steps" in err[0], "--paths" in err[1], "--points" in err[2]] == [True] * 3


def test_only_divergent_fractional_moments_are_null(capsys):
    # p <= -mu diverges; a large finite moment is a number
    assert cli.main(["mixing", "--mu", "4", "--lambda", "1", "--frac", "-4",
                     "-5", "150", "--out", "-"]) == 0
    frac = json.loads(capsys.readouterr().out)["moments_frac"]
    assert frac["-4.0"] is None and frac["-5.0"] is None
    assert frac["150.0"] == pytest.approx(math.exp(math.lgamma(154.0)
                                                   - math.lgamma(4.0)))


UNWRITABLE_RUNS = {
    "eval": ["eval", "ml", "--rho", "1.9", "--xmax", "5"],
    "mixing": ["mixing", "--mu", "4", "--lambda", "1"],
    "simulate": SIDECAR_RUNS["simulate"],
    "diagnose": ["diagnose", "mixing-remark", "--rho", "1.9", "--mu", "4",
                 "--lambda", "1", "--seed", "1"],
}


@pytest.mark.parametrize("sub", sorted(UNWRITABLE_RUNS))
def test_out_in_missing_directory_exits_two_in_one_line(tmp_path, sub,
                                                        capsys):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(UNWRITABLE_RUNS[sub] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
