import json
import subprocess
import sys

import numpy as np
import pytest

from fracou import cli
from fracou.errors import AccuracyError


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


def test_simulate_component_and_xi(tmp_path):
    for proc in ("component", "xi", "empirical"):
        out = tmp_path / f"{proc}.csv"
        assert cli.main(["simulate", "--process", proc, "--rho", "1.9",
                         "--mu", "4", "--lambda", "1", "--T", "0.5",
                         "--steps", "25", "--paths", "2",
                         "--n-components", "3", "--seed", "2",
                         "--out", str(out)]) == 0
        assert out.exists()


def test_diagnose_exit_codes(tmp_path):
    out = tmp_path / "rep.json"
    code = cli.main(["diagnose", "mixing-remark", "--rho", "1.9", "--mu",
                     "3", "--lam", "1", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "pass"


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
    assert json.loads(out.read_text())["verdict"] == "inconclusive"


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


def test_truncation_maps_to_exit_four(tmp_path):
    # mu close to the admissibility boundary: the certified tail decays so
    # slowly that no history below the cap reaches the tolerance
    out = tmp_path / "x.csv"
    code = cli.main(["simulate", "--process", "stationary", "--rho", "1.9",
                     "--mu", "0.6", "--lambda", "1", "--T", "1", "--steps",
                     "10", "--paths", "1", "--tol", "1e-12", "--seed", "3",
                     "--out", str(out)])
    assert code == 4


def test_rerun_bit_identical_across_thread_counts(tmp_path, cli_env):
    common = ["--rho", "1.9", "--mu", "4", "--lambda", "1", "--seed", "9"]
    runs = {
        # 64 paths: one normal_rows call of 64 rows, enough to start the pool
        # when the child has min(FRACOU_THREADS, os.cpu_count()) >= 2 workers
        "limit": ["simulate", "--process", "limit", "--T", "1", "--steps",
                  "100", "--paths", "64", *common],
        "empirical": ["simulate", "--process", "empirical", "--T", "1",
                      "--steps", "100", "--paths", "64", "--n-components",
                      "20", *common],
        "stationary": ["simulate", "--process", "stationary", "--T", "0.5",
                       "--steps", "50", "--paths", "64", "--tol", "1e-3",
                       *common],
    }
    # pooled and single-threaded fills are compared only where
    # os.cpu_count() >= 2 (4 and 8 both give 2 workers on 2 cores); on one
    # core every run fills its rows in one thread and this checks reruns only.
    # test_simulate.py::test_thread_env_does_not_change_bits runs 4- and
    # 8-worker fills on any host
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


@pytest.mark.parametrize("sub", sorted(SIDECAR_RUNS))
def test_out_ending_in_json_exits_two(tmp_path, sub, capsys):
    out = tmp_path / "x.json"
    assert cli.main(SIDECAR_RUNS[sub] + ["--out", str(out)]) == 2
    assert "sidecar" in capsys.readouterr().err
    assert not out.exists()
