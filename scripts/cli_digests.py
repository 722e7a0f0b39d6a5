#!/usr/bin/env python3
"""Run the README command lines and print a digest of everything they write.

Each line runs through `fracou.cli.main` in a fresh temporary directory that
is removed afterwards; the script prints, per line, its exit code and the
first 16 hex digits of the sha256 of every file it wrote and of its standard
output.  Two checkouts write byte-identical outputs exactly when they print
the same lines.  It exits 1 when a line exits with another code than its
EXIT entry (0 if it has none):

    PYTHONPATH=src python scripts/cli_digests.py
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

from fracou.cli import main as cli_main

SIM = ["simulate", "--rho", "1.9", "--mu", "4", "--lambda", "1", "--T", "2",
       "--seed", "7"]

# the README lines, the eval table on standard output, an eval table across
# the gap interpolant's band at rho 1.9, an eval table whose tail takes the
# exponent form and leading zeros, the three simulate processes the README
# does not show, a component table wide enough that its evaluator, FFT and
# CSV writer each cross many blocks, an xi table at a tolerance whose head
# integrals take many panel passes, so that the sidecar's tail_bound shows
# a change of the panel rule, the two checks that read a certified
# history, at a small --mc, both again at --mc 37, which ends their draws in
# a partial row block of the bridge tree, on the mu < 1 and rho = 1 kernels,
# a mixing table near zero at an order near 1, one of a Gamma law with a
# wide spread, and one at rho 2 whose panels would pass the E-node bound of a
# mixing rule, which exits 2
LINES = {
    "eval ml": ["eval", "ml", "--rho", "1.9", "--xmax", "60", "--points",
                "600", "--out", "ml.csv"],
    "eval ml stdout": ["eval", "ml", "--rho", "1.9", "--xmax", "60",
                       "--points", "600", "--out", "-"],
    "eval ml gap": ["eval", "ml", "--rho", "1.9", "--xmin", "120", "--xmax",
                    "400", "--points", "600", "--out", "ml.csv"],
    "eval ml tail": ["eval", "ml", "--rho", "1.2", "--xmax", "2000",
                     "--points", "600", "--out", "ml.csv"],
    "eval gml": ["eval", "gml", "--rho", "1.9", "--mu", "4", "--xmax", "30",
                 "--out", "gml.csv"],
    "mixing": ["mixing", "--mu", "4", "--lam", "2", "--rho", "1.9", "--frac",
               "0.5", "-1.0"],
    "limit": ["simulate", "--process", "limit", "--rho", "1", "--mu", "4",
              "--lambda", "1", "--T", "2", "--steps", "2000", "--paths",
              "100", "--seed", "7", "--out", "paths.csv"],
    "stationary": SIM + ["--process", "stationary", "--steps", "2000",
                         "--paths", "50", "--tol", "1e-4", "--out", "eta.csv"],
    "component": SIM + ["--process", "component", "--steps", "2000",
                        "--n-components", "100", "--out", "component.csv"],
    "component wide": SIM + ["--process", "component", "--steps", "4000",
                             "--n-components", "300",
                             "--out", "component.csv"],
    "empirical": SIM + ["--process", "empirical", "--steps", "2000",
                        "--n-components", "100", "--paths", "5",
                        "--out", "empirical.csv"],
    "xi": SIM + ["--process", "xi", "--steps", "500", "--n-components", "5",
                 "--tol", "1e-2", "--out", "xi.csv"],
    "xi tight": ["simulate", "--process", "xi", "--rho", "1.9", "--mu", "4",
                 "--lambda", "1", "--T", "2", "--steps", "200",
                 "--n-components", "3", "--seed", "1", "--tol", "1e-7",
                 "--out", "xi.csv"],
    "diagnose l2sup": ["diagnose", "l2sup", "--rho", "1.9", "--mu", "4",
                       "--lambda", "1", "--n", "10,100,1000", "--mc", "2000",
                       "--seed", "1", "--out", "report.json"],
    "diagnose stationarity": ["diagnose", "stationarity", "--rho", "1.9",
                              "--mu", "4", "--lambda", "1", "--mc", "200",
                              "--seed", "1", "--out", "report.json"],
    "diagnose cauchy": ["diagnose", "cauchy", "--rho", "1.9", "--mu", "4",
                        "--lambda", "1", "--mc", "200", "--seed", "1",
                        "--out", "report.json"],
    "diagnose cauchy mu 0.4": ["diagnose", "cauchy", "--rho", "1.9", "--mu",
                               "0.4", "--lam", "1", "--mc", "37", "--seed",
                               "1", "--out", "report.json"],
    "diagnose stationarity rho 1": ["diagnose", "stationarity", "--rho", "1",
                                    "--mu", "4", "--lam", "1", "--mc", "37",
                                    "--seed", "1", "--out", "report.json"],
    "eval gml near": ["eval", "gml", "--rho", "1.01", "--mu", "40", "--xmax",
                      "1e-3", "--out", "gml.csv"],
    "eval gml wide": ["eval", "gml", "--rho", "1.9", "--mu", "100", "--xmax",
                      "30", "--out", "gml.csv"],
    "eval gml rho 2": ["eval", "gml", "--rho", "2", "--mu", "4", "--xmax",
                       "1e10", "--points", "50", "--out", "gml.csv"],
}
# the lines that must exit with another code than 0
EXIT = {"eval gml rho 2": 2}


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run(name: str, argv: list) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out, cwd = io.StringIO(), os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                code = cli_main(argv)
        finally:
            os.chdir(cwd)
        print(f"{name}: exit {code}")
        for path in sorted(pathlib.Path(tmp).iterdir()):
            print(f"  {path.name} {sha16(path.read_bytes())}")
        if out.getvalue():
            print(f"  stdout {sha16(out.getvalue().encode())}")
    return code


def main() -> int:
    wrong = [run(name, argv) != EXIT.get(name, 0)
             for name, argv in LINES.items()]
    return int(any(wrong))


if __name__ == "__main__":
    sys.exit(main())
