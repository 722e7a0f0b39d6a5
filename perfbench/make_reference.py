#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the library in this checkout.

The stored values are the outputs of the kernel_tables jobs at fixed inputs
(the eval gml table rows and the fixed reference lags of the mean kernel and
its derivative), which no independent closed form covers.  They were
generated once, at the commit that defined the benchmark; regenerate them
only on purpose, because every later run is compared against them.

Usage, from the root of the checkout:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile

import numpy as np

import workloads


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        jobs = {job.name: job for job in workloads.kernel_tables(0, tmp)}
        assert jobs["eval_gml"].run() == 0
        table = np.loadtxt(f"{tmp}/gml.csv", delimiter=",", skiprows=1)
        rows = list(workloads.GML_REF_ROWS)
        ref = {
            "gml": {"x": table[rows, 0].tolist(), "value": table[rows, 1].tolist()},
            "mean_kernel": jobs["mean_kernel_values"].run()[
                -len(workloads.MK_REF_LAGS):].tolist(),
            "mean_kernel_deriv": jobs["mean_kernel_deriv_values"].run()[
                -len(workloads.MKD_REF_LAGS):].tolist(),
        }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
