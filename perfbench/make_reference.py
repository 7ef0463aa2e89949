"""Write the committed reference outputs and measure their rerun drift.

    python3 perfbench/make_reference.py

For each workload: run it ``RERUNS`` times untraced, keep the first run's
CSV files (and each VTK export as an ``.npz`` of its counts and fields) in
``perfbench/reference/<workload>/``, and record in ``meta.json`` the largest
difference between reruns per output column (the drift the check's
tolerances must cover) plus N and the stiffness nnz per mesh, read from one
traced run.  Every rerun must then pass the output check.  Only regenerate
references on purpose: the point of them is that later code is held to them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_outputs, read_csv, read_vtk_fields  # noqa: E402
from run import run_child  # noqa: E402
from workloads import WORKLOADS, element_count, mesh_specs  # noqa: E402

RERUNS = 3


def csv_drift(paths):
    """Largest |rerun - first| per column, relative to |first| (absolute for
    order columns, which are logarithms)."""
    header, first = read_csv(paths[0])
    drift = {col: 0.0 for col in header if col != "index"}
    for path in paths[1:]:
        _, rows = read_csv(path)
        for row, ref in zip(rows, first):
            for col, a, b in zip(header, row, ref):
                if col == "index" or a == "" or b == "":
                    continue
                d = abs(float(a) - float(b))
                if col not in ("order", "residual"):
                    d /= abs(float(b))
                drift[col] = max(drift[col], d)
    return drift


def vtk_drift(paths):
    first = read_vtk_fields(paths[0])
    drift = {}
    for key in ("point_data", "cell_data"):
        scale = float(np.max(np.abs(first[key])))
        drift[key] = max(float(np.max(np.abs(read_vtk_fields(p)[key] - first[key]))) / scale
                         for p in paths[1:])
    return drift


def make(workload, workroot):
    argv = WORKLOADS[workload]
    dirs = [os.path.join(workroot, workload, str(i)) for i in range(RERUNS)]
    reps = [run_child("run", d, argv) for d in dirs]
    for rep in reps:
        if rep.get("rc") != 0:
            raise SystemExit(f"{workload}: run failed: {rep.get('error', rep)}")
    traced = run_child("trace", os.path.join(workroot, workload, "traced"), argv)
    if traced.get("rc") != 0:
        raise SystemExit(f"{workload}: traced run failed: {traced.get('error', traced)}")

    refdir = os.path.join(HERE, "reference", workload)
    shutil.rmtree(refdir, ignore_errors=True)
    os.makedirs(refdir)
    drift = {}
    for name in sorted(os.listdir(dirs[0])):
        paths = [os.path.join(d, name) for d in dirs]
        if name.endswith(".csv"):
            shutil.copy(paths[0], refdir)
            drift[name] = csv_drift(paths)
        elif name.endswith(".vtk"):
            fields = read_vtk_fields(paths[0])
            np.savez_compressed(os.path.join(refdir, name[:-4] + ".npz"), **fields)
            drift[name] = vtk_drift(paths)
    meta = {
        "argv": argv,
        "reruns": RERUNS,
        "rerun_drift": drift,
        "meshes": [{"mesh": m, "N": element_count(m), "nnz": row["nnz"]}
                   for m, row in zip(mesh_specs(argv), traced["trace"]["per_mesh"])],
        "versions": reps[0]["versions"],
    }
    with open(os.path.join(refdir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    for d, rep in zip(dirs, reps):
        problems = check_outputs(argv, d, rep["stdout"], refdir)
        if problems:
            raise SystemExit(f"{workload}: a rerun fails the new reference: {problems}")
    print(f"{workload}: drift {json.dumps(drift)}")
    print(f"{workload}: meshes {json.dumps(meta['meshes'])}")


def main():
    workroot = os.path.join(HERE, ".work", "reference")
    try:
        for workload in WORKLOADS:
            make(workload, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


if __name__ == "__main__":
    main()
