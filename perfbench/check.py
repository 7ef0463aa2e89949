"""Output check: compare one repetition's artifacts with the committed reference.

Tolerances (see NOTES.md for the measurements behind them):

* eigenvalue and mesh-size columns: 1e-12 relative, plus one unit in the
  12th significant digit, because the CLI prints 12 significant digits and a
  value near a rounding boundary flips its last digit;
* error columns and VTK fields: 1e-9 relative.  scipy's ``eigsh`` draws its
  start vector from OS entropy, so reruns of the same code differ by about
  1.6e-12 relative in these columns (about 3e-12 in the worst error column);
* order columns: 1e-8 absolute (an order is a log2 of an error ratio);
* residuals: at or below the requested ``--tol`` (default 1e-9); they differ
  between reruns, so they are not compared with the reference.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

EIG_RTOL = 1e-12
ERROR_RTOL = 1e-9
ORDER_ATOL = 1e-8
FIELD_RTOL = 1e-9
DEFAULT_TOL = 1e-9
PRINT_DIGITS = 12


def print_quantum(x):
    """One unit in the last printed (12th significant) digit of x."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(x))) - (PRINT_DIGITS - 1))


def read_csv(path):
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_vtk_fields(path):
    """Point/cell counts and the two scalar fields of a legacy VTK export."""
    with open(path) as fh:
        lines = fh.read().split("\n")

    def block(keyword, skip):
        i = next(i for i, line in enumerate(lines) if line.startswith(keyword))
        n = int(lines[i].split()[1])
        return n, np.array(lines[i + 1 + skip:i + 1 + skip + n], dtype=float)

    points, point_data = block("POINT_DATA", 2)
    cells, cell_data = block("CELL_DATA", 2)
    n_points = int(next(line for line in lines if line.startswith("POINTS")).split()[1])
    n_cells = int(next(line for line in lines if line.startswith("CELLS")).split()[1])
    if (n_points, n_cells) != (points, cells):
        raise ValueError(f"{path}: POINTS/CELLS counts disagree with the data blocks")
    return {"points": n_points, "cells": n_cells,
            "point_data": point_data, "cell_data": cell_data}


def _num(s):
    return None if s == "" else float(s)


def _compare(problems, where, got, ref, rtol, atol=0.0, quantum=False):
    got, ref = _num(got), _num(ref)
    if (got is None) != (ref is None):
        problems.append(f"{where}: got {got}, reference {ref}")
        return
    if got is None:
        return
    allowed = rtol * abs(ref) + atol + (print_quantum(ref) if quantum else 0.0)
    if not abs(got - ref) <= allowed:
        problems.append(f"{where}: got {got!r}, reference {ref!r} (allowed {allowed:.3g})")


# column name -> (rtol, atol, allow one print quantum)
_COLUMNS = {
    "index": (0.0, 0.0, False),
    "value": (EIG_RTOL, 0.0, True),
    "scale": (EIG_RTOL, 0.0, True),
    "error": (ERROR_RTOL, 0.0, False),
    "order": (0.0, ORDER_ATOL, False),
}


def check_csv(path, ref_path, problems, tol=DEFAULT_TOL):
    name = os.path.basename(path)
    if not os.path.isfile(path):
        problems.append(f"{name}: missing")
        return
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(ref_path)
    if header != ref_header or len(rows) != len(ref_rows):
        problems.append(f"{name}: header {header} with {len(rows)} rows, "
                        f"reference {ref_header} with {len(ref_rows)} rows")
        return
    for r, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        if len(row) != len(header):
            problems.append(f"{name} row {r}: {len(row)} fields")
            continue
        for col, got, want in zip(header, row, ref):
            if col == "residual":
                if not float(got) <= tol:
                    problems.append(f"{name} row {r}: residual {got} above tol {tol:g}")
            else:
                rtol, atol, quantum = _COLUMNS[col]
                _compare(problems, f"{name} row {r} {col}", got, want, rtol, atol, quantum)


def check_vtk(path, ref_npz, problems):
    name = os.path.basename(path)
    if not os.path.isfile(path):
        problems.append(f"{name}: missing")
        return
    got = read_vtk_fields(path)
    with np.load(ref_npz) as ref:
        for key in ("points", "cells"):
            if got[key] != int(ref[key]):
                problems.append(f"{name}: {got[key]} {key}, reference {int(ref[key])}")
                return
        for key in ("point_data", "cell_data"):
            want = ref[key]
            err = float(np.max(np.abs(got[key] - want)))
            allowed = FIELD_RTOL * float(np.max(np.abs(want)))
            if not err <= allowed:
                problems.append(f"{name} {key}: max difference {err:.3g} > {allowed:.3g}")


def check_outputs(argv, outdir, stdout, refdir):
    """Problems with one repetition's outputs, as strings (empty when it passes).

    ``argv`` is the workload's CLI argument list, ``outdir`` where the run
    wrote, ``stdout`` what it printed and ``refdir`` the reference directory.
    """
    problems = []
    tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else DEFAULT_TOL
    if argv[0] == "solve":
        check_csv(os.path.join(outdir, "eigenvalues.csv"),
                  os.path.join(refdir, "eigenvalues.csv"), problems, tol)
        if not re.search(r"^above-exact diagnostic \(first \d+\): all above$", stdout, re.M):
            problems.append(f"above-exact line is not 'all above': {stdout.strip()!r}")
        vtk = int(argv[argv.index("--vtk") + 1]) if "--vtk" in argv else 0
        for j in range(1, vtk + 1):
            check_vtk(os.path.join(outdir, f"eigenfunction_{j:03d}.vtk"),
                      os.path.join(refdir, f"eigenfunction_{j:03d}.npz"), problems)
    elif argv[0] == "convergence":
        for name in ("errors.csv", "errors_eigenfunction.csv"):
            check_csv(os.path.join(outdir, name), os.path.join(refdir, name), problems, tol)
    else:
        raise ValueError(f"no output check for command {argv[0]!r}")
    return problems
