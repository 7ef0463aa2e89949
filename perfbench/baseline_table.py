"""Re-measure the per-stage baseline table with the benchmark's tracer.

    python3 perfbench/baseline_table.py

Each case is a two-mesh ``convergence`` run in one traced child process
(one BLAS thread); the table row is the finer mesh's stages, split at its
``build_topology`` call.  The fine mesh is what the table is about; the
coarse one only makes the CLI's convergence command valid.  Target 2 is the
first multiple eigenvalue on both domains (multiplicity 2 on the square, 3
on the cube), so ``match_cluster`` does k^2 + k energy products.
``eigsh`` asks for ``cluster start + multiplicity + 4`` pairs, as the CLI
does.  These cases take minutes; they are not benchmark workloads.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import run_child  # noqa: E402

CASES = [
    ("square:64, m=2, Laplace", "convergence --mesh square:32,64 --m 2 --target 2"),
    ("cube:8, m=2, Laplace", "convergence --mesh cube:4,8 --m 2 --target 2"),
    ("square:32, m=3, biharmonic", "convergence --mesh square:16,32 --problem biharmonic --m 3 --target 2"),
]
COLUMNS = ["N", "nnz", "space_s", "volume_s", "faces_s", "mass_s", "eigensolve_s",
           "match_cluster_s", "eigen_errors_s"]


def main():
    workroot = os.path.join(HERE, ".work", "baseline")
    print("| case | " + " | ".join(COLUMNS) + " | run_s (both meshes) |")
    print("|---" * (len(COLUMNS) + 2) + "|")
    try:
        for i, (label, argv) in enumerate(CASES):
            rep = run_child("trace", os.path.join(workroot, str(i)), argv.split(),
                            timeout=900)
            if rep.get("rc") != 0:
                raise SystemExit(f"{label}: {rep.get('error', rep)}")
            row = rep["trace"]["per_mesh"][-1]
            cells = [str(row[c]) if isinstance(row[c], int) else f"{row[c]:.2f}" for c in COLUMNS]
            print(f"| {label} | " + " | ".join(cells) + f" | {rep['wall_s']:.1f} |", flush=True)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


if __name__ == "__main__":
    main()
