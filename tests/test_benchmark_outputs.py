"""The benchmark's workloads, run through ``cli.main`` and compared with the
committed references by the benchmark's own output check
(``perfbench/check.py``), loaded as it is.  A change that moves an
eigenvalue, an error column or a VTK field beyond the check's tolerances
fails here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from patchdg import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def problems(workload, outdir, capsys):
    """The output check's complaints about one run of ``workload``."""
    argv = load("workloads").WORKLOADS[workload]
    assert cli.main(argv + ["--output", str(outdir)]) == cli.EXIT_OK
    refdir = PERFBENCH / "reference" / workload
    return load("check").check_outputs(argv, str(outdir), capsys.readouterr().out, str(refdir))


@pytest.mark.parametrize("workload", ["study-square-laplace", "study-cube-biharmonic"])
def test_study_outputs_match_reference(tmp_path, capsys, workload):
    assert problems(workload, tmp_path, capsys) == []


def test_solve_outputs_match_reference(tmp_path, capsys):
    # eigenvalues, the above-exact line and the VTK fields of the solve run
    assert problems("solve-square-laplace", tmp_path, capsys) == []
