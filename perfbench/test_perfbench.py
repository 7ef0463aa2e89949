"""Tests of the benchmark itself: span arithmetic, the tracer's patching, and
the output check.

    python3 -m pytest perfbench
"""

import importlib
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from check import check_csv, check_outputs, read_csv, read_vtk_fields  # noqa: E402
from run import run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tree(*rows):
    """Spans from (name, start, end, parent) rows, children linked."""
    out = [spans.Span(name, start, end, parent) for name, start, end, parent in rows]
    for i, s in enumerate(out):
        if s.parent >= 0:
            out[s.parent].children.append(i)
    return out


def test_self_times_on_a_synthetic_tree():
    tree = _tree(
        ("cli.main", 0.0, 10.0, -1),
        ("analysis.compute_spectrum", 1.0, 4.0, 0),
        ("assembly.stiffness", 2.0, 3.0, 1),
        ("analysis.match_cluster", 5.0, 9.0, 0),
    )
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert spans.check_spans(tree) == []
    assert spans.inclusive_times(tree)["analysis.compute_spectrum"] == 3.0
    layers = spans.layer_self_times(tree)
    assert layers["cli"] == 3.0 and layers["analysis"] == 6.0 and layers["assembly"] == 1.0
    assert sum(layers.values()) == 10.0


def test_recursive_span_counts_once_and_bad_trees_are_reported():
    nested = _tree(("mesh.generate", 0.0, 4.0, -1), ("mesh.generate", 1.0, 2.0, 0))
    assert spans.inclusive_times(nested) == {"mesh.generate": 4.0}

    leaking = _tree(("cli.main", 0.0, 5.0, -1), ("mesh.generate", 4.0, 6.0, 0))
    assert any("leaves parent" in p for p in spans.check_spans(leaking))
    overlapping = _tree(("cli.main", 0.0, 5.0, -1),
                        ("mesh.generate", 1.0, 3.0, 0), ("mesh.mesh_size", 2.0, 4.0, 0))
    assert any("overlap" in p for p in spans.check_spans(overlapping))


def test_root_check_wants_one_cli_main_root_as_long_as_the_call():
    tree = _tree(("cli.main", 1.0, 9.0, -1), ("mesh.generate", 2.0, 3.0, 0))
    assert spans.check_root(tree, "cli.main", 8.01, 0.05) == []
    assert spans.check_root(tree, "cli.main", 8.5, 0.05) != []   # root too short
    assert spans.check_root(tree, "cli.main", 7.9, 0.05) != []   # root longer than the call
    two_roots = _tree(("cli.main", 1.0, 9.0, -1), ("mesh.generate", 9.5, 9.6, -1))
    assert spans.check_root(two_roots, "cli.main", 8.6, 0.05) != []
    assert spans.check_root([], "cli.main", 8.0, 0.05) != []


def _bindings():
    """Every (module, attribute) in patchdg bound to a traced function."""
    import patchdg.cli  # noqa: F401  (loads every module)

    targets = {id(getattr(importlib.import_module(m), a)) for m, a, _ in spans.SPANS + spans.COUNTS}
    found = {}
    for modname, module in sys.modules.items():
        if modname == "patchdg" or modname.startswith("patchdg."):
            for attr, value in vars(module).items():
                if id(value) in targets:
                    found[(modname, attr)] = value
    return found


def test_tracer_wraps_every_binding_and_restores_originals():
    from patchdg.reconstruction import ReconstructedSpace

    before = _bindings()
    # names the package binds twice must both be covered
    assert ("patchdg.analysis", "energy_product") in before
    assert ("patchdg.cli", "build_space") in before and ("patchdg.analysis", "build_space") in before
    evaluate = vars(ReconstructedSpace)["evaluate"]

    tracer = spans.Tracer().install()
    try:
        for (modname, attr), original in before.items():
            assert getattr(sys.modules[modname], attr) is not original, (modname, attr)
        assert vars(ReconstructedSpace)["evaluate"] is not evaluate
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    for (modname, attr), original in before.items():
        assert getattr(sys.modules[modname], attr) is original, (modname, attr)
    assert vars(ReconstructedSpace)["evaluate"] is evaluate


def _reference_from(outdir, refdir):
    os.makedirs(refdir)
    for name in os.listdir(outdir):
        if name.endswith(".csv"):
            shutil.copy(os.path.join(outdir, name), refdir)
        elif name.endswith(".vtk"):
            np.savez(os.path.join(refdir, name[:-4] + ".npz"),
                     **read_vtk_fields(os.path.join(outdir, name)))


@pytest.mark.parametrize("argv", [
    "solve --mesh square:8 --m 2 --k 10 --vtk 1".split(),
    "convergence --mesh square:4,8 --m 1 --target 1".split(),
])
def test_traced_outputs_pass_the_same_check_as_untraced(tmp_path, argv):
    plain = run_child("run", str(tmp_path / "plain"), argv)
    traced = run_child("trace", str(tmp_path / "traced"), argv)
    assert plain["rc"] == 0 and traced["rc"] == 0, (plain, traced)
    assert traced["trace"]["span_problems"] == []
    assert traced["trace"]["roots"][0][0] == "cli.main"
    refdir = str(tmp_path / "ref")
    _reference_from(str(tmp_path / "plain"), refdir)
    assert check_outputs(argv, str(tmp_path / "plain"), plain["stdout"], refdir) == []
    assert check_outputs(argv, str(tmp_path / "traced"), traced["stdout"], refdir) == []


def _rewrite(path, column, row, factor):
    header, rows = read_csv(path)
    j = header.index(column)
    rows[row][j] = f"{float(rows[row][j]) * factor:.12g}"
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(r) for r in [header] + rows) + "\n")


@pytest.mark.parametrize("workload, name", [
    ("solve-square-laplace", "eigenvalues.csv"),
    ("study-square-laplace", "errors.csv"),
    ("study-cube-biharmonic", "errors_eigenfunction.csv"),
])
def test_check_rejects_an_eigenvalue_perturbed_by_1e_10(tmp_path, workload, name):
    ref = os.path.join(HERE, "reference", workload, name)
    got = str(tmp_path / name)
    shutil.copy(ref, got)
    problems = []
    check_csv(got, ref, problems)
    assert problems == []
    _rewrite(got, "value", 1, 1.0 + 1e-10)
    check_csv(got, ref, problems)
    assert len(problems) == 1 and "value" in problems[0]


def test_check_allows_one_unit_in_the_last_printed_digit(tmp_path):
    ref = os.path.join(HERE, "reference", "solve-square-laplace", "eigenvalues.csv")
    got = str(tmp_path / "eigenvalues.csv")
    header, rows = read_csv(ref)
    value = float(rows[0][1])
    rows[0][1] = repr(value + 10.0 ** (math.floor(math.log10(value)) - 11))
    with open(got, "w") as fh:
        fh.write("\n".join(",".join(r) for r in [header] + rows) + "\n")
    problems = []
    check_csv(got, ref, problems)
    assert problems == []


def test_check_rejects_a_missing_csv(tmp_path):
    workload = "study-square-laplace"
    refdir = os.path.join(HERE, "reference", workload)
    for name in ("errors.csv", "errors_eigenfunction.csv"):
        shutil.copy(os.path.join(refdir, name), tmp_path)
    assert check_outputs(WORKLOADS[workload], str(tmp_path), "", refdir) == []
    os.remove(tmp_path / "errors_eigenfunction.csv")
    assert check_outputs(WORKLOADS[workload], str(tmp_path), "", refdir) == [
        "errors_eigenfunction.csv: missing"]


def test_tracer_refuses_a_name_the_package_no_longer_defines(monkeypatch):
    from patchdg.mesh import build_topology

    gone = ("patchdg.mesh", "no_such_function", "mesh.no_such_function")
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + [gone])
    tracer = spans.Tracer()
    with pytest.raises(AttributeError, match="no_such_function"):
        tracer.install()
    assert tracer._patched == []
    assert sys.modules["patchdg.mesh"].build_topology is build_topology


def test_a_traced_child_fails_when_a_traced_function_is_gone(tmp_path):
    import run

    shim = tmp_path / "shim.py"
    shim.write_text(
        "import runpy, sys\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import spans\n"
        "spans.SPANS.append(('patchdg.assembly', 'no_such_function',"
        " 'assembly.no_such_function'))\n"
        f"sys.argv[0] = {os.path.join(HERE, 'child.py')!r}\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')\n")
    result = tmp_path / "result.json"
    argv = "convergence --mesh square:4,8 --m 1 --target 1".split()
    proc = subprocess.run(
        [sys.executable, str(shim), str(result), "0.0", "trace", *argv, "--output", str(tmp_path)],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not result.exists()
    assert "no_such_function" in proc.stderr
    rep = {"rc": proc.returncode, "error": proc.stderr}
    assert run.check_rep("study-square-laplace", rep, str(tmp_path)) != []


def test_slow_repetitions_are_left_out_of_the_medians():
    import run

    runner = run.Runner("study-square-laplace", 1, 1.0, trace=0)
    fast = {"wall_s": 10.0, "wall_raw_s": 11.0, "speed_factor": 0.9, "peak_rss_mb": 120.0}
    slow = {"wall_s": 12.0, "wall_raw_s": 24.0, "speed_factor": 0.5, "peak_rss_mb": 120.0}
    runner.reps = [fast, slow]
    assert runner.unresolved() == [slow]
    assert runner.end_to_end()["wall_s"] == ([10.0], "s")
    runner.reps = [slow]
    assert runner.end_to_end()["wall_s"] == ([], "s")
