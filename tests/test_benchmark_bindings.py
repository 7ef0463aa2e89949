"""The benchmark under ``perfbench/`` binds to package names: its tracer
wraps the functions that ``perfbench/spans.py`` lists, and its per-layer
report reads ``space.patches`` and splits each stiffness assembly with
``elements=[]`` and ``faces=[]``.  These tests load that file as it is, so
a renamed or deleted name fails here and not only in the benchmark's own
suite."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from patchdg import cli, mesh, reconstruction
from patchdg.assembly import FormConfig, assemble_biharmonic, assemble_laplace, assemble_mass

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    original = reconstruction.build_space
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert reconstruction.build_space is not original
        square = mesh.generate_square_tri(4)
        reconstruction.build_space(square, mesh.build_topology(square), 2)
    finally:
        tracer.uninstall()
    assert reconstruction.build_space is original
    for name in ("mesh.generate", "mesh.build_topology", "mesh.all_geometries",
                 "reconstruction.build_space", "patch.build_patch", "reconstruction.fit_local"):
        assert tracer.counts[name] == 1, name
    assert spans.check_spans(tracer.spans) == []


def test_traced_study_spans_each_generated_mesh(tmp_path):
    # the mesh-family table must call the generator through its module
    # name, which the tracer rebinds, not a function object kept at import
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        argv = ["convergence", "--mesh", "square:2,4", "--m", "1", "--output", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    assert tracer.counts["mesh.generate"] == 2
    assert spans.check_spans(tracer.spans) == []


def test_patches_and_split_assembly():
    square = mesh.generate_square_tri(4)
    space = reconstruction.build_space(square, mesh.build_topology(square), 2)
    assert space.patches[0].members[0] == 0
    assert len(space.patches[0].members) == space.t
    # the diagonal blocks are stored halved and restored by the
    # symmetrisation, in each part and in the whole
    for cfg in [FormConfig(problem="laplace", m=2)] + [
            FormConfig(problem="biharmonic", bc=bc, m=2) for bc in ("clamped", "simply_supported")]:
        assemble = assemble_laplace if cfg.problem == "laplace" else assemble_biharmonic
        volume = sp.tril(assemble(space, cfg, faces=[]))
        faces = sp.tril(assemble(space, cfg, elements=[]))
        full = sp.tril(assemble(space, cfg))
        assert abs(volume + faces - full).max() <= 1e-12 * abs(full).max(), cfg.bc
        assert np.isfinite(volume.data).all() and faces.nnz > 0
    # the mass is all diagonal blocks: every patch reproduces constants, so
    # the constant field's squared L2 norm is the area of the square
    ones, area = np.ones(space.num_dofs), space.geometry.measures.sum()
    assert abs(ones @ assemble_mass(space) @ ones - area) <= 1e-12 * area
