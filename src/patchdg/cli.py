"""Batch front end: solve / convergence / reliable / source / mesh-info.

One parser takes the command and its flags, optionally layered over a flat
key=value text file whose keys are the flag names: its lines are parsed as
flags placed before the command line's own, so flags override the file.
A command loads its meshes, hands them to :mod:`analysis` (the refinement
studies live there) and writes the artifacts: CSV files with a header row
and 12-significant-digit, locale-independent numbers, plus optional
legacy-VTK eigenfunction exports.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, eigensolve
from .assembly import FormConfig
from .errors import PatchDGError
from .mesh import build_topology, parse_msh, parse_poly
from .patch import required_dim
from .quadrature import MAX_ORDER
from .reconstruction import build_space

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """A setting or input the run cannot use."""


@dataclass(kw_only=True)
class RunConfig(FormConfig):
    """One run: the form settings it inherits, plus what to run it on."""

    command: str
    t: int | None = None
    mesh: str = ""
    k: int = 10
    target: int = 1
    tol: float = 1e-9
    vtk: int = 0
    output: str = "."

    def __post_init__(self):
        """Reject bad values before any mesh work."""
        super().__post_init__()
        ancestor = _nearest_existing(self.output)
        for bad, text in [(self.k < 1, "k must be >= 1"),
                          (self.t is not None and self.t < 1, "patch size t must be >= 1"),
                          (self.tol <= 0, "tol must be positive"),
                          (self.target < 1, "target must be >= 1"),
                          (self.vtk < 0, "vtk must be >= 0"),
                          (not os.path.isdir(ancestor),
                           f"output {self.output}: {ancestor} exists and is not a directory")]:
            if bad:
                raise ConfigError(text)
        specs = _mesh_specs(self.mesh)
        if self.command in ("solve", "mesh-info") and len(specs) > 1:
            raise ConfigError(f"{self.command} takes one mesh")
        if self.command in ("convergence", "reliable", "source"):  # rates compare h with 2h
            if len(specs) < 2:
                raise ConfigError(f"{self.command} needs at least two meshes")
            family, _ = specs[0]
            if family is None or not family.closed_form(self.bc):
                known = "/".join(f"{prefix}:" for prefix in analysis.FAMILIES)
                raise ConfigError(f"{self.command} measures against an exact spectrum, known only "
                                  f"on generated {known} meshes and not for the clamped plate")
            sizes = [n for _, n in specs]  # h is proportional to 1/n
            if not all(map(analysis.halves, sizes[1:], sizes)):
                raise ConfigError(f"{self.command} mesh sizes must double at each step: "
                                  f"{self.mesh}")


def _nearest_existing(path):
    """``path`` or its nearest ancestor that exists."""
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    return path


def _mesh_specs(spec):
    """The single meshes of a mesh source: a (family row, n) pair per size
    of a generated 'prefix:n1,n2,...' (each an integer >= 1), else a
    (None, path) pair per comma-separated path."""
    prefix, colon, sizes = spec.partition(":")
    family = analysis.FAMILIES.get(prefix) if colon else None
    if family is None:
        return [(None, path) for path in spec.split(",")]
    sizes = sizes.split(",")
    if not all(n.strip().isdecimal() and int(n) > 0 for n in sizes):
        raise ConfigError(f"mesh sizes must be integers >= 1: {spec}")
    return [(family, int(n)) for n in sizes]


def _load_mesh_one(spec):
    """The mesh of one ``_mesh_specs`` pair: generated, or read from a file."""
    family, source = spec
    if family is not None:
        return family.generate(source)
    parse = parse_poly if source.endswith((".poly", ".txt")) else parse_msh
    try:
        with open(source, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read mesh file {source}: {exc.strerror}") from None
    return parse(text)


def _check_degree(cfg, mesh):
    """The mass integrand has degree 2m in the mesh dimension; reject degrees
    the shipped quadrature cannot integrate, and patches too small to fit
    P^m, before any expensive work."""
    if 2 * cfg.m > MAX_ORDER[mesh.dim]:
        raise ConfigError(f"degree {cfg.m} needs quadrature order {2 * cfg.m}; "
                          f"{mesh.dim}D rules stop at order {MAX_ORDER[mesh.dim]}")
    need = required_dim(cfg.m, mesh.dim)
    if cfg.t is not None and cfg.t < need:
        raise ConfigError(f"patch size t = {cfg.t} is below {need}, the dimension of "
                          f"P^{cfg.m} in {mesh.dim}D")


def _meshes(cfg):
    """The run's family row (None for mesh files) and its meshes, loaded,
    with the degree and patch size checked."""
    specs = _mesh_specs(cfg.mesh)
    meshes = [_load_mesh_one(s) for s in specs]
    _check_degree(cfg, meshes[0])
    return specs[0][0], meshes


def _fmt(x):
    return "" if x is None else f"{x:.12g}"


def _write_atomic(path, text, newline=None):
    """Write ``text`` to ``<path>.tmp`` in the same directory, then rename
    it over ``path``: a failed write leaves any earlier file as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_csv(path, header, rows):
    lines = [header, *([v if isinstance(v, str) else _fmt(v) for v in row] for row in rows)]
    _write_atomic(path, "".join(",".join(line) + "\n" for line in lines), newline="")


def _write_rows(path, rows):
    """Convergence rows as a ``scale,value,error,order`` CSV."""
    _write_csv(path, ["scale", "value", "error", "order"],
               [(r.scale, r.value, r.error, r.order) for r in rows])


# --------------------------------------------------------------------------
# VTK export
# --------------------------------------------------------------------------

def _format_lines(values, counts, spec="%.12g"):
    """Lines of ``counts[i]`` space-separated numbers each, from the flat
    ``values``, with one %-format (``"%.12g" % x`` prints what ``_fmt``
    prints for floats)."""
    templates = {c: " ".join([spec] * c) for c in set(counts)}
    return "\n".join([templates[c] for c in counts]) % tuple(values)


def export_vtk(mesh, space, vector, path):
    """Legacy ASCII VTK with duplicated per-element points.

    Point data is the reconstructed field evaluated at each element's own
    vertices (so the discontinuities are visible); cell data is the raw
    sampled DOF value.
    """
    vector = np.asarray(vector, dtype=float)
    if len(vector) != mesh.num_elements:
        raise ValueError("vector length must equal the element count")
    # one batch: every element at the vertices of its padded table row; the
    # padding is dropped again
    n = mesh.num_elements
    table, lengths = mesh.elements, mesh.lengths
    vals = space.evaluate(vector, np.arange(n), np.take(mesh.vertices, table, axis=0))
    present = np.arange(table.shape[1]) < lengths[:, None]
    n_points = int(lengths.sum())
    # each mesh vertex formatted once; a point's line is its vertex's line
    coords = np.zeros((mesh.num_vertices, 3))
    coords[:, :mesh.dim] = mesh.vertices
    vertex_lines = _format_lines(coords.ravel().tolist(), [3] * mesh.num_vertices).split("\n")
    # cell rows: the vertex count, then the element's consecutive point ids
    starts = np.cumsum(lengths) - lengths
    cells = np.column_stack([lengths, starts[:, None] + np.arange(table.shape[1])])
    cells = cells[np.column_stack([np.ones(n, dtype=bool), present])]
    cell_type = 7 if mesh.element_kind == "polygon" else (5 if mesh.dim == 2 else 10)

    out = ["# vtk DataFile Version 3.0", "patchdg reconstructed field", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {n_points} double",
           "\n".join([vertex_lines[v] for v in table[present].tolist()]),
           f"CELLS {n} {n_points + n}",
           _format_lines(cells.tolist(), (lengths + 1).tolist(), "%d"),
           f"CELL_TYPES {n}",
           "\n".join([str(cell_type)] * n),
           f"POINT_DATA {n_points}",
           "SCALARS reconstructed double 1",
           "LOOKUP_TABLE default",
           _format_lines(vals[present].tolist(), [1] * n_points),
           f"CELL_DATA {n}",
           "SCALARS sample double 1",
           "LOOKUP_TABLE default",
           _format_lines(vector.tolist(), [1] * n)]
    try:
        _write_atomic(path, "\n".join(out) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_solve(cfg):
    family, (mesh,) = _meshes(cfg)
    n = mesh.num_elements  # one DOF per element
    eigensolve.dense_path(n, min(cfg.k, n))
    topo = build_topology(mesh)
    space = build_space(mesh, topo, cfg.m, t=cfg.t)
    result, A, M = analysis.compute_spectrum(space, cfg, k=cfg.k, tol=cfg.tol)
    rows = [(i + 1, v, r) for i, (v, r) in enumerate(zip(result.values, result.residuals))]
    os.makedirs(cfg.output, exist_ok=True)
    _write_csv(os.path.join(cfg.output, "eigenvalues.csv"), ["index", "value", "residual"], rows)
    for j in range(min(cfg.vtk, len(result.values))):
        export_vtk(mesh, space, result.vectors[:, j],
                   os.path.join(cfg.output, f"eigenfunction_{j + 1:03d}.vtk"))
    if family is not None and family.closed_form(cfg.bc):
        # per-run diagnostic against the known model spectrum
        exact = analysis.exact_spectrum(family.domain, cfg.p, min(10, len(result.values)))
        flags = analysis.above_exact_flags(exact, result, 10)
        print(f"above-exact diagnostic (first {len(flags)}): "
              f"{'all above' if flags.all() else 'NOT all above'}")


def _cmd_convergence(cfg):
    family, meshes = _meshes(cfg)
    study = analysis.convergence_study(meshes, cfg, family.domain, cfg.target, t=cfg.t)
    os.makedirs(cfg.output, exist_ok=True)
    _write_rows(os.path.join(cfg.output, "errors.csv"), study.eigenvalue_rows)
    _write_rows(os.path.join(cfg.output, "errors_eigenfunction.csv"), study.eigenfunction_rows)


def _cmd_reliable(cfg):
    family, meshes = _meshes(cfg)
    rows = analysis.reliable_study(meshes, cfg, family.domain, t=cfg.t)
    os.makedirs(cfg.output, exist_ok=True)
    _write_csv(os.path.join(cfg.output, "reliable.csv"), ["N", "count", "percentage"], rows)


def _cmd_source(cfg):
    family, meshes = _meshes(cfg)
    rows = analysis.source_study(meshes, cfg, family.domain, t=cfg.t)
    os.makedirs(cfg.output, exist_ok=True)
    _write_rows(os.path.join(cfg.output, "errors.csv"), rows)


def _cmd_mesh_info(cfg):
    mesh, = map(_load_mesh_one, _mesh_specs(cfg.mesh))
    topo = build_topology(mesh)
    measures = topo.geometry.measures
    print(f"dimension:        {mesh.dim}")
    print(f"element kind:     {mesh.element_kind}")
    print(f"vertices:         {mesh.num_vertices}")
    print(f"elements:         {mesh.num_elements}")
    print(f"faces:            {topo.num_faces} ({int(topo.boundary.sum())} boundary)")
    print(f"total measure:    {_fmt(measures.sum())}")
    print(f"h (max diameter): {_fmt(topo.geometry.h)}")
    print(f"measure min/max:  {_fmt(measures.min())} / {_fmt(measures.max())}")


_COMMANDS = {
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "reliable": _cmd_reliable,
    "source": _cmd_source,
    "mesh-info": _cmd_mesh_info,
}

def _file_flags(path):
    """The ``key=value`` lines of a config file as ``--key=value`` flags."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    flags = []
    for no, raw in enumerate(lines, 1):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path}, line {no}: byte {raw[exc.start]:#x} "
                              "is not UTF-8") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (need key=value): {raw.rstrip()}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key == "config":
            raise ConfigError(f"config file {path} names another config file")
        flags.append(f"--{key}={val}")
    return flags


def _build_parser():
    # an unset flag is left out, so RunConfig's default applies; a flag or
    # config key must be spelled in full
    p = argparse.ArgumentParser(
        prog="patchdg",
        description="Elliptic eigenvalue solver on a patch-reconstructed DG space.",
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,
    )
    p.add_argument("command", choices=_COMMANDS)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--problem", choices=["laplace", "biharmonic"])
    p.add_argument("--bc", choices=["homogeneous_dirichlet", "clamped", "simply_supported"])
    p.add_argument("--m", type=int, help="polynomial degree")
    p.add_argument("--t", type=int, help="patch size override")
    generated = " | ".join(f"{prefix}:n" for prefix in analysis.FAMILIES)
    p.add_argument("--mesh", help=f"{generated} | file.msh | file.poly (lists for sequences)")
    p.add_argument("--k", type=int, help="eigenpairs requested")
    p.add_argument("--target", type=int, help="tracked exact eigenvalue rank")
    p.add_argument("--eta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--vtk", type=int, help="export this many eigenfunctions")
    p.add_argument("--output")
    return p


def build_config(argv):
    """Flags, with a --config file's lines parsed as flags ahead of them;
    argparse checks file values like flag values, and the last one wins."""
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    path = args.pop("config", None)
    if path:
        args = vars(parser.parse_args([*_file_flags(path), *argv]))
        del args["config"]
    if not args.get("mesh"):
        raise ConfigError("a mesh source is required (--mesh or mesh= in the config file)")
    return RunConfig(**args)


def run(cfg):
    """Execute a RunConfig; returns the process exit status."""
    _COMMANDS[cfg.command](cfg)
    return EXIT_OK


def main(argv=None):
    try:
        cfg = build_config(argv if argv is not None else sys.argv[1:])
        return run(cfg)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    except ValueError as exc:  # a ConfigError, or a request the run finds it cannot meet
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PatchDGError as exc:
        print(f"numerical failure in {cfg.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except IOError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
