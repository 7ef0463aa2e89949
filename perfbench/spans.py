"""Spans and counters around the public functions of ``patchdg``.

The tracer lives entirely in the benchmark: it replaces each traced function
under every name the package binds it to (``from .x import f`` makes a second
binding, so patching only the defining module would miss calls) and puts the
originals back on ``uninstall``.  Spans stay in memory; self time is a span's
duration minus the durations of its children.  The tracer assumes one thread,
which the benchmark guarantees by leaving ``PATCHDG_THREADS`` unset.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  A span name may be shared by several
# functions; the per-layer metric ``<name>_s`` sums them.
SPANS = [
    ("patchdg.cli", "main", "cli.main"),
    ("patchdg.cli", "export_vtk", "cli.export_vtk"),
    ("patchdg.mesh", "generate_square_tri", "mesh.generate"),
    ("patchdg.mesh", "generate_cube_tet", "mesh.generate"),
    ("patchdg.mesh", "build_topology", "mesh.build_topology"),
    ("patchdg.mesh", "all_geometries", "mesh.all_geometries"),
    ("patchdg.mesh", "mesh_size", "mesh.mesh_size"),
    ("patchdg.patch", "build_patch", "patch.build_patch"),
    ("patchdg.patch", "grow_patch", "patch.grow_patch"),
    ("patchdg.reconstruction", "build_space", "reconstruction.build_space"),
    ("patchdg.reconstruction", "fit_local", "reconstruction.fit_local"),
    ("patchdg.assembly", "assemble_laplace", "assembly.stiffness"),
    ("patchdg.assembly", "assemble_biharmonic", "assembly.stiffness"),
    ("patchdg.assembly", "assemble_mass", "assembly.mass"),
    ("patchdg.assembly", "load_vector", "assembly.load_vector"),
    ("patchdg.assembly", "energy_product", "assembly.energy_product"),
    ("patchdg.eigensolve", "solve_smallest", "eigensolve.solve_smallest"),
    ("patchdg.eigensolve", "solve_dense", "eigensolve.solve_dense"),
    ("patchdg.analysis", "compute_spectrum", "analysis.compute_spectrum"),
    ("patchdg.analysis", "convergence_study", "analysis.convergence_study"),
    ("patchdg.analysis", "match_cluster", "analysis.match_cluster"),
    ("patchdg.analysis", "eigen_errors", "analysis.eigen_errors"),
]

# Hot, cheap functions get a call count only; a span each would cost more
# than the work they do.
COUNTS = [
    ("patchdg.quadrature", "element_rule", "quadrature.element_rule"),
    ("patchdg.quadrature", "face_rule", "quadrature.face_rule"),
]

# Methods, counted on their class.
METHOD_COUNTS = [
    ("patchdg.reconstruction", "ReconstructedSpace", "evaluate", "reconstruction.evaluate"),
]

LAYERS = ["mesh", "patch", "reconstruction", "quadrature", "assembly",
          "eigensolve", "analysis", "cli"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    run_id: str = ""
    children: list = field(default_factory=list)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans and call counts while installed.

    ``on_return``, if given, is called as ``on_return(name, args, kwargs,
    result)`` after each spanned call returns, for metrics read off results
    (patch sizes, nnz, residuals).
    """

    def __init__(self, run_id="run", on_return=None):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self.on_return = on_return
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent=parent, run_id=self.run_id)
        self.spans.append(span)
        index = len(self.spans) - 1
        if parent >= 0:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(name)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if self.on_return is not None:
                self.on_return(name, args, kwargs, result)
            return result
        return traced

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted

    # -- installing -------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every ``patchdg`` module attribute that is ``original``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "patchdg" or modname.startswith("patchdg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        """Wrap every traced function and method.

        Raises ``AttributeError``, with nothing patched, if the package no
        longer defines one of them: a renamed function would otherwise read
        as a layer whose time dropped to 0.
        """
        import importlib

        if self._patched:
            raise RuntimeError("tracer already installed")
        functions = [(getattr(importlib.import_module(modname), attr), name, spanned)
                     for entries, spanned in ((SPANS, True), (COUNTS, False))
                     for modname, attr, name in entries]
        methods = []
        for modname, cls_name, attr, name in METHOD_COUNTS:
            cls = getattr(importlib.import_module(modname), cls_name)
            if attr not in vars(cls):
                raise AttributeError(f"{modname}.{cls_name} defines no {attr!r}")
            methods.append((cls, attr, vars(cls)[attr], name))
        for original, name, spanned in functions:
            make = self._span_wrapper if spanned else self._count_wrapper
            self._replace_everywhere(original, make(original, name))
        for cls, attr, original, name in methods:
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._count_wrapper(original, name))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


# -- span arithmetic ------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the summed child durations."""
    return [s.duration - sum(spans[c].duration for c in s.children) for s in spans]


def check_spans(spans):
    """Problems with a span tree, as strings (empty when it is consistent).

    Every child lies inside its parent and siblings do not overlap.  Given
    both, no self time is negative and the self times of a root's subtree
    add up to the root's duration, by construction.
    """
    problems = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        kids = sorted((spans[c] for c in s.children), key=lambda k: k.start)
        for k in kids:
            if k.start < s.start or k.end > s.end:
                problems.append(f"child {k.name} leaves parent {s.name}")
        for a, b in zip(kids, kids[1:]):
            if b.start < a.end:
                problems.append(f"children {a.name} and {b.name} of {s.name} overlap")
    return problems


def check_root(spans, name, wall, slack):
    """Problems with the tree's root, as strings: there must be exactly one,
    called ``name``, lasting ``wall`` (the call's duration timed outside the
    tracer) less at most ``slack`` seconds."""
    roots = [s for s in spans if s.parent < 0]
    if [s.name for s in roots] != [name]:
        return [f"roots are {[s.name for s in roots]}, expected [{name!r}]"]
    gap = wall - roots[0].duration
    if not 0.0 <= gap <= slack:
        return [f"root {name} lasts {roots[0].duration!r} s, the call {wall!r} s"]
    return []


def inclusive_times(spans):
    """Total duration per span name, counting a span only when no ancestor
    has the same name (so recursion is not counted twice)."""
    totals = {}
    for s in spans:
        p, nested = s.parent, False
        while p >= 0:
            if spans[p].name == s.name:
                nested = True
                break
            p = spans[p].parent
        if not nested:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
    return totals


def layer_self_times(spans):
    """Summed self time per layer (the span-name prefix before the dot)."""
    out = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out
