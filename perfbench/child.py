"""One repetition of a workload in a fresh interpreter.

    python3 child.py RESULT SPAWN_TIME setup
    python3 child.py RESULT SPAWN_TIME run|trace CLI_ARG...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so ``setup_s`` runs from process start until ``patchdg.cli`` is
imported.  ``setup`` stops there.  ``run`` times ``patchdg.cli.main`` with
tracing off; ``trace`` installs the tracer first and adds the per-layer
report.  The result is written as JSON to RESULT.

The host's speed drifts by up to 2x over seconds, and each vCPU drifts on
its own, so the child pins itself to one CPU and a sampler thread times a
fixed kernel on that CPU throughout.  ``setup_s`` and ``wall_s``
are the measured durations rescaled to a reference CPU that runs the kernel
in ``REF_KERNEL_S``; the raw durations are kept as ``*_raw_s``.
"""

import os
import sys
import threading
import time

import numpy as np

REF_KERNEL_S = 1.5e-3
SETUP_PERIOD_S = 0.025
RUN_PERIOD_S = 0.1
# The root span may start and end this much inside the timed call: the
# wrapper's own work, plus the sampler thread holding the interpreter lock.
ROOT_SLACK_S = 0.05

_V = np.linspace(-1.0, 1.0, 54).reshape(6, 9)
_W = np.full(6, 0.5)


def speed_kernel(n=8000, m=60):
    """Fixed work, independent of patchdg: an interpreted loop, then small
    dense products like those of per-element assembly."""
    table, acc = {}, 0.0
    for i in range(n):
        table[i & 1023] = acc
        acc += (i % 7) * 0.5
    for _ in range(m):
        block = np.einsum("qa,q,qb->ab", _V, _W, _V)
        block = 0.5 * (block + block.T)
    return acc + float(block[0, 0])


class SpeedSampler(threading.Thread):
    """Times ``speed_kernel`` in thread CPU time every ``period`` seconds."""

    def __init__(self, period):
        super().__init__(daemon=True)
        self.period = period
        self.samples = []  # (perf_counter when done, kernel CPU seconds)
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(self.period):
            t0 = time.thread_time()
            speed_kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def halt(self):
        self._halt.set()
        self.join()

    def factor(self, start, end):
        """REF_KERNEL_S over the mean kernel time sampled in [start, end]."""
        times = [dt for t, dt in self.samples if start <= t <= end]
        if not times:  # window shorter than the sampling period
            for _ in range(5):
                t0 = time.thread_time()
                speed_kernel()
                times.append(time.thread_time() - t0)
        return REF_KERNEL_S * len(times) / sum(times)


os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
SAMPLER = SpeedSampler(SETUP_PERIOD_S)
SAMPLER.start()

import patchdg.cli  # noqa: E402  (the import is the set-up being measured)

READY = time.perf_counter()
SAMPLER.period = RUN_PERIOD_S

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402


def versions():
    import numpy as np
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


class Collector:
    """Reads metrics off the results of traced calls; the tracer's
    ``on_return``."""

    def __init__(self):
        self.spaces = []      # every space the pipeline built, in order
        self.stiffness = []   # (space, FormConfig, nnz) per stiffness assembly
        self.residual_max = 0.0

    def __call__(self, name, args, kwargs, result):
        if name == "reconstruction.build_space":
            self.spaces.append(result)
        elif name == "assembly.stiffness":
            config = args[1] if len(args) > 1 else kwargs["config"]
            self.stiffness.append((args[0], config, result.nnz))
        elif name.startswith("eigensolve.") and len(result.residuals):
            self.residual_max = max(self.residual_max, float(result.residuals.max()))


def split_volume_faces(stiffness):
    """Time the volume and face parts of each stiffness assembly separately,
    untraced, on the pipeline's own spaces; scaled like ``wall_s``."""
    from patchdg.assembly import assemble_biharmonic, assemble_laplace

    volume, faces = [], []
    for space, config, _ in stiffness:
        assemble = assemble_laplace if config.problem == "laplace" else assemble_biharmonic
        t0 = time.perf_counter()
        assemble(space, config, faces=[])
        t1 = time.perf_counter()
        assemble(space, config, elements=[])
        t2 = time.perf_counter()
        volume.append((t1 - t0) * SAMPLER.factor(t0, t1))
        faces.append((t2 - t1) * SAMPLER.factor(t1, t2))
    return volume, faces


def per_mesh(tracer, collector, volume, faces, factor):
    """Stage times per mesh: mesh i owns the spans that start between its
    ``build_topology`` call and the next one."""
    spans = tracer.spans
    starts = [s.start for s in spans if s.name == "mesh.build_topology"]
    bounds = starts + [float("inf")]
    stages = {
        "space_s": "reconstruction.build_space",
        "stiffness_s": "assembly.stiffness",
        "mass_s": "assembly.mass",
        "eigensolve_s": "eigensolve.solve_smallest",
        "match_cluster_s": "analysis.match_cluster",
        "eigen_errors_s": "analysis.eigen_errors",
    }
    rows = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        row = {"N": collector.spaces[i].num_dofs if i < len(collector.spaces) else None,
               "nnz": collector.stiffness[i][2] if i < len(collector.stiffness) else None}
        for key, name in stages.items():
            row[key] = factor * sum(s.duration for s in spans
                                    if s.name == name and lo <= s.start < hi)
        row["volume_s"] = volume[i] if i < len(volume) else None
        row["faces_s"] = faces[i] if i < len(faces) else None
        rows.append(row)
    return rows


def layer_report(tracer, collector, volume, faces, factor, wall):
    """Per-layer metrics; span times are scaled by ``factor`` like ``wall_s``,
    the span checks and ``roots`` use the raw times.  ``wall`` is the raw
    duration of the traced ``cli.main`` call, timed outside the tracer."""
    import spans as sp

    spans = tracer.spans
    incl = sp.inclusive_times(spans)
    selfs = sp.layer_self_times(spans)
    calls = tracer.counts
    t = lambda name: incl.get(name, 0.0) * factor  # noqa: E731
    n = lambda name: calls.get(name, 0)  # noqa: E731
    sizes = [len(p.members) for space in collector.spaces for p in space.patches]
    dofs = sum(space.num_dofs for space in collector.spaces)
    sparse_calls = sum(
        1 for s in spans if s.name == "eigensolve.solve_smallest"
        and not any(spans[c].name == "eigensolve.solve_dense" for c in s.children))
    metrics = {
        "mesh.generate_s": t("mesh.generate"),
        "mesh.build_topology_s": t("mesh.build_topology"),
        "mesh.all_geometries_s": t("mesh.all_geometries"),
        "mesh.all_geometries_calls": n("mesh.all_geometries"),
        "mesh.mesh_size_s": t("mesh.mesh_size"),
        "mesh.self_s": selfs["mesh"] * factor,
        "patch.build_patch_s": t("patch.build_patch"),
        "patch.build_patch_calls": n("patch.build_patch"),
        "patch.grow_patch_calls": n("patch.grow_patch"),
        "patch.size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "patch.size_max": max(sizes, default=0),
        "reconstruction.build_space_s": t("reconstruction.build_space"),
        "reconstruction.fit_local_s": t("reconstruction.fit_local"),
        "reconstruction.fit_local_calls": n("reconstruction.fit_local"),
        "reconstruction.fit_yield": dofs / max(n("reconstruction.fit_local"), 1),
        "reconstruction.evaluate_calls": n("reconstruction.evaluate"),
        "reconstruction.self_s": selfs["reconstruction"] * factor,
        "quadrature.element_rule_calls": n("quadrature.element_rule"),
        "quadrature.face_rule_calls": n("quadrature.face_rule"),
        "assembly.stiffness_s": t("assembly.stiffness"),
        "assembly.volume_s": sum(volume),
        "assembly.faces_s": sum(faces),
        "assembly.mass_s": t("assembly.mass"),
        "assembly.nnz": collector.stiffness[-1][2] if collector.stiffness else 0,
        "assembly.load_vector_s": t("assembly.load_vector"),
        "assembly.energy_product_s": t("assembly.energy_product"),
        "assembly.energy_product_calls": n("assembly.energy_product"),
        "assembly.self_s": selfs["assembly"] * factor,
        "eigensolve.solve_smallest_s": t("eigensolve.solve_smallest"),
        "eigensolve.solve_dense_s": t("eigensolve.solve_dense"),
        "eigensolve.sparse_calls": sparse_calls,
        "eigensolve.dense_calls": n("eigensolve.solve_dense"),
        "eigensolve.residual_max": collector.residual_max,
        "analysis.compute_spectrum_s": t("analysis.compute_spectrum"),
        "analysis.convergence_study_s": t("analysis.convergence_study"),
        "analysis.match_cluster_s": t("analysis.match_cluster"),
        "analysis.eigen_errors_s": t("analysis.eigen_errors"),
        "analysis.self_s": selfs["analysis"] * factor,
        "cli.main_s": t("cli.main"),
        "cli.export_vtk_s": t("cli.export_vtk"),
        "cli.self_s": selfs["cli"] * factor,
    }
    roots = [s for s in spans if s.parent < 0]
    return {
        "metrics": metrics,
        "span_problems": (sp.check_spans(spans)
                          + sp.check_root(spans, "cli.main", wall, ROOT_SLACK_S)),
        "roots": [[s.name, s.duration] for s in roots],
        "layer_self_sum_s": sum(selfs.values()),
        "span_count": len(spans),
        "per_mesh": per_mesh(tracer, collector, volume, faces, factor),
    }


def main(argv):
    result_path, spawn, mode, cli_argv = argv[0], float(argv[1]), argv[2], argv[3:]
    out = {"setup_raw_s": READY - spawn,
           "setup_s": (READY - spawn) * SAMPLER.factor(spawn, READY),
           "versions": versions()}
    if mode != "setup":
        tracer = collector = None
        if mode == "trace":
            import spans as sp

            collector = Collector()
            tracer = sp.Tracer(run_id=f"{os.getpid()}", on_return=collector)
            tracer.install()
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                rc = patchdg.cli.main(cli_argv)
                wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        factor = SAMPLER.factor(t0, t0 + wall)
        out.update(rc=rc, wall_raw_s=wall, wall_s=wall * factor, speed_factor=factor,
                   peak_rss_mb=rss_kb / 1024.0, stdout=buf.getvalue())
        if tracer is not None:
            volume, faces = split_volume_faces(collector.stiffness)
            out["trace"] = layer_report(tracer, collector, volume, faces, factor, wall)
    SAMPLER.halt()
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
