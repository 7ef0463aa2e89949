"""Benchmark entry point: run one workload of the ``patchdg`` CLI and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every repetition runs ``patchdg.cli.main`` in a fresh child
process (``child.py``) with one BLAS/OpenMP thread and ``PATCHDG_THREADS``
unset, one child at a time.  Each repetition's outputs are checked against
``perfbench/reference/<workload>/``.  ``wall_s`` and ``setup_s`` are scaled
to a reference CPU speed measured inside the child (see ``child.py``); the
raw times are printed and recorded too.  Repetitions that ran below
``MIN_SPEED_FACTOR`` are checked but left out of the medians; if that leaves
none, the run is unresolved and exits with code 3 without a result line.

``--trace 0`` repeats the workload untraced while another repetition still
fits in ``--seconds`` and reports the end-to-end metrics as medians; three
extra children only import the package, for more ``setup_s`` samples.
``--trace 1`` runs one traced repetition, then untraced ones for the tracing
overhead, and reports the per-layer metrics.  The seed orders the children
(where the set-up-only children fall among the repetitions); it does not
change the inputs.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full record (samples,
machine, per-mesh sizes, the whole per-layer report) goes to
``perfbench/out/<workload>-trace<T>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_outputs  # noqa: E402
from workloads import WORKLOADS, element_count, mesh_specs  # noqa: E402

SETUP_PROBES = 3
# A repetition whose speed factor is below this is left out of the medians.
# The scaling was checked down to a factor of 0.578; it reads up to about
# 4.5% high below 0.65 (NOTES.md), and below 0.578 the bias is not measured.
MIN_SPEED_FACTOR = 0.55
UNRESOLVED_EXIT = 3
CHILD_TIMEOUT_S = 170.0  # the whole run must end within 180 s
PINNED_THREADS = "1"


def child_env():
    env = dict(os.environ)
    env.pop("PATCHDG_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS=PINNED_THREADS, OMP_NUM_THREADS=PINNED_THREADS,
               MKL_NUM_THREADS=PINNED_THREADS, PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def run_child(mode, workdir, argv=(), timeout=CHILD_TIMEOUT_S):
    """Start one child, wait for it, and return its result dict.

    ``mode`` is ``setup``, ``run`` or ``trace``.  A child that fails returns
    ``{"rc": ..., "error": ...}``.
    """
    os.makedirs(workdir, exist_ok=True)
    result = os.path.join(workdir, "result.json")
    cli_argv = list(argv) + ["--output", workdir] if mode != "setup" else []
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), result, repr(t0), mode, *cli_argv],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": -1, "error": f"timed out after {timeout:.0f} s", "elapsed_s": timeout}
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.isfile(result):
        return {"rc": proc.returncode or -1, "elapsed_s": elapsed,
                "error": proc.stderr.strip()[-2000:] or "no result written"}
    with open(result) as fh:
        out = json.load(fh)
    out["elapsed_s"] = elapsed
    out["child_stderr"] = proc.stderr.strip()[-2000:]
    return out


def check_rep(workload, rep, workdir):
    """Problems with one repetition: exit code, then the output check."""
    if "error" in rep:
        return [f"child failed (rc {rep['rc']}): {rep['error']}"]
    if rep["rc"] != 0:
        return [f"patchdg exited {rep['rc']}: {rep.get('child_stderr', '')}"]
    try:
        return check_outputs(WORKLOADS[workload], workdir, rep["stdout"],
                             os.path.join(HERE, "reference", workload))
    except (OSError, ValueError, IndexError, KeyError, StopIteration) as exc:
        return [f"output check raised {type(exc).__name__}: {exc}"]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; a single value
    is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_record(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, **versions, "blas_threads": PINNED_THREADS,
            "patchdg_threads": "unset", "commit": commit}


class Runner:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.argv = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.start = time.perf_counter()
        self.workdir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
        self.reps = []       # untraced repetitions, each with its "problems"
        self.traced = None   # the traced repetition
        self.setups = []     # (setup_s, setup_raw_s) from every child
        self.versions = None
        self.children = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def _child(self, mode):
        workdir = os.path.join(self.workdir, str(self.children))
        self.children += 1
        remaining = CHILD_TIMEOUT_S - self.elapsed()
        rep = run_child(mode, workdir, self.argv if mode != "setup" else (),
                        timeout=max(remaining, 1.0))
        self.versions = self.versions or rep.get("versions")
        if "setup_s" in rep:
            self.setups.append((rep["setup_s"], rep["setup_raw_s"]))
        if mode != "setup":
            rep["problems"] = check_rep(self.workload, rep, workdir)
            rep.pop("stdout", None)
        shutil.rmtree(workdir, ignore_errors=True)
        return rep

    def _fits(self, pending_probes):
        """Whether one more repetition (as long as the slowest so far) and the
        pending set-up probes still end within the run's seconds."""
        slowest = max(r["elapsed_s"] for r in self.reps)
        probe = max((raw for _, raw in self.setups), default=1.0) * 1.5
        return self.elapsed() + slowest + pending_probes * probe <= self.seconds

    def run(self):
        try:
            if self.trace:
                self.traced = self._child("trace")
                report = self.traced.get("trace")
                if report:
                    self.traced["problems"] += [f"span tree: {p}" for p in report["span_problems"]]
                self._repeat(probes=0)
            else:
                self._repeat(probes=SETUP_PROBES)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _repeat(self, probes):
        while True:
            if probes and self.rng.random() < 0.5:
                self._child("setup")
                probes -= 1
                continue
            if self.reps and not self._fits(probes):
                break
            rep = self._child("run")
            self.reps.append(rep)
            if "error" in rep:
                break
        for _ in range(probes):
            self._child("setup")

    def attempted(self):
        return self.reps + ([self.traced] if self.traced else [])

    def unresolved(self):
        """Repetitions that ran too slowly for the speed scaling to hold."""
        return [r for r in self.reps
                if "wall_s" in r and r["speed_factor"] < MIN_SPEED_FACTOR]

    def end_to_end(self):
        """Samples per end-to-end metric, plus the raw (unscaled) times,
        from the repetitions that are not unresolved."""
        ok = [r for r in self.reps
              if "wall_s" in r and r["speed_factor"] >= MIN_SPEED_FACTOR]
        return {
            "wall_s": ([r["wall_s"] for r in ok], "s"),
            "setup_s": ([s for s, _ in self.setups], "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in ok], "MB"),
            "wall_raw_s": ([r["wall_raw_s"] for r in ok], "s"),
            "setup_raw_s": ([raw for _, raw in self.setups], "s"),
            "speed_factor": ([r["speed_factor"] for r in ok], ""),
        }

    def per_layer(self):
        """The traced repetition's report and its metrics, with the tracing
        overhead: traced wall time minus the untraced median."""
        report = self.traced.get("trace") if self.traced else None
        if not report:
            return None, {}
        metrics = dict(report["metrics"])
        walls = [r["wall_s"] for r in self.reps if "wall_s" in r]
        if walls:
            metrics["trace.overhead_s"] = self.traced["wall_s"] - statistics.median(walls)
        return report, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "patchdg", "cli.py")):
        print(f"error: no patchdg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    runner = Runner(args.workload, args.seed, args.seconds, args.trace)
    runner.run()
    attempted = runner.attempted()
    failed = [r for r in attempted if r["problems"]]
    lines = [f"workload {args.workload}: patchdg {' '.join(runner.argv)}",
             f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
             f"{runner.elapsed():.1f} s elapsed"]
    record = {"workload": args.workload, "argv": runner.argv, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(runner.versions or {}),
              "meshes": [{"mesh": m, "N": element_count(m)} for m in mesh_specs(runner.argv)]}

    metrics = {}
    if args.trace:
        report, layer = runner.per_layer()
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, value in layer.items():
            lines.append(f"  {name:36s} {value:.6g} {units.get(name, '')}")
            if name in units:
                metrics[name] = {"value": value, "unit": units[name]}
        if report:
            lines.append(f"  span check: {len(report['span_problems'])} problems in "
                         f"{report['span_count']} spans; layer self times sum to "
                         f"{report['layer_self_sum_s']:.6f} s, roots {report['roots']}")
            for row in report["per_mesh"]:
                lines.append("  mesh " + ", ".join(
                    f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}" for k, v in row.items()))
            record["trace_report"] = report
            record["meshes"] = [dict(m, nnz=row["nnz"]) for m, row in
                                zip(record["meshes"], report["per_mesh"])]
        missing = [m["name"] for m in bench["per_layer"] if m["name"] not in metrics]
    else:
        gated = {m["name"] for m in bench["end_to_end"]}
        for name, (values, unit) in runner.end_to_end().items():
            if values:
                q1, med, q3 = quartiles(values)
                if name in gated:
                    metrics[name] = {"value": med, "unit": unit}
                lines.append(f"  {name:12s} median {med:.6g} {unit}  "
                             f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        missing = [m["name"] for m in bench["end_to_end"] if m["name"] not in metrics]
        slow = ", ".join(f"{r['speed_factor']:.3f}" for r in runner.unresolved())
        if slow:
            lines.append(f"  unresolved   repetitions at speed factor {slow} left out, "
                         f"below {MIN_SPEED_FACTOR}")
    lines.append(f"  failed_frac  {len(failed)}/{len(attempted)}")
    for i, rep in enumerate(attempted):
        lines.extend(f"  FAILED repetition {i}: {p}" for p in rep["problems"])
    for name in missing:
        lines.append(f"  MISSING metric {name}")

    if runner.traced:
        runner.traced.pop("trace", None)
    record.update(setup_s=runner.setups, reps=attempted)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    lines.append(f"  record: {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    if not args.trace and not failed and missing and runner.unresolved():
        print(f"error: unresolved: every repetition ran below speed factor "
              f"{MIN_SPEED_FACTOR}, where the scaling is not measured", file=sys.stderr)
        return UNRESOLVED_EXIT
    correct = bool(attempted) and not failed and not missing
    print(json.dumps({"correct": correct, "attempted": len(attempted),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
