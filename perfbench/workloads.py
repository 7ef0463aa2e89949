"""The benchmark's workloads: fixed ``patchdg`` CLI invocations.

The inputs are deterministic model problems.  They are not drawn from the
seed: the output check compares against committed reference outputs, and
renumbering elements would change the patches (``build_patch`` breaks ties by
element id).  The seed only orders a run's child processes.
"""

WORKLOADS = {
    # Build and solve with no error measurement (N = 8192).
    "solve-square-laplace":
        "solve --mesh square:64 --m 2 --k 10 --vtk 1".split(),
    # Second-order error measurement; target 3 is a multiplicity-2 cluster.
    "study-square-laplace":
        "convergence --mesh square:8,16,32 --m 2 --target 3".split(),
    # Fourth-order (simply supported) error measurement on tetrahedra.
    "study-cube-biharmonic":
        "convergence --mesh cube:3,6 --problem biharmonic --m 2 --target 1".split(),
}


def mesh_specs(argv):
    """The meshes a workload builds, as 'square:n' / 'cube:n' strings."""
    spec = argv[argv.index("--mesh") + 1]
    kind, sizes = spec.split(":", 1)
    return [f"{kind}:{n}" for n in sizes.split(",")]


def element_count(spec):
    """N of a generated mesh: 2 n^2 triangles or 6 n^3 tetrahedra."""
    kind, n = spec.split(":")
    n = int(n)
    return 2 * n * n if kind == "square" else 6 * n ** 3
