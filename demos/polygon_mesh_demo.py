"""Polygonal cells work exactly like triangles: one DOF per polygon.

The text format is minimal: a counts line "V E", V vertex lines, then one
line per cell listing its counter-clockwise vertex loop.  Every cell is
fanned into triangles from its centroid for quadrature, so any cell that
is star-shaped about its centroid is fine -- squares, hexagons, mixtures.
Here a quad mesh of the pi-square reproduces the Laplace spectrum.
"""

import io

import numpy as np

import patchdg as pdg


def quad_mesh_text(n, side=np.pi):
    xs = np.linspace(0.0, side, n + 1)
    out = io.StringIO()
    print(f"{(n + 1) ** 2} {n * n}", file=out)
    for j in range(n + 1):
        for i in range(n + 1):
            print(f"{xs[i]:.17g} {xs[j]:.17g}", file=out)
    for j in range(n):
        for i in range(n):
            v = j * (n + 1) + i
            print(f"4 {v} {v + 1} {v + n + 2} {v + n + 1}", file=out)
    return out.getvalue()


def main():
    mesh = pdg.parse_poly(quad_mesh_text(12))
    print(f"parsed polygon mesh: {mesh.num_elements} quads, "
          f"{mesh.num_vertices} vertices")
    topo = pdg.build_topology(mesh)
    geom = topo.geometry
    print(f"cell 0: centroid {np.round(geom.barycenters[0], 4)}, "
          f"area {geom.measures[0]:.6f}, {(geom.sub_owner == 0).sum()} fan triangles")

    space = pdg.build_space(mesh, topo, 2)
    cfg = pdg.FormConfig(problem="laplace", m=2)
    result, A, M = pdg.compute_spectrum(space, cfg, k=6)
    exact = pdg.exact_spectrum("square_pi", 1, 6)

    print("\nLaplace eigenvalues on the quad mesh:")
    for i, (lam_h, lam) in enumerate(zip(result.values, exact.values), start=1):
        print(f"  {i}: {lam_h:9.5f}  (exact {lam:.0f}, "
              f"rel. error {abs(lam_h - lam) / lam:.2e})")


if __name__ == "__main__":
    main()
