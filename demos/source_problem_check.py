"""Manufactured-solution check of the source solver.

The same bilinear forms that drive the eigenproblems solve boundary value
problems: assemble, build a load vector, solve one sparse system.  With
u = sin x sin y the right-hand sides are 2u (second order) and 4u
(fourth order, simply supported), and the broken energy errors must fall
at rates m and m-1.
"""

import patchdg as pdg


def run(problem, bc, m):
    cfg = pdg.FormConfig(problem=problem, bc=bc, m=m)
    meshes = [pdg.generate_square_tri(n) for n in (8, 16, 32)]
    rows = pdg.source_study(meshes, cfg, "square_pi")
    print(f"{problem} (m={m}): energy errors "
          + ", ".join(f"{r.error:.3e}" for r in rows)
          + "  rates " + ", ".join(f"{r.order:.2f}" for r in rows[1:]))


def main():
    print("u = sin x sin y on the pi-square\n")
    run("laplace", "homogeneous_dirichlet", 2)
    print("  (expected rate m = 2)")
    run("biharmonic", "simply_supported", 2)
    print("  (expected rate m - 1 = 1)")
    run("biharmonic", "simply_supported", 3)
    print("  (expected rate m - 1 = 2)")


if __name__ == "__main__":
    main()
