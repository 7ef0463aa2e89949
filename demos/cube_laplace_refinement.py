"""Refinement table for the first Laplace eigenvalue on the unit cube.

The exact value is 3 pi^2 (about 29.61).  Each refinement halves the cell
size; the eigenvalue error should fall by 2^(2m).  Degree 2 on the finer
mesh already delivers four correct digits with one unknown per
tetrahedron.
"""

import numpy as np

import patchdg as pdg


def main():
    lam1 = 3 * np.pi ** 2
    print(f"exact first eigenvalue: 3 pi^2 = {lam1:.4f}\n")
    for m in (1, 2):
        errs = []
        print(f"degree m = {m}:")
        for n in (4, 8):
            mesh = pdg.generate_cube_tet(n)
            topo = pdg.build_topology(mesh)
            space = pdg.build_space(mesh, topo, m)
            cfg = pdg.FormConfig(problem="laplace", m=m)
            A = pdg.assemble_stiffness(space, cfg)
            M = pdg.assemble_mass(space)
            result = pdg.solve_smallest(A, M, 1)
            err = abs(result.values[0] - lam1) / lam1
            errs.append(err)
            print(f"  cube:{n}  N={space.num_dofs:5d}  "
                  f"value {result.values[0]:9.4f}  rel. error {err:.3e}")
        print(f"  observed order {np.log2(errs[0] / errs[1]):.2f} "
              f"(theory: {2 * m})\n")


if __name__ == "__main__":
    main()
