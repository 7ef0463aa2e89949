"""A tour of the reconstruction machinery, bottom up.

One sampled value per element is enough to build a degree-m polynomial on
every element: sample on a small patch of neighbors, fit by least squares,
and keep the polynomial only on the home element.  This script builds a
patch by hand, inspects the fitted shape functions, checks polynomial
reproduction, and finishes with the stability diagnostic of the fit.
"""

import numpy as np

import patchdg as pdg
from patchdg.patch import build_patch, lambda_constant
from patchdg.reconstruction import contract, factors, fit_local


def main():
    mesh = pdg.generate_square_tri(8)
    topo = pdg.build_topology(mesh)

    # --- one patch, grown element by element -----------------------------
    K = mesh.num_elements // 2 + 3
    patch = build_patch(mesh, topo, [K], t=9)  # a batch of one patch
    print(f"patch of element {K}: members {patch.members[0].tolist()}")
    print(f"  diameter d_K = {patch.diameters[0]:.4f} "
          f"(vs element diameter {topo.geometry.diameters[K]:.4f})")

    # --- the local fit and its shape functions ---------------------------
    coeffs, origin, scale, _ = fit_local(patch, 2)
    # the kernel's two factors: the monomials V at the point, and no
    # derivative operator for values, so they are V times the coefficients
    V, _ = factors(origin[:, None], scale[:, None], patch.nodes[:, :1], 2, ())
    vals = contract(V, None, 0, scale[:, None], coeffs.transpose(0, 2, 1)[:, None])
    print(f"  shape-function values at the sampling node sum to "
          f"{vals.sum():.12f} (partition of unity)")

    # --- reconstruction reproduces polynomials exactly -------------------
    space = pdg.build_space(mesh, topo, 2)
    data = pdg.interpolate(space, lambda x, y: 1 + x - 2 * y + 0.5 * x * y)
    probe = np.array([[1.1, 0.7], [2.0, 2.5]])
    recon = space.evaluate(data, K, probe)
    exact = 1 + probe[:, 0] - 2 * probe[:, 1] + 0.5 * probe[:, 0] * probe[:, 1]
    print(f"  quadratic data reproduced with max error "
          f"{np.max(np.abs(recon - exact)):.2e}")

    # --- derivatives come from the same coefficient table ----------------
    grad = space.evaluate(data, K, probe, deriv=1)
    print(f"  gradient at {probe[0]}: {np.round(grad[0], 6)} "
          f"(exact {np.round([1 + 0.5 * probe[0, 1], -2 + 0.5 * probe[0, 0]], 6)})")

    # --- stability of the fit, element by element -------------------------
    lams = [
        lambda_constant(mesh, space.patches[J], 2)
        for J in range(0, mesh.num_elements, 16)
    ]
    print(f"  fit stability constant over sampled elements: "
          f"min {min(lams):.2f}, max {max(lams):.2f}")
    print("  (values near 1 mean the node samples control the polynomial")
    print("   everywhere on the patch; large values flag bad stencils)")


if __name__ == "__main__":
    main()
