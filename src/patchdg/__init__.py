"""patchdg: elliptic eigenvalue problems on a patch-reconstructed DG space.

Second-order (Laplace) and fourth-order (biharmonic) eigenvalue problems in
2D and 3D are discretized with a symmetric interior penalty form over a
piecewise-polynomial space that carries a single degree of freedom per mesh
element: each element's polynomial is the least-squares fit of the sampled
values on a small patch of neighboring elements.
"""

from .analysis import (
    ConvergenceRow,
    ExactSpectrum,
    MatchedCluster,
    SourceResult,
    StudyResult,
    above_exact_flags,
    compute_spectrum,
    convergence_study,
    eigen_errors,
    exact_spectrum,
    match_cluster,
    rate,
    reliable_count,
    sine_product_field,
    solve_source,
)
from .assembly import (
    l2_norm,
    AnalyticField,
    FormConfig,
    assemble_biharmonic,
    assemble_laplace,
    assemble_mass,
    assemble_stiffness,
    energy_norm,
    energy_product,
    load_vector,
)
from .eigensolve import EigenResult, solve_dense, solve_smallest
from .mesh import (
    FaceTopology,
    Geometry,
    Mesh,
    all_geometries,
    build_topology,
    generate_cube_tet,
    generate_square_tri,
    mesh_size,
    parse_msh,
    parse_poly,
    write_msh,
    write_poly,
)
from .patch import Patch, build_patch, default_patch_size, lambda_constant, required_dim
from .quadrature import QuadRule, face_rule, map_rule, simplex_rule
from .reconstruction import (
    MonomialBasis,
    ReconstructedSpace,
    build_space,
    fit_local,
    interpolate,
    monomial_basis,
    tabulate,
)

__version__ = "0.1.0"
