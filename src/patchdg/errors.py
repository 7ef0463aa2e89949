"""Exception hierarchy shared by all modules."""


class PatchDGError(Exception):
    """Base class for every error raised by this package."""


# --- mesh ---------------------------------------------------------------

class MeshError(PatchDGError, ValueError):
    """A mesh or mesh file the package cannot use (a configuration error)."""


class UnsupportedVersion(MeshError):
    """MSH file header declares a version other than 2.2."""


class DanglingNode(MeshError):
    """An element references a node id that is not in the file."""


class DuplicateNode(MeshError):
    """A mesh file defines the same node id twice."""


class MixedDimension(MeshError):
    """A mesh file contains both triangles and tetrahedra."""


class NonFiniteVertex(MeshError):
    """A vertex has an infinite or NaN coordinate."""


class NonCCW(MeshError):
    """A polygon was given with clockwise (negative-area) orientation."""


class NotStarShaped(MeshError):
    """A polygon is not star-shaped with respect to its centroid."""


class BadCount(MeshError):
    """A mesh file's counts line disagrees with its contents."""


class NonManifold(MeshError):
    """A facet is shared by more than two elements."""


class DegenerateElement(MeshError):
    """An element has (numerically) zero measure."""


# --- quadrature ---------------------------------------------------------

class OrderUnsupported(PatchDGError):
    """Requested exactness order is outside the shipped rule family."""


class DegenerateSimplex(PatchDGError):
    """A simplex with (numerically) zero Jacobian cannot carry a rule."""


# --- patch / reconstruction ----------------------------------------------

class PatchExhausted(PatchDGError):
    """The mesh has fewer reachable elements than the requested patch size."""


class RankDeficient(PatchDGError):
    """The sampling nodes of a patch do not determine a degree-m polynomial."""


# --- assembly -----------------------------------------------------------

class DegreeTooLow(PatchDGError):
    """The biharmonic form needs polynomial degree at least 2."""


# --- eigensolve ---------------------------------------------------------

class MassNotSPD(PatchDGError):
    """Cholesky factorization of the mass matrix failed."""


class PenaltyTooSmall(PatchDGError):
    """Negative eigenvalues indicate insufficient face penalties."""


class NoConvergence(PatchDGError):
    """Lanczos hit its restart cap, or dense LAPACK failed other than on M."""


# --- analysis -----------------------------------------------------------

class ClusterAmbiguous(PatchDGError):
    """Adjacent exact eigenvalues are too close to separate discrete clusters."""
