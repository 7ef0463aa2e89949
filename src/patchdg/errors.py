"""Exception hierarchy shared by all modules."""


class PatchDGError(Exception):
    """Base class for every error raised by this package."""


# --- mesh ---------------------------------------------------------------

class MeshError(PatchDGError, ValueError):
    """A mesh or mesh file the package cannot use (a configuration error)."""


class UnsupportedVersion(MeshError):
    """MSH file header declares a version other than 2.2."""


class DanglingNode(MeshError):
    """An element references a node id that is not in the file, or a vertex
    index out of range."""


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
    """A mesh file line the reader cannot take: a counts line or section
    that disagrees with the contents, a missing, extra or unreadable field,
    a non-ASCII byte, an element of the wrong arity, or a polygon that
    repeats a vertex."""


class NonManifold(MeshError):
    """A facet is shared by more than two elements, or two elements have the
    same vertex set."""


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
    """The interior penalty form of order 2p was given degree below p."""


# --- eigensolve ---------------------------------------------------------

class MassNotSPD(PatchDGError):
    """The mass matrix is not positive definite: a computed mu = 1 / lambda
    of the transformed pencil, which has M's inertia, is <= 0.  The dense
    path sees every mu, Lanczos only the k largest."""


class PenaltyTooSmall(PatchDGError):
    """The band Cholesky of the stiffness met a non-positive pivot: the face
    penalties are too small for the form to be coercive."""


class NoConvergence(PatchDGError):
    """Lanczos hit its restart cap, dense LAPACK failed, or a residual missed its bound."""


# --- analysis -----------------------------------------------------------

class ClusterAmbiguous(PatchDGError):
    """Adjacent exact eigenvalues are too close to separate discrete clusters."""
