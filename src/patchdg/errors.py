"""Exception hierarchy shared by all modules."""


class PatchDGError(Exception):
    """Base class for every error raised by this package."""


# --- mesh ---------------------------------------------------------------

class UnsupportedVersion(PatchDGError):
    """MSH file header declares a version other than 2.2."""


class DanglingNode(PatchDGError):
    """An element references a node id that is not in the file."""


class MixedDimension(PatchDGError):
    """A mesh file contains both triangles and tetrahedra."""


class NonCCW(PatchDGError):
    """A polygon was given with clockwise (negative-area) orientation."""


class NotStarShaped(PatchDGError):
    """A polygon is not star-shaped with respect to its centroid."""


class BadCount(PatchDGError):
    """A mesh file's counts line disagrees with its contents."""


class NonManifold(PatchDGError):
    """A facet is shared by more than two elements."""


class DegenerateElement(PatchDGError):
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
    """The iterative eigensolver hit its restart cap before converging."""


# --- analysis -----------------------------------------------------------

class ClusterAmbiguous(PatchDGError):
    """Adjacent exact eigenvalues are too close to separate discrete clusters."""
