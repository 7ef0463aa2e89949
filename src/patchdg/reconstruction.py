"""Least-squares polynomial reconstruction from one sample per element.

Every element K gets a table of element-local shape functions: row j of its
coefficient table holds the monomial coefficients (in the scaled local
frame ``y = (x - x_K) / d_K``) of the shape function attached to sampling
node j of the patch of K.  The table is the transposed minimum-norm
least-squares solution operator of the node-value fitting problem, so for
node data q the reconstructed polynomial on K is ``q @ coeffs`` in monomial
coordinates.

The scaled frame keeps the Vandermonde matrix well conditioned; without it
the normal equations blow up for degree >= 3 on fine meshes.

The space stores the tables as one sparse reconstruction operator R from the
DOF samples to every element's monomial coefficients.  The trace kernel
:func:`contract` evaluates a batch of elements from two :func:`factors`, the
Vandermonde V and a derivative operator O per kind: tables V O, and values
V (O C^T) of coefficients C; every form, norm and export goes through it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import PatchExhausted, RankDeficient
from .patch import Patch, build_patch, default_patch_size, grow_patch

RCOND = 1e-10  # numerical-rank threshold for unisolvence


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials of total degree <= m in ``dim`` variables.

    Ordering is graded lexicographic: ascending total degree, and inside a
    degree descending lexicographic exponent tuples (so 1; x, y; x^2, xy,
    y^2; ...).  The ordering is part of the coefficient-table contract.

    ``steps[j - 1]`` is the pair (parent, d) of monomial j >= 1: its parent
    has the same exponents with the last nonzero one lowered by one, so
    monomial j is monomial ``parent`` times coordinate d, and the parent
    comes earlier in the ordering.
    """

    m: int
    dim: int
    exponents: np.ndarray  # (n_terms, dim) int
    steps: tuple  # ((parent, d), ...) for monomials 1 .. n_terms - 1

    def __len__(self):
        return len(self.exponents)


@lru_cache(maxsize=None)
def monomial_basis(m, dim):
    exps = []
    for deg in range(m + 1):
        if dim == 1:
            exps.append((deg,))
        elif dim == 2:
            for i in range(deg, -1, -1):
                exps.append((i, deg - i))
        else:
            for i in range(deg, -1, -1):
                for j in range(deg - i, -1, -1):
                    exps.append((i, j, deg - i - j))
    index = {e: i for i, e in enumerate(exps)}
    steps = []
    for e in exps[1:]:
        d = max(i for i, a in enumerate(e) if a)
        steps.append((index[e[:d] + (e[d] - 1,) + e[d + 1:]], d))
    return MonomialBasis(m, dim, np.array(exps, dtype=int), tuple(steps))


def vandermonde(basis, points):
    """V[..., j] = y ** alpha_j for points y of shape (..., dim).

    Column 0 is 1 and every other column is its parent column times one
    coordinate (``basis.steps``), so each monomial is the fixed chain
    ((y_0 y_0) ... y_1) ... y_2 of correctly rounded IEEE multiplications:
    the same bits on every CPU and numpy build, with no call to the
    CPU-dispatched vector ``pow``.
    """
    y = np.asarray(points, dtype=float)
    V = np.empty(y.shape[:-1] + (len(basis),))
    V[..., 0] = 1.0
    for j, (parent, d) in enumerate(basis.steps, 1):
        np.multiply(V[..., parent], y[..., d], out=V[..., j])
    return V


def int_power(x, k):
    """x ** k for an integer k >= 0 as the product ((x x) x) ..., the same
    chain of IEEE multiplications as :func:`vandermonde`'s, never ``pow``."""
    out = np.ones_like(x)
    for _ in range(k):
        out = out * x
    return out


@lru_cache(maxsize=None)
def _table_operators(m, dim):
    """Per table kind: the stacked maps from a coefficient vector c to the
    coefficients ``op @ c`` of its derivatives (None for the values
    themselves), and the power of the patch scale that the chain rule
    divides by."""
    basis = monomial_basis(m, dim)
    index = {tuple(e): i for i, e in enumerate(basis.exponents)}
    D = np.zeros((dim, len(basis), len(basis)))
    for i, e in enumerate(basis.exponents):
        for d in range(dim):
            if e[d] > 0:
                lowered = list(e)
                lowered[d] -= 1
                D[d, index[tuple(lowered)], i] = e[d]
    L = sum(D[d] @ D[d] for d in range(dim))
    return {
        "val": (None, 0),
        "grad": (D, 1),
        "lap": (L[None], 2),
        "gradlap": (D @ L, 3),
    }


def factors(origin, scale, points, m, kinds, normals=None):
    """The factors of :func:`contract` for frames ``origin`` (B, k, dim),
    ``scale`` (B, k) and ``points`` (B, q, dim): one Vandermonde V (B, k, q,
    n_terms), and per kind (O, power), O the map to the kind's coefficients
    (None for values; sum_d n_d D_d, (B, 1, n_terms, n_terms), for a vector
    kind given ``normals`` (B, dim)) and power the scale's power dividing
    it.  Kinds identically zero at degree m (lap at m = 1, gradlap at
    m <= 2) are absent."""
    dim = points.shape[2]
    y = (points[:, None] - origin[:, :, None]) / scale[:, :, None, None]
    ops = {}
    for kind in kinds:
        O, power = _table_operators(m, dim)[kind]
        if O is not None and not O.any():
            continue
        if normals is not None and kind in ("grad", "gradlap"):
            O = np.tensordot(normals, O, 1)[:, None]
        ops[kind] = (O, power)
    return vandermonde(monomial_basis(m, dim), y), ops


def contract(V, O, power, scale, Ct=None):
    """The trace kernel: the tables V O of monomials V (B, k, q, n_terms),
    or given coefficients Ct (B, k, n_terms, s) the values V (O Ct), O
    applied first; either divided by ``scale`` (B, k) to the power."""
    T = (V if O is None else V @ O) if Ct is None else V @ (Ct if O is None else O @ Ct)
    return T / int_power(scale, power)[..., None, None] if power else T


def tabulate(coeffs, origin, scale, points, m, kinds=("val",)):
    """Shape functions of a batch of elements, each at its own points.

    ``coeffs`` (B, s, n_terms), or None for the monomials themselves (s =
    n_terms), ``origin`` (B, dim) and ``scale`` (B,) are the elements' tables
    and frames, ``points`` (B, q, dim) physical points.  Returns a dict with
    one table per entry of ``kinds``: "val" and "lap" give (B, q, s) values
    and Laplacians, "grad" and "gradlap" give (B, q, s, dim) gradients and
    gradients of the Laplacian.  Zero kinds are tabulated too, and
    coefficient tables are contracted table first, (V O) C^T: the reference
    order, whose bits the kernel tests pin.
    """
    V, _ = factors(origin[:, None], scale[:, None], points, m, ())  # (B, 1, q, n_terms)
    Ct = None if coeffs is None else coeffs.transpose(0, 2, 1)[:, None]
    out = {}
    for kind in kinds:
        O, power = _table_operators(m, origin.shape[1])[kind]
        T = np.moveaxis(contract(V if O is None else V @ O, None, power, scale[:, None], Ct), 1, -1)
        out[kind] = T[..., 0] if kind in ("val", "lap") else T
    return out


def fit_local(patches, m):
    """Solve the sampling-node least-squares fits of degree m on a
    :class:`Patches` batch, with one stacked SVD.

    Returns the coefficient tables (B, t, n_terms), their frames, the
    origins (B, dim) (the centers' sampling nodes) and scales (B,) (the
    patch diameters), and ``ok`` (B,).  A row whose node Vandermonde matrix
    has numerical rank short of dim P^m (unisolvence failure, always the
    case for t < dim P^m) has ``ok`` False and zero coefficients, and is
    left to the caller.
    """
    nodes = patches.nodes
    basis = monomial_basis(m, nodes.shape[2])
    origin = nodes[:, 0].copy()
    scale = np.where(patches.diameters > 0, patches.diameters, 1.0)
    coeffs = np.zeros(nodes.shape[:2] + (len(basis),))
    ok = np.zeros(len(nodes), dtype=bool)
    if nodes.shape[1] >= len(basis):
        A = vandermonde(basis, (nodes - origin[:, None]) / scale[:, None, None])
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        ok = ~(s[:, -1] <= RCOND * s[:, 0])
        pinv = (Vt[ok].transpose(0, 2, 1) / s[ok, None, :]) @ U[ok].transpose(0, 2, 1)
        coeffs[ok] = pinv.transpose(0, 2, 1)
    return coeffs, origin, scale, ok


class ReconstructedSpace:
    """The space V_h = R U_h of the reconstruction operator R on the broken
    polynomials of degree m.

    ``R`` is sparse, (N n_terms x N): row ``K * n_terms + a`` holds
    ``coeffs[K, j, a]``, the coefficient of monomial a (in K's frame
    ``origin[K]``, ``scale[K]``) of the shape function of patch member j, in
    column ``members[K, j]``.  It is stored as (n_terms, 1) blocks: block row
    K lists K's patch in patch order (the center first), so a grown patch is
    a longer block row; nothing is grouped or padded.

    ``support[j]`` lists every element K whose patch contains element j;
    it is exactly the sparsity coupling of DOF j in assembled matrices.
    """

    def __init__(self, mesh, topology, m, t, R, origin, scale):
        self.mesh = mesh
        self.topology = topology
        self.geometry = topology.geometry
        self.m = m
        self.t = t
        self.R = R
        self.origin = origin
        self.scale = scale
        self.n_terms = len(monomial_basis(m, mesh.dim))
        # quadrature carriers: every sub-simplex with its owner, every face
        self.sub_simplices = self.geometry.sub_simplices
        self.sub_owner = self.geometry.sub_owner
        self.face_coords = mesh.vertices[topology.faces]

    @cached_property
    def support(self):
        R = self.R
        by_dof = sp.csr_matrix((np.ones(len(R.indices)), R.indices, R.indptr),
                               shape=(self.num_dofs, self.num_dofs)).tocsc()
        return [ks.tolist() for ks in np.split(by_dof.indices, by_dof.indptr[1:-1])]

    @cached_property
    def patches(self):
        """One :class:`Patch` per element (its diameter is ``scale[K]``),
        built on first use."""
        barycenters = self.geometry.barycenters
        return [Patch(K, members, barycenters[members], float(self.scale[K]))
                for K, members in enumerate(map(self.members, range(self.num_dofs)))]

    @property
    def num_dofs(self):
        return self.mesh.num_elements

    def members(self, K):
        return self.R.indices[self.R.indptr[K]:self.R.indptr[K + 1]].tolist()

    def coefficients(self, X):
        """(N, fields, n_terms) coefficients of R x in each element's monomial
        frame, for every column x of X (N, fields), as :func:`tabulate` takes."""
        C = self.R @ np.asarray(X, dtype=float)
        return C.reshape(self.num_dofs, self.n_terms, -1).transpose(0, 2, 1)

    def evaluate(self, vector, K, points, deriv=0):
        """Evaluate the reconstructed field with DOF samples ``vector`` on
        element K (polynomial extension: points need not lie inside K).

        deriv=0 gives values (n_pts,), 1 gradients (n_pts, dim), 2
        Laplacians (n_pts,).  For an array of elements K, ``points`` is
        (B, n_pts, dim) and the result gains a leading batch axis.
        """
        if deriv not in (0, 1, 2):
            raise ValueError("deriv must be 0, 1 or 2")
        kind = ("val", "grad", "lap")[deriv]
        single = np.ndim(K) == 0
        elements = np.atleast_1d(np.asarray(K, dtype=int))
        points = np.asarray(points, dtype=float)
        if single:
            points = points[None]
        C = self.coefficients(np.asarray(vector, dtype=float)[:, None])[elements]
        out = tabulate(C, self.origin[elements], self.scale[elements], points, self.m,
                       (kind,))[kind][:, :, 0]
        return out[0] if single else out

    def dump_coefficients_csv(self, path):
        """Debug dump: element id, node id, monomial exponents, coefficient."""
        exponents = monomial_basis(self.m, self.mesh.dim).exponents
        R = self.R
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["element", "node", "exponents", "coefficient"])
            for K in range(self.num_dofs):
                for j in range(R.indptr[K], R.indptr[K + 1]):
                    for a, e in enumerate(exponents):
                        writer.writerow([K, R.indices[j], " ".join(map(str, e)),
                                         "%.17g" % R.data[j, a, 0]])


def _refit(mesh, topology, patch, m):
    """Grow a patch (a batch of one) whose fit was rank deficient by one
    neighbor ring and refit, up to three times.  Returns the table,
    its scale and the grown patch's members; the last failure raises."""
    center = patch.centers[0]
    for _ in range(3):
        try:
            patch = grow_patch(mesh, topology, patch)
        except PatchExhausted:
            raise RankDeficient(
                f"element {center}: sampling nodes stay rank deficient "
                f"and the mesh has no further elements to grow into"
            ) from None
        coeffs, _, scale, ok = fit_local(patch, m)
        if ok[0]:
            return coeffs[0], scale[0], patch.members[0]
    size, n_terms = coeffs.shape[1:]
    if size < n_terms:
        raise RankDeficient(f"patch of element {center} has {size} nodes, "
                            f"needs at least {n_terms} for degree {m}")
    raise RankDeficient(f"patch of element {center} is numerically rank deficient")


def build_space(mesh, topology, m, t=None):
    """Fit one shape table per element and build the reconstruction operator.

    All patches grow and are fitted in one batch.  Rank-deficient patches
    are then grown by a full neighbor ring up to three times before the
    failure propagates with the offending element id; an exhausted patch
    raises PatchExhausted.  Either error names the lowest failing element.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    if t is None:
        t = default_patch_size(m, mesh.dim) if m >= 1 else 1
    n = mesh.num_elements
    patches = build_patch(mesh, topology, np.arange(n), t)
    coeffs, origin, scale, ok = fit_local(patches, m)
    exhausted = patches.exhausted()
    stop = exhausted[0] if len(exhausted) else n
    grown = {}
    for K in np.nonzero(~ok[:stop])[0]:
        table, scale[K], members = _refit(mesh, topology, patches.take([K]), m)
        grown[K] = (members, table)
    if stop < n:
        raise patches.exhausted_error(stop)
    # block row K of R lists K's patch members, each with its coefficients
    sizes = np.full(n, t)
    sizes[list(grown)] = [len(members) for members, _ in grown.values()]
    indptr = np.r_[0, np.cumsum(sizes)]
    indices, data = np.empty(indptr[-1], dtype=int), np.empty((indptr[-1], coeffs.shape[2], 1))
    at = indptr[:-1][ok, None] + np.arange(t)
    indices[at], data[at, :, 0] = patches.members[ok], coeffs[ok]
    for K, (members, table) in grown.items():
        indices[indptr[K]:indptr[K + 1]], data[indptr[K]:indptr[K + 1], :, 0] = members, table
    R = sp.bsr_matrix((data, indices, indptr), shape=(n * coeffs.shape[2], n))
    return ReconstructedSpace(mesh, topology, m, t, R, origin, scale)


def interpolate(space, g):
    """Sample a scalar field at every element's node: the DOF vector of R g."""
    return np.array([float(g(*x)) for x in space.origin])
