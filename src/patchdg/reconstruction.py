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

The space is one sparse reconstruction operator R from the DOF samples to
every element's monomial coefficients, with each element's frame (``origin``,
``scale``); block row K of R is K's patch, so patches are read from its
pattern.  The trace kernel :func:`contract` evaluates a batch of elements
from two :func:`factors`, the Vandermonde V and a derivative operator O per
kind: tables V O, and values V (O C^T) of coefficients C; every form, norm,
evaluation and export goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import RankDeficient
from .patch import Patch, build_patch, default_patch_size, grow_patch

RCOND = 1e-10  # numerical-rank threshold for unisolvence
CERTIFY_MARGIN = 1e3  # how far a QR fit's norm bound must clear RCOND to skip the SVD


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


def fit_local(patches, m):
    """Solve the sampling-node least-squares fits of degree m on a
    :class:`Patches` batch, with one stacked QR.

    Returns the coefficient tables (B, t, n_terms), their frames, the
    origins (B, dim) (the centers' sampling nodes) and scales (B,) (the
    patch diameters), and ``ok`` (B,).  A row whose node Vandermonde matrix
    A has numerical rank short of dim P^m, ``s_min <= RCOND s_max`` in its
    singular values (unisolvence failure, always the case for t < dim P^m),
    has ``ok`` False and zero coefficients, and is left to the caller.

    With A = QR, the table is the transposed pseudo-inverse Q R^-T.  Since
    ``|R|_F = |A|_F >= s_max`` and ``|R^-1|_F = |A^+|_F >= 1 / s_min``, a row
    with ``|R|_F |R^-1|_F < 1 / (CERTIFY_MARGIN RCOND)`` is certainly of
    full rank.  The rows this bound cannot clear, and those with
    ``min |R_ii| <= CERTIFY_MARGIN RCOND |R|_F`` (``min |R_ii| >= s_min``, so
    the bound cannot clear them either; their R is never inverted), are
    decided and solved by an SVD of their own, so ``ok`` is the SVD's rank
    rule row for row.
    """
    nodes = patches.nodes
    basis = monomial_basis(m, nodes.shape[2])
    origin = nodes[:, 0].copy()
    scale = np.where(patches.diameters > 0, patches.diameters, 1.0)
    coeffs = np.zeros(nodes.shape[:2] + (len(basis),))
    ok = np.zeros(len(nodes), dtype=bool)
    if nodes.shape[1] >= len(basis):
        A = vandermonde(basis, (nodes - origin[:, None]) / scale[:, None, None])
        Q, R = np.linalg.qr(A)
        floor = CERTIFY_MARGIN * RCOND * np.linalg.norm(R, axis=(1, 2))
        screened = np.abs(np.diagonal(R, axis1=1, axis2=2)).min(axis=1) > floor
        Rinv = np.linalg.inv(R[screened])
        ok[screened] = np.linalg.norm(Rinv, axis=(1, 2)) * floor[screened] < 1.0
        coeffs[ok] = Q[ok] @ Rinv[ok[screened]].transpose(0, 2, 1)
        rest = np.nonzero(~ok)[0]
        U, s, Vt = np.linalg.svd(A[rest], full_matrices=False)
        full = ~(s[:, -1] <= RCOND * s[:, 0])
        pinv = (Vt[full].transpose(0, 2, 1) / s[full, None, :]) @ U[full].transpose(0, 2, 1)
        coeffs[rest[full]] = pinv.transpose(0, 2, 1)
        ok[rest] = full
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

    Column j of R's pattern lists every element whose patch contains
    element j: exactly the sparsity coupling of DOF j in assembled matrices.
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

    @cached_property
    def patches(self):
        """One :class:`Patch` per element (its members are block row K of
        R, its diameter is ``scale[K]``), built on first use."""
        barycenters = self.geometry.barycenters
        return [Patch(K, members.tolist(), barycenters[members], float(self.scale[K]))
                for K, members in enumerate(np.split(self.R.indices, self.R.indptr[1:-1]))]

    @property
    def num_dofs(self):
        return self.mesh.num_elements

    def coefficients(self, X):
        """(N, fields, n_terms) coefficients of R x in each element's monomial
        frame, for every column x of X (N, fields)."""
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
        # the elements' block rows of R x alone, each summed in stored order as R @ x sums it
        R, x = self.R, np.asarray(vector, dtype=float)
        start, size = R.indptr[:-1][elements], np.diff(R.indptr)[elements]
        at = np.arange(size.sum()) + np.repeat(start + size - np.cumsum(size), size)
        rows = np.repeat(np.arange(len(elements)), size)
        C = np.zeros((len(elements), self.n_terms))
        np.add.at(C, rows, R.data[at, :, 0] * x[R.indices[at], None])
        scale = self.scale[elements, None]
        V, _ = factors(self.origin[elements, None], scale, points, self.m, ())
        O, power = _table_operators(self.m, self.mesh.dim)[kind]
        T = contract(V, O, power, scale, C[:, None, :, None])  # (B, components, n_pts, 1)
        out = np.moveaxis(T[..., 0], 1, -1)
        out = out if deriv == 1 else out[..., 0]
        return out[0] if single else out


def build_space(mesh, topology, m, t=None):
    """Fit one shape table per element and build the reconstruction operator.

    All patches grow and are fitted in one batch.  The rank-deficient ones
    then grow by a full neighbor ring and are refitted together, one batch
    per grown size, for up to three rounds before the failure propagates;
    an exhausted patch raises PatchExhausted.  Either error names the lowest
    failing element.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    if t is None:
        t = default_patch_size(m, mesh.dim) if m >= 1 else 1
    n, n_terms = mesh.num_elements, len(monomial_basis(m, mesh.dim))
    # the first fits, then three rounds of ring growth; failed: element -> its error
    todo, fitted, failed = [build_patch(mesh, topology, np.arange(n), t)], [], {}
    sizes, scale = np.empty(n, dtype=int), np.empty(n)
    for grow in (False, True, True, True):
        if grow:
            todo = [group for batch in todo if len(batch.centers)
                    for group in grow_patch(mesh, topology, batch)]
        for i, batch in enumerate(todo):
            coeffs, _, fit_scale, ok = fit_local(batch, m)
            live = batch.members[:, -1] >= 0
            for row, K in zip(np.nonzero(~live)[0], batch.centers[~live]):
                failed[K] = RankDeficient(
                    f"element {K}: sampling nodes stay rank deficient and the mesh has no "
                    f"further elements to grow into") if grow else batch.exhausted_error(row)
            ok &= live
            done = batch.centers[ok]
            sizes[done], scale[done] = batch.members.shape[1], fit_scale[ok]
            fitted.append((batch, coeffs, ok))
            todo[i] = batch.take(~ok & live)
    for batch in todo:
        size = batch.members.shape[1]
        failed.update((K, RankDeficient(
            f"patch of element {K} has {size} nodes, needs at least {n_terms} for degree {m}"
            if size < n_terms else f"patch of element {K} is numerically rank deficient"))
            for K in batch.centers)
    if failed:
        raise failed[min(failed)]
    # block row K of R lists K's patch members, each with its coefficients
    indptr = np.r_[0, np.cumsum(sizes)]
    indices, data = np.empty(indptr[-1], dtype=int), np.empty((indptr[-1], n_terms, 1))
    for batch, coeffs, ok in fitted:
        at = indptr[batch.centers[ok], None] + np.arange(batch.members.shape[1])
        indices[at], data[at, :, 0] = batch.members[ok], coeffs[ok]
    R = sp.bsr_matrix((data, indices, indptr), shape=(n * n_terms, n))
    return ReconstructedSpace(mesh, topology, m, t, R, topology.geometry.barycenters.copy(), scale)


def interpolate(space, g):
    """Sample a scalar field at every element's node: the DOF vector of R g."""
    return np.array([float(g(*x)) for x in space.origin])
