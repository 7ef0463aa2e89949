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

The space stores the tables stacked, grouped by patch size, and
:func:`tabulate` evaluates them for a whole batch of elements at once; every
form, norm and export goes through it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import PatchExhausted, RankDeficient
from .patch import Patch, Patches, build_patch, default_patch_size, grow_patch

RCOND = 1e-10  # numerical-rank threshold for unisolvence


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials of total degree <= m in ``dim`` variables.

    Ordering is graded lexicographic: ascending total degree, and inside a
    degree descending lexicographic exponent tuples (so 1; x, y; x^2, xy,
    y^2; ...).  The ordering is part of the coefficient-table contract.
    """

    m: int
    dim: int
    exponents: np.ndarray  # (n_terms, dim) int

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
    return MonomialBasis(m, dim, np.array(exps, dtype=int))


def vandermonde(basis, points):
    """V[..., j] = y ** alpha_j for points y of shape (..., dim).

    Powers 0 and 1 are exact (1 and y).  Higher powers keep numpy's vector
    ``pow``, called with an exponent array of the data's own shape:
    products, and the ``y * y`` fast path numpy takes for a lone or
    broadcast exponent 2, round differently and would change the last
    digits of every table.
    """
    y = np.asarray(points, dtype=float)
    powers = np.empty(y.shape + (basis.m + 1,))
    powers[..., 0] = 1.0
    if basis.m >= 1:
        powers[..., 1] = y
    exponent = np.empty_like(y)
    for k in range(2, basis.m + 1):
        exponent.fill(k)
        np.power(y, exponent, out=powers[..., k])
    V = powers[..., 0, basis.exponents[:, 0]]
    for d in range(1, basis.dim):
        V = V * powers[..., d, basis.exponents[:, d]]
    return V


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


def tabulate(coeffs, origin, scale, points, m, kinds=("val",)):
    """Shape functions of a batch of elements, each at its own points.

    ``coeffs`` (B, s, n_terms), ``origin`` (B, dim) and ``scale`` (B,) are
    the elements' tables and frames, ``points`` (B, q, dim) physical points.
    Returns a dict with one table per entry of ``kinds``: "val" and "lap"
    give (B, q, s) values and Laplacians, "grad" and "gradlap" give
    (B, q, s, dim) gradients and gradients of the Laplacian.
    """
    dim = origin.shape[1]
    y = (points - origin[:, None, :]) / scale[:, None, None]
    V = vandermonde(monomial_basis(m, dim), y)[:, None]  # (B, 1, q, n_terms)
    C = coeffs.transpose(0, 2, 1)[:, None]               # (B, 1, n_terms, s)
    out = {}
    for kind in kinds:
        ops, power = _table_operators(m, dim)[kind]
        T = V @ C if ops is None else (V @ ops) @ C        # (B, 1 or dim, q, s)
        if power:
            T /= scale[:, None, None, None] ** power
        T = np.moveaxis(T, 1, -1)
        out[kind] = T[..., 0] if kind in ("val", "lap") else T
    return out


def fit_local(patch, m):
    """Solve the sampling-node least-squares fit of degree m on a patch.

    Returns the coefficient table (t, n_terms) and its frame: the origin
    (the center's sampling node) and the scale (the patch diameter).
    Raises RankDeficient when the numerical rank of the node Vandermonde
    matrix falls short of dim P^m (unisolvence failure).

    A :class:`Patches` batch is fitted with one stacked SVD and gives
    ``(coeffs (B, t, n_terms), origin (B, dim), scale (B,), ok (B,))``:
    rows that fail the rank test have ``ok`` False and zero coefficients,
    and are left to the caller.  A single patch is a batch of one.
    """
    batch = patch if isinstance(patch, Patches) else Patches(
        np.array([patch.center]), np.array([patch.members]),
        np.asarray(patch.nodes, dtype=float)[None], np.array([patch.diameter], dtype=float))
    nodes = batch.nodes
    basis = monomial_basis(m, nodes.shape[2])
    origin = nodes[:, 0].copy()
    scale = np.where(batch.diameters > 0, batch.diameters, 1.0)
    coeffs = np.zeros(nodes.shape[:2] + (len(basis),))
    ok = np.zeros(len(nodes), dtype=bool)
    if nodes.shape[1] >= len(basis):
        A = vandermonde(basis, (nodes - origin[:, None]) / scale[:, None, None])
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        ok = ~(s[:, -1] <= RCOND * s[:, 0])
        pinv = (Vt[ok].transpose(0, 2, 1) / s[ok, None, :]) @ U[ok].transpose(0, 2, 1)
        coeffs[ok] = pinv.transpose(0, 2, 1)
    if isinstance(patch, Patches):
        return coeffs, origin, scale, ok
    if nodes.shape[1] < len(basis):
        raise RankDeficient(
            f"patch of element {patch.center} has {patch.size} nodes, "
            f"needs at least {len(basis)} for degree {m}"
        )
    if not ok[0]:
        raise RankDeficient(f"patch of element {patch.center} is numerically rank deficient")
    return coeffs[0], origin[0], scale[0]


class ReconstructedSpace:
    """All per-element shape tables, stacked, plus the support map.

    Element K's frame is ``origin[K]``, ``scale[K]``.  Elements whose
    patches have the same size s share one table pair
    ``tables[s] = (members (G, s), coeffs (G, s, n_terms))``, in which K is
    row ``row[K]``; ``size[K]`` is its patch size.  Grown patches thus form
    their own small groups instead of padding every patch to the largest.
    The space is built from one ``groups[s] = (elements, members, coeffs)``
    per patch size, its elements ascending.

    ``support[j]`` lists every element K whose patch contains element j;
    it is exactly the sparsity coupling of DOF j in assembled matrices.
    """

    def __init__(self, mesh, topology, m, t, groups, origin, scale):
        self.mesh = mesh
        self.topology = topology
        self.geometry = topology.geometry
        self.m = m
        self.t = t
        self.origin = origin
        self.scale = scale
        n = mesh.num_elements
        self.size = np.zeros(n, dtype=int)
        self.row = np.zeros(n, dtype=int)
        self.tables = {}
        for s in sorted(groups):
            elements, members, coeffs = groups[s]
            self.size[elements] = s
            self.row[elements] = np.arange(len(elements))
            self.tables[int(s)] = (members, coeffs)
        # quadrature carriers: every sub-simplex with its owner, every face
        self.sub_simplices = self.geometry.sub_simplices
        self.sub_owner = self.geometry.sub_owner
        self.face_coords = mesh.vertices[topology.faces]

    @cached_property
    def support(self):
        j, K = [], []
        for s, (members, _) in self.tables.items():
            j.append(members.ravel())
            K.append(np.repeat(np.nonzero(self.size == s)[0], s))
        j, K = np.concatenate(j), np.concatenate(K)
        order = np.lexsort((K, j))
        counts = np.bincount(j, minlength=self.num_dofs)
        return [ks.tolist() for ks in np.split(K[order], np.cumsum(counts)[:-1])]

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
        members, _ = self.tables[int(self.size[K])]
        return members[self.row[K]].tolist()

    def shape_tables(self, elements, points, kinds=("val",)):
        """:func:`tabulate` for elements that all have one patch size.

        Returns the (B, s) member ids and the dict of tables.
        """
        members, coeffs = self.tables[int(self.size[elements[0]])]
        rows = self.row[elements]
        tables = tabulate(coeffs[rows], self.origin[elements], self.scale[elements],
                          points, self.m, kinds)
        return members[rows], tables

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
        vector = np.asarray(vector, dtype=float)
        single = np.ndim(K) == 0
        elements = np.atleast_1d(np.asarray(K, dtype=int))
        points = np.asarray(points, dtype=float)
        if single:
            points = points[None]
        out = np.empty(points.shape[:2] + ((points.shape[2],) if deriv == 1 else ()))
        for s in np.unique(self.size[elements]):
            pos = np.nonzero(self.size[elements] == s)[0]
            ids, T = self.shape_tables(elements[pos], points[pos], (kind,))
            out[pos] = np.einsum("bqs...,bs->bq...", T[kind], vector[ids])
        return out[0] if single else out

    def dump_coefficients_csv(self, path):
        """Debug dump: element id, node id, monomial exponents, coefficient."""
        exponents = monomial_basis(self.m, self.mesh.dim).exponents
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["element", "node", "exponents", "coefficient"])
            for K in range(self.num_dofs):
                members, coeffs = self.tables[int(self.size[K])]
                for j, dof in enumerate(members[self.row[K]]):
                    for a, e in enumerate(exponents):
                        writer.writerow(
                            [K, dof, " ".join(map(str, e)),
                             "%.17g" % coeffs[self.row[K], j, a]]
                        )


def _refit(mesh, topology, patch, m, retries=3):
    """Grow a patch whose fit was rank deficient by one neighbor ring and
    refit, up to ``retries`` times; the last failure propagates."""
    for attempt in range(retries):
        try:
            patch = grow_patch(mesh, topology, patch)
        except PatchExhausted:
            raise RankDeficient(
                f"element {patch.center}: sampling nodes stay rank deficient "
                f"and the mesh has no further elements to grow into"
            ) from None
        try:
            return fit_local(patch, m), patch
        except RankDeficient:
            if attempt == retries - 1:
                raise


def build_space(mesh, topology, m, t=None):
    """Fit one shape table per element and build the support map.

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
        (table, _, scale[K]), patch = _refit(mesh, topology, patches[K], m)
        grown.setdefault(patch.size, []).append((K, patch.members, table))
    if stop < n:
        raise patches.exhausted_error(stop)
    groups = {t: (np.nonzero(ok)[0], patches.members[ok], coeffs[ok])} if ok.any() else {}
    for s, rows in grown.items():
        elements, members, tables = zip(*rows)
        groups[s] = (np.array(elements), np.array(members), np.stack(tables))
    return ReconstructedSpace(mesh, topology, m, t, groups, origin, scale)


def interpolate(space, g):
    """Sample a scalar field at every element's node: the DOF vector of R g."""
    return np.array([float(g(*x)) for x in space.origin])
