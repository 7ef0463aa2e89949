"""Element patches: per-element agglomerations that carry the sampling nodes.

A patch starts from its center element and greedily adds, among all
edge/face neighbors of the current member set, the one whose barycenter is
closest to the center's sampling node (ties broken by element id, so
construction is deterministic).  Sampling nodes are the member barycenters.
The patches of many elements grow together, one greedy step at a time over
candidate arrays whose last axis is the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PatchExhausted, RankDeficient
from .mesh import _geometry, diameters, rowdot
from .quadrature import element_rule


@dataclass
class Patch:
    """One element's patch, as ``ReconstructedSpace.patches`` lists them."""

    center: int
    members: list        # element ids, members[0] == center
    nodes: np.ndarray    # (t, dim) sampling-node coordinates
    diameter: float      # d_K, diameter of the union of member elements

    @property
    def size(self):
        return len(self.members)


@dataclass
class Patches:
    """The patches of a batch of elements, all of one size t.

    ``members`` (B, t) holds element ids with the center in column 0;
    a patch that ran out of neighbors is padded with -1 from the first
    slot it could not fill (its last member is then negative), and its
    nodes and diameter mean nothing.
    """

    centers: np.ndarray    # (B,)
    members: np.ndarray    # (B, t)
    nodes: np.ndarray      # (B, t, dim)
    diameters: np.ndarray  # (B,)

    def take(self, rows):
        """The batch of the given rows."""
        return Patches(self.centers[rows], self.members[rows], self.nodes[rows],
                       self.diameters[rows])

    def exhausted_error(self, i):
        reached = int((self.members[i] >= 0).sum())
        return PatchExhausted(f"element {self.centers[i]}: only {reached} connected elements "
                              f"reachable, need {self.members.shape[1]}")


def required_dim(m, dim):
    """Dimension of the space of polynomials of total degree <= m."""
    return math.comb(m + dim, dim)


def default_patch_size(m, dim):
    """Default number of sampling nodes per patch for degree m."""
    r = required_dim(m, dim)
    return max(r + 1, math.ceil(1.5 * r))


def _distances(barycenters, ids, centers):
    """(B, k) distances from each center's node to its candidates ``ids``."""
    d = np.take(barycenters, ids, axis=0) - np.take(barycenters, centers, axis=0)[:, None, :]
    return np.sqrt(rowdot(d, d))


def patch_diameters(mesh, members):
    """Diameter of the union of each row's member elements, (B, s) -> (B,)."""
    # each row's distinct vertex ids first, padded with its lowest one (row
    # gathers here and in build_patch are np.take: a copy of the same rows,
    # several times faster than fancy indexing)
    vids = np.sort(np.take(mesh.elements, members, axis=0).reshape(len(members), -1), axis=1)
    last = np.iinfo(int).max
    vids[:, 1:][vids[:, 1:] == vids[:, :-1]] = last
    vids.sort(axis=1)
    vids = vids[:, :int((vids < last).sum(axis=1).max(initial=0))]
    vids = np.where(vids == last, vids[:, :1], vids)
    # gathered batch last, the layout :func:`diameters` works in
    return diameters(np.take(mesh.vertices, vids.T, axis=0).swapaxes(0, 1))


def build_patch(mesh, topology, K, t):
    """Grow the patches of the elements K (an id array) to exactly t members.

    The patches grow together and come back as :class:`Patches`, exhausted
    rows included.  The batch is the last axis of every working array: the
    candidate pool (neighbor ids of the members so far, -1 for none, and
    their distances) is one (degree · t, B) pair filled a degree-row block
    per step, and the members are (t, B), so each step's minimum, id
    tie-break, masking and membership test is an elementwise pass over
    whole rows of the batch.
    """
    if t < 1:
        raise ValueError("patch size must be >= 1")
    centers = np.asarray(K, dtype=int)
    adjacency, barycenters = topology.adjacency, topology.geometry.barycenters
    origin = barycenters[centers]
    degree = adjacency.shape[1]
    members = np.full((t, len(centers)), -1)
    members[0] = centers
    # an id may appear in the pool more than once, with the same distance each time
    pool = np.empty((degree * t, len(centers)), dtype=int)
    dist = np.empty(pool.shape)

    def add(i, new):
        """Put the candidates ``new`` (degree, B) in pool block i."""
        block = slice(degree * i, degree * (i + 1))
        pool[block] = new
        d = np.take(barycenters, new, axis=0) - origin
        dist[block] = np.where(new >= 0, np.sqrt(rowdot(d, d)), np.inf)

    add(0, adjacency[centers].T)
    last = np.iinfo(int).max
    for i in range(1, t):
        ids, far = pool[:degree * i], dist[:degree * i]
        nearest = far.min(axis=0, initial=np.inf)
        best = np.where(far == nearest, ids, last).min(axis=0, initial=last)
        alive = np.isfinite(nearest)
        best[~alive] = -1
        members[i] = best
        far[ids == best] = np.inf
        if i == t - 1:
            break  # the last member's neighbors are never candidates
        new = np.take(adjacency, best, axis=0).T
        # drop a dead row's ids and the earlier members (best is no neighbor of itself)
        known = ~alive | (new == members[0])
        for row in members[1:i]:
            known |= new == row
        new[known] = -1
        add(i, new)
    members = members.T
    return Patches(centers, members, np.take(barycenters, members, axis=0),
                   patch_diameters(mesh, members))


def grow_patch(mesh, topology, patches):
    """Grow every patch of a batch by its full ring of Von Neumann neighbors,
    ordered by distance to the center's node, ties by element id: the repair
    of a rank-deficient fit.  Returns one :class:`Patches` per grown size; a
    patch with no neighbor left gains one -1 slot."""
    barycenters, members = topology.geometry.barycenters, patches.members
    # each row's neighbor ids, sorted, with -1, repeats and members masked out
    ring = np.sort(np.take(topology.adjacency, members, axis=0).reshape(len(members), -1), axis=1)
    offset = np.arange(len(members))[:, None] * mesh.num_elements
    new = (ring >= 0) & ~np.isin(ring + offset, members + offset)
    new[:, 1:] &= ring[:, 1:] != ring[:, :-1]
    dist = np.where(new, _distances(barycenters, ring, patches.centers), np.inf)
    order = np.argsort(dist, axis=1, kind="stable")  # ids ascending among equal distances
    ring = np.take_along_axis(np.where(new, ring, -1), order, axis=1)
    count, groups = np.maximum(new.sum(axis=1), 1), []
    for size in np.unique(count):
        rows = count == size
        grown = np.concatenate([members[rows], ring[rows, :size]], axis=1)
        groups.append(Patches(patches.centers[rows], grown, np.take(barycenters, grown, axis=0),
                              patch_diameters(mesh, grown)))
    return groups


def lambda_constant(mesh, patch, m):
    """Estimate the patch stability constant: the worst-case ratio of a
    degree-m polynomial's sup on the patch to its sampled node values.

    Sampling uses quadrature points (exact to order max(2m, 2)) plus the
    vertices of every member element; the estimate is the infinity operator
    norm of the node-values-to-sample-values map, whose node-values-to-
    coefficients factor and rank test are :func:`fit_local`'s on a one-patch
    batch.  Diagnostic only.
    """
    from .reconstruction import fit_local, monomial_basis, vandermonde

    batch = Patches(np.array([patch.center]), np.array([patch.members]), patch.nodes[None],
                    np.array([patch.diameter]))
    coeffs, origin, scale, ok = fit_local(batch, m)
    if not ok[0]:
        raise RankDeficient(f"patch of element {patch.center} has unisolvence defect")

    pts, _ = element_rule(_geometry(mesh, patch.members), max(2 * m, 2))
    vertices = mesh.vertices[mesh.elements[patch.members].ravel()]  # padding repeats a vertex
    Y = (np.concatenate([patch.nodes, pts, vertices]) - origin[0]) / scale[0]
    B = vandermonde(monomial_basis(m, patch.nodes.shape[1]), Y) @ coeffs[0].T
    return float(np.abs(B).sum(axis=1).max())
