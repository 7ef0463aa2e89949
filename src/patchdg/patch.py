"""Element patches: per-element agglomerations that carry the sampling nodes.

A patch starts from its center element and greedily adds, among all
edge/face neighbors of the current member set, the one whose barycenter is
closest to the center's sampling node (ties broken by element id, so
construction is deterministic).  Sampling nodes are the member barycenters.
The patches of many elements grow together, one greedy step at a time over
stacked candidate arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PatchExhausted, RankDeficient
from .mesh import _geometry, diameters, rowdot
from .quadrature import element_rule

# patches per batch of the pairwise-distance array behind patch diameters
DIAMETER_CHUNK = 32


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
    d = barycenters[ids] - barycenters[centers][:, None, :]
    return np.sqrt(rowdot(d, d))


def patch_diameters(mesh, members):
    """Diameter of the union of each row's member elements, (B, s) -> (B,)."""
    # each row's distinct vertex ids first, padded with its lowest one
    vids = np.sort(mesh.elements[members].reshape(len(members), -1), axis=1)
    last = np.iinfo(int).max
    vids[:, 1:][vids[:, 1:] == vids[:, :-1]] = last
    vids.sort(axis=1)
    vids = vids[:, :int((vids < last).sum(axis=1).max(initial=0))]
    vids = np.where(vids == last, vids[:, :1], vids)
    out = np.empty(len(members))
    for i in range(0, len(members), DIAMETER_CHUNK):
        out[i:i + DIAMETER_CHUNK] = diameters(mesh.vertices[vids[i:i + DIAMETER_CHUNK]])
    return out


def build_patch(mesh, topology, K, t):
    """Grow the patches of the elements K (an id array) to exactly t members.

    The patches grow together and come back as :class:`Patches`, exhausted
    rows included.
    """
    if t < 1:
        raise ValueError("patch size must be >= 1")
    centers = np.asarray(K, dtype=int)
    adjacency, barycenters = topology.adjacency, topology.geometry.barycenters
    members = np.full((len(centers), t), -1)
    members[:, 0] = centers
    # candidate pool: neighbors of members (ids, -1 for none) and distances;
    # an id may appear more than once, with the same distance each time
    pool = adjacency[centers]
    dist = np.where(pool >= 0, _distances(barycenters, pool, centers), np.inf)
    last = np.iinfo(int).max
    for i in range(1, t):
        nearest = dist.min(axis=1, initial=np.inf)
        best = np.where(dist == nearest[:, None], pool, last).min(axis=1, initial=last)
        alive = np.isfinite(nearest)
        best[~alive] = -1
        members[:, i] = best
        dist[pool == best[:, None]] = np.inf
        new = np.where(alive[:, None], adjacency[best], -1)
        new[(new[:, :, None] == members[:, None, :i + 1]).any(axis=2)] = -1
        pool = np.concatenate([pool, new], axis=1)
        dist = np.concatenate(
            [dist, np.where(new >= 0, _distances(barycenters, new, centers), np.inf)], axis=1)
    return Patches(centers, members, barycenters[members], patch_diameters(mesh, members))


def grow_patch(mesh, topology, patches):
    """Grow every patch of a batch by its full ring of Von Neumann neighbors,
    ordered by distance to the center's node, ties by element id: the repair
    of a rank-deficient fit.  Returns one :class:`Patches` per grown size; a
    patch with no neighbor left gains one -1 slot."""
    barycenters, members = topology.geometry.barycenters, patches.members
    # each row's neighbor ids, sorted, with -1, repeats and members masked out
    ring = np.sort(topology.adjacency[members].reshape(len(members), -1), axis=1)
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
        groups.append(Patches(patches.centers[rows], grown, barycenters[grown],
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
