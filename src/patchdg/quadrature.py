"""Quadrature rules on reference simplices, mapped to physical elements.

The shipped families are Gauss-Legendre on the unit interval and conical
(collapsed) Gauss-Jacobi products on the reference triangle and
tetrahedron.  Conical products have strictly positive weights and are
exact for all polynomials up to the requested total degree, which is what
every bilinear-form integral here needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import DegenerateSimplex, OrderUnsupported

#: reference measures: interval [0,1], triangle (0,0)-(1,0)-(0,1), unit tet
REF_MEASURE = {1: 1.0, 2: 0.5, 3: 1.0 / 6.0}

#: highest exactness order shipped per dimension
MAX_ORDER = {1: 21, 2: 12, 3: 8}


@dataclass(frozen=True)
class QuadRule:
    dim: int
    order: int
    points: np.ndarray   # (n, dim) reference coordinates
    weights: np.ndarray  # (n,), sums to the reference measure


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi01(n, alpha):
    # Gauss rule for the weight (1-x)^alpha on [0,1]
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


@lru_cache(maxsize=None)
def simplex_rule(dim, order):
    """Rule exact for all monomials of total degree <= order on the
    reference simplex of dimension ``dim``."""
    if dim not in (1, 2, 3):
        raise OrderUnsupported(f"dimension {dim} not supported")
    if order < 0 or order > MAX_ORDER[dim]:
        raise OrderUnsupported(f"order {order} outside [0, {MAX_ORDER[dim]}] in {dim}D")
    n = (order + 2) // 2  # 2n - 1 >= order

    if dim == 1:
        x, w = _gauss01(n)
        return QuadRule(1, order, x[:, None].copy(), w.copy())

    if dim == 2:
        u, wu = _gauss01(n)
        v, wv = _jacobi01(n, 1.0)
        U, V = np.meshgrid(u, v, indexing="ij")
        pts = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
        wts = np.outer(wu, wv).ravel()
        return QuadRule(2, order, pts, wts)

    u, wu = _gauss01(n)
    v, wv = _jacobi01(n, 1.0)
    t, wt = _jacobi01(n, 2.0)
    U, V, T = np.meshgrid(u, v, t, indexing="ij")
    x = U * (1.0 - V) * (1.0 - T)
    y = V * (1.0 - T)
    pts = np.column_stack([x.ravel(), y.ravel(), T.ravel()])
    wts = np.einsum("i,j,k->ijk", wu, wv, wt).ravel()
    return QuadRule(3, order, pts, wts)


def map_rule(rule, simplex):
    """Affine-map a reference rule onto a physical simplex, or onto a batch
    of them given as a (..., d+1, d) vertex array.

    Returns (points (..., n, d), weights (..., n)); the weights of each
    simplex sum to its measure.
    """
    simplex = np.asarray(simplex, dtype=float)
    d = rule.dim
    edges = simplex[..., 1:, :] - simplex[..., :1, :]  # rows are edge vectors
    det = np.abs(np.linalg.det(edges))
    if np.any(det <= 1e-14 * _diameter_scale(simplex) ** d):
        raise DegenerateSimplex("simplex has (numerically) zero volume")
    pts = simplex[..., :1, :] + rule.points @ edges
    return pts, rule.weights * det[..., None]


def _diameter_scale(coords):
    diff = coords[..., :, None, :] - coords[..., None, :, :]
    scale = np.sqrt((diff ** 2).sum(-1)).max(axis=(-2, -1))
    return np.where(scale > 0.0, scale, 1.0)


def face_rule(dim, order, face):
    """Quadrature on a physical face: a segment in 2D, a triangle in 3D.

    ``face`` holds the (dim, dim) vertex coordinates of one face, or of a
    batch of faces as a (..., dim, dim) array.  Weights carry the surface
    measure, so they sum to the face length/area.
    """
    face = np.asarray(face, dtype=float)
    if dim not in (2, 3):
        raise OrderUnsupported(f"face rules exist for mesh dimension 2 or 3, not {dim}")
    rule = simplex_rule(dim - 1, order)
    edges = face[..., 1:, :] - face[..., :1, :]
    if dim == 2:
        measure = np.linalg.norm(edges[..., 0, :], axis=-1)
    else:  # twice the facet area, matching the reference triangle's 1/2
        measure = np.linalg.norm(np.cross(edges[..., 0, :], edges[..., 1, :]), axis=-1)
    pts = face[..., :1, :] + rule.points @ edges
    return pts, rule.weights * measure[..., None]


def element_rule(geom, order):
    """Quadrature over one element via its sub-simplex tiling."""
    rule = simplex_rule(geom.sub_simplices.shape[2], order)
    pts, wts = map_rule(rule, geom.sub_simplices)
    return pts.reshape(-1, rule.dim), wts.ravel()
