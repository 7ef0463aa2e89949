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

from .errors import DegenerateSimplex, OrderUnsupported
from .mesh import diameters

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


# Gauss rules for the weight (1-x)^alpha on [0,1] that the conical products
# use: scipy.special.roots_jacobi(n, alpha, 0) mapped from [-1, 1], to 17
# digits so each is the same double (importing scipy.special would cost more
# than building every rule).  Per alpha, the nodes and the weights of the
# rules n = 1, 2, ... back to back.
_JACOBI01 = {
    1: ([0.33333333333333337, 0.15505102572168217, 0.64494897427831788, 0.088587959512703929,
         0.40946686444073477, 0.787659461760847, 0.057104196114517725, 0.2768430136381238,
         0.58359043236891683, 0.86024013565621948, 0.039809857051468722, 0.19801341787360821,
         0.43797481024738616, 0.69546427335363614, 0.90146491420117358, 0.029316427159784941,
         0.1480785996684843, 0.3369846902811543, 0.55867151877155019, 0.7692338620300545,
         0.92694567131974104, 0.022479386438712501, 0.11467905316090415, 0.26578982278458951,
         0.45284637366944464, 0.64737528288683033, 0.81975930826310761, 0.94373743946307787],
        [0.5, 0.31804138174397717, 0.18195861825602283, 0.20093191373895961, 0.22924110635958619,
         0.069826979901454173, 0.13550691343148852, 0.2034645680102711, 0.12984754760823233,
         0.031180970950008085, 0.096781590226651476, 0.16717463809436969, 0.14638698708466985,
         0.073908870072616678, 0.015747914521692299, 0.072310330725508895, 0.13554249723151868,
         0.14079255378819883, 0.098661150890655205, 0.043955165550508962, 0.0087383018136095291,
         0.055967363423490867, 0.1105092581908744, 0.12739089729958852, 0.10712506569587381,
         0.066384696465491569, 0.027408356721873486, 0.0052143622028073908]),
    2: ([0.25, 0.1225148226554415, 0.54415184401122529, 0.072994024073149699, 0.34700376603835181,
         0.70500220988849838, 0.048500549446997276, 0.23860073755186234, 0.51704729510436742,
         0.79585141789677283, 0.03457893991821509, 0.17348032077169567, 0.38988638706551931,
         0.6343334726308868, 0.85105421294701644],
        [0.33333333333333331, 0.23254745125350801, 0.10078588207982532, 0.15713636106488646,
         0.14624626925986611, 0.029950703008580715, 0.11088841561127774, 0.14345878979921445,
         0.068633887172923097, 0.010352240749918081, 0.081764784285771011, 0.12619896189991137,
         0.089200161221590066, 0.032055600722961895, 0.0041138252030990035]),
}


def _jacobi01(n, alpha):
    nodes, weights = _JACOBI01[alpha]
    rule = slice(n * (n - 1) // 2, n * (n + 1) // 2)
    return np.array(nodes[rule]), np.array(weights[rule])


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
        v, wv = _jacobi01(n, 1)
        U, V = np.meshgrid(u, v, indexing="ij")
        pts = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
        wts = np.outer(wu, wv).ravel()
        return QuadRule(2, order, pts, wts)

    u, wu = _gauss01(n)
    v, wv = _jacobi01(n, 1)
    t, wt = _jacobi01(n, 2)
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
    diam = diameters(simplex.reshape(-1, d + 1, d)).reshape(det.shape)
    if np.any(det <= 1e-14 * diam ** d):
        raise DegenerateSimplex("simplex has (numerically) zero volume")
    pts = simplex[..., :1, :] + rule.points @ edges
    return pts, rule.weights * det[..., None]


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
