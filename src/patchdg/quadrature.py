"""Quadrature rules on reference simplices, mapped to physical elements.

Two families ship, both with strictly positive weights and interior points:

* Gauss-Legendre on the unit interval and conical (collapsed) Gauss-Jacobi
  products on the reference triangle and tetrahedron, exact for every total
  degree up to ``MAX_ORDER`` (:func:`simplex_rule`);
* fully symmetric rules at a few degrees, tabulated by their orbits
  (Dunavant, IJNME 21, 1985, on the triangle; Keast, CMAME 55, 1986, on the
  tetrahedron), which need far fewer points: 14 against 27 on a tetrahedron
  at degree 4 or 5, 24 against 64 at degree 6.

:func:`cheapest_rule` picks, for a degree, the rule of either family with the
fewest points; the assembly integrates every bilinear form with it, since its
integrands are polynomials of known degree and any exact rule gives the same
matrix up to rounding.  The integrands of ``measure``, ``load_vector`` and
``lambda_constant`` have a smooth, non-polynomial factor, so no rule is exact
for them and each family has its own quadrature error; they keep the conical
products, whose error the committed benchmark references hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OrderUnsupported
from .mesh import face_maps, simplex_maps

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
    # Gauss-Legendre on [0, 1], then per further axis the Gauss-Jacobi rule
    # of weight (1 - t)^alpha: every point so far scaled by (1 - t), t appended
    pts, wts = _gauss01(n)
    pts = pts[:, None]
    for alpha in range(1, dim):
        t, wt = _jacobi01(n, alpha)
        pts = np.column_stack([np.repeat(pts, n, axis=0) * np.tile(1.0 - t, len(pts))[:, None],
                               np.tile(t, len(pts))])
        wts = np.outer(wts, wt).ravel()
    return QuadRule(dim, order, pts, wts)


#: orbit name -> the barycentric coordinates of its generator; the orbit is
#: every distinct permutation of them
_ORBITS = {
    "S3": lambda: (1 / 3, 1 / 3, 1 / 3),
    "S21": lambda a: (a, a, 1 - 2 * a),
    "S111": lambda a, b: (a, b, 1 - a - b),
    "S31": lambda a: (a, a, a, 1 - 3 * a),
    "S22": lambda a: (a, a, 0.5 - a, 0.5 - a),
    "S211": lambda a, b: (a, a, b, 1 - 2 * a - b),
}

# Fully symmetric rules per dimension and degree, as orbits (name, weight
# of each point, parameters); the weights sum to the reference measure.
# The digits are the double nearest each root of the orbit moment
# equations, solved by Newton in 50-digit arithmetic from the published
# rules (test_quadrature reproduces them in double).
_SYMMETRIC = {
    2: {
        2: (("S21", 0.16666666666666666, 0.16666666666666666),),
        4: (("S21", 0.11169079483900574, 0.4459484909159649),
            ("S21", 0.054975871827660935, 0.09157621350977074)),
        6: (("S21", 0.058393137863189684, 0.24928674517091043),
            ("S21", 0.02542245318510341, 0.06308901449150223),
            ("S111", 0.041425537809186785, 0.053145049844816945, 0.3103524510337844)),
        8: (("S3", 0.07215780383889359),
            ("S21", 0.04754581713364231, 0.4592925882927232),
            ("S21", 0.05160868526735912, 0.1705693077517602),
            ("S21", 0.01622924881159904, 0.05054722831703098),
            ("S111", 0.013615157087217496, 0.008394777409957605, 0.2631128296346381)),
    },
    3: {
        2: (("S31", 0.041666666666666664, 0.1381966011250105),),
        5: (("S31", 0.012248840519393659, 0.09273525031089122),
            ("S31", 0.018781320953002643, 0.3108859192633006),
            ("S22", 0.007091003462846911, 0.04550370412564965)),
        6: (("S31", 0.006653791709694582, 0.21460287125915203),
            ("S31", 0.001679535175886774, 0.04067395853461135),
            ("S31", 0.009226196923942455, 0.3223378901422755),
            ("S211", 0.008035714285714285, 0.06366100187501753, 0.2696723314583158)),
    },
}


def _expand_orbits(orbits):
    """(points (n, dim), weights (n,)) of a rule given as (name, weight,
    *parameters) orbits: one point per distinct permutation of each
    generator, in the reference frame x_d = barycentric coordinate d + 1.
    Plain arithmetic only, so complex parameters expand too."""
    pts, wts = [], []
    for name, w, *params in orbits:
        for bary in dict.fromkeys(itertools.permutations(_ORBITS[name](*params))):
            pts.append(bary[1:])
            wts.append(w)
    return np.array(pts), np.array(wts)


@lru_cache(maxsize=None)
def symmetric_rule(dim, degree):
    """The tabulated fully symmetric rule of ``degree``, expanded on first use."""
    return QuadRule(dim, degree, *_expand_orbits(_SYMMETRIC[dim][degree]))


@lru_cache(maxsize=None)
def cheapest_rule(dim, degree):
    """The rule with the fewest points that is exact to ``degree`` on the
    reference simplex: the conical product (Gauss-Legendre in 1D), or a
    tabulated symmetric rule of that degree or higher; ties keep the product."""
    rules = [simplex_rule(dim, degree)]
    rules += [symmetric_rule(dim, d) for d in _SYMMETRIC.get(dim, ()) if d >= degree]
    return min(rules, key=lambda rule: len(rule.weights))


def apply_rule(rule, origin, edges, scale):
    """The reference ``rule`` under a batch of affine maps x = origin + xi @
    edges, as :func:`~patchdg.mesh.simplex_maps` and
    :func:`~patchdg.mesh.face_maps` give them: (points (..., n, d), weights
    (..., n)), the weights multiplied by each map's ratio of measures
    ``scale``."""
    return origin[..., None, :] + rule.points @ edges, rule.weights * scale[..., None]


def map_rule(rule, simplex):
    """Affine-map a reference rule onto a physical simplex, or onto a batch
    of them given as a (..., d+1, d) vertex array.

    Returns (points (..., n, d), weights (..., n)); the weights of each
    simplex sum to its measure.
    """
    return apply_rule(rule, *simplex_maps(simplex))


def face_rule(rule, face):
    """The reference ``rule`` of dimension dim - 1 mapped onto a physical
    face of a dim-dimensional mesh: a segment in 2D, a triangle in 3D.

    ``face`` holds the (dim, dim) vertex coordinates of one face, or of a
    batch of faces as a (..., dim, dim) array.  Weights carry the surface
    measure, so they sum to the face length/area.
    """
    dim = rule.dim + 1
    if dim not in (2, 3):
        raise OrderUnsupported(f"face rules exist for mesh dimension 2 or 3, not {dim}")
    return apply_rule(rule, *face_maps(face))


def element_rule(geom, order):
    """Quadrature over one element via its sub-simplex tiling."""
    rule = simplex_rule(geom.sub_simplices.shape[2], order)
    pts, wts = apply_rule(rule, *geom.sub_maps)
    return pts.reshape(-1, rule.dim), wts.ravel()
