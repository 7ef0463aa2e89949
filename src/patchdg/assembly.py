"""Symmetric interior penalty assembly over the reconstructed space.

One table states the broken energy pairing of order 2p: ``_PAIRINGS[p]``
gives its volume table kind and one row per face jump: its table kind, its
power of 1/h and its symmetric consistency term (an ordered pair of traces
and a sign, each average formed from the jump's columns).  p = 0 is the L2
pairing, 1 the second-order and 2 the fourth-order one.  :func:`measure`
integrates exactly the volume pairing and the weighted jumps for norms and
Gram matrices, and :func:`_assemble` builds every matrix from the table:
the volume pairing, each jump penalised by its ``FormConfig.penalties``
entry over h^power, plus its consistency term.  The mass matrix is p = 0,
and :func:`assemble_stiffness` is the one stiffness for both orders.

One DOF per element: matrix row/column j is the sampled value on element j.
The space is the image of the reconstruction operator R (see
:class:`patchdg.reconstruction.ReconstructedSpace`) on the broken
polynomials U_h, so every matrix is the classical DG matrix on element
monomials pulled back by R: A = R^T A_DG R, M = R^T M_DG R, b = R^T b_DG.

A_DG has a block structure fixed by the topology: one n_terms x n_terms
diagonal block per element and the two off-diagonal blocks of each interior
face; M_DG is block diagonal.  Only its lower block triangle G, with the
diagonal blocks halved, is stored, so A_DG = G + G^T: the diagonal
contributions of every batch are added in place into one block per element,
and each interior face writes its one block below the diagonal into its own
slot, with no entry-level triplets.  The products with R run on its
(n_terms x 1) blocks.

Every integral runs over one batch generator, :func:`_batches`, of at
most ``CHUNK`` carriers per batch: the sub-simplices of the topology's
geometry for volume terms (one-sided, each carrying its owner element, so
polygons need no separate path), or the topology's interior faces and then
its boundary faces for face terms, each mapping the reference rule by the
affine maps stored once per mesh on the geometry and the topology.  A
batch carries one Vandermonde of the n_terms monomials of its elements
(both sides of a face at once), so nothing is grouped by patch size.
``_assemble``, ``load_vector`` and ``measure`` all consume it; ``measure``
writes each batch straight into its terms' arrays.

Each term is integrated exactly by the rule with the fewest points for its
polynomial degree (:func:`~patchdg.quadrature.cheapest_rule`): the volume
pairing of order 2p pairs two derivatives of order p of degree-m
polynomials, degree 2(m - p), so the fourth-order form at m = 2 needs one
point per sub-simplex; the mass (p = 0) and every face term are taken at
degree 2m, the penalised value jump's.  ``measure`` and ``load_vector``
integrate a smooth factor that no rule integrates exactly, and keep the
conical rules of order 2m + 2.

Every matrix is a plain symmetric ``scipy.sparse`` CSR matrix in canonical
format, R^T A_DG R = Q + Q^T with Q = R^T (G R).  Symmetry is exact by
construction: the entries (i, j) and (j, i) both add Q[i, j] and Q[j, i].
``scipy.io.mmwrite`` writes one as a coordinate file.

Boundary faces use one-sided traces and enforce the essential conditions
weakly (Nitsche style): v = 0 for the second-order form, v = dv/dn = 0 for
the clamped fourth-order form.  The simply supported fourth-order variant
keeps only the value-jump consistency term and penalty on boundary faces,
since the normal derivative is unconstrained there and the second Laplace
trace is a natural condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegreeTooLow
from .quadrature import MAX_ORDER, apply_rule, cheapest_rule, simplex_rule
from .reconstruction import contract, factors, int_power

# Sub-simplices or faces per batch.  The batch's tables and local blocks
# set the peak memory of assembly: 2048 faces of 3D fourth-order blocks
# (30 x 30, four trace kinds) took 175 MB on cube:6, 256 take about 18 MB,
# and smaller batches only add per-batch overhead.
CHUNK = 256


@dataclass
class FormConfig:
    """Penalty bases and boundary-condition mode for one bilinear form.

    Effective penalties scale with the degree: eta * m^2 for the value jump
    of the second-order form, alpha * m^4 and beta * m^2 for the value and
    gradient jumps of the fourth-order form.  An empty ``bc`` is the
    problem's default: homogeneous_dirichlet for laplace, simply_supported
    for biharmonic.
    """

    problem: str = "laplace"  # laplace | biharmonic
    bc: str = ""              # homogeneous_dirichlet | clamped | simply_supported
    m: int = 1
    eta: float = 5.5
    alpha: float = 5.0
    beta: float = 2.5

    def __post_init__(self):
        if self.problem not in ("laplace", "biharmonic"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if not self.bc:
            self.bc = "homogeneous_dirichlet" if self.problem == "laplace" else "simply_supported"
        if self.problem == "laplace":
            if self.bc != "homogeneous_dirichlet":
                raise ValueError("the second-order form supports homogeneous Dirichlet only")
            if self.m < 1:
                raise ValueError("degree must be >= 1 for the second-order form")
        else:
            if self.bc not in ("clamped", "simply_supported"):
                raise ValueError(f"unknown biharmonic bc {self.bc!r}")
            if self.m < 2:
                raise ValueError("degree must be >= 2 for the fourth-order form")
        if min(self.eta, self.alpha, self.beta) <= 0.0:
            raise ValueError("penalty bases must be positive")

    @property
    def p(self):
        return 1 if self.problem == "laplace" else 2

    @property
    def penalties(self):
        """Effective penalty per face jump of the form, as ordered in
        ``_PAIRINGS[p]``: (eta m^2,) or (alpha m^4, beta m^2)."""
        if self.p == 1:
            return (self.eta * self.m ** 2,)
        return (self.alpha * self.m ** 4, self.beta * self.m ** 2)


def _pair(X, wts, Y):
    """Per batch entry b: sum over points q (and components) of
    X[b, q, a, ...] wts[b, q] Y[b, q, c, ...], a (B, a, c) array."""
    B, q = wts.shape
    Xw = X * wts.reshape(B, q, *([1] * (X.ndim - 2)))
    return np.moveaxis(Xw, 2, 1).reshape(B, X.shape[2], -1) @ \
        np.moveaxis(Y, 2, 1).reshape(B, Y.shape[2], -1).transpose(0, 2, 1)


def _selection(items, n):
    return np.arange(n) if items is None else np.array(list(items), dtype=int).reshape(-1)


def _batches(space, rule, kinds, carriers=None, faces=False):
    """(carriers, points, weights, sides (B, k), scales (B, k), V, operators)
    per batch of sub-simplices, or of ``faces``: the reference ``rule`` mapped
    onto each carrier by its stored map, V and the operators the sides'
    ``factors``.  ``carriers`` are ids (all of them if None).  A sub-simplex
    is one-sided, its owner its side, and has no normal.  Faces come interior
    ones first, then boundary ones with k = 1: the minus side's V is negated
    and vector kinds take the plus side's outward normal, so ``contract``
    gives each side's jump table, and its values summed over the sides are
    the jumps (on boundary faces the plus-side traces)."""
    topo, geo = space.topology, space.geometry
    maps, sides = (topo.maps, topo.sides) if faces else (geo.sub_maps, geo.sub_owner[:, None])
    ids = np.arange(len(sides)) if carriers is None else carriers
    two = sides[ids, -1] >= 0
    for part, k in ((ids[two], sides.shape[1]), (ids[~two], 1)):
        for i in range(0, len(part), CHUNK):
            batch = part[i:i + CHUNK]
            pts, wts = apply_rule(rule, *(np.take(a, batch, axis=0) for a in maps))
            side, n = sides[batch, :k], topo.normals[batch] if faces else None
            scale = space.scale[side]
            V, ops = factors(space.origin[side], scale, pts, space.m, kinds, n)
            V[:, 1:] *= -1.0
            yield batch, pts, wts, side, scale, V, ops


def _assemble(space, p, config=None, elements=None, faces=None):
    """R^T A_DG R as a symmetric CSR matrix for the interior penalty form of
    order 2p: the volume pairing and the penalised jumps of ``_PAIRINGS[p]``
    (penalties from ``config``) plus their consistency terms, over each
    face's k sides, plus side first.  The volume pairing is integrated at
    degree 2(m - p) and the face terms at 2m, each by its cheapest exact
    rule; a face batch's terms are summed by one pairing of their factors
    stacked along the points.

    Only the lower block triangle G of A_DG = G + G^T is stored, its
    diagonal blocks halved: every diagonal contribution is added in place
    into its element's block, and each interior face of ``faces`` (a set of
    ids, like ``elements``) writes its (minus, plus) block, below the
    diagonal since the plus side is the lower id, into its own slot.  With Q = R^T (G R) the result
    is Q + Q^T, in canonical format and exactly symmetric, since each pair
    of mirrored entries is the same two summands added."""
    n, nt, topo = space.num_dofs, space.n_terms, space.topology
    volume, jumps = _PAIRINGS[p]
    sel = np.unique(_selection(faces, topo.num_faces)) if p else np.zeros(0, dtype=int)
    inner = sel[topo.sides[sel, 1] >= 0]
    # G's blocks by block row, then column: the faces' blocks, then the diagonal
    rows = np.concatenate([topo.sides[inner, 1], np.arange(n)])
    cols = np.concatenate([topo.sides[inner, 0], np.arange(n)])
    order = np.lexsort((cols, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    face_slot, diag = np.zeros(topo.num_faces, dtype=int), slot[len(inner):]
    face_slot[inner] = slot[:len(inner)]
    blocks = np.zeros((len(order), nt, nt))

    def add(where, local):  # entry by entry: ufunc.at is much faster on a flat index
        entries = (where.reshape(-1, 1) * nt ** 2 + np.arange(nt ** 2)).ravel()
        np.add.at(blocks.reshape(-1), entries, local.reshape(-1))

    dim, m = space.mesh.dim, space.m
    subs = np.flatnonzero(np.isin(space.geometry.sub_owner, _selection(elements, n)))
    for _, _, wts, sides, scale, V, ops in _batches(space, cheapest_rule(dim, 2 * (m - p)),
                                                    (volume,), subs):
        T = np.moveaxis(contract(V, *ops[volume], scale), 1, -1)
        add(diag[sides], _pair(T, wts, T))
    penalties = [c * _dim_factor(space) for c in config.penalties] if p else []
    kinds = tuple(dict.fromkeys(kind for _, _, a, b, _ in jumps for _, kind in (a, b)))
    simply_supported = p > 0 and config.bc == "simply_supported"
    half = np.repeat([0.5, -0.5], nt)  # an interior average from the jump's plus and minus columns
    for batch, _, wts, sides, scale, V, ops in _batches(space, cheapest_rule(dim - 1, 2 * m),
                                                        kinds, sel, faces=True):
        F, k, q = V.shape[:3]
        h, boundary = topo.h_e[batch], k == 1
        jump = {kind: contract(V, *op, scale).transpose(0, 2, 1, 3).reshape(F, q, k * nt)
                for kind, op in ops.items()}
        X, Y = [], []  # every term's factors, paired as one sum over their stacked points
        for (kind, power, a, b, sign), c in zip(jumps, penalties):
            if boundary and simply_supported and kind != "val":
                continue
            if a[1] in jump and b[1] in jump:  # an absent trace is identically zero
                u, v = (jump[kd] * half if tr == "avg" and not boundary else jump[kd]
                        for tr, kd in (a, b))
                X += [sign * u, sign * v]
                Y += [v, u]
            X.append((c / int_power(h, power))[:, None, None] * jump[kind])
            Y.append(jump[kind])
        local = _pair(np.concatenate(X, axis=1), np.tile(wts, len(X)), np.concatenate(Y, axis=1))
        local = local.reshape(F, k, nt, k, nt).transpose(0, 1, 3, 2, 4)
        add(diag[sides], local[:, range(k), range(k)])
        if k == 2:
            blocks[face_slot[batch]] = local[:, 1, 0]
    blocks[diag] *= 0.5
    R = space.R
    GR = sp.bsr_matrix((blocks, cols[order], np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]),
                       shape=(n * nt, n * nt)) @ R
    del blocks
    # each transpose counts the entries into rows in column order: both terms are canonical
    Qt = (R.T @ GR).tocsr().T.tocsr()
    del GR
    return Qt.T.tocsr() + Qt


# --------------------------------------------------------------------------
# stiffness and mass
# --------------------------------------------------------------------------

def assemble_stiffness(space, config, elements=None, faces=None):
    """Stiffness matrix of the configured interior penalty form."""
    if min(space.m, config.m) < config.p:
        raise DegreeTooLow(f"the order-{2 * config.p} form needs degree >= {config.p}")
    if config.m != space.m:
        raise ValueError(f"config degree {config.m} != space degree {space.m}")
    return _assemble(space, config.p, config, elements, faces)


assemble_laplace = assemble_biharmonic = assemble_stiffness


def assemble_mass(space):
    """Mass matrix of the reconstructed space (L2 Gram of the shape set):
    R^T M_DG R with M_DG block diagonal."""
    return _assemble(space, 0)


def _smooth_rule(space, dim):
    """The conical rule of dimension ``dim`` for integrands with a smooth
    (non-polynomial) factor: order two above the discrete products, capped
    by the shipped rules of the mesh dimension."""
    return simplex_rule(dim, min(2 * space.m + 2, MAX_ORDER[space.mesh.dim]))


def load_vector(space, f):
    """b[j] = integral of f against shape function j: R^T b_DG."""
    b = np.zeros((space.num_dofs, space.n_terms))
    for _, pts, wts, sides, _, V, _ in _batches(space, _smooth_rule(space, space.mesh.dim), ()):
        fv = np.asarray(f(pts.reshape(-1, pts.shape[2])), dtype=float).reshape(wts.shape)
        np.add.at(b, sides[:, 0], np.einsum("bqa,bq->ba", V[:, 0], wts * fv))
    return space.R.T @ b.ravel()


def _dim_factor(space):
    # 3D trace constants on tetrahedra need roughly twice the face penalty
    # that triangles do; without this the fourth-order spectrum dips below
    # the exact one on coarse cube meshes.
    return space.mesh.dim - 1


# --------------------------------------------------------------------------
# fields and energy norms
# --------------------------------------------------------------------------

class AnalyticField:
    """A smooth scalar field bundled with the derivatives the norms need."""

    def __init__(self, value, gradient=None, laplacian=None):
        self._value = value
        self._gradient = gradient
        self._laplacian = laplacian

    def value(self, pts):
        return np.asarray(self._value(pts), dtype=float)

    def gradient(self, pts):
        if self._gradient is None:
            raise ValueError("field has no gradient callable")
        return np.asarray(self._gradient(pts), dtype=float)

    def laplacian(self, pts):
        if self._laplacian is None:
            raise ValueError("field has no laplacian callable")
        return np.asarray(self._laplacian(pts), dtype=float)


_ANALYTIC = {"val": AnalyticField.value, "grad": AnalyticField.gradient,
             "lap": AnalyticField.laplacian}

# p -> (volume table kind, face jumps), each jump as (table kind, power of
# 1/h, then its symmetric consistency term in the stiffness: an ordered pair
# of (trace, table kind) operands and a sign)
_PAIRINGS = {
    0: ("val", ()),
    1: ("grad", (("val", 1, ("avg", "grad"), ("jump", "val"), -1),)),
    2: ("lap", (("val", 3, ("jump", "val"), ("avg", "gradlap"), +1),
                ("grad", 1, ("avg", "lap"), ("jump", "grad"), -1))),
}


def measure(space, p, fields, l2=False):
    """Values of ``fields`` at every quadrature point of the broken energy
    pairing p, from one pass of :func:`_batches` over the sub-simplices and
    one over the faces.

    A field is a DOF vector, whose values come from R's per-element monomial
    coefficients C as V (O C^T), each kind's operator applied to the
    coefficients first (see :func:`~patchdg.reconstruction.contract`), or
    an AnalyticField.  A difference of fields is integrated
    from the difference of their values (see :func:`energy_norm`).  Returns
    one (values (fields, points, components), weights (points,)) pair per
    term of the pairing: the volume term, then each face jump (the normal
    components summed over the sides), weighted by h^-power.  With ``l2``, a
    last pair holds the volume values of the L2 pairing.  Each term's arrays
    are allocated once, C-contiguous, and every batch is transposed once
    into them at its offset; the analytic values are added on one-sided
    carriers only, since smooth fields do not jump across interior faces.
    """
    exact = [(i, f) for i, f in enumerate(fields) if isinstance(f, AnalyticField)]
    X = np.zeros((space.num_dofs, len(fields)))
    for i, field in enumerate(fields):
        if not isinstance(field, AnalyticField):
            X[:, i] = field
    C = space.coefficients(X).transpose(0, 2, 1)  # (N, n_terms, fields)
    volume, jumps = _PAIRINGS[p]
    topo, dim = space.topology, space.mesh.dim
    # per term: whether its carriers are faces, its table kind and power of 1/h
    terms = [(False, volume, 0), *((True, kind, power) for kind, power, *_ in jumps)]
    terms += [(False, "val", 0)] if l2 else []
    out = [None] * len(terms)
    for faces in (False, True):
        mine = [j for j, (on, _, _) in enumerate(terms) if on == faces]
        if not mine:
            continue
        rule = _smooth_rule(space, dim - faces)
        size = len(rule.weights) * (topo.num_faces if faces else len(space.geometry.sub_owner))
        for j in mine:
            comps = dim if terms[j][1] == "grad" and not faces else 1
            out[j] = np.zeros((len(fields), size, comps)), np.empty(size)
        at, kinds = 0, tuple(dict.fromkeys(terms[j][1] for j in mine))
        for batch, pts, wts, sides, scale, V, ops in _batches(space, rule, kinds, faces=faces):
            (B, k, q), Ct = V.shape[:3], C[sides]
            for j in mine:
                (values, weights), (_, kind, power) = out[j], terms[j]
                v = values[:, at:at + B * q].reshape(len(fields), B, q, -1)
                if kind in ops:  # else identically zero at this degree
                    T = contract(V, *ops[kind], scale, Ct)
                    v[...] = (T.sum(1, keepdims=True) if faces else T).transpose(3, 0, 2, 1)
                for i, u in exact if k == 1 else ():
                    flat = _ANALYTIC[kind](u, pts.reshape(-1, dim)).reshape(B, q, -1)
                    if faces and kind == "grad":
                        flat = np.einsum("bqd,bd->bq", flat, topo.normals[batch])[..., None]
                    v[i] += flat
                weights[at:at + B * q] = (wts / int_power(topo.h_e[batch, None], power)
                                          if faces else wts).ravel()
            at += B * q
    return out


def gram(terms):
    """(fields, fields) weighted sum of pointwise products over (values,
    weights) terms, any iterable of them, taken one at a time."""
    return sum((F * w[:, None]).reshape(len(F), -1) @ F.reshape(len(F), -1).T for F, w in terms)


def energy_product(space, p, fields):
    """Gram matrix of ``fields`` (DOF vectors or AnalyticFields, as in
    :func:`measure`) in the broken energy inner product; its diagonal holds
    the squared broken energy norms.

    p=1: broken grad L2 pairing plus h^-1-weighted value-jump terms over all
    faces.  p=2: broken Laplacian pairing plus h^-3 value jumps and h^-1
    gradient (normal) jumps.  p=0: the element-wise L2 pairing.  The fields
    are evaluated at the quadrature points and their products integrated.
    """
    return gram(measure(space, p, fields))


def energy_norm(space, p, exact=None, vector=None):
    """Broken energy norm of a discrete field, an analytic field, or their
    difference exact - R vector (pass both exact= and vector=): the direct
    integral of the pointwise difference of their measured values."""
    if exact is None and vector is None:
        raise ValueError("need at least one of exact=, vector=")
    zero = np.zeros(space.num_dofs)
    fields = [zero if exact is None else exact, zero if vector is None else vector]
    G = gram((F[:1] - F[1:], w) for F, w in measure(space, p, fields))
    return float(np.sqrt(max(G[0, 0], 0.0)))


def l2_norm(space, exact=None, vector=None):
    """Element-wise L2 norm of a field or a difference (no face terms)."""
    return energy_norm(space, 0, exact, vector)
