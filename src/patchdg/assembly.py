"""Symmetric interior penalty assembly over the reconstructed space.

One table states the broken energy pairing of order 2p: ``_PAIRINGS[p]``
gives its volume table kind and its face jumps with their powers of 1/h
(p = 0 is the L2 pairing, 1 the second-order and 2 the fourth-order one).
:func:`measure` integrates exactly that pairing for norms and Gram
matrices, and :func:`_assemble` builds every matrix from it: the volume
pairing, each jump penalised by its ``FormConfig.penalties`` entry over
h^power, plus the jump's symmetric consistency term from the parallel
``_CONSISTENCY[p]`` (an ordered pair of traces and a sign, each average
formed from the jump's columns).  The mass matrix is p = 0, and
:func:`assemble_stiffness` is the one stiffness for both orders.

One DOF per element: matrix row/column j is the sampled value on element j.
The space is the image of the reconstruction operator R (see
:class:`patchdg.reconstruction.ReconstructedSpace`) on the broken
polynomials U_h, so every matrix is the classical DG matrix on element
monomials pulled back by R: A = R^T A_DG R, M = R^T M_DG R, b = R^T b_DG.

A_DG has a block structure fixed by the topology: one n_terms x n_terms
diagonal block per element and the two off-diagonal blocks of each interior
face.  Each block's slot comes from one sort of the block keys, so the local
blocks of every batch are added in place into one (slots, n_terms, n_terms)
array, with no entry-level triplets or sort; M_DG is block diagonal.  The
products with R run on its (n_terms x 1) blocks.

Volume terms batch over the sub-simplices of the topology's geometry (each
carrying its owner element, so polygons need no separate path), face terms
over the topology's interior faces and then its boundary faces, at most
``CHUNK`` carriers per batch.  A batch carries one Vandermonde of the
n_terms monomials of its elements (both sides of a face at once), so
nothing is grouped by patch size.

Each term is integrated exactly by the rule with the fewest points for its
polynomial degree (:func:`~patchdg.quadrature.cheapest_rule`): the volume
pairing of order 2p pairs two derivatives of order p of degree-m
polynomials, degree 2(m - p), so the fourth-order form at m = 2 needs one
point per sub-simplex; the mass (p = 0) and every face term are taken at
degree 2m, the penalised value jump's.  ``measure`` and ``load_vector``
integrate a smooth factor that no rule integrates exactly, and keep the
conical rules of order 2m + 2.

Every matrix is a plain symmetric ``scipy.sparse`` CSR matrix.  Symmetry is
exact by construction: only the lower triangle of R^T A_DG R is kept, then
mirrored once.  ``scipy.io.mmwrite`` writes one as a coordinate file.

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
from .quadrature import MAX_ORDER, cheapest_rule, face_rule, map_rule, simplex_rule
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


def _volume_batches(space, rule, kinds, elements=None):
    """(owners, points, weights, scales (B, 1), V, operators) per batch of
    sub-simplices, the reference ``rule`` mapped onto each, V and the
    operators the owners' ``factors``."""
    owner = space.geometry.sub_owner
    subs = np.arange(len(owner))
    if elements is not None:
        subs = subs[np.isin(owner, _selection(elements, space.num_dofs))]
    for i in range(0, len(subs), CHUNK):
        batch = subs[i:i + CHUNK]
        pts, wts = map_rule(rule, space.geometry.sub_simplices[batch])
        K, scale = owner[batch], space.scale[owner[batch], None]
        yield (K, pts, wts, scale, *factors(space.origin[K, None], scale, pts, space.m, kinds))


def _face_batches(space, rule, kinds, faces):
    """Per batch of the interior ``faces``, then of the boundary ones: (faces,
    points, weights, normals, h, on_boundary, sides (F, k), scales (F, k),
    V, operators), the reference ``rule`` (of dimension dim - 1) mapped onto
    each face, V and the operators the sides' ``factors``.  The minus
    side's V is negated and vector kinds take the plus side's outward
    normal, so ``contract`` gives each side's jump table, and its values
    summed over the sides are the jumps (on boundary faces, k = 1, the
    plus-side traces)."""
    topo = space.topology
    boundary = topo.sides[faces, 1] < 0
    for on_boundary, part in ((False, faces[~boundary]), (True, faces[boundary])):
        for i in range(0, len(part), CHUNK):
            batch = part[i:i + CHUNK]
            pts, wts = face_rule(rule, space.mesh.vertices[topo.faces[batch]])
            n, sides = topo.normals[batch], topo.sides[batch, :1 if on_boundary else 2]
            scale = space.scale[sides]
            V, ops = factors(space.origin[sides], scale, pts, space.m, kinds, n)
            V[:, 1:] *= -1.0
            yield batch, pts, wts, n, topo.h_e[batch], on_boundary, sides, scale, V, ops


def _assemble(space, p, config=None, elements=None, faces=None):
    """R^T A_DG R as a symmetric CSR matrix for the interior penalty form of
    order 2p: the volume pairing and the penalised jumps of ``_PAIRINGS[p]``
    (penalties from ``config``) plus the consistency terms of
    ``_CONSISTENCY[p]``, over each face's k sides, plus side first.  The
    volume pairing is integrated at degree 2(m - p) and the face terms at
    2m, each by its cheapest exact rule; a face batch's terms are summed by
    one pairing of their factors stacked along the points.  Each block is
    added in place into its slot of A_DG, block diagonal for p = 0.
    Only the lower triangle of the product is kept and then mirrored once,
    so the result is exactly symmetric."""
    n, nt, topo = space.num_dofs, space.n_terms, space.topology
    volume, jumps = _PAIRINGS[p]
    sel = _selection(faces, topo.num_faces) if p else np.zeros(0, dtype=int)
    plus, minus = topo.sides[sel].T
    minus = np.where(minus >= 0, minus, plus)  # a boundary face has one side
    rows = np.concatenate([np.arange(n), plus, plus, minus, minus])
    cols = np.concatenate([np.arange(n), plus, minus, plus, minus])
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    diag, face_slots = slot[:n], np.zeros((topo.num_faces, 2, 2), dtype=int)
    face_slots[sel] = slot[n:].reshape(4, -1).T.reshape(-1, 2, 2)
    blocks = np.zeros((len(keys), nt, nt))

    def add(where, local):  # entry by entry: ufunc.at is much faster on a flat index
        entries = (where.reshape(-1, 1) * nt ** 2 + np.arange(nt ** 2)).ravel()
        np.add.at(blocks.reshape(-1), entries, local.reshape(-1))

    dim, m = space.mesh.dim, space.m
    for K, _, wts, scale, V, ops in _volume_batches(space, cheapest_rule(dim, 2 * (m - p)),
                                                    (volume,), elements):
        T = np.moveaxis(contract(V, *ops[volume], scale), 1, -1)
        add(diag[K], _pair(T, wts, T))
    penalties = [c * _dim_factor(space) for c in config.penalties] if p else []
    terms = list(zip(jumps, _CONSISTENCY[p], penalties))
    kinds = tuple(dict.fromkeys(kind for a, b, _ in _CONSISTENCY[p] for _, kind in (a, b)))
    simply_supported = p > 0 and config.bc == "simply_supported"
    half = np.repeat([0.5, -0.5], nt)  # an interior average from the jump's plus and minus columns
    for batch, _, wts, _, h, boundary, _, scale, V, ops in \
            _face_batches(space, cheapest_rule(dim - 1, 2 * m), kinds, sel):
        F, k, q = V.shape[:3]
        jump = {kind: contract(V, *op, scale).transpose(0, 2, 1, 3).reshape(F, q, k * nt)
                for kind, op in ops.items()}
        X, Y = [], []  # every term's factors, paired as one sum over their stacked points
        for (kind, power), (a, b, sign), c in terms:
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
        add(face_slots[batch, :k, :k], local)
    A_dg = sp.bsr_matrix((blocks, keys % n, np.searchsorted(keys, np.arange(n + 1) * n)),
                         shape=(n * nt, n * nt))
    R = space.R
    L = sp.tril(R.T @ (A_dg @ R), format="csr")
    L.sum_duplicates()
    return L + L.T.tocsr() - sp.diags(L.diagonal())


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
    for K, pts, wts, _, V, _ in _volume_batches(space, _smooth_rule(space, space.mesh.dim), ()):
        fv = np.asarray(f(pts.reshape(-1, pts.shape[2])), dtype=float).reshape(wts.shape)
        np.add.at(b, K, np.einsum("bqa,bq->ba", V[:, 0], wts * fv))
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

# p -> (volume table kind, face jumps as (table kind, power of 1/h))
_PAIRINGS = {
    0: ("val", ()),
    1: ("grad", (("val", 1),)),
    2: ("lap", (("val", 3), ("grad", 1))),
}

# p -> per face jump of _PAIRINGS[p], its symmetric consistency term in the
# stiffness: an ordered pair of (trace, table kind) operands and a sign
_CONSISTENCY = {
    0: (),
    1: ((("avg", "grad"), ("jump", "val"), -1),),
    2: ((("jump", "val"), ("avg", "gradlap"), +1), (("avg", "lap"), ("jump", "grad"), -1)),
}


def measure(space, p, fields, l2=False):
    """Values of ``fields`` at every quadrature point of the broken energy
    pairing p, from one pass over sub-simplices and faces in CHUNKs.

    A field is a DOF vector, whose values come from R's per-element monomial
    coefficients C as V (O C^T), each kind's operator applied to the
    coefficients first (see :func:`~patchdg.reconstruction.contract`), or
    an AnalyticField.  A difference of fields is integrated
    from the difference of their values (see :func:`energy_norm`).  Returns
    one (values (fields, points, components), weights (points,)) pair per
    term of the pairing: the volume term, then each face jump, weighted by
    h^-power (smooth fields do not jump across interior faces).  With
    ``l2``, a last pair holds the volume values of the L2 pairing.
    """
    exact = [f if isinstance(f, AnalyticField) else None for f in fields]
    X = np.zeros((space.num_dofs, len(fields)))
    for i, field in enumerate(fields):
        if exact[i] is None:
            X[:, i] = field
    C = space.coefficients(X).transpose(0, 2, 1)  # (N, n_terms, fields)
    volume, face_terms = _PAIRINGS[p]

    def values(kinds, V, scale, ops, Ct, pts, analytic, normals=None):
        """kind -> (B, q, fields, components) values, each kind's operator
        applied to the coefficients Ct (B, k, n_terms, fields) first; on
        faces, normal components summed over the sides, i.e. the jumps.  The
        analytic parts are added if ``analytic``."""
        out, at = {}, pts.reshape(-1, pts.shape[2])
        for kind in kinds:
            if kind in ops:
                v = contract(V, *ops[kind], scale, Ct)
                v = np.moveaxis(v, 1, -1) if normals is None else v.sum(1)[..., None]
            else:  # identically zero at this degree
                comps = pts.shape[2] if kind == "grad" and normals is None else 1
                v = np.zeros(pts.shape[:2] + (Ct.shape[3], comps))
            for i, u in enumerate(exact if analytic else ()):
                if u is not None:
                    flat = _ANALYTIC[kind](u, at).reshape(pts.shape[:2] + (-1,))
                    if normals is not None and kind == "grad":
                        flat = np.einsum("bqd,bd->bq", flat, normals)
                    v[:, :, i] += flat.reshape(v.shape[:2] + v.shape[3:])
            out[kind] = v
        return out

    kinds = (volume, "val") if l2 and p else (volume,)
    vol = [(values(kinds, V, scale, ops, C[K][:, None], pts, True), wts)
           for K, pts, wts, scale, V, ops in
           _volume_batches(space, _smooth_rule(space, space.mesh.dim), kinds)]
    kinds, faces = tuple(kind for kind, _ in face_terms), []
    every = np.arange(space.topology.num_faces if kinds else 0)
    for _, pts, wts, n, h, boundary, sides, scale, V, ops in \
            _face_batches(space, _smooth_rule(space, space.mesh.dim - 1), kinds, every):
        faces.append((values(kinds, V, scale, ops, C[sides], pts, boundary, n), wts, h[:, None]))
    terms = [[(T[volume], w) for T, w in vol]]
    terms += [[(J[k], w / int_power(h, power)) for J, w, h in faces] for k, power in face_terms]
    terms += [[(T["val"], w) for T, w in vol]] if l2 else []
    # each batch is copied once, into its term's (fields, points, components) array
    stacked = [(np.concatenate([np.moveaxis(v, 2, 0) for v, _ in term], axis=1),
                np.concatenate([w.ravel() for _, w in term])) for term in terms]
    return [(F.reshape(len(F), -1, F.shape[3]), w) for F, w in stacked]


def gram(terms):
    """(fields, fields) weighted sum of pointwise products over (values, weights) terms."""
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
    G = gram([(F[:1] - F[1:], w) for F, w in measure(space, p, fields)])
    return float(np.sqrt(max(G[0, 0], 0.0)))


def l2_norm(space, exact=None, vector=None):
    """Element-wise L2 norm of a field or a difference (no face terms)."""
    return energy_norm(space, 0, exact, vector)
